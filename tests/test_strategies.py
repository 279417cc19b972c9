import random
from collections import Counter

import pytest

from helpers import batch_per_text, mixed_batch
from tietze import strategies
from tietze.match import SearchCounters
from tietze.randgen import random_reduced_word
from tietze.strategies import STRATEGIES, make_strategy
from tietze.words import word_from_letters

W = word_from_letters


@pytest.mark.parametrize("name", list(STRATEGIES))
def test_state_is_built_once_per_pattern_change(monkeypatch, name):
    """The pattern sequence A, A, B, A builds per-pattern state 3 times."""
    built = Counter()
    for attr in ("anchor_seeds", "PatternIndex"):
        real = getattr(strategies, attr)

        def counting(*args, attr=attr, real=real):
            built[attr] += 1
            return real(*args)

        monkeypatch.setattr(strategies, attr, counting)
    strategy = make_strategy(name)
    c = SearchCounters()
    text = W("cabdacBA")
    for pattern in (W("abc"), W("abc"), W("abd"), W("abc")):
        strategy.search(pattern, [text], c)[0]
    if name.startswith("automaton"):
        assert c.automata_built == 3 * (2 if name == "automaton-two" else 1)
        assert not built
    elif name.startswith("kr-"):
        assert built == {"PatternIndex": 3}
    else:
        assert built == {"anchor_seeds": 3}


@pytest.mark.parametrize("name", list(STRATEGIES))
def test_search_rejects_invalid_lengths(name):
    strategy = make_strategy(name)
    with pytest.raises(ValueError):
        strategy.search(W("abc"), [W("ab")], SearchCounters())[0]
    with pytest.raises(ValueError):
        strategy.search((), [W("ab")], SearchCounters())[0]
    with pytest.raises(ValueError):
        strategy.search(W("ab"), [W("abc"), W("a")], SearchCounters())
    with pytest.raises(ValueError):
        strategy.search(W("ab"), [], SearchCounters())


@pytest.mark.parametrize("name", list(STRATEGIES))
def test_batch_scan_equals_one_text_batches(name):
    # one call scans a mixed batch; each text's Match and counters inside it
    # equal those of the text searched alone, whatever came before it
    rng = random.Random(71)

    def make():
        return make_strategy(name, seed=5, bloom_log2_size=6)

    seen = Counter()
    for _ in range(150):
        d = rng.randint(1, 4)
        p = random_reduced_word(rng, d, rng.randint(1, 12))
        texts = mixed_batch(rng, p, d)
        alone = make()
        alone.search(p, [p], SearchCounters())
        for t, (m, counts) in zip(texts, batch_per_text(make, p, texts)):
            c = SearchCounters()
            assert alone.search(p, [t], c)[0] == m
            assert c.to_dict() == counts
            seen["miss" if m is None else "inverted" if m.inverted else "hit"] += 1
            seen["equal length"] += len(t) == len(p)
    assert min(seen.values()) > 100, seen
