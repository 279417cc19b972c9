import random
from collections import Counter

import pytest

from helpers import batch_per_text, dense_presentation, mixed_batch, squares_words
from tietze import engine, match, strategies
from tietze.engine import EngineConfig, simplify
from tietze.match import SearchCounters
from tietze.presentation import make_presentation, serialize_presentation
from tietze.randgen import random_presentation, random_reduced_word
from tietze.skip import POLICY_NAMES
from tietze.strategies import STRATEGIES, make_strategy
from tietze.words import word_from_letters

W = word_from_letters


@pytest.mark.parametrize("name", list(STRATEGIES))
def test_state_is_built_once_per_pattern_change(monkeypatch, name):
    """The pattern sequence A, A, B, A builds per-pattern state 4 times.

    A strategy keeps no pattern state between calls, so a repeated
    pattern builds again.  The index and the automaton are built through
    the names the benchmark's tracer wraps; the brute scan finds its
    anchors itself.
    """
    built = Counter()
    for module, attr in ((match, "anchor_seeds"), (strategies, "PatternIndex"),
                         (strategies, "build_ls_automaton")):
        real = getattr(module, attr)

        def counting(*args, attr=attr, real=real):
            built[attr] += 1
            return real(*args)

        monkeypatch.setattr(module, attr, counting)
    strategy = make_strategy(name)
    c = SearchCounters()
    text = W("cabdacBA")
    for pattern in (W("abc"), W("abc"), W("abd"), W("abc")):
        strategy.search(pattern, [text], c)[0]
    if name.startswith("automaton"):
        assert c.automata_built == 4 * (2 if name == "automaton-two" else 1)
        assert built == {"build_ls_automaton": 4}
    elif name.startswith("kr-"):
        assert built == {"PatternIndex": 4}
    else:
        assert built == {"anchor_seeds": 4}


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
        for i, (t, (m, counts)) in enumerate(zip(texts, batch_per_text(make, p, texts))):
            c = SearchCounters()
            assert alone.search(p, [t], c)[0] == m
            if i:  # the batch counted its one build with its first text
                c.automata_built = 0
            assert c.to_dict() == counts
            seen["miss" if m is None else "inverted" if m.inverted else "hit"] += 1
            seen["equal length"] += len(t) == len(p)
    assert min(seen.values()) > 100, seen


@pytest.mark.parametrize("name, words", [("automaton-two", 2), ("automaton-one", 1)])
def test_every_search_call_builds_its_automaton(monkeypatch, name, words):
    """On full runs, automata_built is the indexed words times the search calls."""
    calls = [0]
    make = engine.make_strategy

    class Counted:
        def __init__(self, inner):
            self.inner = inner

        def search(self, *args):
            calls[0] += 1
            return self.inner.search(*args)

    monkeypatch.setattr(engine, "make_strategy", lambda *a: Counted(make(*a)))
    rng = random.Random(8)
    for _ in range(20):
        pres = make_presentation(4, [random_reduced_word(rng, 4, rng.randint(6, 16))
                                     for _ in range(30)])
        calls[0] = 0
        _, stats = simplify(pres, EngineConfig(match_strategy=name, skip_policy="ts-unsorted"))
        assert calls[0] > 0
        assert stats.counters.automata_built == words * calls[0]


# the strategies that return the first key window's Match: the least text
# window start, the pattern before its inverse, then the least pattern start
WINDOW_RULE = ("kr-hash", "kr-bloom3", "kr-bloom4", "automaton-two")


def test_window_rule_strategies_return_one_match():
    rng = random.Random(5)
    # a small Bloom filter: false hits too must confirm the same window
    searchers = [make_strategy(name, bloom_log2_size=8) for name in WINDOW_RULE]
    seen = Counter()
    for _ in range(2000):  # 20,000 pairs: each pattern against 10 texts
        d = rng.randint(1, 4)
        p = random_reduced_word(rng, d, rng.randint(1, 14))
        texts = [random_reduced_word(rng, d, rng.randint(len(p), 20)) for _ in range(10)]
        found = [s.search(p, texts, SearchCounters()) for s in searchers]
        assert found == [found[0]] * len(found), (p, texts)
        seen.update("miss" if m is None else "inverted" if m.inverted else "hit"
                    for m in found[0])
    assert min(seen.values()) > 2000, seen


def test_window_rule_strategies_run_identically():
    # same rewrites, so the same output, stats and reorders under every
    # policy; squares make involutions, which the runs normalize
    rng = random.Random(27)
    corpus = []
    for i in range(40):
        corpus.append(random_presentation(rng, rng.randint(2, 5), rng.randint(4, 12), 10))
        corpus.append(dense_presentation(rng))
        corpus.append(make_presentation(*squares_words(rng)))
    involutions = 0
    for pres in corpus:
        for policy in POLICY_NAMES:
            runs = []
            for name in WINDOW_RULE:
                out, stats = simplify(pres.clone(),
                                      EngineConfig(match_strategy=name, skip_policy=policy))
                runs.append((serialize_presentation(out), stats.to_dict(), stats.reorders))
                involutions += bool(out.involutions)
            assert runs == [runs[0]] * len(runs), (serialize_presentation(pres), policy)
    assert involutions > 40, involutions
