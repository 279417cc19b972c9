from collections import Counter

import pytest

from tietze import strategies
from tietze.match import SearchCounters
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
        strategy.search(pattern, text, c)
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
        strategy.search(W("abc"), W("ab"), SearchCounters())
    with pytest.raises(ValueError):
        strategy.search((), W("ab"), SearchCounters())
