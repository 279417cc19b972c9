"""Match-level strategies behind one search interface, and their registry.

A strategy answers search(pattern word, text words, counters), which
sees only those words, with one optional Match per text, in order; each
must agree with the exhaustive enumeration of all rotation alignments on
success/failure.  Each is one ``Strategy``: a search function that
builds the pattern's state (anchor seeds, a ``PatternIndex`` or an
automaton) at the top of each call and scans the whole list with it, as
the engine drives it: one pattern against many texts.  No pattern state
outlives its call; the signature memo maps one word to its signature.

``STRATEGIES`` is the one table of strategy names: it maps each full name
to the CLI flags that select it and to its builder.  The engine, the CLI
choices, the ``bench`` grid (in table order) and the stats ``config``
block all read it.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, NamedTuple

from .automaton import automaton_search, build_ls_automaton
from .fingerprint import PatternIndex, fingerprint_base, kr_search
from .match import SearchCounters, brute_search, compute_signature, signature_skip
from .words import invert, useful_threshold


class Strategy(NamedTuple):
    """One match strategy: ``find(p_word, t_words, counters)``, one optional
    Match per text, behind the one length guard in ``search``."""

    find: Callable

    def search(self, p_word, t_words, counters: SearchCounters):
        if not 1 <= len(p_word) <= min(map(len, t_words), default=0):
            raise ValueError("search requires texts, and 1 <= |pattern| <= |text| for each")
        return self.find(p_word, t_words, counters)


def _signature(signature, p_word, t_words, counters):
    """Signature pre-filter in front of the brute search; ``signature``
    is ``compute_signature``, memoized for one strategy."""
    sig_p, threshold = signature(p_word), useful_threshold(len(p_word))
    found: list = [None] * len(t_words)
    at = [i for i, t in enumerate(t_words)
          if not signature_skip(sig_p, signature(t), threshold)]
    for i, m in zip(at, brute_search(p_word, [t_words[i] for i in at], counters)):
        found[i] = m
    return found


def _karp_rabin(backing, base, bloom_log2_size, p_word, t_words, counters):
    """``kr_search`` over a ``PatternIndex`` of the pattern built for this call."""
    idx = PatternIndex(p_word, backing, base, bloom_log2_size)
    return kr_search(idx, p_word, t_words, counters)


def _automata(words, p_word, t_words, counters):
    """``automaton_search`` over an automaton built for this call, of the
    pattern's inverse and, when ``words`` is 2, of the pattern, each with
    its last threshold - 1 symbols also written in front."""
    cut = len(p_word) - useful_threshold(len(p_word)) + 1
    bases = (invert(p_word), p_word) if words == 2 else (invert(p_word),)
    counters.automata_built += words
    automaton = build_ls_automaton(*(w[cut:] + w for w in bases))
    return automaton_search(automaton, p_word, t_words, counters)


class StrategySpec(NamedTuple):
    """How the CLI selects a strategy, and how to build its search function."""

    flags: tuple[str, int, str]  # --match, --bloom-bits, --automata
    build: Callable  # (seed, bloom_log2_size) -> find(p_word, t_words, counters)


def _kr_build(backing: str, seed: int, bloom_log2_size: int) -> Callable:
    return partial(_karp_rabin, backing, fingerprint_base(seed), bloom_log2_size)


STRATEGIES: dict[str, StrategySpec] = {
    "brute": StrategySpec(("brute", 3, "two"), lambda *_: brute_search),
    "signature": StrategySpec(("signature", 3, "two"), lambda *_: partial(
        _signature, lru_cache(maxsize=None)(compute_signature))),
    "kr-hash": StrategySpec(("kr-hash", 3, "two"), partial(_kr_build, "exact")),
    "kr-bloom3": StrategySpec(("kr-bloom", 3, "two"), partial(_kr_build, "bloom3")),
    "kr-bloom4": StrategySpec(("kr-bloom", 4, "two"), partial(_kr_build, "bloom4")),
    "automaton-two": StrategySpec(("automaton", 3, "two"), lambda *_: partial(_automata, 2)),
    "automaton-one": StrategySpec(("automaton", 3, "one"), lambda *_: partial(_automata, 1)),
}


def make_strategy(name: str, seed: int = 0, bloom_log2_size: int = 16) -> Strategy:
    return Strategy(STRATEGIES[name].build(seed, bloom_log2_size))
