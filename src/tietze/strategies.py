"""Match-level strategies behind one search interface, and their registry.

A strategy answers search(pattern word, text words, counters), which
sees only those words, with one optional Match per text, in order; each
must agree with the exhaustive enumeration of all rotation alignments on
success/failure.  Each is one ``Strategy``: it prepares per-pattern state
(anchor seeds, a ``PatternIndex`` or an automaton), keeps it for the
current pattern word, and scans the whole list with it in one call, which
matches how the engine drives it: one pattern against many texts.

``STRATEGIES`` is the one table of strategy names: it maps each full name
to the CLI flags that select it and to its factory.  The engine, the CLI
choices, the ``bench`` grid (in table order) and the stats ``config``
block all read it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

from .automaton import automaton_search, build_ls_automaton
from .fingerprint import PatternIndex, fingerprint_base, kr_search
from .match import (
    SearchCounters,
    anchor_seeds,
    brute_search,
    compute_signature,
    signature_skip,
)
from .words import Word, extend_front, invert, useful_threshold


class Strategy:
    """One match strategy: ``prepare`` per pattern, ``scan`` per list of texts.

    ``prepare(p_word, counters)`` builds the per-pattern state and
    ``scan(state, p_word, t_words, counters)`` searches every text with
    it, returning one optional Match per text.  ``search`` keeps the state
    of the last pattern word, rebuilding it when the pattern changes, and
    is the one place that checks lengths.  Consecutive calls can carry the
    same pattern tuple, say the last pattern searched in one pass and the
    first in the next, so the cached word is compared by identity before
    by value.
    """

    def __init__(self, prepare: Callable, scan: Callable):
        self.prepare = prepare
        self.scan = scan
        self._last: tuple[Word, object] | None = None

    def search(self, p_word, t_words, counters: SearchCounters):
        if not 1 <= len(p_word) <= min(map(len, t_words), default=0):
            raise ValueError("search requires texts, and 1 <= |pattern| <= |text| for each")
        last = self._last
        if last is None or (last[0] is not p_word and last[0] != p_word):
            last = self._last = (p_word, self.prepare(p_word, counters))
        return self.scan(last[1], p_word, t_words, counters)


def _seeds(p_word, counters):
    return anchor_seeds(p_word)


def _signature(*_) -> Strategy:
    """Signature pre-filter in front of the brute search."""
    signature = lru_cache(maxsize=None)(compute_signature)

    def scan(seeds, p_word, t_words, counters):
        sig_p, threshold = signature(p_word), useful_threshold(len(p_word))
        found: list = [None] * len(t_words)
        at = [i for i, t in enumerate(t_words)
              if not signature_skip(sig_p, signature(t), threshold)]
        for i, m in zip(at, brute_search(seeds, p_word, [t_words[i] for i in at], counters)):
            found[i] = m
        return found

    return Strategy(_seeds, scan)


def _karp_rabin(backing: str):
    def build(seed, bloom_log2_size) -> Strategy:
        base = fingerprint_base(seed)
        return Strategy(lambda p_word, _: PatternIndex(p_word, backing, base, bloom_log2_size),
                        kr_search)

    return build


def _automaton(mode: str):
    def prepare(p_word, counters):
        ext = useful_threshold(len(p_word)) - 1
        bases = (p_word, invert(p_word)) if mode == "two" else (p_word,)
        counters.automata_built += len(bases)
        return build_ls_automaton(*(extend_front(w, ext) for w in bases))

    return lambda *_: Strategy(prepare, automaton_search)


class StrategySpec(NamedTuple):
    """How the CLI selects a strategy, and how to build it."""

    flags: tuple[str, int, str]  # --match, --bloom-bits, --automata
    build: Callable  # (seed, bloom_log2_size) -> Strategy


STRATEGIES: dict[str, StrategySpec] = {
    "brute": StrategySpec(("brute", 3, "two"), lambda *_: Strategy(_seeds, brute_search)),
    "signature": StrategySpec(("signature", 3, "two"), _signature),
    "kr-hash": StrategySpec(("kr-hash", 3, "two"), _karp_rabin("exact")),
    "kr-bloom3": StrategySpec(("kr-bloom", 3, "two"), _karp_rabin("bloom3")),
    "kr-bloom4": StrategySpec(("kr-bloom", 4, "two"), _karp_rabin("bloom4")),
    "automaton-two": StrategySpec(("automaton", 3, "two"), _automaton("two")),
    "automaton-one": StrategySpec(("automaton", 3, "one"), _automaton("one")),
}


def make_strategy(name: str, seed: int = 0, bloom_log2_size: int = 16) -> Strategy:
    return STRATEGIES[name].build(seed, bloom_log2_size)
