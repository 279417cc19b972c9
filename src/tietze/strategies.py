"""Pluggable match-level strategies behind one search interface.

A strategy answers search(pattern word, text word, involutions, counters)
with an optional Match and must agree with the exhaustive oracle on
success/failure.  Strategies that precompute per-pattern state (indexes,
automata) cache it for the current pattern word, which matches how the
engine drives them: one pattern against many texts.
"""

from __future__ import annotations

from .automaton import LSAutomaton, automaton_search, build_ls_automaton
from .fingerprint import FingerprintParams, PatternIndex, kr_search
from .match import (
    SearchCounters,
    anchor_seeds,
    brute_search,
    compute_signature,
    signature_skip,
)
from .words import Word, extend_front, invert, useful_threshold

STRATEGY_NAMES = (
    "brute",
    "signature",
    "kr-hash",
    "kr-bloom3",
    "kr-bloom4",
    "automaton-two",
    "automaton-one",
)


class BruteStrategy:
    name = "brute"

    def __init__(self):
        self._seeds: tuple[Word, list] | None = None

    def search(self, p_word, t_word, involutions, counters):
        if self._seeds is None or self._seeds[0] != p_word:
            self._seeds = (p_word, anchor_seeds(p_word))
        return brute_search(p_word, t_word, involutions, counters, self._seeds[1])


class SignatureStrategy(BruteStrategy):
    """Signature pre-filter in front of the brute search."""

    name = "signature"

    def __init__(self):
        super().__init__()
        self._cache: dict[Word, int] = {}

    def _sig(self, w: Word) -> int:
        s = self._cache.get(w)
        if s is None:
            s = compute_signature(w)
            self._cache[w] = s
        return s

    def search(self, p_word, t_word, involutions, counters):
        if signature_skip(self._sig(p_word), self._sig(t_word), useful_threshold(len(p_word))):
            return None
        return super().search(p_word, t_word, involutions, counters)


class KarpRabinStrategy:
    def __init__(self, backing: str, params: FingerprintParams, bloom_log2_size: int = 16):
        self.name = {"exact": "kr-hash", "bloom3": "kr-bloom3", "bloom4": "kr-bloom4"}[backing]
        self.backing = backing
        self.params = params
        self.bloom_log2_size = bloom_log2_size
        self._cached: tuple[Word, PatternIndex] | None = None

    def _index(self, p_word: Word) -> PatternIndex:
        if self._cached is None or self._cached[0] != p_word:
            idx = PatternIndex(p_word, self.backing, self.params, self.bloom_log2_size)
            self._cached = (p_word, idx)
        return self._cached[1]

    def search(self, p_word, t_word, involutions, counters):
        return kr_search(self._index(p_word), p_word, t_word, counters)


class AutomatonStrategy:
    def __init__(self, mode: str = "two"):
        if mode not in ("one", "two"):
            raise ValueError(f"unknown automaton mode {mode!r}")
        self.name = f"automaton-{mode}"
        self.mode = mode
        self._cached: tuple[Word, tuple[LSAutomaton, ...]] | None = None

    def _automata(self, p_word: Word, counters: SearchCounters) -> tuple[LSAutomaton, ...]:
        if self._cached is None or self._cached[0] != p_word:
            ext = useful_threshold(len(p_word)) - 1
            auts = [build_ls_automaton(extend_front(p_word, ext))]
            if self.mode == "two":
                auts.append(build_ls_automaton(extend_front(invert(p_word), ext)))
            counters.automata_built += len(auts)
            self._cached = (p_word, tuple(auts))
        return self._cached[1]

    def search(self, p_word, t_word, involutions, counters):
        automata = self._automata(p_word, counters)
        return automaton_search(p_word, t_word, self.mode, counters, automata)


def make_strategy(name: str, seed: int = 0, bloom_log2_size: int = 16):
    params = FingerprintParams.from_seed(seed)
    if name == "brute":
        return BruteStrategy()
    if name == "signature":
        return SignatureStrategy()
    if name == "kr-hash":
        return KarpRabinStrategy("exact", params, bloom_log2_size)
    if name == "kr-bloom3":
        return KarpRabinStrategy("bloom3", params, bloom_log2_size)
    if name == "kr-bloom4":
        return KarpRabinStrategy("bloom4", params, bloom_log2_size)
    if name == "automaton-two":
        return AutomatonStrategy("two")
    if name == "automaton-one":
        return AutomatonStrategy("one")
    raise ValueError(f"unknown match strategy {name!r}")
