"""Match-level strategies behind one search interface, and their registry.

A strategy answers search(pattern word, text word, counters), which
sees only the two words, with an optional Match and must agree with the
exhaustive enumeration of all rotation alignments on success/failure.
Strategies that precompute per-pattern state (indexes, automata) cache
it for the current pattern word, which matches how the engine drives
them: one pattern against many texts.

``STRATEGIES`` is the one table of strategy names: it maps each full name
to the CLI flags that select it and to its factory.  The engine, the CLI
choices, the ``bench`` grid (in table order) and the stats ``config``
block all read it.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

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

class BruteStrategy:
    def __init__(self):
        self._seeds: tuple[Word, list] | None = None

    def search(self, p_word, t_word, counters):
        if self._seeds is None or self._seeds[0] != p_word:
            self._seeds = (p_word, anchor_seeds(p_word))
        return brute_search(p_word, t_word, counters, self._seeds[1])


class SignatureStrategy(BruteStrategy):
    """Signature pre-filter in front of the brute search."""

    def __init__(self):
        super().__init__()
        self._cache: dict[Word, int] = {}

    def _sig(self, w: Word) -> int:
        s = self._cache.get(w)
        if s is None:
            s = compute_signature(w)
            self._cache[w] = s
        return s

    def search(self, p_word, t_word, counters):
        if signature_skip(self._sig(p_word), self._sig(t_word), useful_threshold(len(p_word))):
            return None
        return super().search(p_word, t_word, counters)


class KarpRabinStrategy:
    def __init__(self, backing: str, seed: int = 0, bloom_log2_size: int = 16):
        self.backing = backing
        self.params = FingerprintParams.from_seed(seed)
        self.bloom_log2_size = bloom_log2_size
        self._cached: tuple[Word, PatternIndex] | None = None

    def _index(self, p_word: Word) -> PatternIndex:
        if self._cached is None or self._cached[0] != p_word:
            idx = PatternIndex(p_word, self.backing, self.params, self.bloom_log2_size)
            self._cached = (p_word, idx)
        return self._cached[1]

    def search(self, p_word, t_word, counters):
        return kr_search(self._index(p_word), p_word, t_word, counters)


class AutomatonStrategy:
    def __init__(self, mode: str = "two"):
        if mode not in ("one", "two"):
            raise ValueError(f"unknown automaton mode {mode!r}")
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

    def search(self, p_word, t_word, counters):
        automata = self._automata(p_word, counters)
        return automaton_search(p_word, t_word, counters, automata)


class StrategySpec(NamedTuple):
    """How the CLI selects a strategy, and how to build it."""

    flags: tuple[str, int, str]  # --match, --bloom-bits, --automata
    build: Callable  # (seed, bloom_log2_size) -> strategy


STRATEGIES: dict[str, StrategySpec] = {
    "brute": StrategySpec(("brute", 3, "two"), lambda *_: BruteStrategy()),
    "signature": StrategySpec(("signature", 3, "two"), lambda *_: SignatureStrategy()),
    "kr-hash": StrategySpec(("kr-hash", 3, "two"), partial(KarpRabinStrategy, "exact")),
    "kr-bloom3": StrategySpec(("kr-bloom", 3, "two"), partial(KarpRabinStrategy, "bloom3")),
    "kr-bloom4": StrategySpec(("kr-bloom", 4, "two"), partial(KarpRabinStrategy, "bloom4")),
    "automaton-two": StrategySpec(("automaton", 3, "two"), lambda *_: AutomatonStrategy("two")),
    "automaton-one": StrategySpec(("automaton", 3, "one"), lambda *_: AutomatonStrategy("one")),
}


def make_strategy(name: str, seed: int = 0, bloom_log2_size: int = 16):
    return STRATEGIES[name].build(seed, bloom_log2_size)
