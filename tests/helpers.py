"""Shared test utilities: corpora, scripted searchers, naive oracles."""

from __future__ import annotations

import random

from tietze.presentation import Presentation, make_presentation
from tietze.randgen import random_reduced_word
from tietze.words import Word, rotate_right, useful_threshold


def random_pair(rng: random.Random, d_max=6, l_max=20) -> tuple[Word, Word]:
    """A random (pattern, text) pair with len(pattern) <= len(text)."""
    d = rng.randint(1, d_max)
    lp = rng.randint(1, l_max)
    lt = rng.randint(lp, l_max)
    return random_reduced_word(rng, d, lp), random_reduced_word(rng, d, lt)


def sparse_presentation(seed: int) -> Presentation:
    """Random presentation with rare natural matches plus one planted overlap.

    Mirrors the regime where successful searches are sparse: useful for
    comparing skip policies, whose search counts are only comparable when
    replacement cascades stay short.
    """
    rng = random.Random(seed)
    d = rng.randint(5, 8)
    q = rng.randint(4, 8)
    words = [random_reduced_word(rng, d, rng.randint(5, 11)) for _ in range(q)]
    if q >= 2:
        i, j = rng.sample(range(q), 2)
        src = min(words[i], words[j], key=len)
        dst = max(words[i], words[j], key=len)
        t = useful_threshold(len(src))
        chunk = (src + src[: t - 1])[:t]
        rest_len = max(1, len(dst) - t)
        tail = random_reduced_word(rng, d, rest_len)
        for _ in range(80):
            if tail[0] != -chunk[-1] and tail[-1] != -chunk[0]:
                break
            tail = random_reduced_word(rng, d, rest_len)
        words[words.index(dst)] = rotate_right(chunk + tail, rng.randrange(t + rest_len))
    return make_presentation(d, words)


def dense_presentation(rng: random.Random, d_max=6, q_max=10, l_max=12) -> Presentation:
    """Small random presentation; matches and cascades are common."""
    d = rng.randint(1, d_max)
    q = rng.randint(0, q_max)
    return make_presentation(
        d, [random_reduced_word(rng, d, rng.randint(1, l_max)) for _ in range(q)]
    )


class ScriptedSearcher:
    """Fake searcher for skip-level tests: shrinks texts with seeded probability.

    Records (relator id, ordinal of the performed search) for every change,
    the format the necessity oracle consumes.
    """

    def __init__(self, seed: int, change_prob: float = 0.2):
        self.rng = random.Random(seed)
        self.change_prob = change_prob
        self.calls = 0
        self.changes: list[tuple[int, int]] = []

    def __call__(self, pres, pattern, text) -> bool:
        ordinal = self.calls
        self.calls += 1
        if text.len > 1 and self.rng.random() < self.change_prob:
            text.set_word(text.word[:-1])
            self.changes.append((text.id, ordinal))
            return True
        return False


def recorded(pass_fn, pres, ctx, searcher):
    """Run one pass driver with a recorder; returns (tally, events)."""
    events = []
    tally = pass_fn(pres, ctx, searcher, events.append)
    return tally, events


def naive_circular_substrings(w: Word) -> set[Word]:
    """All nonempty circular substrings of w, up to length len(w)."""
    out: set[Word] = set()
    n = len(w)
    ext = w + w
    for k in range(1, n + 1):
        for i in range(n):
            out.add(ext[i:i + k])
    return out
