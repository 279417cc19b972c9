"""Seeded random presentation generation for benchmarks and tests."""

from __future__ import annotations

import random

from .presentation import Presentation, make_presentation
from .words import Word, rotate_right

PROFILES = ("generic", "small-alphabet-long")


def random_reduced_word(rng: random.Random, d: int, length: int) -> Word:
    """A freely and cyclically reduced word of exactly the given length."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if length == 1:
        s = rng.randint(1, d)
        return (s if rng.random() < 0.5 else -s,)
    while True:
        out: list[int] = []
        for i in range(length):
            while True:
                s = rng.randint(1, d)
                if rng.random() < 0.5:
                    s = -s
                if out and s == -out[-1]:
                    continue
                if i == length - 1 and s == -out[0]:
                    continue
                break
            out.append(s)
        if d == 1 and out[-1] == -out[0]:
            continue  # single-generator lengths can dead-end; retry
        return tuple(out)


def _join_reduced(rng: random.Random, d: int, left: Word, right_len: int) -> Word:
    """left + fresh random tail, with both seams reduction-free."""
    while True:
        tail = random_reduced_word(rng, d, right_len)
        if tail[0] != -left[-1] and tail[-1] != -left[0]:
            return left + tail


def random_presentation(seed_or_rng, d: int, q: int, maxlen: int,
                        profile: str = "generic") -> Presentation:
    rng = seed_or_rng if isinstance(seed_or_rng, random.Random) else random.Random(seed_or_rng)
    if d < 1 or q < 0 or maxlen < 1:
        raise ValueError("need d >= 1, q >= 0, maxlen >= 1")
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    if profile == "small-alphabet-long" and maxlen < 4:
        # a relator holds the motif (>= 2 symbols) and >= 2 more
        raise ValueError("small-alphabet-long needs maxlen >= 4")
    words: list[Word] = []
    if profile == "generic":
        for _ in range(q):
            words.append(random_reduced_word(rng, d, rng.randint(1, maxlen)))
    else:
        # few generators, long relators, one shared motif rotated into each
        # relator so that useful matches (and hence true fingerprint
        # matches) exist alongside heavy filter load
        motif_len = max(2, int(maxlen * 0.55))
        motif = random_reduced_word(rng, d, motif_len)
        for _ in range(q):
            length = rng.randint(max(motif_len + 2, int(maxlen * 0.9)), maxlen)
            w = _join_reduced(rng, d, motif, length - motif_len)
            words.append(rotate_right(w, rng.randrange(length)))
    return make_presentation(d, words)
