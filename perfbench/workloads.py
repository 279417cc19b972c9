"""Seeded corpora and fixed configurations for the three workloads.

Each workload is one corpus family plus one configuration of
``tietze simplify``.  The corpus depends only on the seed; the program sees
nothing but the presentation files written from it.  Why each workload
exists is recorded in NOTES.md next to this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

Word = tuple[int, ...]

# Fibonacci group F(2,7) = <x1..x7 | x_i x_{i+1} = x_{i+2}> is cyclic of
# order 29, so every presentation obfuscated from it has these invariants.
FIB_N = 7
FIB_INVARIANTS = ([29], 0)
ELIMINATE_ADDED_GENS = 80


def reduce_word(w: Word) -> Word:
    """Free and cyclic reduction; the benchmark's own, not the program's."""
    out: list[int] = []
    for s in w:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    i, j = 0, len(out)
    while j - i >= 2 and out[i] == -out[j - 1]:
        i += 1
        j -= 1
    return tuple(out[i:j])


def _invert(w: Word) -> Word:
    return tuple(-s for s in reversed(w))


def _random_word(rng: random.Random, d: int, length: int) -> Word:
    """A freely reduced word (not necessarily cyclically reduced)."""
    out: list[int] = []
    while len(out) < length:
        s = rng.randint(1, d) * rng.choice((1, -1))
        if not out or s != -out[-1]:
            out.append(s)
    return tuple(out)


def obfuscated_fibonacci(rng: random.Random, added: int = ELIMINATE_ADDED_GENS
                         ) -> tuple[int, list[Word]]:
    """F(2,7) hidden behind seeded inverse Tietze moves only.

    1. Add generators y_j with defining relators y_j^-1 w_j, where w_j is a
       word in the generators that exist before y_j.
    2. Replace relator a by a.c.b.c^-1 for another relator b (b is kept, so
       a is again a consequence of the new relator and b).
    Neither move changes the group, so the answer is known: abelian
    invariants ([29], 0).
    """
    d = FIB_N
    rels: list[Word] = [(i + 1, (i + 1) % d + 1, -((i + 2) % d + 1)) for i in range(d)]
    for _ in range(added):
        w = _random_word(rng, d, rng.randint(2, 4))
        d += 1
        rels.append(reduce_word((-d,) + w))
    for _ in range(len(rels)):
        a, b = rng.sample(range(len(rels)), 2)
        c = _random_word(rng, d, rng.randint(1, 3))
        new = reduce_word(rels[a] + c + rels[b] + _invert(c))
        if new:
            rels[a] = new
    rng.shuffle(rels)
    return d, rels


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple[str, ...]       # simplify flags; the rest are CLI defaults
    corpus_size: int             # presentations per corpus
    # (rng, tietze.randgen module) -> (generator count, relators)
    make: Callable[[random.Random, object], tuple[int, list[Word]]]
    # known invariants of every input, or None to compute them per input
    known_invariants: tuple[list[int], int] | None = None


def _motif(rng, randgen):
    # The ROADMAP's s120 family: 3 generators, 120 relators of length
    # 108-120 sharing a planted motif.
    p = randgen.random_presentation(rng.getrandbits(32), 3, 120, 120, "small-alphabet-long")
    return p.d, [r.word for r in p.rel]


def _eliminate(rng, randgen):
    return obfuscated_fibonacci(rng)


def _dense(rng, randgen):
    return 4, [randgen.random_reduced_word(rng, 4, rng.randint(6, 16)) for _ in range(300)]


WORKLOADS = {w.name: w for w in (
    Workload("motif", ("--match", "kr-hash", "--skip", "ts-sorted"), 5, _motif),
    Workload("eliminate", (), 12, _eliminate, FIB_INVARIANTS),
    Workload("dense", ("--match", "automaton", "--automata", "two", "--skip", "ts-unsorted"),
             36, _dense),
)}


def make_corpus(workload: Workload, seed: int, randgen) -> list[tuple[int, list[Word]]]:
    rng = random.Random(seed)
    return [workload.make(random.Random(rng.getrandbits(64)), randgen)
            for _ in range(workload.corpus_size)]


def presentation_text(d: int, rels: list[Word]) -> str:
    """The numeric file format the CLI reads (``gens d`` then ``rel`` lines)."""
    return "".join([f"gens {d}\n"] + ["rel " + " ".join(map(str, w)) + "\n" for w in rels])


def read_presentation(text: str) -> tuple[int, list[Word]]:
    """(generator count, relators) of a file in the numeric format.

    The benchmark reads outputs itself because the program's parser
    rejects the ``gens 0`` file it writes for the trivial group.
    """
    d, rels = 0, []
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0] == "gens":
            d = int(fields[1])
        elif fields and fields[0] == "rel":
            rels.append(tuple(map(int, fields[1:])))
    return d, rels
