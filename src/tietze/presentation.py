"""Presentation data model: generators, involutions and the relator sequence.

The file format is line oriented UTF-8:

    # comment and blank lines are ignored
    gens <d>              exactly once, first significant line, d >= 0
    rel <s1> <s2> ...     one relator, nonzero signed integers, |s| <= d
    relw <letters>        letter form (a=1 ... z=26, uppercase = inverse),
                          only accepted when d <= 26

Serialization always emits the numeric ``rel`` form.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from .words import Word, canonical_rep, reduce_cyclic_word, word_from_letters


class ParseError(ValueError):
    """Raised on a malformed presentation file; carries the line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass
class RelatorRecord:
    """A relator with stable identity and the two search timestamps.

    ``tp`` is the last time the relator was used as a pattern, ``ts`` the
    last time it was changed; their value domain depends on the active
    skip policy.  The word is always freely and cyclically reduced.  Two
    caches hang off it, both built on first use: the canonical form and
    the generator counts, with the generators occurring once and the
    shape (length, sorted count values).  A rotation or an inverse of a
    word has the word's shape, so unequal shapes prove two relators
    distinct without a canonical form.  Only ``set_word``, which drops
    both caches, and ``relabel``, which maps both, write ``word``; a
    relabelling keeps every count value, so the shape stays.
    """

    id: int
    word: Word
    tp: int = -1
    ts: int = 0
    _canonical: Word | None = field(default=None, init=False, repr=False, compare=False)
    _counts: dict[int, int] | None = field(default=None, init=False, repr=False, compare=False)
    _once: tuple[int, ...] = field(default=(), init=False, repr=False, compare=False)
    _shape: tuple[int, tuple[int, ...]] = field(default=(0, ()), init=False, repr=False,
                                                compare=False)

    def set_word(self, word: Word) -> None:
        self.word = word
        self._canonical = None
        self._counts = None

    def relabel(self, table: list[int]) -> None:
        """Map every symbol s to ``table[s]`` (negative s index from the end).

        ``table`` must be strictly increasing on the signed symbols of the
        word and commute with inversion (``table[-s] == -table[s]``).  Such
        a map preserves the lexicographic order of the word's equivalents,
        so the mapped canonical form is still the least one.
        """
        relabelled = table.__getitem__
        self.word = tuple(map(relabelled, self.word))
        if self._canonical is not None:
            self._canonical = tuple(map(relabelled, self._canonical))
        if self._counts is not None:
            self._counts = {table[g]: c for g, c in self._counts.items()}
            self._once = tuple(map(relabelled, self._once))

    def canonical(self) -> Word:
        if self._canonical is None:
            self._canonical = canonical_rep(self.word)
        return self._canonical

    def counts(self) -> dict[int, int]:
        """Occurrences of each generator in the word, either sign."""
        if self._counts is None:
            self._counts = Counter(map(abs, self.word))
            self._once = tuple(g for g, c in self._counts.items() if c == 1)
            self._shape = (len(self.word), tuple(sorted(self._counts.values())))
        return self._counts

    def once(self) -> tuple[int, ...]:
        """The generators occurring exactly once, in order of first occurrence."""
        self.counts()
        return self._once

    def shape(self) -> tuple[int, tuple[int, ...]]:
        """(length, sorted generator counts), equal for equivalent words."""
        self.counts()
        return self._shape


@dataclass
class Presentation:
    """Generator count, involution set and the ordered relator sequence."""

    d: int
    involutions: set[int] = field(default_factory=set)
    rel: list[RelatorRecord] = field(default_factory=list)
    next_id: int = 0

    def add_relator(self, word: Word) -> RelatorRecord:
        word = reduce_cyclic_word(word)
        rec = RelatorRecord(self.next_id, word)
        self.next_id += 1
        self.rel.append(rec)
        return rec

    def total_length(self) -> int:
        return sum(len(r.word) for r in self.rel)

    def words(self) -> list[Word]:
        return [r.word for r in self.rel]

    def is_sorted(self) -> bool:
        return all(len(self.rel[i].word) <= len(self.rel[i + 1].word)
                   for i in range(len(self.rel) - 1))

    def clone(self) -> "Presentation":
        p = Presentation(self.d, set(self.involutions), [], self.next_id)
        p.rel = [RelatorRecord(r.id, r.word, r.tp, r.ts) for r in self.rel]
        return p


def make_presentation(d: int, relators: Iterable[Word]) -> Presentation:
    """Build a normalized presentation from raw relator words."""
    p = Presentation(d)
    for w in relators:
        for s in w:
            if s == 0 or abs(s) > d:
                raise ValueError(f"symbol {s} out of range for {d} generators")
        rec = p.add_relator(w)
        if len(rec.word) == 0:
            p.rel.pop()
    normalize_involutions(p)
    return p


def parse_presentation(text: str) -> Presentation:
    """Parse the file format above into a normalized Presentation."""
    pres: Presentation | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        if pres is None:
            if kind != "gens":
                raise ParseError(lineno, f"expected 'gens <d>' first, got {kind!r}")
            if len(fields) != 2:
                raise ParseError(lineno, "'gens' takes exactly one argument")
            try:
                d = int(fields[1])
            except ValueError:
                raise ParseError(lineno, f"bad generator count {fields[1]!r}") from None
            if d < 0:
                raise ParseError(lineno, "generator count must be >= 0")
            pres = Presentation(d)
            continue
        if kind == "gens":
            raise ParseError(lineno, "duplicate 'gens' line")
        if kind == "rel":
            syms = []
            for f in fields[1:]:
                try:
                    s = int(f)
                except ValueError:
                    raise ParseError(lineno, f"bad symbol {f!r}") from None
                if s == 0:
                    raise ParseError(lineno, "generator index 0 is invalid")
                if abs(s) > pres.d:
                    raise ParseError(lineno, f"generator index out of range: {s}")
                syms.append(s)
            word = tuple(syms)
        elif kind == "relw":
            if pres.d > 26:
                raise ParseError(lineno, "'relw' is only valid for at most 26 generators")
            if len(fields) != 2:
                raise ParseError(lineno, "'relw' takes exactly one word")
            try:
                word = word_from_letters(fields[1])
            except ValueError as e:
                raise ParseError(lineno, str(e)) from None
            if any(abs(s) > pres.d for s in word):
                raise ParseError(lineno, "generator letter out of range")
        else:
            raise ParseError(lineno, f"unknown directive {kind!r}")
        rec = pres.add_relator(word)
        if len(rec.word) == 0:
            pres.rel.pop()
    if pres is None:
        raise ParseError(0, "missing 'gens' line")
    normalize_involutions(pres)
    return pres


def serialize_presentation(p: Presentation) -> str:
    lines = [f"gens {p.d}"]
    for r in p.rel:
        lines.append("rel " + " ".join(str(s) for s in r.word))
    return "\n".join(lines) + "\n"


def sort_rel(p: Presentation) -> Presentation:
    """Stable sort of the relator sequence by ascending length."""
    p.rel.sort(key=lambda r: len(r.word))
    return p


def normalize_involutions(p: Presentation) -> list[RelatorRecord]:
    """Mark generators with a square relator as involutions and rewrite.

    Every relator gg (or its inverse form) adds g to the involution set,
    and every g^-1 of an involution g becomes g.  Right after this call
    no such g^-1 occurs; a later replacement may write one again.  One
    sweep suffices, with no re-reduction: a sign flip cancels no symbol
    of a reduced word and makes no new square.  Returns the rewritten
    records in relator order.
    """
    for r in p.rel:
        if len(r.word) == 2 and r.word[0] == r.word[1]:
            p.involutions.add(abs(r.word[0]))
    inverses = {-g for g in p.involutions}
    changed: list[RelatorRecord] = []
    if inverses:
        for r in p.rel:
            if not inverses.isdisjoint(r.word):
                r.set_word(tuple(-s if s in inverses else s for s in r.word))
                changed.append(r)
    return changed


# Relators shorter than this skip the shape and go straight to their
# canonical form: there a canonical form costs little more than a shape,
# and most short relators on few generators share a shape anyway.
SHAPE_MIN_LENGTH = 48


def remove_duplicates(p: Presentation) -> list[int]:
    """Drop relators equal to an earlier one up to rotation/inversion.

    Returns the ids removed, in relator order; the first relator of each
    class is kept.  Relators of at least ``SHAPE_MIN_LENGTH`` symbols are
    first keyed on their shape (``RelatorRecord.shape``): one whose shape
    no other relator shares has no duplicate and needs no canonical form.
    """
    shapes = Counter(r.shape() for r in p.rel if len(r.word) >= SHAPE_MIN_LENGTH)
    seen: set[Word] = set()
    removed: list[int] = []
    kept: list[RelatorRecord] = []
    for r in p.rel:
        if len(r.word) < SHAPE_MIN_LENGTH or shapes[r.shape()] > 1:
            key = r.canonical()
            if key in seen:
                removed.append(r.id)
                continue
            seen.add(key)
        kept.append(r)
    p.rel[:] = kept
    return removed
