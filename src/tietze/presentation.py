"""Presentation data model: generators, involutions and the relator sequence.

The file format is line oriented UTF-8, with ASCII numbers [+-]?[0-9]+:

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
from itertools import chain
from operator import mul
from typing import Iterable

from .words import Word, canonical_rep, reduce_cyclic_word, word_from_letters


class ParseError(ValueError):
    """Raised on a malformed presentation file; carries the line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _integer(lineno: int, token: str, what: str) -> int:
    """``int(token)`` for ASCII [+-]?[0-9]+ only: alone, int() reads '1_0' and any digits."""
    digits = token[1:] if token[0] in "+-" else token
    if not (token.isascii() and digits.isdigit()):
        raise ParseError(lineno, f"bad {what} {token!r}")
    return int(token)


@dataclass(slots=True)
class RelatorRecord:
    """A relator with stable identity and the two search timestamps.

    ``tp`` stamps the relator's last loop as a pattern (-1 once marked or
    changed since) and ``ts`` its last change, from the one clock
    ``skip.PassContext.timer``.  The word is always freely and cyclically
    reduced.  Three caches hang off it, each built on first use: the
    canonical form, the duplicate key (``key``) and the generator counts,
    with the generators occurring once.  Only ``set_word`` writes ``word``:
    it drops every cache and, if armed, appends the record to its
    presentation's change list, once until ``Presentation.take_changes``
    re-arms it.  ``_tallied`` is what the occurrence tally holds for it.
    """

    id: int
    word: Word
    tp: int = -1
    ts: int = 0
    _canonical: Word | None = field(default=None, init=False, repr=False, compare=False)
    _key: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)
    _counts: dict[int, int] | None = field(default=None, init=False, repr=False, compare=False)
    _once: tuple[int, ...] = field(default=(), init=False, repr=False, compare=False)
    _tallied: dict[int, int] | None = field(default=None, init=False, repr=False, compare=False)
    _queue: list | None = field(default=None, repr=False, compare=False)

    def set_word(self, word: Word) -> None:
        self.word = word
        self._canonical = self._key = self._counts = None
        if self._queue is not None:  # armed: first rewrite since the last take
            self._queue.append(self)
            self._queue = None

    def canonical(self) -> Word:
        if self._canonical is None:
            self._canonical = canonical_rep(self.word)
        return self._canonical

    def key(self) -> tuple[int, ...]:
        """Four sums equal for every rotation of the (nonempty) word and its inverse.

        A rotation permutes the symbols and the inverse negates them all, so
        the length and the sum of squares hold, and the sum up to sign.  The
        last sums a * b over the cyclically adjacent pairs (a, b): a rotation
        permutes them, and the inverse turns (a, b) into (-b, -a).
        """
        if self._key is None:
            w = self.word
            self._key = (len(w), abs(sum(w)), sum(map(mul, w, w)), sum(map(mul, w, w[1:] + w[:1])))
        return self._key

    def counts(self) -> dict[int, int]:
        """Occurrences of each generator in the word, either sign."""
        if self._counts is None:
            self._counts = Counter(map(abs, self.word))
            self._once = tuple(g for g, c in self._counts.items() if c == 1)
        return self._counts

    def once(self) -> tuple[int, ...]:
        """The generators occurring exactly once, in order of first occurrence."""
        self.counts()
        return self._once


@dataclass
class Presentation:
    """Generator count, involution set and the ordered relator sequence."""

    d: int  # live generators; the labels of eliminated ones wait in ``eliminated``
    involutions: set[int] = field(default_factory=set)
    rel: list[RelatorRecord] = field(default_factory=list)
    next_id: int = 0
    eliminated: set[int] = field(default_factory=set)  # until ``compact_labels``
    _tally: Counter | None = field(default=None, init=False, repr=False, compare=False)
    _changes: list = field(default_factory=list, init=False, repr=False, compare=False)

    def add_relator(self, word: Word) -> RelatorRecord:
        """Reduce ``word`` and append it, armed, unless it reduces to nothing."""
        rec = RelatorRecord(self.next_id, reduce_cyclic_word(word))
        self.next_id += 1
        if rec.word:
            rec._queue = self._changes
            self.rel.append(rec)
            self._tally = None
        return rec

    def total_length(self) -> int:
        return sum(len(r.word) for r in self.rel)

    def is_sorted(self) -> bool:
        lengths = [len(r.word) for r in self.rel]
        return lengths == sorted(lengths)

    def clone(self) -> "Presentation":
        p = Presentation(self.d, set(self.involutions), [], self.next_id, set(self.eliminated))
        p.rel = [RelatorRecord(r.id, r.word, r.tp, r.ts, _queue=p._changes) for r in self.rel]
        return p

    def pending_changes(self) -> list[RelatorRecord]:
        """The records rewritten since the last take, once each, in order of
        first rewrite, emptied ones included; the list is left as it is."""
        return self._changes[:]

    def take_changes(self) -> list[RelatorRecord]:
        """The ``pending_changes``, emptied: each is folded into the
        occurrence tally, if one is held, and re-armed."""
        changes = self.pending_changes()
        if changes and self._tally is not None:
            self.occurrences()
        self._changes.clear()
        for r in changes:
            r._queue = self._changes
        return changes

    def occurrences(self) -> Counter:
        """Occurrences of each generator in all relators, either sign (or 0).

        Counted in full on first use, and whenever at least half as many
        records as relators changed since the last take, where a full count
        costs less than folding each record in.  Otherwise the records on
        the change list are folded in, each trading the counts it was
        tallied with for its current ones.  The list is left as it is.
        """
        changes = self._changes
        if self._tally is None or 2 * len(changes) >= len(self.rel):
            self._tally = Counter(map(abs, chain.from_iterable(r.word for r in self.rel)))
            for r in chain(self.rel, changes):
                r._tallied = r.counts()
        else:
            tally = self._tally
            for r in changes:
                tally.subtract(r._tallied)
                tally.update(r.counts())
                r._tallied = r._counts
        return self._tally


def make_presentation(d: int, relators: Iterable[Word]) -> Presentation:
    """Build a normalized presentation from raw relator words."""
    if d < 0:
        raise ValueError("generator count must be >= 0")
    p = Presentation(d)
    for w in relators:
        for s in w:
            if s == 0 or abs(s) > d:
                raise ValueError(f"symbol {s} out of range for {d} generators")
        p.add_relator(w)
    normalize_involutions(p)
    return p


def parse_presentation(text: str) -> Presentation:
    """Parse the file format above, after any leading BOM, into a normalized Presentation."""
    pres: Presentation | None = None
    valid: dict[str, int] = {}  # each valid symbol token read so far; few distinct ones recur
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
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
            d = _integer(lineno, fields[1], "generator count")
            if d < 0:
                raise ParseError(lineno, "generator count must be >= 0")
            pres = Presentation(d)
            continue
        if kind == "gens":
            raise ParseError(lineno, "duplicate 'gens' line")
        if kind == "rel":
            try:
                word = tuple(map(valid.__getitem__, fields[1:]))
            except KeyError:  # a token not read before: check each one, in order
                for f in fields[1:]:
                    s = _integer(lineno, f, "symbol")
                    if s == 0:
                        raise ParseError(lineno, "generator index 0 is invalid")
                    if abs(s) > pres.d:
                        raise ParseError(lineno, f"generator index out of range: {s}")
                    valid[f] = s
                word = tuple(map(valid.__getitem__, fields[1:]))
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
        pres.add_relator(word)
    if pres is None:
        raise ParseError(0, "missing 'gens' line")
    normalize_involutions(pres)
    return pres


def serialize_presentation(p: Presentation) -> str:
    if p.eliminated:
        raise ValueError("labels not compacted: their gaps would read as free generators")
    return "".join([f"gens {p.d}\n"] + [f"rel {' '.join(map(str, r.word))}\n" for r in p.rel])


def compact_labels(p: Presentation) -> None:
    """Renumber the live generators 1..d, in order, after eliminations.

    The map is increasing on signed symbols and commutes with inversion, so
    it keeps lengths and duplicates and maps canonical forms to canonical forms."""
    if not p.eliminated:
        return
    live = [h for h in range(1, p.d + len(p.eliminated) + 1) if h not in p.eliminated]
    new = {h: i for i, h in enumerate(live, 1)}
    new.update({-h: -i for h, i in new.items()})
    for r in p.rel:
        r.set_word(tuple(map(new.__getitem__, r.word)))
    p.involutions, p.eliminated, p._tally = {new[h] for h in p.involutions}, set(), None


def sort_rel(p: Presentation) -> Presentation:
    """Stable sort of the relator sequence by ascending length."""
    p.rel.sort(key=lambda r: len(r.word))
    return p


def normalize_involutions(p: Presentation, changed: list[RelatorRecord] | None = None) -> None:
    """Mark generators with a square relator as involutions and rewrite.

    Every relator gg (or its inverse form) adds g to the involution set,
    and every g^-1 of an involution g becomes g.  Right after this call
    no such g^-1 occurs; a later replacement may write one again.  One
    sweep suffices, with no re-reduction: a sign flip cancels no symbol
    of a reduced word and makes no new square.

    ``changed``, when given, must hold every record rewritten since the
    previous call.  Only those can hold a new square or an inverse, so
    only they are read, except that every relator is read for inverses
    when the involution set grew.
    """
    known = len(p.involutions)
    for r in p.rel if changed is None else changed:
        if len(r.word) == 2 and r.word[0] == r.word[1]:
            p.involutions.add(abs(r.word[0]))
    inverses = {-g for g in p.involutions}
    if inverses:
        for r in p.rel if changed is None or len(p.involutions) > known else changed:
            if not inverses.isdisjoint(r.word):
                r.set_word(tuple(-s if s in inverses else s for s in r.word))


def remove_duplicates(p: Presentation) -> list[int]:
    """Drop emptied relators and those equal to an earlier one up to rotation/inversion.

    Returns the duplicates' ids, in relator order, keeping each class's
    first relator.  Only relators sharing a ``RelatorRecord.key`` get a
    canonical form.  A duplicate is emptied, so it leaves the occurrence tally.
    """
    keys = Counter(r.key() for r in p.rel if r.word)
    seen: set[Word] = set()
    removed: list[int] = []
    for r in p.rel:
        if r.word and keys[r.key()] > 1:
            canonical = r.canonical()
            if canonical in seen:
                removed.append(r.id)
                r.set_word(())
            seen.add(canonical)
    p.rel[:] = [r for r in p.rel if r.word]
    return removed
