"""Pass drivers: which relator pairs get searched at all.

Four policies run on two drivers behind one interface.  The two timestamp
policies skip every unnecessary search exactly: ``pass_sorted``
(``ts-sorted``) keeps the relator sequence sorted at all times (a changed
text is re-inserted at its sorted position mid-pass), while
``pass_frozen`` freezes positions for the duration of a pass and the
engine re-sorts between passes.  ``pass_frozen`` also runs ``flags``,
which searches pairs with a member changed in the previous pass, and the
exhaustive baseline ``all-pairs``; the policies differ only in which
texts a pattern searches.  Every policy starts with every relator marked
changed, so the first pass searches every pair.  The necessity oracle
that the timestamp policies are tested against lives with the tests.

A searcher is any callable (pattern record, list of text records) ->
list of bool, reporting for each text, in order, whether it changed; it
sees only the pattern and those texts, never the presentation.  A success
shortens only its own text.  Within one pattern loop the searches are
independent: a text's searchability reads only the pattern's stamps and
flags and that text's own, and only the text's own search changes them.  So
each driver selects a pattern's searchable texts up front, hands them to
the searcher in one call, and then applies the results in text order,
exactly as a pair-by-pair loop would.  The engine's real searcher performs
the substring replacements, while tests may inject scripted fakes.

Every driver returns a ``PassTally`` of integer counts (pairs considered,
searches performed, searches successful).  A ``SearchEvent`` exists only
when the caller passes a recorder: each considered pair is then handed to
it, in order, as one event.  Without a recorder nothing is allocated per
pair, which matters because most considered pairs are skipped.  A
recorder only observes: each driver takes the same path with or without
one.  ``engine.simplify`` hands its ``record`` straight to ``run_pass``.
A ``ts-sorted`` pass reads only the relators changed since the previous
pass began, and stamps the dead tail after the last of them in one sweep.

One clock, ``PassContext.timer``, stamps every policy.  After a pattern's
loop the pattern gets tp = timer and the timer advances; a text that a
search changed gets tp = -1 and ts = that loop's stamp; ``mark_changed``
sets tp = -1, ts = timer and advances it.  So each stamp exceeds all
earlier ones, and the timestamp policies differ only in how the sequence
is kept sorted and in ``ts-unsorted``'s clause for reversed roles.

A pass can end early: after the pattern loop in which a success leaves
its text eliminable (``words.eliminable``: one symbol, or two over two
different generators), so that the engine eliminates the generator before
that text serves as a pattern.  Each policy then keeps what its next pass
needs.  ``ts-sorted`` keeps nothing extra: an unreached pattern keeps a
stamp older than the pass, so the clock makes it check every text.
``ts-unsorted`` sets tp = -1 on every relator the pass did not reach: its
clause tp > text.tp would read a reached pattern's newer stamp against an
unreached text's older one as roles reversed, so the pair is searched
again either way.  ``flags`` keeps its old flags along with this pass's
changes; ``all-pairs`` keeps no state.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Protocol

from .presentation import Presentation, RelatorRecord
from .words import eliminable


class Searcher(Protocol):
    """Search ``pattern`` against each of ``texts``; one bool per text, in order."""

    def __call__(self, pattern: RelatorRecord, texts: list[RelatorRecord]) -> list[bool]: ...


@dataclass(frozen=True)
class SearchEvent:
    """One consideration of a relator pair within a pass."""

    pattern_id: int
    text_id: int
    pass_no: int
    performed: bool
    successful: bool


Recorder = Callable[[SearchEvent], None]


class PassTally(NamedTuple):
    """What one pass did; considered - performed pairs were skipped."""

    considered: int
    performed: int
    successful: int


@dataclass
class PassContext:
    """Mutable cross-pass state for one policy over one presentation."""

    policy: str
    timer: int = 1                      # the one clock: a stamp per pattern loop and mark
    pass_no: int = 0
    flagged: set[int] = field(default_factory=set)  # flags: changed since the last pass began
    reorders: int = 0                   # ts-sorted mid-pass re-insertions that moved
    last_start: int = 0                 # ts-sorted: the timer when the previous pass began


def init_pass_state(pres: Presentation, ctx: PassContext) -> None:
    """Mark every relator changed, in order, before the first pass.

    A marked relator has tp = -1, so the first pass searches every pair, as
    the paper's initial stamps arrange; every later stamp is larger by the
    same n, which no comparison of two stamps can see.
    """
    for r in pres.rel:
        mark_changed(ctx, r)


def mark_changed(ctx: PassContext, rec: RelatorRecord) -> None:
    """Record an out-of-pass change (elimination phases, new relators).

    It gets tp = -1 and ts = a stamp of its own, so that the next pass's
    pattern stamps compare strictly greater: a pair searched once after
    the mark must not look searchable again.  Under flags it is also flagged.
    """
    rec.tp = -1
    rec.ts = ctx.timer
    ctx.timer += 1
    if ctx.policy == "flags":
        ctx.flagged.add(rec.id)


def _require_sorted(pres: Presentation) -> None:
    if not pres.is_sorted():
        raise ValueError("relator sequence must be sorted by length at pass start")


def _length(r: RelatorRecord) -> int:
    return len(r.word)


def _record_loop(record: Recorder, pass_no: int, pattern: RelatorRecord,
                 considered: list[RelatorRecord], batch: list[RelatorRecord],
                 results: list[bool]) -> None:
    """Hand one pattern loop's considered pairs to ``record``, in text order."""
    found = {text.id: ok for text, ok in zip(batch, results)}
    for text in considered:
        ok = found.get(text.id)
        record(SearchEvent(pattern.id, text.id, pass_no, ok is not None, bool(ok)))


def _stamp_dead_tail(rel: list[RelatorRecord], pi: int, ctx: PassContext,
                     record: Recorder | None) -> int:
    """Stamp the k dead patterns from ``pi`` on; returns k(k + 1)/2 pairs considered."""
    k = len(rel) - 1 - pi
    if record is not None:
        for j in range(pi, len(rel) - 1):
            _record_loop(record, ctx.pass_no, rel[j], rel[j + 1:], [], [])
    for stamp, pattern in enumerate(rel[pi:-1], ctx.timer):
        pattern.tp = stamp
    ctx.timer += k
    return k * (k + 1) // 2


def pass_sorted(pres: Presentation, ctx: PassContext, searcher: Searcher,
                record: Recorder | None = None) -> PassTally:
    """Timestamp pass over a sequence kept sorted throughout.

    Search (pattern, text) iff pattern.tp <= text.ts; a changed text is
    also re-inserted at its sorted position.  The pattern loop walks
    positions of the changing list, so each unordered pair is considered
    at most once per pass.

    A pattern loop considers the texts after the pattern once each, in
    order, and searches those with pattern.tp <= text.ts in one searcher
    call.  The successes are then re-inserted in text order, each popped
    at its index ``i`` at loop start: every earlier re-insertion lands left
    of ``i``, so the index still holds.  Texts right of ``i`` may already be
    shortened, so the sorted position is looked up in ``rel[:i]`` only.
    The pattern's position ``pi`` is tracked rather than looked up: a
    re-inserted text lands at or before ``pi`` exactly when it became
    shorter than the pattern, which shifts the pattern one place right.

    A pass reads only the relators changed since the previous pass began,
    at timer ``old``.  A pattern stamped since has tp >= old, so it can
    search only hot texts (ts >= old); a marked pattern (tp = -1, below
    every ts) searches its whole suffix, and one with an older stamp, such
    as the previous pass's last relator, checks every text.  The live
    positions (hot relators, and older stamps except at the end) are
    built when a stamped pattern needs them, again after a re-insertion.
    Once none lies after a stamped pattern, every loop left is dead: one
    sweep stamps the tail.  A loop that leaves a text eliminable is the
    pass's last.  A recorder does not change the path.
    """
    _require_sorted(pres)
    ctx.pass_no += 1
    pass_no = ctx.pass_no
    old, ctx.last_start = ctx.last_start, ctx.timer
    rel = pres.rel
    n = len(rel)
    considered = performed = successful = 0
    live: list[int] | None = None  # built on first use, dropped on re-insertion
    pi = 0
    while pi < n - 1:
        pattern = rel[pi]
        tp = pattern.tp  # only texts change during the pattern's loop
        if tp < 0:
            at, batch = range(pi + 1, n), rel[pi + 1:]
        else:
            if tp >= old and live is None:
                live = [i for i, r in enumerate(rel)
                        if r.ts >= old or r.tp < old and i < n - 1]
            scan = live[bisect_right(live, pi):] if tp >= old else range(pi + 1, n)
            if not scan:  # only a stamped pattern's can be empty
                considered += _stamp_dead_tail(rel, pi, ctx, record)
                break
            at = [i for i in scan if tp <= rel[i].ts]
            batch = [rel[i] for i in at]
        considered += n - pi - 1
        results = searcher(pattern, batch) if batch else []
        if record is not None:
            _record_loop(record, pass_no, pattern, rel[pi + 1:], batch, results)
        performed += len(batch)
        short = False
        for i, text, ok in zip(at, batch, results):
            if ok:
                successful += 1
                short = short or eliminable(text.word)
                text.tp = -1
                text.ts = ctx.timer
                rel.pop(i)
                new_pos = bisect_right(rel, len(text.word), hi=i, key=_length)
                if new_pos != i:
                    ctx.reorders += 1
                rel.insert(new_pos, text)
                live = None
                if new_pos <= pi:
                    pi += 1
        pattern.tp = ctx.timer
        ctx.timer += 1
        if short:
            break
        pi += 1
    return PassTally(considered, performed, successful)


def pass_frozen(pres: Presentation, ctx: PassContext, searcher: Searcher,
                record: Recorder | None = None) -> PassTally:
    """Pass with positions frozen for the whole pass: ts-unsorted, flags, all-pairs.

    Each pattern is paired with the later texts still at least as long as
    it (``seen``); a text shrunk below the pattern mid-pass waits for the
    next pass.  A fresh pattern searches all of ``seen``: under
    ts-unsorted one with tp < 0 (changed this pass, or marked), under
    flags a flagged one, under all-pairs every one.  Any other searches
    the texts that pass its policy's predicate: under ts-unsorted
    pattern.tp > text.tp (roles reversed in the previous pass, or the text
    changed this pass) or pattern.tp <= text.ts; under flags a flagged text.

    Every relator is stamped, the last included: an older stamp would
    make its pairs look fresh in the next pass.  Under flags the ids
    changed this pass become ``ctx.flagged``, to which ``mark_changed``
    adds.  A loop that leaves a text eliminable is the pass's last;
    ts-unsorted then marks the relators after its pattern, and flags keeps
    its old ids.
    """
    _require_sorted(pres)
    ctx.pass_no += 1
    policy = ctx.policy
    flagged = ctx.flagged
    changed: set[int] = set()
    snapshot = list(pres.rel)
    considered = performed = successful = 0
    short = False
    for p, pattern in enumerate(snapshot, 1):
        p_len = len(pattern.word)  # only texts change during the pattern's loop
        seen = [text for text in snapshot[p:] if len(text.word) >= p_len] if p_len else []
        if seen:
            considered += len(seen)
            tp = pattern.tp
            if policy == "ts-unsorted":
                batch = seen if tp < 0 else [t for t in seen if tp > t.tp or tp <= t.ts]
            elif policy == "flags" and pattern.id not in flagged:
                batch = [t for t in seen if t.id in flagged]
            else:
                batch = seen
            results = searcher(pattern, batch) if batch else []
            if record is not None:
                _record_loop(record, ctx.pass_no, pattern, seen, batch, results)
            performed += len(batch)
            for text, ok in zip(batch, results):
                if ok:
                    successful += 1
                    text.tp = -1
                    text.ts = ctx.timer
                    changed.add(text.id)
                    short = short or eliminable(text.word)
        pattern.tp = ctx.timer
        ctx.timer += 1
        if short:
            if policy == "ts-unsorted":
                for r in snapshot[p:]:
                    r.tp = -1
            break
    if policy == "flags":
        ctx.flagged = flagged | changed if short else changed
    return PassTally(considered, performed, successful)


_PASS_FUNCTIONS: dict[str, Callable] = {
    "all-pairs": pass_frozen,
    "flags": pass_frozen,
    "ts-sorted": pass_sorted,
    "ts-unsorted": pass_frozen,
}
POLICY_NAMES = tuple(_PASS_FUNCTIONS)


def run_pass(pres: Presentation, ctx: PassContext, searcher: Searcher,
             record: Recorder | None = None) -> PassTally:
    return _PASS_FUNCTIONS[ctx.policy](pres, ctx, searcher, record)

