"""Pass drivers: which relator pairs get searched at all.

Four policies run on three drivers behind one interface.
``pass_change_flags`` searches pairs with a member changed in the previous
pass (``flags``); the exhaustive baseline ``all-pairs`` is the same driver
with every pass treated as a first pass.  The two timestamp policies skip
every unnecessary search exactly: ``pass_sorted`` (``ts-sorted``) keeps the
relator sequence sorted at all times (a changed text is re-inserted at its
sorted position mid-pass), ``pass_unsorted`` (``ts-unsorted``) freezes
positions for the duration of a pass and re-sorts between passes.  The
necessity oracle that the timestamp policies are tested against lives with
the tests.

A searcher is any callable (presentation, pattern record, text record)
-> bool reporting whether the text changed; the engine's real searcher
performs the substring replacement, while tests may inject scripted
fakes.

Every driver returns a ``PassTally`` of integer counts (pairs considered,
searches performed, searches successful).  A ``SearchEvent`` exists only
when the caller passes a recorder: each considered pair is then handed to
it, in order, as one event.  Without a recorder nothing is allocated per
pair, which matters because most considered pairs are skipped.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, NamedTuple, Protocol

from .presentation import Presentation, RelatorRecord


class Searcher(Protocol):
    def __call__(self, pres: Presentation, pattern: RelatorRecord,
                 text: RelatorRecord) -> bool: ...


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
    timer: int = 1                      # ts-sorted global counter
    ts_local: list[int] = field(default_factory=list)  # ts-unsorted, per position, 1-based
    pass_no: int = 0
    first_pass: bool = True             # flags; stays True for all-pairs
    flags_pending: set[int] = field(default_factory=set)
    reorders: int = 0                   # ts-sorted mid-pass re-insertions that moved


def init_pass_state(pres: Presentation, ctx: PassContext) -> None:
    """Set the pseudocode initial timestamps; rel must already be sorted."""
    if ctx.policy == "ts-sorted":
        ctx.timer = 1
        for r in pres.rel:
            r.tp, r.ts = -1, 0
    elif ctx.policy == "ts-unsorted":
        for pos, r in enumerate(pres.rel, start=1):
            r.tp = r.ts = pos
    elif ctx.policy == "flags":
        ctx.first_pass = True
        ctx.flags_pending = set()


def mark_changed(pres: Presentation, ctx: PassContext, rec: RelatorRecord) -> None:
    """Record an out-of-pass change (elimination phases, new relators).

    For ts-sorted the timer advances past the mark so that the next
    pass's pattern stamps compare strictly greater: a pair searched once
    after the mark must not look searchable again.
    """
    if ctx.policy == "ts-sorted":
        rec.tp = -1
        rec.ts = ctx.timer
        ctx.timer += 1
    elif ctx.policy == "ts-unsorted":
        rec.tp = -1
    elif ctx.policy == "flags":
        ctx.flags_pending.add(rec.id)


def _require_sorted(pres: Presentation) -> None:
    if not pres.is_sorted():
        raise ValueError("relator sequence must be sorted by length at pass start")


def _length(r: RelatorRecord) -> int:
    return len(r.word)


def _ts_suffix_max(rel: list[RelatorRecord]) -> list[int]:
    """``out[i]`` is the largest ``ts`` in ``rel[i:]``."""
    out = list(accumulate([r.ts for r in reversed(rel)], max))
    out.reverse()
    return out


def pass_sorted(pres: Presentation, ctx: PassContext, searcher: Searcher,
                record: Recorder | None = None) -> PassTally:
    """Timestamp pass over a sequence kept sorted throughout.

    Search (pattern, text) iff pattern.tp <= text.ts.  A changed text gets
    tp = -1, ts = timer and is re-inserted at its sorted position; after
    each pattern's texts the pattern is stamped with the timer, which then
    advances.  The pattern loop walks positions of the live list, so each
    unordered pair is considered at most once per pass.

    The pattern's position ``pi`` is tracked rather than looked up: a
    re-inserted text lands at or before ``pi`` exactly when it became
    shorter than the pattern, which shifts the pattern one place right.
    Until the pattern's first success its texts are walked contiguously;
    only then is the set of visited text ids built, so that texts moved
    by a re-insertion are not considered twice.

    Without a recorder, a dead pattern loop is not walked.  The suffix
    maxima of ``ts`` over ``rel`` are built at pass start and rebuilt
    after a re-insertion, at the next pattern (a pattern loop with
    successes often has several); when the largest ``ts`` after ``pi`` is
    below the pattern's ``tp``, no text of the loop is searchable, so none
    changes and ``visited`` stays ``None``: the loop would consider each
    of the ``n - pi - 1`` texts once and search none.  It is counted as
    such and the pattern is stamped.  A recorder needs one event per
    pair, so with one every loop is walked.
    """
    _require_sorted(pres)
    ctx.pass_no += 1
    pass_no = ctx.pass_no
    rel = pres.rel
    n = len(rel)
    considered = performed = successful = 0
    skip_dead = record is None
    ts_max: list[int] | None = None  # built on first use, dropped on re-insertion
    pi = 0
    while pi < n - 1:
        pattern = rel[pi]
        tp = pattern.tp  # only texts change during the pattern's loop
        visited: set[int] | None = None
        ti = pi + 1
        if skip_dead:
            if ts_max is None:
                ts_max = _ts_suffix_max(rel)
            if ts_max[ti] < tp:
                considered += n - ti
                ti = n
        while ti < n:
            text = rel[ti]
            if visited is not None:
                if text.id in visited:
                    ti += 1
                    continue
                visited.add(text.id)
            considered += 1
            if tp <= text.ts:
                performed += 1
                success = searcher(pres, pattern, text)
                if record is not None:
                    record(SearchEvent(pattern.id, text.id, pass_no, True, success))
                if success:
                    successful += 1
                    if visited is None:
                        visited = {r.id for r in rel[pi + 1:ti + 1]}
                    text.tp = -1
                    text.ts = ctx.timer
                    rel.pop(ti)
                    new_pos = bisect_right(rel, len(text.word), key=_length)
                    if new_pos != ti:
                        ctx.reorders += 1
                    rel.insert(new_pos, text)
                    ts_max = None
                    if new_pos <= pi:
                        pi += 1
                    ti = pi + 1
                    continue
            elif record is not None:
                record(SearchEvent(pattern.id, text.id, pass_no, False, False))
            ti += 1
        pattern.tp = ctx.timer
        ctx.timer += 1
        pi += 1
    return PassTally(considered, performed, successful)


def pass_unsorted(pres: Presentation, ctx: PassContext, searcher: Searcher,
                  record: Recorder | None = None) -> PassTally:
    """Timestamp pass with positions frozen for the whole pass.

    Search (pattern, text) iff the text is still at least as long as the
    pattern and (either changed this pass, or pattern.tp > text.tp, or
    pattern.tp <= text.ts).  Timestamps here are positions: after each
    position's texts the relator is stamped tp = position and
    ts = ts_local[position].  Every position is stamped, including the
    last (whose text loop is empty); leaving the last relator's
    initialization in place would make its pairs look forever fresh.
    """
    _require_sorted(pres)
    ctx.pass_no += 1
    pass_no = ctx.pass_no
    snapshot = list(pres.rel)
    n = len(snapshot)
    ctx.ts_local = [0] * (n + 1)
    ts_local = ctx.ts_local
    considered = performed = successful = 0
    for p in range(1, n + 1):
        pattern = snapshot[p - 1]
        p_len = len(pattern.word)  # only texts change during the pattern's loop
        if p_len >= 1:
            p_tp = pattern.tp
            p_changed = ts_local[p]
            for t in range(p + 1, n + 1):
                text = snapshot[t - 1]
                if len(text.word) < p_len:
                    continue  # not a valid ComStr in these roles
                considered += 1
                if (p_changed + ts_local[t] != 0
                        or p_tp > text.tp
                        or p_tp <= text.ts):
                    performed += 1
                    success = searcher(pres, pattern, text)
                    if record is not None:
                        record(SearchEvent(pattern.id, text.id, pass_no, True, success))
                    if success:
                        successful += 1
                        ts_local[t] = p
                elif record is not None:
                    record(SearchEvent(pattern.id, text.id, pass_no, False, False))
        pattern.tp = p
        pattern.ts = ts_local[p]
    return PassTally(considered, performed, successful)


def pass_change_flags(pres: Presentation, ctx: PassContext, searcher: Searcher,
                      record: Recorder | None = None) -> PassTally:
    """Search pairs with a member flagged as changed in the previous pass.

    Positions are frozen for the pass; pairs whose text has shrunk below
    the pattern mid-pass are deferred to the next pass (same validity
    guard as the unsorted timestamp pass), keeping the pass discipline
    comparable across policies.  The first pass searches every pair, and
    under ``all-pairs`` every pass is a first pass: the early method.
    """
    _require_sorted(pres)
    ctx.pass_no += 1
    pass_no = ctx.pass_no
    flagged = ctx.flags_pending
    ctx.flags_pending = set()
    first = ctx.first_pass
    ctx.first_pass = ctx.policy == "all-pairs"
    snapshot = list(pres.rel)
    considered = performed = successful = 0
    for i in range(len(snapshot) - 1):
        pattern = snapshot[i]
        if len(pattern.word) < 1:
            continue
        for j in range(i + 1, len(snapshot)):
            text = snapshot[j]
            if len(text.word) < len(pattern.word):
                continue
            considered += 1
            if first or pattern.id in flagged or text.id in flagged:
                performed += 1
                success = searcher(pres, pattern, text)
                if record is not None:
                    record(SearchEvent(pattern.id, text.id, pass_no, True, success))
                if success:
                    successful += 1
                    ctx.flags_pending.add(text.id)
            elif record is not None:
                record(SearchEvent(pattern.id, text.id, pass_no, False, False))
    return PassTally(considered, performed, successful)


_PASS_FUNCTIONS: dict[str, Callable] = {
    "all-pairs": pass_change_flags,
    "flags": pass_change_flags,
    "ts-sorted": pass_sorted,
    "ts-unsorted": pass_unsorted,
}
POLICY_NAMES = tuple(_PASS_FUNCTIONS)


def run_pass(pres: Presentation, ctx: PassContext, searcher: Searcher,
             record: Recorder | None = None) -> PassTally:
    return _PASS_FUNCTIONS[ctx.policy](pres, ctx, searcher, record)

