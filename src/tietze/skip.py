"""Pass drivers: which relator pairs get searched at all.

Four policies share one interface.  ``all_pairs`` is the exhaustive
baseline, ``change_flags`` searches pairs with a member changed in the
previous pass, and the two timestamp policies skip every unnecessary
search exactly: ``ts_sorted`` keeps the relator sequence sorted at all
times (a changed text is re-inserted at its sorted position mid-pass),
``ts_unsorted`` freezes positions for the duration of a pass and re-sorts
between passes.

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
from typing import Callable, NamedTuple, Protocol

from .presentation import Presentation, RelatorRecord

POLICY_NAMES = ("all-pairs", "flags", "ts-sorted", "ts-unsorted")


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
    first_pass: bool = True             # change-flags
    flags_pending: set[int] = field(default_factory=set)
    reorders: int = 0                   # ts-sorted mid-pass re-insertions that moved

    def __post_init__(self):
        if self.policy not in POLICY_NAMES:
            raise ValueError(f"unknown skip policy {self.policy!r}")


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
    """
    _require_sorted(pres)
    ctx.pass_no += 1
    pass_no = ctx.pass_no
    rel = pres.rel
    n = len(rel)
    considered = performed = successful = 0
    pi = 0
    while pi < n - 1:
        pattern = rel[pi]
        tp = pattern.tp  # only texts change during the pattern's loop
        visited: set[int] | None = None
        ti = pi + 1
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
    comparable across policies.
    """
    _require_sorted(pres)
    ctx.pass_no += 1
    pass_no = ctx.pass_no
    flagged = ctx.flags_pending
    ctx.flags_pending = set()
    first = ctx.first_pass
    ctx.first_pass = False
    snapshot = list(pres.rel)
    considered = performed = successful = 0
    for i in range(len(snapshot) - 1):
        pattern = snapshot[i]
        if pattern.len < 1:
            continue
        for j in range(i + 1, len(snapshot)):
            text = snapshot[j]
            if text.len < pattern.len:
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


def pass_all_pairs(pres: Presentation, ctx: PassContext, searcher: Searcher,
                   record: Recorder | None = None) -> PassTally:
    """The early method: every considerable pair, every pass."""
    _require_sorted(pres)
    ctx.pass_no += 1
    pass_no = ctx.pass_no
    snapshot = list(pres.rel)
    considered = successful = 0
    for i in range(len(snapshot) - 1):
        pattern = snapshot[i]
        if pattern.len < 1:
            continue
        for j in range(i + 1, len(snapshot)):
            text = snapshot[j]
            if text.len < pattern.len:
                continue
            considered += 1
            success = searcher(pres, pattern, text)
            if record is not None:
                record(SearchEvent(pattern.id, text.id, pass_no, True, success))
            if success:
                successful += 1
    return PassTally(considered, considered, successful)


_PASS_FUNCTIONS: dict[str, Callable] = {
    "all-pairs": pass_all_pairs,
    "flags": pass_change_flags,
    "ts-sorted": pass_sorted,
    "ts-unsorted": pass_unsorted,
}


def run_pass(pres: Presentation, ctx: PassContext, searcher: Searcher,
             record: Recorder | None = None) -> PassTally:
    return _PASS_FUNCTIONS[ctx.policy](pres, ctx, searcher, record)


def necessary_set_oracle(events: list[SearchEvent],
                         changes: list[tuple[int, int]]
                         ) -> set[tuple[int, int, int]]:
    """The necessary searches among the considered pairs.

    ``changes`` lists (relator id, ordinal of the performed search during
    which the change happened); performed events and searcher invocations
    correspond one to one, in order.  A consideration is necessary when
    the pair was never searched before or a member changed at or after the
    pair's previous search (a change during that search counts).
    """
    changes_at: dict[int, list[int]] = {}
    for rel_id, ordinal in changes:
        changes_at.setdefault(ordinal, []).append(rel_id)
    last_search: dict[frozenset[int], int] = {}
    last_change: dict[int, int] = {}
    necessary: set[tuple[int, int, int]] = set()
    performed_count = 0
    for t, ev in enumerate(events, start=1):
        pair = frozenset((ev.pattern_id, ev.text_id))
        prev = last_search.get(pair)
        if prev is None or any(
            last_change.get(rid, -1) >= prev for rid in (ev.pattern_id, ev.text_id)
        ):
            necessary.add((ev.pattern_id, ev.text_id, ev.pass_no))
        if ev.performed:
            last_search[pair] = t
            for rid in changes_at.get(performed_count, ()):
                last_change[rid] = t
            performed_count += 1
    return necessary


def performed_set(events: list[SearchEvent]) -> set[tuple[int, int, int]]:
    return {(e.pattern_id, e.text_id, e.pass_no) for e in events if e.performed}
