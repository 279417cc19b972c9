"""Tietze transformation engine: eliminations, replacement passes, driver.

The driver alternates short eliminations (to fixpoint), substring
replacement passes under the configured skip policy and match strategy
(to quiescence or the pass budget), and at most one long elimination per
round, until nothing changes.  Short eliminations and replacements never
increase the total relator length; long eliminations may, within the
configured growth budget.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, fields
from itertools import chain

from .match import Match, SearchCounters, check_match
from .presentation import (
    Presentation,
    RelatorRecord,
    normalize_involutions,
    remove_duplicates,
    sort_rel,
)
from .skip import POLICY_NAMES, PassContext, Recorder, init_pass_state, mark_changed, run_pass
from .strategies import STRATEGIES, make_strategy
from .words import Word, invert, reduce_cyclic_word, rotate_right


class EngineError(RuntimeError):
    """Internal invariant violation; indicates an engine bug."""


@dataclass
class EngineConfig:
    """Configuration of one ``simplify`` run.

    ``growth_limit`` bounds each long elimination separately, against the
    total relator length just before that elimination, not against the
    run's initial length.  Successive long eliminations can therefore
    compound, and the total length can exceed ``growth_limit`` times the
    initial length.

    ``match_strategy`` is a full name from ``strategies.STRATEGIES``, such
    as ``kr-bloom4`` or ``automaton-one``.
    """

    match_strategy: str = "brute"
    skip_policy: str = "ts-sorted"
    bloom_log2_size: int = 16
    long_elim_enabled: bool = True
    growth_limit: float = 1.5
    max_passes: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.match_strategy not in STRATEGIES:
            raise ValueError(f"unknown match strategy {self.match_strategy!r}")
        if self.skip_policy not in POLICY_NAMES:
            raise ValueError(f"unknown skip policy {self.skip_policy!r}")
        if not self.growth_limit >= 1.0:  # also rejects NaN
            raise ValueError("growth_limit must be >= 1.0")
        if self.max_passes < 1:
            raise ValueError("max_passes must be >= 1")
        if not 3 <= self.bloom_log2_size <= 30:
            raise ValueError("bloom_log2_size must be in 3..30")


@dataclass
class EngineStats:
    pairs_considered: int = 0
    searches_performed: int = 0
    searches_skipped: int = 0
    searches_successful: int = 0
    short_elims: int = 0
    long_elims: int = 0
    passes: int = 0
    total_length_before: int = 0
    total_length_after: int = 0
    gens_before: int = 0
    gens_after: int = 0
    rels_before: int = 0
    rels_after: int = 0
    counters: SearchCounters = field(default_factory=SearchCounters)
    timings_ms: dict[str, float] = field(default_factory=dict)
    reorders: int = 0

    def to_dict(self) -> dict:
        """The fields declared before ``counters``, in order."""
        names = [f.name for f in fields(self)]
        return {name: getattr(self, name) for name in names[:names.index("counters")]}


def apply_replacement(t_word: Word, m: Match, p_word: Word) -> Word:
    """Replace the text's v segment by the pattern's inverted u segment.

    With the pattern equivalent u.v and the text rotation w.v, the text
    becomes w.u^-1, reduced; strictly shorter since v is longer than u.
    """
    pe, te = check_match(m, p_word, t_word)  # engine bug guard
    w, u = te[:len(t_word) - m.v_len], pe[:m.u_len]
    return reduce_cyclic_word(w + invert(u))


def substitute(pres: Presentation, g: int, rhs: Word) -> list[RelatorRecord]:
    """Replace generator g by rhs everywhere and remove g.

    Every occurrence of g becomes rhs, of g^-1 becomes invert(rhs); words
    are re-reduced, emptied relators dropped, and generator indices above
    g shift down.  Returns the live records whose content changed, in
    relator order.  Relators touched only by the renumbering are not
    reported as changed.

    Each relator's cached generator counts tell whether it holds g: only
    those relators get a new word (``set_word``).  The rest are renumbered
    with ``relabel``, which carries their caches, and only when they hold
    a generator above g.  The renumbering h -> h - 1 for h > g is one
    lookup list indexed by signed symbol, negative indices serving the
    inverses.
    """
    if not 1 <= g <= pres.d:
        raise ValueError(f"generator {g} out of range")
    if any(abs(s) == g for s in rhs):
        raise ValueError("substitution right-hand side mentions the eliminated generator")
    rhs_inv = invert(rhs)
    positive = [h if h < g else h - 1 for h in range(pres.d + 1)]
    table = positive + [-h for h in reversed(positive[1:])]

    changed: list[RelatorRecord] = []
    kept: list[RelatorRecord] = []
    for r in pres.rel:
        counts = r.counts()
        if g in counts:
            out: list[int] = []
            for s in r.word:
                if s == g:
                    out.extend(rhs)
                elif s == -g:
                    out.extend(rhs_inv)
                else:
                    out.append(s)
            r.set_word(tuple(map(table.__getitem__, reduce_cyclic_word(tuple(out)))))
            if r.word:
                changed.append(r)
        elif counts and max(counts) > g:
            r.relabel(table)
        if r.word:
            kept.append(r)
    pres.rel[:] = kept
    pres.involutions = {h - 1 if h > g else h for h in pres.involutions if h != g}
    pres.d -= 1
    return changed


def _solve_single_occurrence(word: Word, g: int) -> Word:
    """Solve relator = 1 for its unique +-g occurrence; result omits g."""
    pos = next(i for i, s in enumerate(word) if abs(s) == g)
    lead = rotate_right(word, (len(word) - pos) % len(word))
    rest = lead[1:]
    return invert(rest) if lead[0] > 0 else rest


def short_eliminate(pres: Presentation, on_change=None) -> tuple[bool, int]:
    """Eliminate via length-1 relators and non-involutory length-2 relators.

    Runs to fixpoint.  A relator gg marks g as an involution and is kept;
    length-2 eliminations keep the lower-indexed generator.  Each live
    record that a substitution or involution normalization rewrites is
    handed to ``on_change``, in the order of the rewrites.  Returns
    (changed anything, number of generator eliminations).
    """
    def note(records):
        if on_change is not None:
            for r in records:
                on_change(r)

    eliminations = 0
    changed_any = False
    while True:
        note(normalize_involutions(pres))
        action = None
        for r in pres.rel:
            if len(r.word) == 1:
                action = (abs(r.word[0]), ())
                break
            if len(r.word) == 2:
                x, y = r.word
                if abs(x) == abs(y):
                    continue  # square: involution, handled by normalization
                if abs(x) < abs(y):
                    target, other = abs(y), x
                    sign = y
                else:
                    target, other = abs(x), y
                    sign = x
                rhs = (-other,) if sign > 0 else (other,)
                action = (target, rhs)
                break
        if action is None:
            return changed_any, eliminations
        g, rhs = action
        note(substitute(pres, g, rhs))
        eliminations += 1
        changed_any = True


def long_eliminate(pres: Presentation, cfg: EngineConfig, total: int,
                   on_change=None) -> bool:
    """One elimination of a generator occurring exactly once in some relator.

    Among candidates (g occurs once in R, len(R) > 2), picks the pair
    minimizing predicted growth occurrences_elsewhere * (len(R) - 1) -
    len(R), and only proceeds while the predicted total stays within
    growth_limit times the current total length.  The bound is per step:
    it is measured against the length before this elimination, not the
    run's initial length, so repeated calls may compound growth.  Each
    relator's candidates come from its cached once-occurring generators
    (``RelatorRecord.once``), so only relators rewritten since the last
    call are recounted.  Ties break on (score, g, relator id).  The live
    records that the substitution and the involution normalization after
    it rewrite are handed to ``on_change``, in that order.  ``total`` is
    the current total relator length, which the caller already knows.
    """
    limit = cfg.growth_limit * total
    occurrences = Counter(map(abs, chain.from_iterable(r.word for r in pres.rel)))
    best = None
    for r in pres.rel:
        n = len(r.word)
        if n <= 2:
            continue
        for g in r.once():
            score = (occurrences[g] - 1) * (n - 1) - n
            if total + score > limit:
                continue
            key = (score, g, r.id)
            if best is None or key < best[0]:
                best = (key, g, r)
    if best is None:
        return False
    _, g, r = best
    rhs = _solve_single_occurrence(r.word, g)
    changed = substitute(pres, g, rhs) + normalize_involutions(pres)
    if on_change is not None:
        for r in changed:
            on_change(r)
    return True


class ReplacingSearcher:
    """The engine's real searcher: find a useful match, rewrite the text.

    It sees one pair of records.  A rewrite may write an involution's
    inverse into the text, which stays until the next normalization.
    """

    def __init__(self, strategy, counters: SearchCounters):
        self.strategy = strategy
        self.counters = counters

    def __call__(self, pattern: RelatorRecord, text: RelatorRecord) -> bool:
        m = self.strategy.search(pattern.word, text.word, self.counters)
        if m is None:
            return False
        new = apply_replacement(text.word, m, pattern.word)
        if len(new) >= len(text.word):
            raise EngineError("replacement failed to shorten the text relator")
        text.set_word(new)
        return True


def _boundary_maintenance(pres: Presentation) -> None:
    pres.rel[:] = [r for r in pres.rel if len(r.word) > 0]
    sort_rel(pres)
    remove_duplicates(pres)


def simplify(pres: Presentation, cfg: EngineConfig | None = None,
             record: Recorder | None = None) -> tuple[Presentation, EngineStats]:
    """Run the full simplification driver in place; returns (pres, stats).

    ``record`` is handed straight to every ``run_pass`` and only observes.
    Eliminations mark the live records they rewrite changed, in order.

    Boundary maintenance (sorting and duplicate removal) runs before a
    pass only when a relator was rewritten since it last ran: dropping
    emptied relators and relabelling generators keep the sequence sorted
    and free of duplicates.  The total length is computed once at each
    phase boundary where it may have moved and carried across the others;
    both length guards compare against it.
    """
    if cfg is None:
        cfg = EngineConfig()
    stats = EngineStats(
        total_length_before=pres.total_length(),
        gens_before=pres.d,
        rels_before=len(pres.rel),
    )
    timings = {"short_elim": 0.0, "replacement": 0.0, "long_elim": 0.0}
    strategy = make_strategy(cfg.match_strategy, cfg.seed, cfg.bloom_log2_size)
    searcher = ReplacingSearcher(strategy, stats.counters)
    ctx = PassContext(policy=cfg.skip_policy)
    # the initial normalization below may rewrite relators
    rewritten = True

    def on_change(rec: RelatorRecord) -> None:
        nonlocal rewritten
        rewritten = True
        mark_changed(pres, ctx, rec)

    for r in pres.rel:
        r.set_word(reduce_cyclic_word(r.word))
    _boundary_maintenance(pres)
    normalize_involutions(pres)
    init_pass_state(pres, ctx)
    length = pres.total_length()

    while True:
        progress = False

        t0 = time.perf_counter()
        changed_short, elims = short_eliminate(pres, on_change)
        if changed_short:
            before, length = length, pres.total_length()
            if length > before:
                raise EngineError("short elimination increased total length")
        stats.short_elims += elims
        progress |= changed_short
        timings["short_elim"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        while stats.passes < cfg.max_passes:
            if rewritten:
                count = len(pres.rel)
                _boundary_maintenance(pres)
                if len(pres.rel) != count:
                    length = pres.total_length()
                rewritten = False
            if len(pres.rel) < 2:
                break
            considered, performed, successful = run_pass(pres, ctx, searcher, record)
            stats.passes += 1
            stats.pairs_considered += considered
            stats.searches_performed += performed
            stats.searches_skipped += considered - performed
            stats.searches_successful += successful
            if not successful:
                break
            rewritten = progress = True
            before, length = length, pres.total_length()
            if length > before:
                raise EngineError("replacement pass increased total length")
        timings["replacement"] += time.perf_counter() - t0

        if cfg.long_elim_enabled:
            t0 = time.perf_counter()
            did_long = long_eliminate(pres, cfg, length, on_change)
            timings["long_elim"] += time.perf_counter() - t0
            if did_long:
                length = pres.total_length()
                stats.long_elims += 1
                continue
        if not progress:
            break

    _boundary_maintenance(pres)
    stats.reorders = ctx.reorders
    stats.total_length_after = pres.total_length()
    stats.gens_after = pres.d
    stats.rels_after = len(pres.rel)
    stats.timings_ms = {k: v * 1000.0 for k, v in timings.items()}
    if stats.searches_performed + stats.searches_skipped != stats.pairs_considered:
        raise EngineError("search accounting identity violated")
    return pres, stats
