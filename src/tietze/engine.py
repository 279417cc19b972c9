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
from dataclasses import dataclass, field

from .match import Match, SearchCounters, check_match
from .presentation import (
    Presentation,
    RelatorRecord,
    normalize_involutions,
    remove_duplicates,
    sort_rel,
)
from .skip import PassContext, init_pass_state, mark_changed, run_pass
from .strategies import make_strategy
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
    """

    match_strategy: str = "brute"
    skip_policy: str = "ts-sorted"
    bloom_bits: int = 3
    bloom_log2_size: int = 16
    automata: str = "two"
    long_elim_enabled: bool = True
    growth_limit: float = 1.5
    max_passes: int = 100
    seed: int = 0
    record_events: bool = False  # keep per-search logs on EngineStats

    def __post_init__(self):
        if not self.growth_limit >= 1.0:  # also rejects NaN
            raise ValueError("growth_limit must be >= 1.0")
        if self.max_passes < 1:
            raise ValueError("max_passes must be >= 1")
        if self.bloom_bits not in (3, 4):
            raise ValueError("bloom_bits must be 3 or 4")
        if not 3 <= self.bloom_log2_size <= 30:
            raise ValueError("bloom_log2_size must be in 3..30")

    def strategy_name(self) -> str:
        if self.match_strategy == "kr-bloom":
            return f"kr-bloom{self.bloom_bits}"
        if self.match_strategy == "automaton":
            return f"automaton-{self.automata}"
        return self.match_strategy


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
    # populated only with record_events: per-search events and
    # (text id, performed-search ordinal) change log
    events: list = field(default_factory=list)
    change_log: list = field(default_factory=list)
    reorders: int = 0

    def to_dict(self) -> dict:
        return {
            "pairs_considered": self.pairs_considered,
            "searches_performed": self.searches_performed,
            "searches_skipped": self.searches_skipped,
            "searches_successful": self.searches_successful,
            "short_elims": self.short_elims,
            "long_elims": self.long_elims,
            "passes": self.passes,
            "total_length_before": self.total_length_before,
            "total_length_after": self.total_length_after,
            "gens_before": self.gens_before,
            "gens_after": self.gens_after,
            "rels_before": self.rels_before,
            "rels_after": self.rels_after,
        }


def apply_replacement(t_word: Word, m: Match, p_word: Word) -> Word:
    """Replace the text's v segment by the pattern's inverted u segment.

    With the pattern equivalent u.v and the text rotation w.v, the text
    becomes w.u^-1, reduced; strictly shorter since v is longer than u.
    """
    check_match(m, p_word, t_word)  # engine bug guard
    base = invert(p_word) if m.inverted else p_word
    pe = rotate_right(base, m.pattern_rot)
    te = rotate_right(t_word, m.text_rot)
    u = pe[:m.u_len]
    w = te[:len(t_word) - m.v_len]
    return reduce_cyclic_word(w + invert(u))


def substitute(pres: Presentation, g: int, rhs: Word) -> tuple[list[int], list[int]]:
    """Replace generator g by rhs everywhere and remove g.

    Every occurrence of g becomes rhs, of g^-1 becomes invert(rhs); words
    are re-reduced, emptied relators dropped, and generator indices above
    g shift down.  Returns (ids of relators whose content changed, ids of
    dropped relators).  Relators touched only by the renumbering are not
    reported as changed.
    """
    if not 1 <= g <= pres.d:
        raise ValueError(f"generator {g} out of range")
    if any(abs(s) == g for s in rhs):
        raise ValueError("substitution right-hand side mentions the eliminated generator")
    rhs_inv = invert(rhs)

    def renum(s: int) -> int:
        a = abs(s)
        return s if a < g else (s - 1 if s > 0 else s + 1)

    changed: list[int] = []
    dropped: list[int] = []
    kept: list[RelatorRecord] = []
    for r in pres.rel:
        if any(abs(s) == g for s in r.word):
            out: list[int] = []
            for s in r.word:
                if s == g:
                    out.extend(rhs)
                elif s == -g:
                    out.extend(rhs_inv)
                else:
                    out.append(s)
            new = reduce_cyclic_word(tuple(out))
            changed.append(r.id)
        else:
            new = r.word
        new = tuple(renum(s) for s in new)
        r.set_word(new)
        if r.len == 0:
            dropped.append(r.id)
        else:
            kept.append(r)
    pres.rel[:] = kept
    pres.involutions = {h - 1 if h > g else h for h in pres.involutions if h != g}
    pres.d -= 1
    changed = [i for i in changed if i not in dropped]
    return changed, dropped


def _solve_single_occurrence(word: Word, g: int) -> Word:
    """Solve relator = 1 for its unique +-g occurrence; result omits g."""
    pos = next(i for i, s in enumerate(word) if abs(s) == g)
    lead = rotate_right(word, (len(word) - pos) % len(word))
    rest = lead[1:]
    return invert(rest) if lead[0] > 0 else rest


def short_eliminate(pres: Presentation, on_change=None) -> tuple[bool, int]:
    """Eliminate via length-1 relators and non-involutory length-2 relators.

    Runs to fixpoint.  A relator gg marks g as an involution and is kept;
    length-2 eliminations keep the lower-indexed generator.  Returns
    (changed anything, number of generator eliminations).
    """
    def note(ids):
        if on_change is not None:
            for rid in ids:
                on_change(rid)

    eliminations = 0
    changed_any = False
    while True:
        note(normalize_involutions(pres))
        action = None
        for r in pres.rel:
            if r.len == 1:
                action = (abs(r.word[0]), ())
                break
            if r.len == 2:
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
        changed, _dropped = substitute(pres, g, rhs)
        note(changed)
        eliminations += 1
        changed_any = True


def long_eliminate(pres: Presentation, cfg: EngineConfig, on_change=None) -> bool:
    """One elimination of a generator occurring exactly once in some relator.

    Among candidates (g occurs once in R, len(R) > 2), picks the pair
    minimizing predicted growth occurrences_elsewhere * (len(R) - 1) -
    len(R), and only proceeds while the predicted total stays within
    growth_limit times the current total length.  The bound is per step:
    it is measured against the length before this elimination, not the
    run's initial length, so repeated calls may compound growth.
    """
    total = pres.total_length()
    occurrences: dict[int, int] = {}
    for r in pres.rel:
        for s in r.word:
            occurrences[abs(s)] = occurrences.get(abs(s), 0) + 1
    best = None
    for r in pres.rel:
        if r.len <= 2:
            continue
        counts: dict[int, int] = {}
        for s in r.word:
            counts[abs(s)] = counts.get(abs(s), 0) + 1
        for g, c in counts.items():
            if c != 1:
                continue
            occ_else = occurrences[g] - 1
            score = occ_else * (r.len - 1) - r.len
            if total + score > cfg.growth_limit * total:
                continue
            key = (score, g, r.id)
            if best is None or key < best[0]:
                best = (key, g, r)
    if best is None:
        return False
    _, g, r = best
    rhs = _solve_single_occurrence(r.word, g)
    changed, _dropped = substitute(pres, g, rhs)
    if on_change is not None:
        for rid in changed:
            on_change(rid)
        for rid in normalize_involutions(pres):
            on_change(rid)
    else:
        normalize_involutions(pres)
    return True


class ReplacingSearcher:
    """The engine's real searcher: find a useful match, rewrite the text."""

    def __init__(self, strategy, counters: SearchCounters, change_log: list | None = None):
        self.strategy = strategy
        self.counters = counters
        self.change_log = change_log
        self.calls = 0

    def __call__(self, pres: Presentation, pattern: RelatorRecord,
                 text: RelatorRecord) -> bool:
        if not 1 <= pattern.len <= text.len:
            raise EngineError("searcher called with invalid pattern/text lengths")
        ordinal = self.calls
        self.calls += 1
        m = self.strategy.search(pattern.word, text.word, pres.involutions, self.counters)
        if m is None:
            return False
        new = apply_replacement(text.word, m, pattern.word)
        if len(new) >= text.len:
            raise EngineError("replacement failed to shorten the text relator")
        text.set_word(new)
        if self.change_log is not None:
            self.change_log.append((text.id, ordinal))
        return True


def _boundary_maintenance(pres: Presentation) -> None:
    pres.rel[:] = [r for r in pres.rel if r.len > 0]
    sort_rel(pres)
    remove_duplicates(pres)


def simplify(pres: Presentation, cfg: EngineConfig | None = None
             ) -> tuple[Presentation, EngineStats]:
    """Run the full simplification driver in place; returns (pres, stats)."""
    if cfg is None:
        cfg = EngineConfig()
    stats = EngineStats(
        total_length_before=pres.total_length(),
        gens_before=pres.d,
        rels_before=len(pres.rel),
    )
    timings = {"short_elim": 0.0, "replacement": 0.0, "long_elim": 0.0}
    strategy = make_strategy(cfg.strategy_name(), cfg.seed, cfg.bloom_log2_size)
    searcher = ReplacingSearcher(strategy, stats.counters,
                                 stats.change_log if cfg.record_events else None)
    ctx = PassContext(policy=cfg.skip_policy)
    record = stats.events.append if cfg.record_events else None

    for r in pres.rel:
        r.set_word(reduce_cyclic_word(r.word))
    _boundary_maintenance(pres)
    normalize_involutions(pres)
    init_pass_state(pres, ctx)
    # No relator is created after this point, and substitute and
    # normalize_involutions rewrite records in place, so the map stays
    # valid.  The ids they report belong to live relators, except those
    # emptied and dropped, which the length test filters out.
    records = {r.id: r for r in pres.rel}

    def on_change(rel_id: int) -> None:
        r = records[rel_id]
        if r.len > 0:
            mark_changed(pres, ctx, r)

    while True:
        progress = False

        t0 = time.perf_counter()
        before = pres.total_length()
        changed_short, elims = short_eliminate(pres, on_change)
        if pres.total_length() > before:
            raise EngineError("short elimination increased total length")
        stats.short_elims += elims
        progress |= changed_short
        timings["short_elim"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        while stats.passes < cfg.max_passes and len(pres.rel) >= 2:
            _boundary_maintenance(pres)
            before = pres.total_length()
            considered, performed, successful = run_pass(pres, ctx, searcher, record)
            stats.passes += 1
            stats.pairs_considered += considered
            stats.searches_performed += performed
            stats.searches_skipped += considered - performed
            stats.searches_successful += successful
            if pres.total_length() > before:
                raise EngineError("replacement pass increased total length")
            if not successful:
                break
            progress = True
        timings["replacement"] += time.perf_counter() - t0

        if cfg.long_elim_enabled:
            t0 = time.perf_counter()
            did_long = long_eliminate(pres, cfg, on_change)
            timings["long_elim"] += time.perf_counter() - t0
            if did_long:
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
