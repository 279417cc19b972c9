"""Tietze transformation engine: eliminations, replacement passes, driver.

The driver alternates short eliminations (to fixpoint), substring
replacement passes under the configured skip policy and match strategy
(to quiescence or the pass budget), and a long elimination step (one
substitution, or a whole run of lonely generators) until nothing
changes.  A pass whose rewrite leaves a relator eliminable ends after
that pattern loop, and short elimination follows at once, so a relator
of one or two symbols is removed everywhere by one substitution rather
than serving as a pattern.  Short eliminations and replacements never
lengthen the presentation; long eliminations may, within the growth limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from heapq import heapify, heappop, heappush

from .match import Match, SearchCounters, check_match
from .presentation import (
    Presentation,
    RelatorRecord,
    compact_labels,
    normalize_involutions,
    remove_duplicates,
    sort_rel,
)
from .skip import POLICY_NAMES, PassContext, Recorder, init_pass_state, mark_changed, run_pass
from .strategies import STRATEGIES, make_strategy
from .words import Word, cyclic_reduce, eliminable, invert, reduce_cyclic_word


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
        if type(self.growth_limit) not in (int, float) or not self.growth_limit >= 1.0:  # or NaN
            raise ValueError("growth_limit must be a number >= 1.0")
        if type(self.max_passes) is not int or self.max_passes < 1:  # nor a bool
            raise ValueError("max_passes must be an int >= 1")
        if type(self.bloom_log2_size) is not int or not 3 <= self.bloom_log2_size <= 30:
            raise ValueError("bloom_log2_size must be an int in 3..30")
        if type(self.seed) is not int:  # None would draw a fresh base each run
            raise ValueError("seed must be an int")
        if type(self.long_elim_enabled) is not bool:  # "off" would be truthy
            raise ValueError("long_elim_enabled must be a bool")


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
    reorders: int = 0

    def to_dict(self) -> dict:
        """The fields declared before ``counters``, in order."""
        names = [f.name for f in fields(self)]
        return {name: getattr(self, name) for name in names[:names.index("counters")]}


def apply_replacement(t_word: Word, m: Match, p_word: Word) -> Word:
    """Replace the text's v segment by the pattern's inverted u segment.

    With the pattern equivalent u.v and the text rotation w.v, the text
    becomes w.u^-1, cyclically reduced; strictly shorter since v is longer
    than u.  w and u^-1 are freely reduced and cancel where they meet only
    if v extends backward, which a maximal match (``match_from_seed``) does not.
    """
    pe, te = check_match(m, p_word, t_word)  # engine bug guard
    w = te[:len(t_word) - m.v_len]
    if m.u_len and w and w[-1] == pe[m.u_len - 1]:
        raise EngineError("match not maximal: its v extends backward")
    return cyclic_reduce(w + invert(pe[:m.u_len]))


def substitute(pres: Presentation, g: int, rhs: Word) -> None:
    """Replace generator g by rhs everywhere and remove g.

    Every occurrence of g becomes rhs, of g^-1 becomes invert(rhs); words
    are re-reduced and emptied relators dropped.  Only the relators whose
    word holds g or g^-1 get a new word, in relator order, through
    ``set_word``; they are found by testing each word, without building
    any relator's counts.  No other label moves: g joins ``pres.eliminated``
    until ``compact_labels``.
    """
    if not 1 <= g <= pres.d + len(pres.eliminated) or g in pres.eliminated:
        raise ValueError(f"generator {g} out of range")
    if any(abs(s) == g for s in rhs):
        raise ValueError("substitution right-hand side mentions the eliminated generator")
    rhs_inv = invert(rhs)
    emptied = False
    for r in pres.rel:
        if g in r.word or -g in r.word:
            out: list[int] = []
            for s in r.word:
                if s == g:
                    out.extend(rhs)
                elif s == -g:
                    out.extend(rhs_inv)
                else:
                    out.append(s)
            r.set_word(reduce_cyclic_word(tuple(out)))
            emptied = emptied or not r.word
    if emptied:
        pres.rel[:] = [r for r in pres.rel if r.word]
    pres.involutions.discard(g)
    pres.eliminated.add(g)
    pres.d -= 1


def _eliminate(pres: Presentation, r: RelatorRecord, g: int) -> None:
    """Solve r = 1 for ``g``, once in ``r``, and substitute the solution everywhere."""
    pos = next(i for i, s in enumerate(r.word) if abs(s) == g)
    rest = r.word[pos + 1:] + r.word[:pos]  # r is a rotation of g rest or g^-1 rest
    substitute(pres, g, invert(rest) if r.word[pos] > 0 else rest)


def short_eliminate(pres: Presentation, taken: list[RelatorRecord] | None = None) -> int:
    """Eliminate via length-1 relators and non-involutory length-2 relators.

    Runs to fixpoint.  Each step first normalizes involutions, the one
    place the engine does, so every elimination, short or long, is
    normalized before the next step reads the words.  A relator gg marks
    g as an involution and is kept.  Each step then takes the first
    relator of length 1, or of length 2 over two generators, and
    eliminates its highest generator through it.  The records rewritten
    wait on the presentation's change list.  Returns the number of
    eliminations.

    Only a record rewritten since the previous call, which ended at a
    fixpoint, can be eliminable or hold a new square or an inverse: one
    ``taken`` off the change list since, or one still on it.  A step reads
    only those, unless ``taken`` is None or they are half the relators or
    more, and still takes the first eliminable relator in relator order.
    """
    eliminations = 0
    while True:
        changed = None if taken is None else taken + pres.pending_changes()
        if changed is not None and 2 * len(changed) >= len(pres.rel):
            changed = None
        normalize_involutions(pres, changed)
        if changed is not None and not any(eliminable(r.word) for r in changed):
            return eliminations
        r = next((r for r in pres.rel if eliminable(r.word)), None)
        if r is None:
            return eliminations
        _eliminate(pres, r, max(map(abs, r.word)))
        eliminations += 1


def long_eliminate(pres: Presentation, cfg: EngineConfig, total: int, sweep: bool = True) -> int:
    """Eliminate generators that occur once in some relator; returns how many.

    A candidate is g once in a relator R longer than 2, keyed (predicted
    growth occurrences_elsewhere * (len(R) - 1) - len(R), g, R's id).  A
    lonely g, once in all, scores -len(R) <= -3, below any other (>= -1).
    With none, the least key is substituted if the predicted total stays
    within growth_limit times ``total``, the current total length (per
    call, so calls may compound growth; if the least key fails, all do).

    Otherwise a heap of the lonely keys and a local copy of the tally take
    their whole run: a pop whose R is live deletes R (g := the rest of R
    makes it read 1), and a generator whose count falls to 1 is pushed with
    its holder.  A deletion rewrites no live word, so the driver's rounds
    in between would eliminate, normalize, mark and pass nothing, and, with
    lengths fixed and counts falling, each would take the next pop.
    ``sweep`` False stops after one: the driver passes it while a pass's
    rewrites await normalization, which may rewrite a live word.
    """
    occurrences = pres.occurrences()
    lonely, best = [], None
    for r in pres.rel:
        n = len(r.word)
        if n > 2:
            for g in r.once():
                key = ((occurrences[g] - 1) * (n - 1) - n, g, r.id, r)
                if occurrences[g] == 1:
                    lonely.append(key)
                elif best is None or key < best:  # (score, g, id) decides
                    best = key
    if not lonely:
        if best is None or total + best[0] > cfg.growth_limit * total:
            return 0
        _eliminate(pres, best[3], best[1])
        return 1
    heapify(lonely)
    left, gens = dict(occurrences), pres.d
    while lonely and (sweep or pres.d == gens):
        _, g, _, r = heappop(lonely)
        if not r.word:  # deleted with an earlier generator
            continue
        counts = r.counts()
        r.set_word(())
        pres.involutions.discard(g)
        pres.eliminated.add(g)
        pres.d -= 1
        for h, c in counts.items():
            left[h] -= c
            if left[h] == 1:  # push h with its one live holder
                s = next(s for s in pres.rel if s.word and h in s.counts())
                if len(s.word) > 2:
                    heappush(lonely, (-len(s.word), h, s.id, s))
    pres.rel[:] = [r for r in pres.rel if r.word]
    return gens - pres.d


class ReplacingSearcher:
    """The engine's real searcher: find useful matches, rewrite the texts.

    It sees one pattern record and the texts to search it against.  The
    strategy searches them all in one call; each match then rewrites its
    own text, in order.  A rewrite may write an involution's inverse into
    the text, which stays until the next normalization.
    """

    def __init__(self, strategy, counters: SearchCounters):
        self.strategy = strategy
        self.counters = counters

    def __call__(self, pattern: RelatorRecord, texts: list[RelatorRecord]) -> list[bool]:
        p_word = pattern.word
        matches = self.strategy.search(p_word, [t.word for t in texts], self.counters)
        changed = []
        for text, m in zip(texts, matches):
            if m is not None:
                new = apply_replacement(text.word, m, p_word)
                if len(new) >= len(text.word):
                    raise EngineError("replacement failed to shorten the text relator")
                text.set_word(new)
            changed.append(m is not None)
        return changed


def _boundary_maintenance(pres: Presentation) -> None:
    sort_rel(pres)
    remove_duplicates(pres)


def simplify(pres: Presentation, cfg: EngineConfig | None = None,
             record: Recorder | None = None) -> tuple[Presentation, EngineStats]:
    """Run the full simplification driver in place; returns (pres, stats).

    ``record`` is handed straight to every ``run_pass`` and only observes.
    After each short elimination, which also follows every long one, each
    live record on the presentation's change list is marked changed, once,
    in order of first rewrite; the first one normalizes the input's
    involutions.  Each pass's rewrites are taken and handed to the next
    short elimination, unmarked, since the pass drivers stamp their own.

    No pass starts with an eliminable relator, so one among a pass's
    rewrites means it ended early (see ``skip``); ``short_eliminate`` then
    runs at once, and the passes resume.  Such a pass counts in ``passes``
    and against ``max_passes``.

    After the first pass, one runs only while a live relator was rewritten
    since the last began.  After a pass that succeeded nowhere, with
    nothing marked since, every pair holds the words that pass searched or
    skipped as failed, so another would succeed nowhere and, but under
    ``all-pairs``, search nothing; it is not run and counts nowhere.
    Boundary maintenance (sorting and duplicate removal) runs at start-up,
    then before a pass only when a relator was rewritten since.
    Eliminations keep every other label; ``compact_labels`` closes their
    gaps once, at the end.  The total length is computed only at a phase
    boundary where it may have moved; both length guards compare with it.
    """
    if cfg is None:
        cfg = EngineConfig()
    stats = EngineStats(
        total_length_before=pres.total_length(),
        gens_before=pres.d,
        rels_before=len(pres.rel),
    )
    strategy = make_strategy(cfg.match_strategy, cfg.seed, cfg.bloom_log2_size)
    searcher = ReplacingSearcher(strategy, stats.counters)
    ctx = PassContext(policy=cfg.skip_policy)
    rewritten = False
    carried = None  # the pass takes since the last short elimination; None: read all
    for r in pres.rel:
        r.set_word(reduce_cyclic_word(r.word))
    _boundary_maintenance(pres)
    pres.take_changes()  # every relator is marked next
    init_pass_state(pres, ctx)
    length = pres.total_length()

    while True:
        progress = False

        elims = short_eliminate(pres, carried)
        carried = []
        for r in pres.take_changes():
            if r.word:
                rewritten = True
                mark_changed(ctx, r)
        if elims:
            before, length = length, pres.total_length()
            if length > before:
                raise EngineError("short elimination increased total length")
            stats.short_elims += elims
            progress = True

        ended_early = False
        while stats.passes < cfg.max_passes and (rewritten or not stats.passes):
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
            # the pass drivers stamped their own rewrites
            taken = pres.take_changes()
            carried += taken
            ended_early = any(eliminable(r.word) for r in taken)
            if ended_early:
                break

        if ended_early:
            continue
        elims = cfg.long_elim_enabled and long_eliminate(pres, cfg, length, not carried)
        if elims:
            length = pres.total_length()
            stats.long_elims += elims
            continue
        if not progress:
            break

    _boundary_maintenance(pres)
    compact_labels(pres)
    stats.reorders = ctx.reorders
    stats.total_length_after = pres.total_length()
    stats.gens_after = pres.d
    stats.rels_after = len(pres.rel)
    return pres, stats
