import random
from bisect import bisect_right
from dataclasses import asdict
from pathlib import Path

import pytest

from helpers import (
    PairSearcher,
    ScriptedSearcher,
    dense_presentation,
    necessary_set_oracle,
    performed_set,
    recorded,
    sparse_presentation,
    theorem_trial,
    unreached_after_early_end,
)
from tietze import skip
from tietze.engine import EngineConfig, ReplacingSearcher, simplify
from tietze.match import SearchCounters
from tietze.presentation import (
    make_presentation,
    parse_presentation,
    serialize_presentation,
    sort_rel,
)
from tietze.skip import (
    POLICY_NAMES,
    PassContext,
    PassTally,
    SearchEvent,
    init_pass_state,
    mark_changed,
    pass_frozen,
    pass_sorted,
    run_pass,
)
from tietze.strategies import make_strategy
from tietze.words import eliminable


class NeverMatch(PairSearcher):
    def pair(self, pattern, text):
        return False


class ChangeOn(PairSearcher):
    """Change the text on designated (pattern_id, text_id) pairs, in order."""

    def __init__(self, targets):
        self.targets = list(targets)
        self.calls = 0
        self.changes = []

    def pair(self, pattern, text):
        ordinal = self.calls
        self.calls += 1
        if (pattern.id, text.id) in self.targets and len(text.word) > 1:
            self.targets.remove((pattern.id, text.id))
            text.set_word(text.word[:-1])
            self.changes.append((text.id, ordinal))
            return True
        return False


def fresh(policy, lengths=(2, 3, 4)):
    words = {2: (1, 2), 3: (1, 2, 1), 4: (1, 2, 1, 2), 5: (1, 2, 1, 2, 1),
             6: (1, 2, 1, 2, 1, 2)}
    pres = make_presentation(2, [words[l] for l in lengths])
    sort_rel(pres)
    ctx = PassContext(policy=policy)
    init_pass_state(pres, ctx)
    return pres, ctx


def searched(events):
    return [(e.pattern_id, e.text_id) for e in events if e.performed]


def test_sorted_first_pass_then_quiescent():
    pres, ctx = fresh("ts-sorted")
    _, ev1 = recorded(pass_sorted, pres, ctx, NeverMatch())
    assert searched(ev1) == [(0, 1), (0, 2), (1, 2)]
    _, ev2 = recorded(pass_sorted, pres, ctx, NeverMatch())
    assert searched(ev2) == []


def test_sorted_same_pass_reaction_to_change():
    # a change early in pass 2 makes a later pattern search the text even
    # though that pair would otherwise have been skipped
    pres, ctx = fresh("ts-sorted", lengths=(2, 3, 4, 6))
    searcher = ChangeOn([(0, 3), (0, 3)])
    _, ev1 = recorded(pass_sorted, pres, ctx, searcher)
    assert (0, 3) in searched(ev1)
    _, ev2 = recorded(pass_sorted, pres, ctx, searcher)
    assert (0, 3) in searched(ev2)   # text changed during pass 1's search
    assert (1, 3) in searched(ev2)   # same-pass reaction to the pass-2 change
    skipped = [(e.pattern_id, e.text_id) for e in ev2 if not e.performed]
    assert (1, 2) in skipped         # untouched pair stays skipped


def test_sorted_single_relator_no_pairs():
    pres = make_presentation(2, [(1, 2)])
    ctx = PassContext(policy="ts-sorted")
    init_pass_state(pres, ctx)
    tally, ev = recorded(pass_sorted, pres, ctx, NeverMatch())
    assert tally == (0, 0, 0) and ev == []


def test_sorted_requires_sorted_input():
    pres = make_presentation(2, [(1, 2, 1), (1, 2)])  # unsorted on purpose
    ctx = PassContext(policy="ts-sorted")
    with pytest.raises(ValueError):
        pass_sorted(pres, ctx, NeverMatch())


def test_unsorted_first_pass_full_then_quiescent():
    pres, ctx = fresh("ts-unsorted")
    # the three start marks took stamps 1, 2, 3; the loops take 4, 5, 6
    assert [(r.tp, r.ts) for r in pres.rel] == [(-1, 1), (-1, 2), (-1, 3)]
    assert ctx.timer == 4
    _, ev1 = recorded(pass_frozen, pres, ctx, NeverMatch())
    assert searched(ev1) == [(0, 1), (0, 2), (1, 2)]
    assert ctx.flagged == set()
    assert [(r.tp, r.ts) for r in pres.rel] == [(4, 1), (5, 2), (6, 3)]
    assert ctx.timer == 7
    _, ev2 = recorded(pass_frozen, pres, ctx, NeverMatch())
    assert searched(ev2) == []


def test_unsorted_stamps_and_next_pass_reaction():
    # lengths chosen so the changed relator keeps its sorted position
    pres, ctx = fresh("ts-unsorted", lengths=(2, 4, 6))
    r1, r2, r3 = pres.rel
    searcher = ChangeOn([(r1.id, r2.id)])
    start = ctx.timer
    _, ev1 = recorded(pass_frozen, pres, ctx, searcher)
    # (r2, r3) still searched in the same pass: r2 changed this pass
    assert (r2.id, r3.id) in searched(ev1)
    # r1's loop took stamp ``start`` and changed r2, which its own loop
    # stamped next; r1 keeps the ts of its start mark
    assert (r1.tp, r1.ts) == (start, 1) and (r2.tp, r2.ts) == (start + 1, start)
    sort_rel(pres)
    _, ev2 = recorded(pass_frozen, pres, ctx, NeverMatch())
    # (r1, r2) searched again: r1 stamped before r2 changed
    assert (r1.id, r2.id) in searched(ev2)


def test_unsorted_same_pass_reaction_to_change():
    pres, ctx = fresh("ts-unsorted", lengths=(2, 3, 4, 6))
    r1, r2, r3, r4 = pres.rel
    searcher = ChangeOn([(r1.id, r4.id), (r1.id, r4.id)])
    pass_frozen(pres, ctx, searcher)
    sort_rel(pres)
    _, ev2 = recorded(pass_frozen, pres, ctx, searcher)
    # the pass-2 change at pattern position 1 wakes up (r2, r4) ...
    assert (r1.id, r4.id) in searched(ev2)
    assert (r2.id, r4.id) in searched(ev2)
    # ... while untouched pairs stay skipped
    skipped = [(e.pattern_id, e.text_id) for e in ev2 if not e.performed]
    assert (r2.id, r3.id) in skipped


def test_unsorted_defers_pairs_broken_by_shrinking():
    # text shrinks below a later pattern: that pair is not considered
    pres, ctx = fresh("ts-unsorted", lengths=(2, 4, 4))
    r1, r2, r3 = pres.rel
    searcher = ChangeOn([(r1.id, r3.id)])
    # shrink r3 to length 3 via the scripted change
    _, ev = recorded(pass_frozen, pres, ctx, searcher)
    pairs = [(e.pattern_id, e.text_id) for e in ev]
    assert (r1.id, r3.id) in pairs
    assert (r2.id, r3.id) not in pairs  # deferred, no event at all


def test_change_flags_first_pass_full():
    pres, ctx = fresh("flags")
    _, ev = recorded(pass_frozen, pres, ctx, NeverMatch())
    assert searched(ev) == [(0, 1), (0, 2), (1, 2)]
    _, ev2 = recorded(pass_frozen, pres, ctx, NeverMatch())
    assert searched(ev2) == []


def test_change_flags_exact_pairs_for_single_flag():
    pres, ctx = fresh("flags")
    ctx.flagged = {pres.rel[1].id}
    _, ev = recorded(pass_frozen, pres, ctx, NeverMatch())
    assert searched(ev) == [(0, 1), (1, 2)]
    skipped = [(e.pattern_id, e.text_id) for e in ev if not e.performed]
    assert skipped == [(0, 2)]


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_only_flags_keeps_flagged_ids(policy):
    # the first pass changes r3; r1 is then marked between passes
    pres, ctx = fresh(policy, lengths=(2, 4, 6))
    r1, _, r3 = pres.rel
    run_pass(pres, ctx, ChangeOn([(r1.id, r3.id)]))
    mark_changed(ctx, r1)
    assert ctx.flagged == ({r3.id, r1.id} if policy == "flags" else set())


def test_all_pairs_counts():
    pres, ctx = fresh("all-pairs", lengths=(2, 3, 4, 5))
    for _ in range(3):
        _, ev = recorded(run_pass, pres, ctx, NeverMatch())
        assert len(searched(ev)) == 6
    single = make_presentation(2, [(1, 2)])
    ctx = PassContext(policy="all-pairs")
    _, ev = recorded(run_pass, single, ctx, NeverMatch())
    assert ev == []


def test_all_pairs_pass_size_at_scale():
    # q relators cost q(q-1)/2 searches per static pass
    pres = make_presentation(1, [(1,) * (2 + i % 3) for i in range(510)])
    sort_rel(pres)
    ctx = PassContext(policy="all-pairs")
    _, ev = recorded(run_pass, pres, ctx, NeverMatch())
    assert len(ev) == 510 * 509 // 2 == 129_795


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("cut", [1, 2, 3])
def test_a_pass_ends_after_the_loop_that_leaves_a_text_eliminable(policy, k, cut):
    # six relators of lengths 3..8 over two generators, none eliminable;
    # after a pass that changes nothing, the last two are marked changed,
    # and pattern loop k of the next pass cuts the last one to ``cut``
    # symbols: (1,) and (1, 2) are eliminable, (1, 2, 1) is not
    pres, ctx = fresh(policy, lengths=(3, 4, 5, 6))
    for w in ((1, 2) * 3 + (1,), (1, 2) * 4):
        pres.add_relator(w)
    run_pass(pres, ctx, NeverMatch())
    ids = [r.id for r in pres.rel]
    text = pres.rel[-1]
    for r in pres.rel[-2:]:
        mark_changed(ctx, r)
    before = {r.id: (r.tp, r.ts) for r in pres.rel}
    flags_before, timer_before = set(ctx.flagged), ctx.timer
    tally, events = recorded(run_pass, pres, ctx, Rewrite({(ids[k], text.id): cut}))
    assert tally.successful == 1 and len(text.word) == cut
    assert tally.considered == len(events)
    loops = list(dict.fromkeys(e.pattern_id for e in events))
    ended = cut < 3
    if not ended:  # the pass goes on past loop k
        assert len(loops) > k + 1
        return
    assert loops == ids[:k + 1]
    unreached = ids[k + 1:]
    # one stamp per loop run, under every policy; the changed text has the
    # stamp of loop k, and the unreached keep their stamps, which the clock
    # keeps comparable with the new ones, except under ts-unsorted
    assert ctx.timer == timer_before + k + 1
    by_id = {r.id: r for r in pres.rel}
    assert [by_id[rid].tp for rid in ids[:k + 1]] == list(range(timer_before, ctx.timer))
    assert (text.tp, text.ts) == (-1, timer_before + k)
    for rid in unreached[:-1]:
        if policy == "ts-unsorted":
            # tp > text.tp would read a reached pattern's newer stamp against
            # an unreached text's older one as roles reversed: they are marked
            assert (by_id[rid].tp, by_id[rid].ts) == (-1, before[rid][1])
        else:
            assert (by_id[rid].tp, by_id[rid].ts) == before[rid]
    if policy == "flags":
        # the old flags too: a full pass would keep this pass's change only
        assert ctx.flagged == flags_before | {text.id} == {ids[-2], text.id}
    else:
        assert ctx.flagged == set()


class ClockedContext(PassContext):
    """A pass context that keeps every move of its clock: (old time, new
    time, each relator's stamps just after the move)."""

    def __init__(self, policy, pres):
        self.pres, self.ticks, self._now = pres, [], None
        super().__init__(policy=policy)

    @property
    def timer(self):
        return self._now

    @timer.setter
    def timer(self, now):
        if self._now is not None:
            self.ticks.append((self._now, now, {r.id: (r.tp, r.ts) for r in self.pres.rel}))
        self._now = now


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_one_clock_stamps_every_loop_and_mark(policy):
    # scripted passes, some ending early, with marks between them; the
    # clock moves once per pattern loop (the ts-sorted dead-tail sweep
    # moves it once for all its loops) and once per mark, and each move
    # is checked as it happens
    early = marks = 0
    for seed in range(40):
        rng = random.Random(seed)
        pres = dense_presentation(rng, d_max=4, q_max=12, l_max=10)
        if len(pres.rel) < 2:
            continue
        sort_rel(pres)
        ctx = ClockedContext(policy, pres)
        init_pass_state(pres, ctx)
        inner = ScriptedSearcher(seed, change_prob=0.3)
        calls = {}  # the clock at a searcher call -> (pattern id, ids of the texts it changed)

        def searcher(pattern, texts):
            results = inner(pattern, texts)
            calls[ctx.timer] = pattern.id, [t.id for t, ok in zip(texts, results) if ok]
            return results

        for _ in range(8):
            pres.rel[:] = [r for r in pres.rel if r.word]
            sort_rel(pres)
            order = [r.id for r in pres.rel]
            start, first_tick = ctx.timer, len(ctx.ticks)
            calls.clear()
            _, events = recorded(run_pass, pres, ctx, searcher)
            loops = []
            for old, new, stamps in ctx.ticks[first_tick:]:
                # the patterns of the loops this move ends, and only they,
                # hold the stamps from old to new
                stamped = sorted((tp, rid) for rid, (tp, _) in stamps.items() if old <= tp < new)
                assert [tp for tp, _ in stamped] == list(range(old, new)), (seed, old, new)
                assert new == old + 1 or policy == "ts-sorted"
                loops += [rid for _, rid in stamped]
                if old in calls:
                    pattern_id, changed = calls.pop(old)
                    assert stamps[pattern_id][0] == old
                    assert all(stamps[rid] == (-1, old) for rid in changed), (seed, old)
            assert not calls and ctx.timer == start + len(loops)
            if policy == "ts-sorted":
                assert loops == list(dict.fromkeys(e.pattern_id for e in events))
            else:
                unreached = unreached_after_early_end(order, events, pres)
                assert loops == order[:len(order) - len(unreached)]
                if policy == "ts-unsorted":
                    assert all(r.tp == -1 for r in pres.rel if r.id in unreached)
                early += bool(unreached)
            for r in rng.sample(pres.rel, min(len(pres.rel), rng.randint(0, 2))):
                before = ctx.timer
                mark_changed(ctx, r)
                assert (r.tp, r.ts) == (-1, before) and ctx.timer == before + 1
                marks += 1
    assert marks > 100 and (early > 20 or policy == "ts-sorted"), (marks, early)


def test_necessary_oracle_base_cases():
    e1 = SearchEvent(1, 2, 1, True, False)
    e2 = SearchEvent(1, 2, 2, True, False)
    # no change: second pass search is unnecessary
    assert necessary_set_oracle([e1, e2], []) == {(1, 2, 1)}
    # change at the first search makes the second necessary
    assert necessary_set_oracle([e1, e2], [(2, 0)]) == {(1, 2, 1), (1, 2, 2)}
    # change to an unrelated relator does not
    e_mid = SearchEvent(3, 4, 1, True, False)
    assert necessary_set_oracle([e1, e_mid, e2], [(4, 1)]) == {
        (1, 2, 1), (3, 4, 1)}


def test_sorted_equals_necessity_oracle_sample():
    assert all(theorem_trial("ts-sorted", s) == (True, 0) for s in range(120))


def test_sorted_theorem_trials_run_the_dead_loop_skip(monkeypatch):
    # the trials attach a recorder; it must not take them off the path
    # simplify runs, which stamps the dead tail of a pass in one sweep
    sweeps = []
    real = skip._stamp_dead_tail

    def counting(rel, pi, ctx, record):
        sweeps.append(len(rel) - 1 - pi)
        return real(rel, pi, ctx, record)

    monkeypatch.setattr(skip, "_stamp_dead_tail", counting)
    assert all(theorem_trial("ts-sorted", s)[0] for s in range(200))
    assert len(sweeps) > 100 and sum(sweeps) > 200, (len(sweeps), sum(sweeps))


def test_unsorted_equals_necessity_oracle_sample():
    # a pass that ends early marks the relators it did not reach; the
    # oracle counts them as changed when the pass ends
    trials = [theorem_trial("ts-unsorted", s) for s in range(120)]
    assert all(ok for ok, _ in trials)
    assert sum(marks > 0 for _, marks in trials) > 20


def _run_policy(policy, seed):
    rng = random.Random(seed)
    pres = dense_presentation(rng, d_max=4, q_max=10, l_max=8)
    if len(pres.rel) < 2:
        return None
    sort_rel(pres)
    ctx = PassContext(policy=policy)
    init_pass_state(pres, ctx)
    searcher = ScriptedSearcher(seed + 1000)
    events = []
    for _ in range(80):
        sort_rel(pres)
        if not run_pass(pres, ctx, searcher, events.append).successful:
            break
    return events, searcher.changes


def test_all_pairs_performs_every_necessary_search():
    for seed in range(60):
        run = _run_policy("all-pairs", seed)
        if run is None:
            continue
        events, changes = run
        assert necessary_set_oracle(events, changes) <= performed_set(events)


def test_flags_covers_changes_by_the_next_pass():
    # a pair skipped by flags despite a member's change earlier in the
    # same pass is searched at its next consideration
    for seed in range(60):
        run = _run_policy("flags", seed)
        if run is None:
            continue
        events, changes = run
        necessary = necessary_set_oracle(events, changes)
        performed = performed_set(events)
        for (a, b, pass_no) in necessary - performed:
            later = [e for e in events
                     if {e.pattern_id, e.text_id} == {a, b} and e.pass_no > pass_no]
            assert later and later[0].performed, (seed, a, b, pass_no)


def _state(pres, ctx):
    return ([(r.id, r.word, r.tp, r.ts) for r in pres.rel],
            ctx.pass_no, ctx.timer, ctx.reorders, set(ctx.flagged))


def _unstamped_state(pres, ctx):
    """``_state`` without the stamps and the clock."""
    return [(r.id, r.word) for r in pres.rel], ctx.pass_no, ctx.reorders, set(ctx.flagged)


def _tally_from(events):
    performed = [e for e in events if e.performed]
    return (len(events), len(performed), sum(e.successful for e in performed))


def _searcher_pair(kind, seed):
    if kind == "scripted":
        return ScriptedSearcher(seed), ScriptedSearcher(seed)
    return tuple(ReplacingSearcher(make_strategy("brute"), SearchCounters())
                 for _ in range(2))


def _presentations():
    for seed in range(25):
        yield sparse_presentation(seed)
        yield dense_presentation(random.Random(seed), d_max=4, q_max=12, l_max=10)


def _compare_recorded_and_bare(policy, kind, passes, between=None):
    """Run each presentation with and without a recorder; both must agree.

    ``between(rng, runs)``, when given, changes both runs alike between
    passes, and every pass is then run; otherwise a pass without a
    success ends the presentation.
    """
    for n, base in enumerate(_presentations()):
        runs = []
        for _ in range(2):
            pres = base.clone()
            sort_rel(pres)
            ctx = PassContext(policy=policy)
            init_pass_state(pres, ctx)
            runs.append((pres, ctx))
        (p_rec, c_rec), (p_bare, c_bare) = runs
        s_rec, s_bare = _searcher_pair(kind, n)
        rng = random.Random(n)
        for _ in range(passes):
            for pres in (p_rec, p_bare):
                # the engine's boundary maintenance: drop emptied relators, sort
                pres.rel[:] = [r for r in pres.rel if len(r.word) > 0]
                sort_rel(pres)
            tally, events = recorded(run_pass, p_rec, c_rec, s_rec)
            assert tally == _tally_from(events), (n, tally)
            assert run_pass(p_bare, c_bare, s_bare) == tally, n
            assert _state(p_bare, c_bare) == _state(p_rec, c_rec), n
            if between is not None:
                between(rng, runs)
            elif not tally.successful:
                break


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("kind", ["scripted", "replacing"])
def test_tally_matches_recorded_events_and_recorder_changes_nothing(policy, kind):
    _compare_recorded_and_bare(policy, kind, passes=40)


def _eliminations_between_passes(rng, runs):
    """Mark up to three relators changed, shortening some, in both runs."""
    ids = [r.id for r in runs[0][0].rel]
    marked = rng.sample(ids, min(len(ids), rng.randint(0, 3)))
    shorten = [rng.random() < 0.5 for _ in marked]
    for pres, ctx in runs:
        by_id = {r.id: r for r in pres.rel}
        for rid, cut in zip(marked, shorten):
            r = by_id[rid]
            if cut and len(r.word) > 1:
                r.set_word(r.word[:-1])
            mark_changed(ctx, r)


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("kind", ["scripted", "replacing"])
def test_recorder_changes_nothing_with_out_of_pass_changes(policy, kind):
    # after the first pass most ts-sorted pattern loops are dead and are
    # counted without being walked unless a recorder is attached; marks
    # between passes, as eliminations make, revive a few of them, and
    # re-insertions mid-pass move live texts behind later patterns
    _compare_recorded_and_bare(policy, kind, passes=12, between=_eliminations_between_passes)


def _pseudocode_start(pres, ctx):
    """The paper's initial timestamps, set per policy."""
    if ctx.policy == "ts-sorted":
        ctx.timer = 1
        for r in pres.rel:
            r.tp, r.ts = -1, 0
    elif ctx.policy == "ts-unsorted":
        # the positions are the first n stamps; the clock goes on after them
        for pos, r in enumerate(pres.rel, start=1):
            r.tp = r.ts = pos
        ctx.timer = len(pres.rel) + 1
    elif ctx.policy == "flags":
        ctx.flagged = {r.id for r in pres.rel}


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_marking_every_relator_starts_like_the_pseudocode_stamps(policy):
    # a marked relator has tp = -1, so the first pass searches every pair as
    # the paper's stamps arrange; under ts-sorted every later stamp moves up
    # by the same n, which no tp <= ts comparison can see
    for n, base in enumerate(_presentations()):
        rng = random.Random(n)
        # stamps left over from an earlier run, which either start must override
        leftover = [(rng.randint(-1, 50), rng.randint(0, 50)) for _ in base.rel]
        runs = []
        for start in (_pseudocode_start, init_pass_state):
            pres = base.clone()
            for r, (tp, ts) in zip(pres.rel, leftover):
                r.tp, r.ts = tp, ts
            sort_rel(pres)
            ctx = PassContext(policy=policy)
            start(pres, ctx)
            runs.append((pres, ctx))
        searchers = [ScriptedSearcher(n, change_prob=0.3) for _ in runs]
        for _ in range(6):
            outcomes = []
            for (pres, ctx), searcher in zip(runs, searchers):
                pres.rel[:] = [r for r in pres.rel if len(r.word) > 0]
                sort_rel(pres)
                tally, events = recorded(run_pass, pres, ctx, searcher)
                outcomes.append((tally, events, [(r.id, r.word) for r in pres.rel],
                                 ctx.reorders))
            assert outcomes[0] == outcomes[1], (n, outcomes[0][0], outcomes[1][0])
            _eliminations_between_passes(rng, runs)


def _reference_pass_sorted(pres, ctx, searcher):
    """ts-sorted as first written: re-locates the pattern with rel.index;
    ends after the pattern loop that leaves a text eliminable."""
    ctx.pass_no += 1
    rel = pres.rel
    events = []
    pi = 0
    while pi < len(rel) - 1:
        pattern = rel[pi]
        visited = set()
        short = False
        ti = pi + 1
        while ti < len(rel):
            text = rel[ti]
            if text.id in visited:
                ti += 1
                continue
            visited.add(text.id)
            if pattern.tp <= text.ts:
                success = searcher(pattern, [text])[0]
                events.append(SearchEvent(pattern.id, text.id, ctx.pass_no, True, success))
                if success:
                    short = short or eliminable(text.word)
                    text.tp = -1
                    text.ts = ctx.timer
                    rel.pop(ti)
                    new_pos = bisect_right(rel, len(text.word), key=lambda r: len(r.word))
                    if new_pos != ti:
                        ctx.reorders += 1
                    rel.insert(new_pos, text)
                    pi = rel.index(pattern)
                    ti = pi + 1
                    continue
            else:
                events.append(SearchEvent(pattern.id, text.id, ctx.pass_no, False, False))
            ti += 1
        pattern.tp = ctx.timer
        ctx.timer += 1
        if short:
            break
        pi = rel.index(pattern) + 1
    return events


def _reference_pass_unsorted(pres, ctx, searcher):
    """ts-unsorted as first written: one searcher call per considered pair;
    after the pattern loop that leaves a text eliminable, every later
    relator gets tp = -1 and the pass ends."""
    ctx.pass_no += 1
    snapshot = list(pres.rel)
    n = len(snapshot)
    ts_local = [0] * (n + 1)  # per position, 1-based: the position that changed it
    events = []
    for p in range(1, n + 1):
        pattern = snapshot[p - 1]
        p_len = len(pattern.word)
        short = False
        if p_len >= 1:
            p_tp = pattern.tp
            p_changed = ts_local[p]
            for t in range(p + 1, n + 1):
                text = snapshot[t - 1]
                if len(text.word) < p_len:
                    continue
                if (p_changed + ts_local[t] != 0
                        or p_tp > text.tp
                        or p_tp <= text.ts):
                    success = searcher(pattern, [text])[0]
                    events.append(SearchEvent(pattern.id, text.id, ctx.pass_no, True, success))
                    if success:
                        ts_local[t] = p
                        short = short or eliminable(text.word)
                else:
                    events.append(SearchEvent(pattern.id, text.id, ctx.pass_no, False, False))
        pattern.tp = p
        pattern.ts = ts_local[p]
        if short:
            for later in snapshot[p:]:
                later.tp = -1
            break
    return events


def _reference_pass_change_flags(pres, ctx, searcher):
    """flags and all-pairs as first written: one searcher call per considered
    pair; only flags keeps flagged ids.  After the pattern loop that leaves
    a text eliminable the pass ends, and flags keeps its old flags too."""
    ctx.pass_no += 1
    all_pairs = ctx.policy == "all-pairs"
    flagged = ctx.flagged
    if not all_pairs:
        ctx.flagged = set()
    snapshot = list(pres.rel)
    events = []
    for i in range(len(snapshot) - 1):
        pattern = snapshot[i]
        if len(pattern.word) < 1:
            continue
        short = False
        for j in range(i + 1, len(snapshot)):
            text = snapshot[j]
            if len(text.word) < len(pattern.word):
                continue
            if all_pairs or pattern.id in flagged or text.id in flagged:
                success = searcher(pattern, [text])[0]
                events.append(SearchEvent(pattern.id, text.id, ctx.pass_no, True, success))
                short = short or success and eliminable(text.word)
                if success and not all_pairs:
                    ctx.flagged.add(text.id)
            else:
                events.append(SearchEvent(pattern.id, text.id, ctx.pass_no, False, False))
        if short:
            if not all_pairs:
                ctx.flagged |= flagged
            break
    return events


_REFERENCES = {
    "all-pairs": _reference_pass_change_flags,
    "flags": _reference_pass_change_flags,
    "ts-sorted": _reference_pass_sorted,
    "ts-unsorted": _reference_pass_unsorted,
}


class Rewrite(PairSearcher):
    """Cut the text to a given length on designated (pattern id, text id) pairs."""

    def __init__(self, cuts):
        self.cuts = dict(cuts)

    def pair(self, pattern, text):
        n = self.cuts.pop((pattern.id, text.id), None)
        if n is None:
            return False
        text.set_word(text.word[:n])
        return True


class RandomCut(PairSearcher):
    """Cut texts to a random shorter length (often below the pattern's)."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def pair(self, pattern, text):
        if len(text.word) > 1 and self.rng.random() < 0.3:
            text.set_word(text.word[:self.rng.randrange(1, len(text.word))])
            return True
        return False


def _compare_with_reference(pres, make_searcher, passes=1, policy="ts-sorted",
                            between=None):
    """Run the batched driver and the pair-by-pair reference side by side.

    Events, tallies and ``_state`` must agree after every pass; only the
    ts-sorted reference stamps from the clock, so for the other policies
    every part of ``_state`` but the stamps and the clock must.  Between
    passes both sequences are sorted, as the engine's boundary maintenance
    does; ``ts-sorted`` keeps its sequence sorted itself.  ``between(runs)``,
    when given, changes both runs alike after every pass and leaves them
    sorted.
    """
    ref = pres.clone()
    ctx, ref_ctx = PassContext(policy=policy), PassContext(policy=policy)
    init_pass_state(pres, ctx)
    init_pass_state(ref, ref_ctx)
    searcher, ref_searcher = make_searcher(), make_searcher()
    all_events = []
    for _ in range(passes):
        if policy != "ts-sorted":
            sort_rel(pres)
            sort_rel(ref)
        tally, events = recorded(run_pass, pres, ctx, searcher)
        ref_events = _REFERENCES[policy](ref, ref_ctx, ref_searcher)
        assert events == ref_events
        assert tally == _tally_from(ref_events)
        state = _state if policy == "ts-sorted" else _unstamped_state
        assert state(pres, ctx) == state(ref, ref_ctx)
        all_events.extend(events)
        if between is not None:
            between([(pres, ctx), (ref, ref_ctx)])
    return all_events


@pytest.mark.parametrize("pattern_pos, text_offset", [(0, 1), (2, 1), (0, 3), (2, 3)])
def test_sorted_text_cut_below_pattern_reinserted_before_it(pattern_pos, text_offset):
    # lengths 2, 3, 4, 5, 6, 7, 8: the text at pattern_pos + text_offset is
    # cut to length 1, shorter than every pattern, so it is re-inserted at
    # position 0, before the pattern, which moves one place right
    pres, _ = fresh("ts-sorted", lengths=(2, 3, 4, 5, 6))
    for w in ((1, 2, 1, 2, 1, 2, 1), (1, 2, 1, 2, 1, 2, 1, 2)):
        pres.add_relator(w)
    pattern = pres.rel[pattern_pos]
    text = pres.rel[pattern_pos + text_offset]
    events = _compare_with_reference(pres, lambda: Rewrite({(pattern.id, text.id): 1}))
    assert pres.rel[0] is text and pres.rel[pattern_pos + 1] is pattern
    # every other text of the pattern is still considered, once
    after = [e.text_id for e in events if e.pattern_id == pattern.id]
    assert sorted(after) == sorted([r.id for r in pres.rel[pattern_pos + 2:]] + [text.id])


def test_sorted_text_cut_to_pattern_length_and_annihilated():
    # a text cut to the pattern's own length stays after it; an emptied
    # text goes to the front
    pres, _ = fresh("ts-sorted", lengths=(2, 3, 4, 5, 6))
    r = list(pres.rel)
    cuts = {(r[1].id, r[3].id): 3, (r[1].id, r[4].id): 0}
    _compare_with_reference(pres, lambda: Rewrite(cuts), passes=3)
    assert [len(x.word) for x in pres.rel] == [0, 2, 3, 3, 4]
    assert pres.rel[0] is r[4] and pres.rel[3] is r[3]


def test_sorted_equals_reference_under_random_cuts():
    for seed in range(200):
        rng = random.Random(seed)
        pres = dense_presentation(rng, d_max=3, q_max=12, l_max=12)
        sort_rel(pres)
        _compare_with_reference(pres, lambda: RandomCut(seed), passes=4)


def _some_pairs(pres, rng, k):
    """k random (pattern id, text id) pairs of distinct relators, with repeats."""
    ids = [r.id for r in pres.rel]
    return [tuple(rng.sample(ids, 2)) for _ in range(k)] if len(ids) >= 2 else []


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("kind", ["random-cut", "scripted", "change-on"])
def test_batched_drivers_equal_pair_references(policy, kind):
    # each driver selects a pattern's searchable texts up front and searches
    # them in one call; the pair-by-pair drivers they replaced must see the
    # same events, tallies and state on every pass
    for seed in range(40):
        rng = random.Random(seed)
        if seed % 2:
            pres = dense_presentation(rng, d_max=3, q_max=12, l_max=12)
        else:
            pres = sparse_presentation(seed)
        sort_rel(pres)
        if kind == "random-cut":
            make = lambda: RandomCut(seed)  # noqa: E731
        elif kind == "scripted":
            make = lambda: ScriptedSearcher(seed, change_prob=0.3)  # noqa: E731
        else:
            targets = _some_pairs(pres, rng, 2 * len(pres.rel))
            make = lambda: ChangeOn(targets)  # noqa: E731
        _compare_with_reference(pres, make, passes=5, policy=policy)


def test_sorted_several_successes_later_text_cut_below_earlier():
    # one pattern loop with two or three successes, where a later text is
    # cut below an earlier one: the later text is already short while the
    # earlier one is re-inserted, so the sorted position must be looked up
    # left of the earlier text only
    cases = 0
    for pattern_pos in range(3):
        for j in range(pattern_pos + 1, 8):
            for i in range(j + 1, 9):
                for cut_j in range(1, j + 2):
                    for cut_i in range(0, cut_j):
                        pres, _ = fresh("ts-sorted", lengths=(2, 3, 4, 5, 6))
                        for w in ((1, 2, 1, 2, 1, 2, 1), (1, 2, 1, 2, 1, 2, 1, 2),
                                  (1, 2, 1, 2, 1, 2, 1, 2, 1), (1, 2) * 5):
                            pres.add_relator(w)
                        r = list(pres.rel)
                        cuts = {(r[pattern_pos].id, r[j].id): cut_j,
                                (r[pattern_pos].id, r[i].id): cut_i}
                        if i + 1 < len(r):
                            cuts[(r[pattern_pos].id, r[-1].id)] = cut_i
                        _compare_with_reference(pres, lambda: Rewrite(cuts), passes=2)
                        cases += 1
    assert cases > 300


def test_sorted_equals_reference_across_out_of_pass_changes():
    # between passes, in both runs alike: marks (some shortening), an
    # emptied relator dropped, and a relator grown past the last one and
    # marked, so that the re-sort moves the previous pass's last relator,
    # never a pattern in that pass, to a pattern position while its stamp
    # predates that pass; and sometimes relators of equal length reordered,
    # since any sorted sequence is a valid pass input, which can leave such
    # a pattern with only unchanged texts after it
    stale = cold_after = 0
    for seed in range(120):
        rng = random.Random(seed)
        if seed % 2:
            pres = dense_presentation(rng, d_max=3, q_max=12, l_max=12)
        else:
            pres = sparse_presentation(seed)
        sort_rel(pres)
        starts = []  # the timer at the start of each pass after the first

        def between(runs):
            nonlocal stale, cold_after
            _eliminations_between_passes(rng, runs)
            ids = [r.id for r in runs[0][0].rel]
            if not ids:
                return
            emptied = rng.choice(ids) if rng.random() < 0.3 else None
            grown = rng.choice(ids[:-1]) if len(ids) > 2 and rng.random() < 0.6 else None
            rank = {rid: k for k, rid in enumerate(rng.sample(ids, len(ids)))}
            shuffle = rng.random() < 0.5
            for pres, ctx in runs:
                by_id = {r.id: r for r in pres.rel}
                last = pres.rel[-1]
                if emptied is not None:
                    by_id[emptied].set_word(())
                if grown is not None and grown != emptied:
                    by_id[grown].set_word(by_id[grown].word + last.word)
                    mark_changed(ctx, by_id[grown])
                pres.rel[:] = [r for r in pres.rel if len(r.word) > 0]
                if shuffle:
                    pres.rel.sort(key=lambda r: rank[r.id])
                sort_rel(pres)
            start = starts[-1] if starts else 0
            if last in pres.rel[:-1] and last.tp < start and last.ts < start:
                stale += 1
            rel = pres.rel
            cold_after += any(r.tp < start and all(t.ts < start for t in rel[m + 1:])
                              for m, r in enumerate(rel[:-1]))
            starts.append(runs[0][1].timer)

        if seed % 3:
            make = lambda: RandomCut(seed)  # noqa: E731
        else:
            make = lambda: ScriptedSearcher(seed, change_prob=0.3)  # noqa: E731
        _compare_with_reference(pres, make, passes=6, between=between)
    assert stale > 40 and cold_after > 20, (stale, cold_after)


def test_simplify_equals_with_the_reference_sorted_pass(monkeypatch):
    # the whole engine, once with the batched ts-sorted driver and once with
    # the pair-by-pair reference injected through run_pass
    text = (Path(__file__).parent / "data" / "fibonacci_2_7_obfuscated_67.pres").read_text()

    def reference(pres, ctx, searcher, record=None):
        events = _reference_pass_sorted(pres, ctx, searcher)
        if record is not None:
            for e in events:
                record(e)
        return PassTally(*_tally_from(events))

    runs = []
    for inject in (False, True):
        if inject:
            monkeypatch.setitem(skip._PASS_FUNCTIONS, "ts-sorted", reference)
        pres, stats = simplify(parse_presentation(text), EngineConfig(skip_policy="ts-sorted"))
        runs.append((serialize_presentation(pres), stats.to_dict(),
                     asdict(stats.counters), stats.reorders))
    assert runs[0] == runs[1]
    assert runs[0][1]["long_elims"] > 50 and runs[0][1]["searches_successful"] > 0
