import random
from bisect import bisect_right

import pytest

from helpers import (
    ScriptedSearcher,
    dense_presentation,
    necessary_set_oracle,
    performed_set,
    recorded,
    sparse_presentation,
)
from tietze.engine import ReplacingSearcher
from tietze.match import SearchCounters
from tietze.presentation import make_presentation, sort_rel
from tietze.skip import (
    POLICY_NAMES,
    PassContext,
    SearchEvent,
    init_pass_state,
    mark_changed,
    pass_change_flags,
    pass_sorted,
    pass_unsorted,
    run_pass,
)
from tietze.strategies import make_strategy


class NeverMatch:
    def __call__(self, pres, pattern, text):
        return False


class ChangeOn:
    """Change the text on designated (pattern_id, text_id) pairs, in order."""

    def __init__(self, targets):
        self.targets = list(targets)
        self.calls = 0
        self.changes = []

    def __call__(self, pres, pattern, text):
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
    _, ev1 = recorded(pass_unsorted, pres, ctx, NeverMatch())
    assert searched(ev1) == [(0, 1), (0, 2), (1, 2)]
    assert all(x == 0 for x in ctx.ts_local)
    assert [(r.tp, r.ts) for r in pres.rel] == [(1, 0), (2, 0), (3, 0)]
    _, ev2 = recorded(pass_unsorted, pres, ctx, NeverMatch())
    assert searched(ev2) == []


def test_unsorted_stamps_and_next_pass_reaction():
    # lengths chosen so the changed relator keeps its sorted position
    pres, ctx = fresh("ts-unsorted", lengths=(2, 4, 6))
    r1, r2, r3 = pres.rel
    searcher = ChangeOn([(r1.id, r2.id)])
    _, ev1 = recorded(pass_unsorted, pres, ctx, searcher)
    # (r2, r3) still searched in the same pass through ts_local
    assert (r2.id, r3.id) in searched(ev1)
    assert (r1.tp, r1.ts) == (1, 0) and (r2.tp, r2.ts) == (2, 1)
    sort_rel(pres)
    _, ev2 = recorded(pass_unsorted, pres, ctx, NeverMatch())
    # (r1, r2) searched again: r1 stamped before r2 changed
    assert (r1.id, r2.id) in searched(ev2)


def test_unsorted_same_pass_reaction_via_ts_local():
    pres, ctx = fresh("ts-unsorted", lengths=(2, 3, 4, 6))
    r1, r2, r3, r4 = pres.rel
    searcher = ChangeOn([(r1.id, r4.id), (r1.id, r4.id)])
    pass_unsorted(pres, ctx, searcher)
    sort_rel(pres)
    _, ev2 = recorded(pass_unsorted, pres, ctx, searcher)
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
    _, ev = recorded(pass_unsorted, pres, ctx, searcher)
    pairs = [(e.pattern_id, e.text_id) for e in ev]
    assert (r1.id, r3.id) in pairs
    assert (r2.id, r3.id) not in pairs  # deferred, no event at all


def test_change_flags_first_pass_full():
    pres, ctx = fresh("flags")
    _, ev = recorded(pass_change_flags, pres, ctx, NeverMatch())
    assert searched(ev) == [(0, 1), (0, 2), (1, 2)]
    _, ev2 = recorded(pass_change_flags, pres, ctx, NeverMatch())
    assert searched(ev2) == []


def test_change_flags_exact_pairs_for_single_flag():
    pres, ctx = fresh("flags")
    ctx.first_pass = False
    ctx.flags_pending = {pres.rel[1].id}
    _, ev = recorded(pass_change_flags, pres, ctx, NeverMatch())
    assert searched(ev) == [(0, 1), (1, 2)]
    skipped = [(e.pattern_id, e.text_id) for e in ev if not e.performed]
    assert skipped == [(0, 2)]


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


def run_theorem_trial(policy, seed):
    rng = random.Random(seed)
    pres = dense_presentation(rng, d_max=4, q_max=12, l_max=10)
    if len(pres.rel) < 2:
        return True
    sort_rel(pres)
    ctx = PassContext(policy=policy)
    init_pass_state(pres, ctx)
    searcher = ScriptedSearcher(seed * 31 + 7)
    events = []
    for _ in range(80):
        sort_rel(pres)
        if not run_pass(pres, ctx, searcher, events.append).successful:
            break
    return necessary_set_oracle(events, searcher.changes) == performed_set(events)


def test_sorted_equals_necessity_oracle_sample():
    assert all(run_theorem_trial("ts-sorted", s) for s in range(120))


def test_unsorted_equals_necessity_oracle_sample():
    assert all(run_theorem_trial("ts-unsorted", s) for s in range(120))


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
            ctx.pass_no, ctx.timer, ctx.reorders, list(ctx.ts_local),
            ctx.first_pass, set(ctx.flags_pending))


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
            mark_changed(pres, ctx, r)


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("kind", ["scripted", "replacing"])
def test_recorder_changes_nothing_with_out_of_pass_changes(policy, kind):
    # after the first pass most ts-sorted pattern loops are dead and are
    # counted without being walked unless a recorder is attached; marks
    # between passes, as eliminations make, revive a few of them, and
    # re-insertions mid-pass move live texts behind later patterns
    _compare_recorded_and_bare(policy, kind, passes=12, between=_eliminations_between_passes)


def _reference_pass_sorted(pres, ctx, searcher):
    """ts-sorted as first written: re-locates the pattern with rel.index."""
    ctx.pass_no += 1
    rel = pres.rel
    events = []
    pi = 0
    while pi < len(rel) - 1:
        pattern = rel[pi]
        visited = set()
        ti = pi + 1
        while ti < len(rel):
            text = rel[ti]
            if text.id in visited:
                ti += 1
                continue
            visited.add(text.id)
            if pattern.tp <= text.ts:
                success = searcher(pres, pattern, text)
                events.append(SearchEvent(pattern.id, text.id, ctx.pass_no, True, success))
                if success:
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
        pi = rel.index(pattern) + 1
    return events


class Rewrite:
    """Cut the text to a given length on designated (pattern id, text id) pairs."""

    def __init__(self, cuts):
        self.cuts = dict(cuts)

    def __call__(self, pres, pattern, text):
        n = self.cuts.pop((pattern.id, text.id), None)
        if n is None:
            return False
        text.set_word(text.word[:n])
        return True


class RandomCut:
    """Cut texts to a random shorter length (often below the pattern's)."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def __call__(self, pres, pattern, text):
        if len(text.word) > 1 and self.rng.random() < 0.3:
            text.set_word(text.word[:self.rng.randrange(1, len(text.word))])
            return True
        return False


def _compare_with_reference(pres, make_searcher, passes=1):
    ref = pres.clone()
    ctx, ref_ctx = PassContext(policy="ts-sorted"), PassContext(policy="ts-sorted")
    init_pass_state(pres, ctx)
    init_pass_state(ref, ref_ctx)
    searcher, ref_searcher = make_searcher(), make_searcher()
    all_events = []
    for _ in range(passes):
        tally, events = recorded(pass_sorted, pres, ctx, searcher)
        ref_events = _reference_pass_sorted(ref, ref_ctx, ref_searcher)
        assert events == ref_events
        assert tally == _tally_from(ref_events)
        assert _state(pres, ctx) == _state(ref, ref_ctx)
        all_events.extend(events)
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
