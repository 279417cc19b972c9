"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.
"""

import math
import random
import time

import pytest

from helpers import (
    PairSearcher,
    changes_from,
    dense_presentation,
    exhaustive_oracle,
    horner_fingerprint,
    indexed_windows,
    is_valid_match,
    sparse_presentation,
    theorem_trial,
)
from tietze.engine import EngineConfig, ReplacingSearcher, simplify
from tietze.fingerprint import BloomFilter, PatternIndex, fingerprint_base, window_fingerprints
from tietze.match import SearchCounters
from tietze.presentation import sort_rel
from tietze.randgen import random_presentation, random_reduced_word
from tietze.strategies import make_strategy
from tietze.verify import abelian_invariants
from tietze.words import rotate_right, useful_threshold

POLICIES = ("ts-sorted", "ts-unsorted", "flags", "all-pairs")
STRATEGIES = ("brute", "signature", "kr-hash", "kr-bloom3", "kr-bloom4",
              "automaton-two", "automaton-one")


def test_criterion_01_theorem1_sorted_equals_oracle():
    t0 = time.perf_counter()
    assert all(theorem_trial("ts-sorted", s) == (True, 0) for s in range(1000))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nCRITERION 1 PASS: ts-sorted == necessity oracle on 1000 runs "
          f"({elapsed:.1f}s)")


def test_criterion_02_theorem2_unsorted_equals_oracle():
    # a pass that ends early marks the relators it did not reach, and the
    # oracle counts those as changed when the pass ends
    t0 = time.perf_counter()
    trials = [theorem_trial("ts-unsorted", s) for s in range(1000)]
    assert all(ok for ok, _ in trials)
    marked = sum(marks > 0 for _, marks in trials)
    assert marked > 100
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nCRITERION 2 PASS: ts-unsorted == necessity oracle on 1000 runs, "
          f"{marked} with an early end's marks ({elapsed:.1f}s)")


def _no_post_change_success(events, changes) -> bool:
    performed = [e for e in events if e.performed]
    changed_in_pass = {}
    for rid, o in changes:
        changed_in_pass.setdefault(performed[o].pass_no, []).append((rid, o))
    for o_succ, e in enumerate(performed):
        if not e.successful:
            continue
        for rid, o in changed_in_pass.get(e.pass_no, ()):
            if o < o_succ and rid in (e.pattern_id, e.text_id):
                return False
    return True


def _realized_late_skip(events, changes) -> bool:
    performed = [e for e in events if e.performed]
    hot = set()
    for rid, o in changes:
        ev = performed[o]
        for o2 in range(o + 1, len(performed)):
            e2 = performed[o2]
            if e2.pass_no != ev.pass_no:
                break
            if rid in (e2.pattern_id, e2.text_id):
                hot.add((frozenset((e2.pattern_id, e2.text_id)), e2.pass_no))
    return any(
        (frozenset((e.pattern_id, e.text_id)), e.pass_no - 1) in hot
        for e in events if not e.performed
    )


def test_criterion_03_skip_policy_dominance():
    n_instances = 150
    multi = strict = 0
    late = late_strict = 0
    for seed in range(n_instances):
        base = sparse_presentation(seed)
        res, events = {}, {}
        for pol in POLICIES:
            events[pol] = []
            p, stats = simplify(base.clone(), EngineConfig(
                skip_policy=pol, match_strategy="brute",
                long_elim_enabled=False, seed=3), events[pol].append)
            res[pol] = stats
        s = {pol: res[pol].searches_performed for pol in POLICIES}
        assert s["ts-sorted"] <= s["flags"] <= s["all-pairs"], (seed, s)
        assert s["ts-unsorted"] <= s["flags"], (seed, s)
        if res["ts-sorted"].passes >= 3:
            multi += 1
            if s["ts-sorted"] < s["flags"] < s["all-pairs"]:
                strict += 1
        # the further-saving mechanism: a pair searched after a member
        # changed earlier in the same pass, then skipped next pass; only
        # comparable when no post-change success (and for ts-sorted no
        # mid-pass re-insertion) restructured the schedule
        for pol in ("ts-sorted", "ts-unsorted"):
            st = res[pol]
            if pol == "ts-sorted" and st.reorders > 0:
                continue
            changes = changes_from(events[pol])
            if _no_post_change_success(events[pol], changes) and \
                    _realized_late_skip(events[pol], changes):
                late += 1
                late_strict += s[pol] < s["flags"]
    assert multi > 0 and strict >= 0.8 * multi, (strict, multi)
    assert late > 0 and late_strict == late, (late_strict, late)
    print(f"\nCRITERION 3 PASS: dominance on {n_instances} presentations; "
          f"strict chain on {strict}/{multi} multi-pass instances; "
          f"late-change saving strict on {late_strict}/{late}")


def test_criterion_04_strategy_oracle_agreement():
    t0 = time.perf_counter()
    rng = random.Random(42)
    strategies = {name: make_strategy(name, seed=9, bloom_log2_size=10)
                  for name in STRATEGIES}
    n_pairs = 10_000
    mismatches = 0
    for _ in range(n_pairs):
        d = rng.randint(1, 6)
        lp = rng.randint(1, 20)
        lt = rng.randint(lp, 20)
        p = random_reduced_word(rng, d, lp)
        t = random_reduced_word(rng, d, lt)
        want = exhaustive_oracle(p, t) is not None
        for name, strat in strategies.items():
            m = strat.search(p, [t], SearchCounters())[0]
            if (m is not None) != want:
                mismatches += 1
            elif m is not None and not is_valid_match(m, p, t):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 60.0
    print(f"\nCRITERION 4 PASS: {len(STRATEGIES)} strategies agree with the "
          f"oracle on {n_pairs} pairs ({elapsed:.1f}s)")


def _plant_text(rng, d, pattern, k, extra):
    """A reduced cyclic text sharing exactly a length-k circular window."""
    l_p = len(pattern)
    ext = pattern + pattern[:max(0, k - 1)]
    start = rng.randrange(l_p)
    chunk = ext[start:start + k]
    tail_len = l_p + 1 + extra - k
    for _ in range(200):
        tail = random_reduced_word(rng, d, tail_len)
        if tail[0] != -chunk[-1] and tail[-1] != -chunk[0]:
            w = chunk + tail
            return rotate_right(w, rng.randrange(len(w)))
    return None


def test_criterion_05_usefulness_threshold_exact():
    rng = random.Random(1234)
    d = 8
    strategies = {name: make_strategy(name, seed=3, bloom_log2_size=10)
                  for name in STRATEGIES}
    for l_p in range(1, 65):
        t_star = useful_threshold(l_p)
        pattern = random_reduced_word(rng, d, l_p)
        # positive instance: planted window of exactly the threshold length
        text = None
        while text is None:
            text = _plant_text(rng, d, pattern, t_star, rng.randint(0, 4))
        m = exhaustive_oracle(pattern, text)
        assert m is not None and m.v_len >= t_star
        for name, strat in strategies.items():
            got = strat.search(pattern, [text], SearchCounters())[0]
            assert got is not None, (l_p, name)
            assert is_valid_match(got, pattern, text)
        # negative instance: nothing of threshold length exists
        if t_star - 1 >= 1:
            neg = None
            for _ in range(500):
                cand = _plant_text(rng, d, pattern, t_star - 1, rng.randint(0, 4))
                if cand is not None and exhaustive_oracle(pattern, cand) is None:
                    neg = cand
                    break
            assert neg is not None, f"could not build negative instance for l_p={l_p}"
        else:
            # threshold 1: use a text over disjoint generators
            neg = tuple(s + d if s > 0 else s - d
                        for s in random_reduced_word(rng, 2, l_p + 1))
            assert exhaustive_oracle(pattern, neg) is None
        for name, strat in strategies.items():
            assert strat.search(pattern, [neg], SearchCounters())[0] is None, \
                (l_p, name)
    print("\nCRITERION 5 PASS: planted threshold-length substrings found, "
          "threshold-minus-one not found, for pattern lengths 1..64")


def test_criterion_06_bloom_overload_diagnostics():
    t0 = time.perf_counter()
    base = random_presentation(99, 4, 6, 560, "small-alphabet-long")
    assert all(len(r.word) >= 500 for r in base.rel)
    counters = {}
    for strat in ("kr-bloom3", "kr-bloom4", "kr-hash"):
        cfg = EngineConfig(
            match_strategy=strat,
            bloom_log2_size=10,
            skip_policy="ts-sorted",
            long_elim_enabled=False,
            max_passes=3,
            seed=17,
        )
        _, stats = simplify(base.clone(), cfg)
        counters[strat] = stats.counters
    b3, b4, ex = counters["kr-bloom3"], counters["kr-bloom4"], counters["kr-hash"]
    assert b3.bloom_false_hits > 10 * b3.fingerprint_matches, \
        (b3.bloom_false_hits, b3.fingerprint_matches)
    assert ex.fingerprint_matches > 0
    assert ex.fingerprint_false_matches / ex.fingerprint_matches < 0.05
    assert b4.bloom_false_hits < b3.bloom_false_hits
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"\nCRITERION 6 PASS: bloom3 false hits {b3.bloom_false_hits} > 10x "
          f"{b3.fingerprint_matches} fingerprint matches; exact-table false rate "
          f"{ex.fingerprint_false_matches}/{ex.fingerprint_matches}; "
          f"bloom4 false hits {b4.bloom_false_hits} < bloom3 ({elapsed:.1f}s)")


def test_criterion_07_bloom_false_positive_calibration():
    rng = random.Random(777)
    log2 = 12
    table_bits = 1 << log2
    probes = 100_000
    results = []
    for ratio in (0.1, 0.5, 1.0):
        n = round(ratio * table_bits)
        b = BloomFilter(3, log2_size=log2)
        inserted = set()
        while len(inserted) < n:
            inserted.add(rng.getrandbits(61))
        for v in inserted:
            b.insert(v)
        hits = 0
        done = 0
        while done < probes:
            v = rng.getrandbits(61)
            if v in inserted:
                continue
            hits += b.query(v)
            done += 1
        measured = hits / probes
        expected = (1 - math.exp(-n / table_bits)) ** 3
        assert abs(measured - expected) <= 0.2 * expected, (ratio, measured, expected)
        results.append(f"load {ratio}: {measured:.2e} vs {expected:.2e}")
    print("\nCRITERION 7 PASS: " + "; ".join(results))


@pytest.fixture(scope="module")
def preservation_corpus_results():
    """Criteria 8 and 9 share one corpus sweep over all combinations."""
    import tietze.engine as engine_mod

    class ShrinkChecked(PairSearcher, ReplacingSearcher):
        def pair(self, pattern, text):
            before = len(text.word)
            changed = ReplacingSearcher.__call__(self, pattern, [text])[0]
            if changed:
                assert len(text.word) < before, "replacement failed to shorten"
            return changed

    n_pres = 500
    mismatches = []
    runs = 0
    orig = engine_mod.ReplacingSearcher
    engine_mod.ReplacingSearcher = ShrinkChecked
    try:
        for i in range(n_pres):
            rng = random.Random(8000 + i)
            base = dense_presentation(rng, d_max=6, q_max=10, l_max=12)
            before = abelian_invariants(base)
            for name in STRATEGIES:
                for policy in POLICIES:
                    cfg = EngineConfig(match_strategy=name, skip_policy=policy,
                                       bloom_log2_size=8, seed=5)
                    p, stats = simplify(base.clone(), cfg)
                    runs += 1
                    if abelian_invariants(p) != before:
                        mismatches.append((i, name, policy))
    finally:
        engine_mod.ReplacingSearcher = orig
    return n_pres, runs, mismatches


def test_criterion_08_abelianization_preserved(preservation_corpus_results):
    n_pres, runs, mismatches = preservation_corpus_results
    assert mismatches == []
    print(f"\nCRITERION 8 PASS: abelian invariants preserved on {n_pres} "
          f"presentations x all strategy/policy combinations ({runs} runs)")


def test_criterion_09_monotone_phases_and_shrinking(preservation_corpus_results):
    # the corpus sweep ran with a searcher asserting every successful
    # replacement strictly shortens its text, and the engine itself raises
    # if a short-elimination or replacement phase increases total length;
    # reaching this point means no run tripped either guard
    n_pres, runs, _ = preservation_corpus_results
    assert runs == n_pres * len(STRATEGIES) * len(POLICIES)
    print(f"\nCRITERION 9 PASS: no phase increased total length and every "
          f"replacement shortened its text across {runs} runs")


def test_criterion_10_rolling_hash_and_window_count():
    rng = random.Random(4242)
    base = fingerprint_base(88)
    for _ in range(1000):
        d = rng.randint(1, 6)
        w = random_reduced_word(rng, d, rng.randint(1, 30))
        m = rng.randint(1, len(w))
        assert window_fingerprints(w, m, base) == [
            horner_fingerprint(w, start, m, base) for start in range(len(w))]
        for backing in ("exact", "bloom3"):
            assert indexed_windows(PatternIndex(w, backing, base)) == 2 * len(w)
    print("\nCRITERION 10 PASS: rolled fingerprints of every circular window equal "
          "direct evaluation and every index holds exactly 2*l_p windows (1000 words)")


def test_criterion_11_automaton_build_cost_halved():
    total_two = total_one = 0
    checked_pairs = 0
    for seed in (3, 4, 5):
        pres = sparse_presentation(seed)
        sort_rel(pres)
        words = [r.word for r in pres.rel]
        two = make_strategy("automaton-two")
        one = make_strategy("automaton-one")
        c_two, c_one = SearchCounters(), SearchCounters()
        for i in range(len(words) - 1):
            for j in range(i + 1, len(words)):
                p, t = words[i], words[j]
                m2 = two.search(p, [t], c_two)[0]
                m1 = one.search(p, [t], c_one)[0]
                want = exhaustive_oracle(p, t) is not None
                assert (m2 is not None) == (m1 is not None) == want
                checked_pairs += 1
        total_two += c_two.automata_built
        total_one += c_one.automata_built
    assert total_two == 2 * total_one
    assert total_one > 0
    print(f"\nCRITERION 11 PASS: identical schedule of {checked_pairs} pairs "
          f"builds {total_two} vs {total_one} automata (exactly half), "
          f"both modes oracle-exact")
