import random
from collections import Counter
from pathlib import Path

import pytest

from helpers import dense_presentation, exhaustive_oracle, sparse_presentation, squares_words
from tietze import engine
from tietze.engine import (
    EngineConfig,
    apply_replacement,
    long_eliminate,
    short_eliminate,
    simplify,
    substitute,
)
from tietze.match import Match
from tietze.presentation import make_presentation, parse_presentation, serialize_presentation
from tietze.randgen import random_presentation
from tietze.strategies import STRATEGIES
from tietze.verify import abelian_invariants
from tietze.words import canonical_rep, invert, reduce_cyclic_word, word_from_letters

W = word_from_letters


def canon_multiset(p):
    return Counter(r.canonical() for r in p.rel)


def test_apply_replacement_spec_examples():
    # pattern "abc" as u.v = "c"+"ab", text "dab" = "d"+"ab" -> "dC"
    m = exhaustive_oracle(W("abc"), W("dab"))
    assert apply_replacement(W("dab"), m, W("abc")) == W("dC")
    # whole-pattern v: text "xab" against pattern "ab" -> "x"
    m = exhaustive_oracle(W("ab"), W("xab"))
    assert m.u_len == 0
    assert apply_replacement(W("xab"), m, W("ab")) == W("x")
    # inverted equivalent: "CBA" = "C"+"BA" against "dBA" -> "dc"
    m = exhaustive_oracle(W("abc"), W("dBA"))
    assert m.inverted
    assert apply_replacement(W("dBA"), m, W("abc")) == W("dc")


def test_apply_replacement_guards_invalid_match():
    bogus = Match(inverted=False, pattern_rot=0, text_rot=0, u_len=0, v_len=3)
    with pytest.raises(Exception):
        apply_replacement(W("xyz"), bogus, W("abc"))


def test_substitute_examples():
    p = make_presentation(2, [(2,), (1, 2, 1, 2)])
    substitute(p, 2, ())
    assert p.d == 1 and p.words() == [(1, 1)]

    p = make_presentation(2, [(1, 2)])
    substitute(p, 2, (-1,))
    assert p.d == 1 and p.words() == []

    p = make_presentation(3, [(1, 2, 3), (3, 1, 3, 1)])
    substitute(p, 3, (-2, -1))
    assert p.d == 2
    assert p.words() == [(-2, -2)]


def _reference_substitute(words, g, rhs):
    """``substitute`` as first written: rebuild and renumber every word per symbol."""
    rhs_inv = invert(rhs)

    def renum(s):
        return s if abs(s) < g else (s - 1 if s > 0 else s + 1)

    out = []
    for w in words:
        new = []
        for s in w:
            new.extend(rhs if s == g else rhs_inv if s == -g else (s,))
        new = tuple(renum(s) for s in reduce_cyclic_word(tuple(new)))
        if new:
            out.append(new)
    return out


def _recount(word):
    counts = Counter(map(abs, word))
    return dict(counts), tuple(h for h, c in counts.items() if c == 1)


def test_substitute_caches_match_recomputation(monkeypatch):
    # every substitution of real simplify runs (short and long
    # eliminations between replacement passes) is checked against the
    # reference; a random half of the caches is built beforehand, so both
    # carried (relabelled) and lazily rebuilt caches are compared
    real = engine.substitute
    rng = random.Random(0)
    eliminated = []

    def checked(pres, g, rhs):
        for r in pres.rel:
            if rng.random() < 0.5:
                r.canonical()
            if rng.random() < 0.5:
                r.counts()
        expected = _reference_substitute([r.word for r in pres.rel], g, rhs)
        result = real(pres, g, rhs)
        assert [r.word for r in pres.rel] == expected
        for r in pres.rel:
            assert r.canonical() == canonical_rep(r.word)
            assert (dict(r.counts()), r.once()) == _recount(r.word)
        eliminated.append(g)
        return result

    monkeypatch.setattr(engine, "substitute", checked)
    for seed in range(300):
        pres = random_presentation(seed, d=rng.randint(3, 12), q=rng.randint(2, 10),
                                   maxlen=rng.randint(3, 14))
        simplify(pres, EngineConfig(growth_limit=rng.choice([1.0, 1.5, 3.0])))
    assert len(eliminated) > 1000 and len(set(eliminated)) > 10


def test_substitute_rejects_self_reference():
    p = make_presentation(2, [(1, 2)])
    with pytest.raises(ValueError):
        substitute(p, 2, (2,))


def test_short_eliminate_examples():
    p = make_presentation(2, [(2,), (1, 2, 1, 2)])
    changed, n = short_eliminate(p)
    assert changed and n == 1
    assert p.d == 1 and p.words() == [(1, 1)]

    p = make_presentation(2, [(1, 2)])
    short_eliminate(p)
    assert p.d == 1 and p.words() == []

    p = make_presentation(1, [(1, 1)])
    changed, n = short_eliminate(p)
    assert not changed and n == 0
    assert p.involutions == {1} and p.words() == [(1, 1)]


def test_long_eliminate_picks_minimal_growth():
    # in (1,2,3) every generator occurs once; generator 2 never occurs
    # elsewhere, so its predicted growth 0*(3-1)-3 is minimal and it wins
    p = make_presentation(3, [(1, 2, 3), (3, 1, 3, 1)])
    before = abelian_invariants(p)
    assert long_eliminate(p, EngineConfig(), p.total_length())
    assert p.d == 2
    from tietze.words import canonical_rep
    assert canon_multiset(p) == Counter([canonical_rep((2, 1, 2, 1))])
    assert abelian_invariants(p) == before


def test_long_eliminate_no_candidate():
    p = make_presentation(2, [(1, 2, 1, 2)])
    assert not long_eliminate(p, EngineConfig(), p.total_length())


def test_long_eliminate_growth_gate():
    # every candidate would grow the presentation; budget 1.0 refuses
    p = make_presentation(3, [(1, 2, 3, 2), (3, 1, 1, 1, 3, 1, 1)])
    before = p.words()
    assert not long_eliminate(p, EngineConfig(growth_limit=1.0), p.total_length())
    assert p.words() == before


def test_simplify_short_cascade():
    p = parse_presentation("gens 2\nrelw b\nrelw abab\n")
    p, stats = simplify(p, EngineConfig())
    assert serialize_presentation(p) == "gens 1\nrel 1 1\n"
    assert stats.short_elims >= 1


def test_simplify_single_relator_no_pairs():
    p = make_presentation(1, [(1, 1, 1, 1, 1)])
    p, stats = simplify(p, EngineConfig(long_elim_enabled=False))
    assert stats.pairs_considered == 0


def test_every_pass_sees_two_relators(monkeypatch):
    """A replacement can empty a text; no pass runs before that relator is dropped."""
    sizes = []
    run_pass = engine.run_pass

    def sized_pass(pres, *args):
        sizes.append(len(pres.rel))
        return run_pass(pres, *args)

    monkeypatch.setattr(engine, "run_pass", sized_pass)
    rng = random.Random(5)
    for _ in range(100):
        simplify(dense_presentation(rng))
        simplify(make_presentation(*squares_words(rng)))
    assert sizes and min(sizes) >= 2


def test_simplify_deterministic():
    base = sparse_presentation(77)
    outs = []
    for _ in range(2):
        p, stats = simplify(base.clone(), EngineConfig(match_strategy="kr-bloom3", seed=5))
        outs.append((serialize_presentation(p), stats.to_dict(), stats.counters.to_dict()))
    assert outs[0] == outs[1]


def test_simplify_stats_identity_and_monotone_phases():
    rng = random.Random(55)
    for _ in range(40):
        p = dense_presentation(rng)
        p, stats = simplify(p, EngineConfig())
        assert stats.searches_performed + stats.searches_skipped == stats.pairs_considered
        assert stats.searches_successful <= stats.searches_performed
        assert stats.rels_after == len(p.rel)
        assert stats.gens_after == p.d


def test_replacements_strictly_shrink():
    # instrumented searcher: every successful search must shrink its text
    from tietze.engine import ReplacingSearcher

    class Checked(ReplacingSearcher):
        def __call__(self, pattern, text):
            before = len(text.word)
            changed = super().__call__(pattern, text)
            if changed:
                assert len(text.word) < before
            return changed

    import tietze.engine as engine_mod
    rng = random.Random(56)
    orig = engine_mod.ReplacingSearcher
    engine_mod.ReplacingSearcher = Checked
    try:
        for _ in range(30):
            simplify(dense_presentation(rng), EngineConfig())
    finally:
        engine_mod.ReplacingSearcher = orig


def test_abelian_invariants_preserved_sample():
    rng = random.Random(57)
    for _ in range(60):
        p = dense_presentation(rng)
        before = abelian_invariants(p)
        q, _ = simplify(p, EngineConfig(match_strategy="brute"))
        assert abelian_invariants(q) == before


def test_policies_reach_equivalent_presentations():
    for seed in range(40):
        base = sparse_presentation(seed)
        finals = set()
        for policy in ("all-pairs", "flags", "ts-sorted", "ts-unsorted"):
            p, _ = simplify(base.clone(), EngineConfig(
                skip_policy=policy, long_elim_enabled=False))
            finals.add(tuple(sorted(canon_multiset(p).items())))
        assert len(finals) == 1


def test_intermediate_matches_are_oracle_valid():
    # every replacement the engine applies comes from a match the
    # exhaustive enumeration confirms
    from tietze.engine import ReplacingSearcher

    class OracleChecked(ReplacingSearcher):
        def __call__(self, pattern, text):
            p_word, t_word = pattern.word, text.word
            changed = super().__call__(pattern, text)
            if changed:
                assert exhaustive_oracle(p_word, t_word) is not None
            return changed

    import tietze.engine as engine_mod
    rng = random.Random(58)
    orig = engine_mod.ReplacingSearcher
    engine_mod.ReplacingSearcher = OracleChecked
    try:
        for _ in range(20):
            for strategy in ("brute", "kr-hash", "automaton-two"):
                simplify(dense_presentation(rng), EngineConfig(match_strategy=strategy))
    finally:
        engine_mod.ReplacingSearcher = orig


def test_full_annihilation_mid_pass():
    # a text equivalent to its pattern is replaced by the empty word
    # mid-pass; the record survives as length 0 until the engine drops it
    from tietze.engine import ReplacingSearcher
    from tietze.match import SearchCounters
    from tietze.skip import PassContext, init_pass_state, pass_sorted, pass_unsorted
    from tietze.strategies import make_strategy

    for pass_fn, policy in ((pass_sorted, "ts-sorted"), (pass_unsorted, "ts-unsorted")):
        p = make_presentation(2, [(1, 2), (2, 1), (1, 1, 2)])
        ctx = PassContext(policy=policy)
        init_pass_state(p, ctx)
        searcher = ReplacingSearcher(make_strategy("brute"), SearchCounters())
        assert pass_fn(p, ctx, searcher).successful
        assert sorted(len(r.word) for r in p.rel)[0] == 0  # annihilated, kept in place


def test_simplify_annihilating_duplicates():
    p = make_presentation(2, [(1, 2), (2, 1), (1, 1, 2)])
    p, _ = simplify(p, EngineConfig(long_elim_enabled=False))
    assert all(len(r.word) > 0 for r in p.rel)
    assert len(p.rel) <= 2


def test_simplify_free_group_input():
    p = make_presentation(3, [])
    p, stats = simplify(p, EngineConfig())
    assert p.d == 3 and p.rel == []
    assert stats.pairs_considered == 0
    assert abelian_invariants(p) == ([], 3)


def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(growth_limit=0.5)
    with pytest.raises(ValueError):
        EngineConfig(max_passes=0)
    # unknown names are rejected when the config is built, not inside simplify
    for bad in ({"match_strategy": "kr-bloom5"}, {"match_strategy": "automaton"},
                {"skip_policy": "nope"}):
        with pytest.raises(ValueError):
            EngineConfig(**bad)


def test_config_rejects_nan_growth_and_bad_bloom_size():
    with pytest.raises(ValueError, match="growth_limit"):
        EngineConfig(growth_limit=float("nan"))
    for size in (2, 31):
        with pytest.raises(ValueError, match="bloom_log2_size"):
            EngineConfig(bloom_log2_size=size)
    assert EngineConfig(bloom_log2_size=3).bloom_log2_size == 3
    assert EngineConfig(bloom_log2_size=30).bloom_log2_size == 30


@pytest.mark.parametrize("policy", ["ts-sorted", "ts-unsorted", "flags", "all-pairs"])
def test_record_events_changes_nothing(policy):
    rng = random.Random(71)
    bases = [sparse_presentation(s) for s in range(8)]
    bases += [dense_presentation(rng, d_max=5, q_max=14, l_max=14) for _ in range(8)]
    for n, base in enumerate(bases):
        for strategy in ("brute", "kr-hash", "automaton-two"):
            outs = []
            for record in (False, True):
                events = []
                p, st = simplify(base.clone(), EngineConfig(
                    match_strategy=strategy, skip_policy=policy),
                    events.append if record else None)
                outs.append((serialize_presentation(p), st.to_dict(),
                             st.counters.to_dict(), st.reorders))
                if record:
                    assert len(events) == st.pairs_considered
                    assert sum(e.performed for e in events) == st.searches_performed
                    assert sum(e.successful for e in events) == st.searches_successful
            assert outs[0] == outs[1], (n, strategy)


@pytest.mark.parametrize("name", list(STRATEGIES))
def test_every_search_of_a_run_agrees_with_oracle(monkeypatch, name):
    """Every search of full runs agrees with the exhaustive oracle.

    The planted squares make involutions, and a replacement can write an
    involution's inverse into a text before the next normalization, so
    the texts searched are not always involution-normal.
    """
    disagreements = []
    make_strategy = engine.make_strategy

    class OracleChecked:
        def __init__(self, inner):
            self.inner = inner

        def search(self, p_word, t_word, counters):
            m = self.inner.search(p_word, t_word, counters)
            if (m is None) != (exhaustive_oracle(p_word, t_word) is None):
                disagreements.append((p_word, t_word))
            return m

    monkeypatch.setattr(engine, "make_strategy", lambda *a: OracleChecked(make_strategy(*a)))
    rng = random.Random(3)
    for _ in range(120):
        d, words = squares_words(rng)
        simplify(make_presentation(d, words), EngineConfig(match_strategy=name))
    assert disagreements == []


@pytest.mark.parametrize("policy", ["ts-sorted", "ts-unsorted"])
def test_every_pass_starts_sorted_and_duplicate_free(monkeypatch, policy):
    """Boundary maintenance runs only after a rewrite; every pass must
    still start on a sorted sequence of distinct nonempty relators."""
    passes, maintained = [], []
    run_pass, maintenance = engine.run_pass, engine._boundary_maintenance

    def checking_pass(pres, ctx, searcher, record=None):
        words = pres.words()
        assert all(words) and pres.is_sorted()
        assert len({canonical_rep(w) for w in words}) == len(words)
        passes.append(1)
        return run_pass(pres, ctx, searcher, record)

    def counting_maintenance(pres):
        maintained.append(1)
        maintenance(pres)

    monkeypatch.setattr(engine, "run_pass", checking_pass)
    monkeypatch.setattr(engine, "_boundary_maintenance", counting_maintenance)
    rng = random.Random(16)
    long_elims = 0
    for i in range(150):
        if i % 2:
            d, words = squares_words(rng, l_max=20)
            pres = make_presentation(d, words)
        else:
            pres = sparse_presentation(rng.getrandbits(32))
        long_elims += simplify(pres, EngineConfig(skip_policy=policy))[1].long_elims
    assert long_elims > 50
    # most long eliminations of an obfuscated presentation only drop the
    # relator that defined the generator, so most passes skip maintenance
    passes.clear()
    maintained.clear()
    fixture = Path(__file__).parent / "data" / "fibonacci_2_7_obfuscated_67.pres"
    simplify(parse_presentation(fixture.read_text()), EngineConfig(skip_policy=policy))
    assert len(passes) > 60 and len(maintained) < len(passes) / 4
