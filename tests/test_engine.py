import random
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from helpers import (
    PairSearcher,
    dense_presentation,
    exhaustive_oracle,
    is_valid_match,
    sparse_presentation,
    squares_words,
)
from tietze import engine
from tietze.engine import (
    EngineConfig,
    EngineError,
    apply_replacement,
    long_eliminate,
    short_eliminate,
    simplify,
    substitute,
)
from tietze.match import Match, MatchError
from tietze.presentation import (
    Presentation,
    compact_labels,
    make_presentation,
    normalize_involutions,
    parse_presentation,
    serialize_presentation,
)
from tietze.randgen import random_presentation, random_reduced_word
from tietze.skip import POLICY_NAMES, PassTally
from tietze.strategies import STRATEGIES, make_strategy
from tietze.verify import abelian_invariants
from tietze.words import (
    canonical_rep,
    eliminable,
    invert,
    reduce_cyclic_word,
    rotate_right,
    word_from_letters,
)

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
    with pytest.raises(MatchError, match="v segments differ"):
        apply_replacement(W("xyz"), bogus, W("abc"))


def _full_reduction_rewrite(t_word, m, p_word):
    """The rewrite as first written: w.u^-1 through a full free reduction."""
    pe = rotate_right(invert(p_word) if m.inverted else p_word, m.pattern_rot)
    te = rotate_right(t_word, m.text_rot)
    w, u = te[:len(t_word) - m.v_len], pe[:m.u_len]
    return reduce_cyclic_word(w + invert(u))


def _junction_kind(t_word, m, p_word):
    """How w.u^-1 cancels where w meets u^-1."""
    w = rotate_right(t_word, m.text_rot)[:len(t_word) - m.v_len]
    pe = rotate_right(invert(p_word) if m.inverted else p_word, m.pattern_rot)
    u_inv = invert(pe[:m.u_len])
    k = 0
    while k < min(len(w), len(u_inv)) and w[-1 - k] == -u_inv[k]:
        k += 1
    if not w:
        return "empty w"
    if u_inv and k == len(u_inv):
        return "u^-1 cancelled"
    return f"cancel {min(k, 2)}"


def _every_valid_match(p_word, t_word):
    for inverted in (False, True):
        for u_len in range(len(p_word)):
            for pattern_rot in range(len(p_word)):
                for text_rot in range(len(t_word)):
                    m = Match(inverted, pattern_rot, text_rot, u_len, len(p_word) - u_len)
                    if is_valid_match(m, p_word, t_word):
                        yield m


def _planted_junctions(rng, count):
    """Valid matches whose text ends its w with the last k symbols of u,
    so that w.u^-1 cancels k >= 1 symbols at the junction."""
    cases = []
    while len(cases) < count:
        d, l_p = rng.randint(2, 4), rng.randint(3, 12)
        p = random_reduced_word(rng, d, l_p)
        inverted, pattern_rot = rng.random() < 0.5, rng.randrange(l_p)
        pe = rotate_right(invert(p) if inverted else p, pattern_rot)
        u_len = rng.randint(1, (l_p - 1) // 2)
        k = rng.randint(1, u_len)
        prefix = tuple(rng.choice((1, -1)) * rng.randint(1, d) for _ in range(rng.randint(0, 4)))
        t = prefix + pe[u_len - k:]  # w = prefix + u[-k:], then v
        if reduce_cyclic_word(t) != t:
            continue
        shift = rng.randrange(len(t))
        m = Match(inverted, pattern_rot, (len(t) - shift) % len(t), u_len, l_p - u_len)
        cases.append((rotate_right(t, shift), m, p))
    return cases


def test_apply_replacement_equals_full_reduction():
    # oracle matches of seeded random pairs, and every valid match of
    # short pairs on two generators.  A maximal match never cancels at the
    # junction (its v would extend), so the cancellations come from the
    # shorter valid matches, which the rewrite refuses; patterns longer
    # than the text give an empty w with a nonempty u
    rng = random.Random(44)
    cases = []
    for _ in range(1500):
        d, l_p = rng.randint(1, 3), rng.randint(1, 12)
        p = random_reduced_word(rng, d, l_p)
        t = random_reduced_word(rng, d, rng.randint(l_p, 16))
        m = exhaustive_oracle(p, t)
        if m is not None:
            cases.append((t, m, p))
    for _ in range(600):
        p = random_reduced_word(rng, 2, rng.randint(1, 8))
        t = random_reduced_word(rng, 2, rng.randint(1, 9))
        cases += [(t, m, p) for m in _every_valid_match(p, t)]
    cases += _planted_junctions(rng, 400)
    kinds = Counter()
    for t, m, p in cases:
        kind = _junction_kind(t, m, p)
        if kind in ("cancel 0", "empty w"):
            assert apply_replacement(t, m, p) == _full_reduction_rewrite(t, m, p), (t, m, p)
        else:
            with pytest.raises(EngineError, match="not maximal"):
                apply_replacement(t, m, p)
        kinds[kind, m.inverted] += 1
    for kind in ("cancel 0", "cancel 1", "cancel 2", "empty w", "u^-1 cancelled"):
        for inverted in (False, True):
            assert kinds[kind, inverted] >= 10, kinds


def test_substitute_examples():
    p = make_presentation(2, [(2,), (1, 2, 1, 2)])
    substitute(p, 2, ())
    assert p.d == 1 and [r.word for r in p.rel] == [(1, 1)]

    p = make_presentation(2, [(1, 2)])
    substitute(p, 2, (-1,))
    assert p.d == 1 and [r.word for r in p.rel] == []

    p = make_presentation(3, [(1, 2, 3), (3, 1, 3, 1)])
    substitute(p, 3, (-2, -1))
    assert p.d == 2
    assert [r.word for r in p.rel] == [(-2, -2)]


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


def _compaction_map(pres):
    """The signed map ``compact_labels`` applies to ``pres``."""
    live = [h for h in range(1, pres.d + len(pres.eliminated) + 1) if h not in pres.eliminated]
    m = {h: i for i, h in enumerate(live, 1)}
    m.update({-h: -i for h, i in m.items()})
    return m


def test_substitute_caches_match_recomputation(monkeypatch):
    # every substitution of real simplify runs (short and long
    # eliminations between replacement passes) is checked, after
    # compaction, against the reference; a random half of the caches is
    # built beforehand, so both kept and lazily rebuilt caches are
    # compared.  A long elimination deletes the relators of lonely
    # generators without a substitution: after every call, the words of a
    # call that substituted nothing are those before, less one relator per
    # generator deleted, every surviving record's caches equal a recount,
    # and so does the occurrence tally
    real, real_long = engine.substitute, engine.long_eliminate
    rng = random.Random(0)
    eliminated = []
    tallies, made = Counter(), Counter()

    def checked(pres, g, rhs):
        made["substituted"] += 1  # short or long
        for r in pres.rel:
            if rng.random() < 0.5:
                r.canonical()
            if rng.random() < 0.5:
                r.counts()
        m = _compaction_map(pres)
        expected = _reference_substitute([tuple(map(m.get, r.word)) for r in pres.rel],
                                         m[g], tuple(map(m.get, rhs)))
        result = real(pres, g, rhs)
        compacted = pres.clone()
        compact_labels(compacted)
        assert [r.word for r in compacted.rel] == expected
        for r in pres.rel:
            assert r.canonical() == canonical_rep(r.word)
            assert (dict(r.counts()), r.once()) == _recount(r.word)
        eliminated.append(g)
        return result

    def tallied(pres, *args):
        known, substituted = set(pres.eliminated), len(eliminated)
        words = {r.id: r.word for r in pres.rel}
        result = real_long(pres, *args)
        deleted = sorted(pres.eliminated - known - set(eliminated[substituted:]))
        if len(eliminated) == substituted:
            assert len(deleted) == result
            assert len(pres.rel) == len(words) - len(deleted)
            assert all(r.word == words[r.id] for r in pres.rel)
        made["deleted"] += len(deleted)
        eliminated.extend(deleted)
        for r in pres.rel:
            assert r.canonical() == canonical_rep(r.word)
            assert (dict(r.counts()), r.once()) == _recount(r.word)
        tally = {g: c for g, c in pres.occurrences().items() if c}
        assert tally == Counter(abs(s) for r in pres.rel for s in r.word)
        tallies[result > 0] += 1
        return result

    monkeypatch.setattr(engine, "substitute", checked)
    monkeypatch.setattr(engine, "long_eliminate", tallied)
    for seed in range(400):  # a long elimination call may take many lonely generators
        pres = random_presentation(seed, d=rng.randint(3, 12), q=rng.randint(2, 10),
                                   maxlen=rng.randint(3, 14))
        simplify(pres, EngineConfig(growth_limit=rng.choice([1.0, 1.5, 3.0])))
    assert len(eliminated) > 1000 and len(set(eliminated)) > 10
    assert tallies[True] > 400 and tallies[False] > 400, tallies
    assert made["deleted"] > 100 and made["substituted"] > 400, made


def test_substitute_rejects_self_reference():
    p = make_presentation(2, [(1, 2)])
    with pytest.raises(ValueError):
        substitute(p, 2, (2,))


def test_short_eliminate_examples():
    p = make_presentation(2, [(2,), (1, 2, 1, 2)])
    assert short_eliminate(p) == 1
    assert p.d == 1 and [r.word for r in p.rel] == [(1, 1)]

    p = make_presentation(2, [(1, 2)])
    short_eliminate(p)
    assert p.d == 1 and [r.word for r in p.rel] == []

    p = make_presentation(1, [(1, 1)])
    assert short_eliminate(p) == 0
    assert p.involutions == {1} and [r.word for r in p.rel] == [(1, 1)]


def test_short_eliminate_reads_the_given_records_at_every_step():
    # both length-1 relators were rewritten since the previous call; the
    # first elimination rewrites neither the other nor anything but its own
    p = make_presentation(4, [(1,), (3, 4, 3, 4, 4), (3, 3, 4, 4, 4), (4, 3, 3, 3, 4),
                              (3, 4, 4, 4, 4), (2,)])
    p.take_changes()
    assert short_eliminate(p, [p.rel[5], p.rel[0]]) == 2
    assert p.d == 2 and not any(eliminable(r.word) for r in p.rel)


def _reference_short_eliminate(pres):
    """Short elimination with the right-hand side of each case written out."""
    eliminations = 0
    normalize_involutions(pres)
    while True:
        for r in pres.rel:
            if len(r.word) == 1:
                g, rhs = abs(r.word[0]), ()
                break
            if len(r.word) == 2 and abs(r.word[0]) != abs(r.word[1]):
                x, y = r.word
                g, sign, other = (abs(y), y, x) if abs(x) < abs(y) else (abs(x), x, y)
                rhs = (-other,) if sign > 0 else (other,)
                break
        else:
            return eliminations
        substitute(pres, g, rhs)
        normalize_involutions(pres)
        eliminations += 1


SHORT_COMPANIONS = [(1, 2, 3, 1, 2), (3, 3), (2, -1, 3, -2, -1, -3), (1, 1, 2, -3, 2)]


def test_short_eliminate_equals_the_explicit_right_hand_sides():
    # every length-1 relator and every reduced non-square length-2 relator
    # over 3 generators, first and last among fixed companions
    syms = (1, -1, 2, -2, 3, -3)
    shorts = [(x,) for x in syms] + [(x, y) for x in syms for y in syms if abs(x) != abs(y)]
    assert len(shorts) == 30
    for word in shorts:
        for words in ([word] + SHORT_COMPANIONS, SHORT_COMPANIONS + [word]):
            runs = []
            for eliminate in (short_eliminate, _reference_short_eliminate):
                p = make_presentation(3, words)
                p.take_changes()
                result = eliminate(p)
                seen = [r.id for r in p.take_changes()]
                runs.append((result, seen, p.d, p.involutions,
                             [(r.id, r.word) for r in p.rel]))
            assert runs[0] == runs[1], words


def test_long_eliminate_picks_minimal_growth():
    # in (1,2,3) every generator occurs once; generator 2 never occurs
    # elsewhere, so its predicted growth 0*(3-1)-3 is minimal and it wins
    p = make_presentation(3, [(1, 2, 3), (3, 1, 3, 1)])
    before = abelian_invariants(p)
    assert long_eliminate(p, EngineConfig(), p.total_length())
    assert p.d == 2 and p.eliminated == {2}
    assert canon_multiset(p) == Counter([canonical_rep((3, 1, 3, 1))])
    compact_labels(p)
    assert canon_multiset(p) == Counter([canonical_rep((2, 1, 2, 1))])
    assert abelian_invariants(p) == before


def test_long_eliminate_no_candidate():
    p = make_presentation(2, [(1, 2, 1, 2)])
    assert not long_eliminate(p, EngineConfig(), p.total_length())


def _first_written_long_eliminate(pres, cfg, total):
    """long_eliminate with the growth limit checked per candidate."""
    limit = cfg.growth_limit * total
    occurrences = Counter(abs(s) for r in pres.rel for s in r.word)
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
    engine._eliminate(pres, r, g)
    return True


def _has_lonely_candidate(pres):
    """Whether a generator occurring once in the whole presentation sits
    in a relator longer than 2; if so, the least score is such a one."""
    occurrences = Counter(abs(s) for r in pres.rel for s in r.word)
    return any(occurrences[g] == 1 for r in pres.rel if len(r.word) > 2 for g in r.once())


def _state(pres):
    return pres.d, sorted(pres.eliminated), sorted(pres.involutions), \
        [(r.id, r.word) for r in pres.rel]


@pytest.mark.parametrize("growth_limit", [1.0, 1.1, 1.5, 3.0])
def test_long_eliminate_equals_the_per_candidate_limit(growth_limit):
    # chains of long elimination calls, each compared with reference steps
    # on a clone: while a lonely candidate exists, one call takes the whole
    # run, so the reference steps until none is left; otherwise, and with
    # ``sweep`` False, it takes one step.  Both must leave the same state
    # and changes, and the call must return the number of reference steps
    cfg = EngineConfig(growth_limit=growth_limit)
    rng = random.Random(int(growth_limit * 10))
    outcomes = Counter()
    selections = Counter()
    for n in range(180):
        if n >= 120:
            # many generators over short relators: generators occurring
            # once or twice in all are common
            base = random_presentation(rng, rng.randint(6, 10), rng.randint(4, 8), 5)
        elif n % 2:
            base = sparse_presentation(rng.getrandbits(32))
        else:
            base = random_presentation(rng, rng.randint(3, 8), rng.randint(2, 8), 9)
        for _ in range(8):
            lonely = _has_lonely_candidate(base)
            for sweep in (False, True):  # the chain goes on from the sweep
                runs = []
                pres = base.clone()
                count = long_eliminate(pres, cfg, pres.total_length(), sweep)
                runs.append((count, [r.id for r in pres.take_changes()], _state(pres)))
                pres, steps = base.clone(), 0
                while _first_written_long_eliminate(pres, cfg, pres.total_length()):
                    steps += 1
                    if not (sweep and lonely and _has_lonely_candidate(pres)):
                        break
                runs.append((steps, [r.id for r in pres.take_changes()], _state(pres)))
                assert runs[0] == runs[1], (n, growth_limit, sweep)
            outcomes[count > 0] += 1
            if not count:
                break
            selections["lonely" if lonely else "general"] += 1
            selections["lonely, several"] += lonely and count > 1
            base = pres
    assert outcomes[True] > 50 and outcomes[False] > 50, outcomes
    assert selections["lonely"] > 50 and selections["general"] > 50, selections
    assert selections["lonely, several"] > 30, selections


def test_long_eliminate_lonely_generator_in_a_short_relator():
    # b occurs once in all, but only in "ab", which is too short to be a
    # candidate; the general rule takes c from "cdda" (score 2 < 3 for d
    # in "acacd"), so "acacd" becomes DDD; d keeps its label until compaction
    p = make_presentation(4, [(1, 2), (1, 3, 1, 3, 4), (3, 4, 4, 1)])
    assert long_eliminate(p, EngineConfig(), p.total_length())
    assert p.d == 3 and p.eliminated == {3}
    assert [(r.id, r.word) for r in p.rel] == [(0, (1, 2)), (1, (-4, -4, -4))]


def test_long_eliminate_growth_gate():
    # every candidate would grow the presentation; budget 1.0 refuses
    p = make_presentation(3, [(1, 2, 3, 2), (3, 1, 1, 1, 3, 1, 1)])
    before = [r.word for r in p.rel]
    assert not long_eliminate(p, EngineConfig(growth_limit=1.0), p.total_length())
    assert [r.word for r in p.rel] == before


def test_a_relator_holding_two_lonely_generators_is_deleted_once():
    # 1 and 2 occur only in the first relator: the least generator goes
    # with it, and 2 is left free
    p = make_presentation(4, [(1, 2, 3, 4), (3, 3, 4, 4, 4)])
    p.take_changes()
    assert long_eliminate(p, EngineConfig(), p.total_length()) == 1
    assert p.d == 3 and p.eliminated == {1}
    assert [r.id for r in p.take_changes()] == [0]
    assert [(r.id, r.word) for r in p.rel] == [(1, (3, 3, 4, 4, 4))]


def test_a_generator_lonely_mid_sweep_in_the_longest_relator_goes_next():
    # 2 in "bfgg" and 1 (and 5) in "aef" are lonely at the start.  Deleting
    # "bfgg" leaves 7 once in all, in the 6-symbol relator, which goes
    # before "aef"; that leaves 6 once in all, in "aef", with 1
    p = make_presentation(9, [(1, 5, 6), (2, 6, 7, 7), (7, 3, 4, 3, 4, 6), (8, 8, 9, 9, 9)])
    p.take_changes()
    assert long_eliminate(p, EngineConfig(), p.total_length()) == 3
    assert [r.id for r in p.take_changes()] == [1, 2, 0]
    assert p.d == 6 and p.eliminated == {2, 7, 1}
    assert [(r.id, r.word) for r in p.rel] == [(3, (8, 8, 9, 9, 9))]


def test_lonely_ties_go_to_the_least_generator():
    # equal lengths: 2 goes before 4 though its relator has the greater id;
    # deleting it leaves 5 once in all, beside 4.  The id never decides
    # between two lonely candidates, since each generator has one holder
    p = make_presentation(6, [(4, 5, 6, 6), (2, 5, 3, 3)])
    p.take_changes()
    assert long_eliminate(p, EngineConfig(), p.total_length()) == 2
    assert [r.id for r in p.take_changes()] == [1, 0]
    assert p.d == 4 and p.eliminated == {2, 4} and p.rel == []


# the first pass rewrites "bdaDADGa" into "abdaDgF", which holds the
# inverse of the involution f, and then comes a run of three lonely
# generators; the driver normalizes F to f after the first of them, and so
# runs a pass before the second
NORMALIZED_MID_RUN = (7, [(2, 4, 1, -4, -1, -4, -7, 1), (-5, -2, -7, -3), (6, 6),
                          (-4, -7, -6, -7, -1)])


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_a_sweep_ends_where_one_step_per_round_ends(monkeypatch, policy):
    """Full runs equal runs whose driver takes one reference long
    elimination step per round: output, stats, counters, reorders and
    every search event."""
    real = engine.long_eliminate
    sweeps = Counter()

    def counted(pres, cfg, total, sweep=True):
        count = real(pres, cfg, total, sweep)
        sweeps["several" if count > 1 else "one or none"] += 1
        sweeps["one step, run pending"] += not sweep and count == 1 and \
            _has_lonely_candidate(pres)
        return count

    def one_step(pres, cfg, total, sweep=True):
        return int(_first_written_long_eliminate(pres, cfg, total))

    data = Path(__file__).parent / "data"
    texts = [(data / f"fibonacci_2_7_obfuscated_{d}.pres").read_text() for d in (67, 127)]
    inputs = [lambda t=t: parse_presentation(t) for t in texts]
    inputs += [lambda: make_presentation(*NORMALIZED_MID_RUN)]
    inputs += [lambda s=s: sparse_presentation(s) for s in range(60)]
    rng = random.Random(35)
    for _ in range(60):  # many generators over short relators; involutions
        args = rng.getrandbits(32), rng.randint(6, 10), rng.randint(4, 8), 5
        inputs.append(lambda args=args: random_presentation(*args))
        words = squares_words(rng, d_max=8, q_max=20, l_max=16)
        inputs.append(lambda words=words: make_presentation(*words))
    for n, make in enumerate(inputs):
        runs = []
        for step in (counted, one_step):
            monkeypatch.setattr(engine, "long_eliminate", step)
            events = []
            p, stats = simplify(make(), EngineConfig(skip_policy=policy), events.append)
            runs.append((serialize_presentation(p), stats.to_dict(), stats.counters.to_dict(),
                         stats.reorders, events))
        assert runs[0] == runs[1], n
    assert sweeps["several"] > 20 and sweeps["one step, run pending"] > 5, sweeps


def _doubling(pres):
    """Double the first relator's word: w w is still cyclically reduced."""
    r = pres.rel[0]
    r.set_word(r.word + r.word)


def test_each_length_guard_raises(monkeypatch):
    # the engine cannot trip these guards (check_match makes v longer than
    # u), so each is tripped by an injected fault; "aabb" replaces "aab"
    # in "aabab", and neither relator is short enough to eliminate
    def run():
        simplify(parse_presentation("gens 2\nrelw aabb\nrelw aabab\n"),
                 EngineConfig(long_elim_enabled=False))

    with monkeypatch.context() as m:
        m.setattr(engine, "apply_replacement", lambda t_word, match, p_word: t_word)
        with pytest.raises(EngineError, match="failed to shorten the text relator"):
            run()
    with monkeypatch.context() as m:
        m.setattr(engine, "run_pass", lambda pres, *args: _doubling(pres) or PassTally(1, 1, 1))
        with pytest.raises(EngineError, match="replacement pass increased total length"):
            run()
    with monkeypatch.context() as m:
        m.setattr(engine, "short_eliminate", lambda pres, *args: _doubling(pres) or 1)
        with pytest.raises(EngineError, match="short elimination increased total length"):
            run()
    run()  # and without a fault, none raises


def test_a_non_maximal_match_raises(monkeypatch):
    # every match that can give its v's first symbol to u still is valid,
    # but its v extends backward: w.u^-1 would cancel at the junction
    def shortened(*args):
        search = make_strategy(*args).search

        def search_shortened(p_word, t_words, counters):
            return [m if m is None or m.v_len - 1 <= m.u_len + 1
                    else m._replace(u_len=m.u_len + 1, v_len=m.v_len - 1)
                    for m in search(p_word, t_words, counters)]
        return SimpleNamespace(search=search_shortened)

    def run():
        p, _ = simplify(parse_presentation("gens 6\nrelw abcde\nrelw abcdeff\n"),
                        EngineConfig(long_elim_enabled=False))
        return serialize_presentation(p)

    with monkeypatch.context() as m:
        m.setattr(engine, "make_strategy", shortened)
        with pytest.raises(EngineError, match="match not maximal"):
            run()
    # the maximal match rewrites abcdeff to ff
    assert run() == "gens 6\nrel 6 6\nrel 1 2 3 4 5\n"


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


def test_simplify_stats_identity_and_monotone_phases(monkeypatch):
    # the search counts equal what a recorder sees, and neither a
    # replacement pass nor a short elimination lengthens the presentation
    phases = Counter()

    def monotone(phase, real):
        def wrapped(pres, *args):
            before = pres.total_length()
            result = real(pres, *args)
            assert pres.total_length() <= before, phase
            phases[phase] += 1
            return result
        return wrapped

    monkeypatch.setattr(engine, "run_pass", monotone("pass", engine.run_pass))
    monkeypatch.setattr(engine, "short_eliminate",
                        monotone("short", engine.short_eliminate))
    rng = random.Random(55)
    for _ in range(70):
        events = []
        p, stats = simplify(dense_presentation(rng), EngineConfig(), events.append)
        assert stats.pairs_considered == len(events)
        assert stats.searches_performed == sum(e.performed for e in events)
        assert stats.searches_successful == sum(e.successful for e in events)
        assert stats.searches_performed + stats.searches_skipped == stats.pairs_considered
        assert stats.rels_after == len(p.rel)
        assert stats.gens_after == p.d
    assert phases["pass"] > 80 and phases["short"] > 80, phases


def test_simplify_output_labels_are_compact():
    # eliminations leave gaps in the labels; simplify closes them before
    # it returns, so the output names generators 1..gens_after only
    rng = random.Random(57)
    eliminations = involutions = 0
    for i in range(120):
        if i % 2:
            pres = make_presentation(*squares_words(rng, l_max=20))
        else:
            pres = sparse_presentation(rng.getrandbits(32))
        p, stats = simplify(pres, EngineConfig())
        labels = set(range(1, stats.gens_after + 1))
        assert not p.eliminated and p.d == stats.gens_after
        assert {abs(s) for r in p.rel for s in r.word} <= labels
        assert p.involutions <= labels
        assert parse_presentation(serialize_presentation(p)).d == stats.gens_after
        eliminations += stats.short_elims + stats.long_elims
        involutions += bool(p.involutions)
    assert eliminations > 150 and involutions > 10


def test_replacements_strictly_shrink():
    # instrumented searcher: every successful search must shrink its text
    from tietze.engine import ReplacingSearcher

    class Checked(PairSearcher, ReplacingSearcher):
        def pair(self, pattern, text):
            before = len(text.word)
            changed = ReplacingSearcher.__call__(self, pattern, [text])[0]
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
    for _ in range(70):
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

    class OracleChecked(PairSearcher, ReplacingSearcher):
        def pair(self, pattern, text):
            p_word, t_word = pattern.word, text.word
            changed = ReplacingSearcher.__call__(self, pattern, [text])[0]
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
    # mid-pass; the record survives as length 0 until the engine drops it.
    # pass_sorted runs ts-sorted, pass_frozen the other three policies
    from tietze.engine import ReplacingSearcher
    from tietze.match import SearchCounters
    from tietze.skip import PassContext, init_pass_state, run_pass
    from tietze.strategies import make_strategy

    for policy in POLICY_NAMES:
        p = make_presentation(2, [(1, 2), (2, 1), (1, 1, 2)])
        ctx = PassContext(policy=policy)
        init_pass_state(p, ctx)
        searcher = ReplacingSearcher(make_strategy("brute"), SearchCounters())
        assert run_pass(p, ctx, searcher).successful, policy
        assert sorted(len(r.word) for r in p.rel)[0] == 0, policy  # annihilated, kept in place


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
    # nor a bool or a non-number, which raised TypeError or passed as 1.0
    for value in (float("nan"), True, False, "2", None, 0, 0.99):
        with pytest.raises(ValueError, match="growth_limit"):
            EngineConfig(growth_limit=value)
    for value in (1, 1.0, 2, 1.5):  # kept as given, so the stats config block does not move
        assert repr(EngineConfig(growth_limit=value).growth_limit) == repr(value)
    for size in (2, 31):
        with pytest.raises(ValueError, match="bloom_log2_size"):
            EngineConfig(bloom_log2_size=size)
    assert EngineConfig(bloom_log2_size=3).bloom_log2_size == 3
    assert EngineConfig(bloom_log2_size=30).bloom_log2_size == 30
    # not an int: a float budget would run a rounded-up number of passes,
    # and a float Bloom size would fail inside BloomFilter
    for name in ("bloom_log2_size", "max_passes"):
        for value in (10.5, 16.0, True, "12", None):
            with pytest.raises(ValueError, match=name):
                EngineConfig(**{name: value})
    # a seed of None would draw a new Bloom fingerprint base on every run,
    # and "off" is truthy, so it would run long eliminations
    for value in (None, 3.0, "3", True):
        with pytest.raises(ValueError, match="seed"):
            EngineConfig(seed=value)
    for value in ("off", 0, 1, None):
        with pytest.raises(ValueError, match="long_elim_enabled"):
            EngineConfig(long_elim_enabled=value)
    assert EngineConfig(seed=-7, long_elim_enabled=False).seed == -7


def test_two_runs_of_one_config_count_the_same():
    fixture = Path(__file__).parent / "data" / "fibonacci_2_7_obfuscated_67.pres"
    text = fixture.read_text()
    for name in ("kr-bloom3", "kr-bloom4"):
        cfg = EngineConfig(match_strategy=name, bloom_log2_size=6, seed=11)
        runs = []
        for _ in range(2):
            pres, stats = simplify(parse_presentation(text), cfg)
            runs.append((serialize_presentation(pres), stats.to_dict(), stats.counters.to_dict()))
        assert runs[0] == runs[1]
        assert runs[0][2]["bloom_false_hits"] > 0


@pytest.mark.parametrize("policy", POLICY_NAMES)
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

        def search(self, p_word, t_words, counters):
            found = self.inner.search(p_word, t_words, counters)
            for t_word, m in zip(t_words, found):
                if (m is None) != (exhaustive_oracle(p_word, t_word) is None):
                    disagreements.append((p_word, t_word))
            return found

    monkeypatch.setattr(engine, "make_strategy", lambda *a: OracleChecked(make_strategy(*a)))
    rng = random.Random(3)
    for _ in range(120):
        d, words = squares_words(rng)
        simplify(make_presentation(d, words), EngineConfig(match_strategy=name))
    assert disagreements == []


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_every_pass_starts_sorted_and_duplicate_free(monkeypatch, policy):
    """Boundary maintenance runs at start-up and after a rewrite, and a
    pass after the first runs only after a rewrite, so maintenance comes
    right before every pass; every pass must start on a sorted sequence
    of distinct nonempty relators."""
    phases = []
    run_pass, maintenance = engine.run_pass, engine._boundary_maintenance

    def checking_pass(pres, ctx, searcher, record=None):
        words = [r.word for r in pres.rel]
        assert all(words) and pres.is_sorted()
        assert len({canonical_rep(w) for w in words}) == len(words)
        phases.append("pass")
        return run_pass(pres, ctx, searcher, record)

    def counting_maintenance(pres):
        phases.append("maintain")
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
    # relator that defined the generator, which leaves no pass to run: 62
    # long eliminations take 12 passes under ts-sorted and 11 under the
    # frozen driver
    phases.clear()
    fixture = Path(__file__).parent / "data" / "fibonacci_2_7_obfuscated_67.pres"
    _, stats = simplify(parse_presentation(fixture.read_text()), EngineConfig(skip_policy=policy))
    assert stats.long_elims == 62
    assert phases.count("pass") == stats.passes == (12 if policy == "ts-sorted" else 11)
    assert all(phases[k - 1] == "maintain" for k, phase in enumerate(phases) if phase == "pass")
    assert phases[0] == phases[-1] == "maintain"  # at start-up and at the end


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_first_pass_starts_involution_normal_and_all_marked(monkeypatch, policy):
    """The first pass of a run sees no inverse of an involution, and every
    relator marked changed, however the input spelled its involutions."""
    firsts = []
    run_pass = engine.run_pass

    def checking_pass(pres, ctx, searcher, record=None):
        if not firsts:
            # read the squares too: the check must not trust the set it checks
            squares = {abs(r.word[0]) for r in pres.rel
                       if len(r.word) == 2 and r.word[0] == r.word[1]}
            inverses = {-g for g in squares | pres.involutions}
            assert all(inverses.isdisjoint(r.word) for r in pres.rel)
            assert all(r.tp == -1 for r in pres.rel)  # every policy stamps
            if policy == "flags":
                assert {r.id for r in pres.rel} <= ctx.flagged
            firsts.append(len(pres.rel))
        return run_pass(pres, ctx, searcher, record)

    monkeypatch.setattr(engine, "run_pass", checking_pass)
    rng = random.Random(23)
    inputs = [squares_words(random.Random(40), d_max=5, q_max=12, l_max=30)]  # GRID_DIGEST's
    inputs += [squares_words(rng, l_max=20) for _ in range(150)]
    runs = inverted = 0
    for d, words in inputs:
        pres = Presentation(d)  # unlike make_presentation, keeps inverted involutions
        for w in words:
            pres.add_relator(w)
        normalized = pres.clone()
        normalize_involutions(normalized)
        inverted += bool(normalized.take_changes())
        firsts.clear()
        simplify(pres, EngineConfig(skip_policy=policy))
        runs += bool(firsts)
    assert inverted == runs == len(inputs), (inverted, runs)


def test_an_early_end_goes_straight_to_short_elimination(monkeypatch):
    """A pass that leaves a relator eliminable is followed by a short
    elimination that removes a generator, with no long elimination in
    between; an early-ended pass counts in ``passes``."""
    phases, run_pass = [], engine.run_pass
    short, long = engine.short_eliminate, engine.long_eliminate

    def watched_pass(pres, *args):
        tally = run_pass(pres, *args)
        phases.append("early" if any(eliminable(r.word) for r in pres.rel) else "pass")
        return tally

    def watched_short(pres, *args):
        phases.append(("short", short(pres, *args)))
        return phases[-1][1]

    def watched_long(pres, *args):
        phases.append("long")
        return long(pres, *args)

    monkeypatch.setattr(engine, "run_pass", watched_pass)
    monkeypatch.setattr(engine, "short_eliminate", watched_short)
    monkeypatch.setattr(engine, "long_eliminate", watched_long)
    rng = random.Random(29)
    early = 0
    for i in range(60):
        phases.clear()
        pres = dense_presentation(rng) if i % 2 else make_presentation(*squares_words(rng))
        # a budget of 3 passes is sometimes spent by a pass that ended early
        _, stats = simplify(pres, EngineConfig(max_passes=3 if i % 3 == 0 else 100))
        assert stats.passes == phases.count("early") + phases.count("pass")
        for k, phase in enumerate(phases):
            if phase == "early":
                assert phases[k + 1][0] == "short" and phases[k + 1][1] > 0, phases
        early += phases.count("early")
    assert early > 30, early


def test_flags_is_the_lossy_baseline():
    # flags searches a pair only when a member changed in the previous
    # pass, so a change made earlier in the same pass waits a pass and the
    # rewrites come in another order: here flags skips such pairs and
    # misses two successful searches that all-pairs makes, though both
    # reach the trivial group.  EngineConfig's defaults are the CLI's.
    base = dense_presentation(random.Random(37))
    runs, late = {}, Counter()
    for policy in ("flags", "all-pairs"):
        events, changed = [], set()
        runs[policy] = simplify(base.clone(), EngineConfig(skip_policy=policy), events.append)
        for e in events:
            if not e.performed:
                late[policy] += bool({(e.pass_no, e.pattern_id), (e.pass_no, e.text_id)} & changed)
            if e.successful:
                changed.add((e.pass_no, e.text_id))
    assert {policy: stats.searches_successful for policy, (_, stats) in runs.items()} \
        == {"flags": 4, "all-pairs": 6}
    assert late["flags"] > 0 and late["all-pairs"] == 0, late
    assert all(serialize_presentation(p) == "gens 0\n" for p, _ in runs.values())


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_out_of_pass_changes_are_marked_and_nothing_else_moves(monkeypatch, policy):
    """Between two passes of a run, each live relator that is new or whose
    word differs from what the previous pass returned is marked changed,
    and every other relator keeps the stamps and flag that pass left it."""
    left, seen = {}, Counter()
    run_pass = engine.run_pass

    def state(r, ctx):
        return r.word, r.tp, r.ts, r.id in ctx.flagged

    def checking_pass(pres, ctx, searcher, record=None):
        if left.get("ctx") is ctx:  # a later pass of the same run
            for r in pres.rel:
                before = left["rel"].get(r.id)
                if before is None or before[0] != r.word:
                    assert r.tp == -1, (r.id, r.word)  # every policy stamps
                    if policy == "flags":
                        assert r.id in ctx.flagged, (r.id, r.word)
                    seen["marked"] += 1
                else:
                    assert state(r, ctx) == before, (r.id, r.word)
                    seen["unchanged"] += 1
            seen["passes"] += 1
        tally = run_pass(pres, ctx, searcher, record)
        left["ctx"], left["rel"] = ctx, {r.id: state(r, ctx) for r in pres.rel}
        return tally

    monkeypatch.setattr(engine, "run_pass", checking_pass)
    rng = random.Random(26)
    for i in range(320):
        if i % 2:
            pres = make_presentation(*squares_words(rng, l_max=20))
        else:
            pres = dense_presentation(rng, l_max=16)
        simplify(pres, EngineConfig(skip_policy=policy, long_elim_enabled=i % 3 != 0))
    assert seen["passes"] > 400 and seen["marked"] > 80 and seen["unchanged"] > 2000, seen


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_a_declined_pass_would_find_nothing(monkeypatch, policy):
    """After the first pass, the driver runs one only after a rewrite since
    the last one began.

    Wherever it declines one, with budget left and two relators or more,
    the would-be pass runs on a clone with a copy of the pass state and a
    recording searcher: it must search nothing under the timestamp
    policies and flags, and succeed nowhere under all-pairs.
    """
    from copy import deepcopy

    from tietze.match import SearchCounters
    from tietze.skip import PassContext
    from tietze.strategies import make_strategy

    real = {name: getattr(engine, name) for name in (
        "short_eliminate", "long_eliminate", "compact_labels", "run_pass", "_boundary_maintenance")}
    run = {}
    searches, declined = Counter(), Counter()

    def new_context(**kwargs):
        run["ctx"], run["passes"], run["entry"] = PassContext(**kwargs), 0, False
        return run["ctx"]

    def searched_pass(pres, *args):
        run["passes"] += 1
        run["entry"] = False
        return real["run_pass"](pres, *args)

    def entered(pres, *args):
        result = real["short_eliminate"](pres, *args)
        run["entry"] = True  # the driver marks, then runs a pass or declines
        return result

    def would_be_pass(pres):
        clone = pres.clone()
        real["_boundary_maintenance"](clone)
        if run["entry"] and run["passes"] < cfg.max_passes and len(clone.rel) >= 2:
            replacing = engine.ReplacingSearcher(make_strategy("brute"), SearchCounters())

            def recording(pattern, texts):
                results = replacing(pattern, texts)
                searches["performed"] += len(texts)
                searches["successful"] += sum(results)
                return results

            real["run_pass"](clone, deepcopy(run["ctx"]), recording)
            declined[policy] += 1
        run["entry"] = False

    def before(name):
        def wrapped(pres, *args):
            would_be_pass(pres)
            return real[name](pres, *args)
        return wrapped

    monkeypatch.setattr(engine, "PassContext", new_context)
    monkeypatch.setattr(engine, "run_pass", searched_pass)
    monkeypatch.setattr(engine, "short_eliminate", entered)
    monkeypatch.setattr(engine, "long_eliminate", before("long_eliminate"))
    monkeypatch.setattr(engine, "compact_labels", before("compact_labels"))
    rng = random.Random(33)
    data = Path(__file__).parent / "data"
    inputs = [parse_presentation((data / f"fibonacci_2_7_obfuscated_{d}.pres").read_text())
              for d in (67, 127)]
    for i in range(120):
        if i % 3 == 0:
            inputs.append(make_presentation(*squares_words(rng, q_max=16, l_max=20)))
        elif i % 3 == 1:
            inputs.append(sparse_presentation(rng.getrandbits(32)))
        else:
            inputs.append(dense_presentation(rng, l_max=16))
    # a run declines at most one pass per long elimination step, which takes
    # a whole run of lonely generators; about half of the sparse inputs end
    # with a declined pass
    inputs += [sparse_presentation(rng.getrandbits(32)) for _ in range(300)]
    for i, pres in enumerate(inputs):
        cfg = EngineConfig(skip_policy=policy, long_elim_enabled=i % 4 != 3,
                           max_passes=3 if i % 5 == 2 else 100)
        simplify(pres, cfg)
    if policy == "all-pairs":
        assert searches["successful"] == 0 and searches["performed"] > 0, searches
    else:
        assert searches["performed"] == 0, searches
    assert declined[policy] > 150, declined


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_short_elimination_reads_what_a_full_scan_reads(monkeypatch, policy):
    """Each short elimination of a run reads only the records rewritten
    since the previous one, yet every step picks the relator a full scan
    picks and leaves the words and involutions a full normalization
    leaves: a reference run on a clone checks each call step by step."""
    real_short, real_normalize, real_eliminate = (
        engine.short_eliminate, engine.normalize_involutions, engine._eliminate)
    steps, calls, inside = [], Counter(), []

    def state(pres):
        return [(r.id, r.word) for r in pres.rel], sorted(pres.involutions)

    def full_scan(pres):
        expected = []
        while True:
            real_normalize(pres)
            r = next((r for r in pres.rel if eliminable(r.word)), None)
            expected.append((state(pres), r and r.id))
            if r is None:
                return expected
            real_eliminate(pres, r, max(map(abs, r.word)))

    def normalizing(pres, *args):
        real_normalize(pres, *args)
        steps.append((state(pres), None))

    def eliminating(pres, r, g):
        if inside:  # a short elimination's step, not a long one
            steps[-1] = (steps[-1][0], r.id)
        real_eliminate(pres, r, g)

    def checked(pres, taken=None):
        reference = pres.clone()
        partial = taken is not None and \
            2 * (len(taken) + len(pres.pending_changes())) < len(pres.rel)
        steps.clear()
        inside.append(True)
        result = real_short(pres, taken)
        inside.clear()
        assert steps == full_scan(reference)
        if partial:
            calls["partial"] += 1
            calls["partial, eliminating"] += result > 0
            calls["partial, with involutions"] += bool(pres.involutions)
        return result

    monkeypatch.setattr(engine, "short_eliminate", checked)
    monkeypatch.setattr(engine, "normalize_involutions", normalizing)
    monkeypatch.setattr(engine, "_eliminate", eliminating)
    rng = random.Random(34)
    for i in range(240):
        if i % 3 == 0:
            pres = make_presentation(*squares_words(rng, d_max=8, q_max=40, l_max=16))
        elif i % 3 == 1:
            pres = sparse_presentation(rng.getrandbits(32))
        else:
            pres = dense_presentation(rng, q_max=40, l_max=16)
        simplify(pres, EngineConfig(skip_policy=policy, long_elim_enabled=i % 4 != 3))
    assert calls["partial"] > 80, calls
    assert calls["partial, eliminating"] > 30 and calls["partial, with involutions"] > 20, calls
