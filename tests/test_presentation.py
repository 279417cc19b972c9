import random
from collections import Counter
from pathlib import Path

import pytest

from helpers import squares_words
from tietze import engine, presentation
from tietze.engine import EngineConfig, simplify, substitute
from tietze.presentation import (
    ParseError,
    Presentation,
    RelatorRecord,
    compact_labels,
    make_presentation,
    normalize_involutions,
    parse_presentation,
    remove_duplicates,
    serialize_presentation,
    sort_rel,
)
from tietze.randgen import random_presentation, random_reduced_word
from tietze.verify import abelian_invariants
from tietze.words import canonical_rep, invert, reduce_cyclic_word, rotate_right, word_from_letters

W = word_from_letters


def test_parse_numeric():
    p = parse_presentation("gens 2\nrel 1 2 -1 -2\n")
    assert p.d == 2
    assert [r.word for r in p.rel] == [(1, 2, -1, -2)]


def test_parse_letter_form_matches_numeric():
    a = parse_presentation("gens 2\nrel 1 2 -1 -2\n")
    b = parse_presentation("gens 2\nrelw abAB\n")
    assert [r.word for r in a.rel] == [r.word for r in b.rel]


def test_parse_out_of_range_index():
    with pytest.raises(ParseError, match="out of range"):
        parse_presentation("gens 1\nrel 2\n")


def test_parse_rejects_zero_and_bad_lines():
    with pytest.raises(ParseError):
        parse_presentation("gens 2\nrel 0\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_presentation("gens 2\nbogus 1\n")
    with pytest.raises(ParseError):
        parse_presentation("rel 1\n")
    with pytest.raises(ParseError):
        parse_presentation("gens 2\nrelw ax!\n")


def test_parse_rejects_an_underscore_in_a_symbol():
    # int() alone reads "1_0" as 10, a valid generator of 12
    with pytest.raises(ParseError, match=r"^line 3: bad symbol '1_0'$"):
        parse_presentation("gens 12\n# ten?\nrel 1_0\n")


def test_parse_rejects_a_non_ascii_digit_in_a_symbol():
    # int() alone reads the Arabic-Indic one as 1
    with pytest.raises(ParseError, match="^line 2: bad symbol '\u0661'$"):
        parse_presentation("gens 2\nrel \u0661 2\n")


def test_parse_rejects_a_non_ascii_digit_in_the_generator_count():
    # int() alone reads the Arabic-Indic three as 3
    with pytest.raises(ParseError, match="^line 1: bad generator count '\u0663'$"):
        parse_presentation("gens \u0663\n")


def test_parse_accepts_a_leading_byte_order_mark():
    p = parse_presentation("\ufeffgens 2\nrel 1 +2\n")
    assert p.d == 2 and [r.word for r in p.rel] == [(1, 2)]
    # only a leading one: elsewhere it is still part of a token
    with pytest.raises(ParseError) as e:
        parse_presentation("gens 2\n\ufeffrel 1\n")
    assert str(e.value) == "line 2: unknown directive " + repr("\ufeffrel")


def test_make_presentation_rejects_negative_count():
    with pytest.raises(ValueError, match="generator count"):
        make_presentation(-2, [])
    assert abelian_invariants(make_presentation(0, [])) == ([], 0)


def test_relw_rejected_for_large_alphabets():
    with pytest.raises(ParseError, match="relw"):
        parse_presentation("gens 27\nrelw ab\n")


def test_comments_and_blank_lines_ignored():
    p = parse_presentation("# header\n\ngens 2\n# middle\nrel 1 2\n\n")
    assert [r.word for r in p.rel] == [(1, 2)]


def test_parse_reduces_relators():
    p = parse_presentation("gens 2\nrelw abBA\nrelw abA\n")
    # first reduces to nothing and is dropped, second cyclically reduces
    assert [r.word for r in p.rel] == [(2,)]


def test_serialize_examples():
    p = make_presentation(2, [(1, 2)])
    assert serialize_presentation(p) == "gens 2\nrel 1 2\n"
    assert serialize_presentation(make_presentation(2, [])) == "gens 2\n"


def test_roundtrip_randomized():
    rng = random.Random(11)
    for _ in range(60):
        d = rng.randint(1, 30)
        q = rng.randint(0, 50)
        p = make_presentation(d, [random_reduced_word(rng, d, rng.randint(1, 12))
                                  for _ in range(q)])
        q2 = parse_presentation(serialize_presentation(p))
        assert q2.d == p.d
        assert [r.word for r in q2.rel] == [r.word for r in p.rel]
        assert q2.involutions == p.involutions


def test_sort_rel_stable():
    p = make_presentation(3, [(1, 2, 3), (1, 2), (2, 3)])
    ids = [r.id for r in p.rel]
    sort_rel(p)
    assert [len(r.word) for r in p.rel] == [2, 2, 3]
    assert [r.id for r in p.rel] == [ids[1], ids[2], ids[0]]
    sort_rel(p)  # idempotent
    assert [len(r.word) for r in p.rel] == [2, 2, 3]


def test_normalize_involutions_rewrites():
    p = make_presentation(2, [(1, 1), (2, -1, 2, -1)])
    assert p.involutions == {1}
    assert sorted([r.word for r in p.rel]) == [(1, 1), (2, 1, 2, 1)]


def test_normalize_involutions_noop_and_idempotent():
    p = make_presentation(2, [(1, 2), (2, 1, 2)])
    assert p.involutions == set()
    before = [r.word for r in p.rel]
    p.take_changes()
    assert normalize_involutions(p) is None
    assert p.take_changes() == []
    assert [r.word for r in p.rel] == before


def reference_normalize_involutions(p):
    """The fixpoint loop that the one-sweep normalization replaced."""
    changed = []
    while True:
        found = False
        for r in p.rel:
            if len(r.word) == 2 and r.word[0] == r.word[1]:
                g = abs(r.word[0])
                if g not in p.involutions:
                    p.involutions.add(g)
                    found = True
        rewritten = False
        if p.involutions:
            for r in p.rel:
                w = tuple(-s if (s < 0 and -s in p.involutions) else s for s in r.word)
                if w != r.word:
                    r.set_word(reduce_cyclic_word(w))
                    changed.append(r)
                    rewritten = True
        p.rel[:] = [r for r in p.rel if len(r.word) > 0]
        if not (found or rewritten):
            return changed


def test_one_sweep_normalization_equals_fixpoint_loop():
    rng = random.Random(31)
    for _ in range(400):
        d, words = squares_words(rng)
        p = Presentation(d)
        for w in words:
            p.add_relator(w)
        # involutions found earlier in a run, their inverses since rewritten in
        p.involutions = set(rng.sample(range(1, d + 1), rng.randint(0, 1)))
        q = p.clone()
        lengths = [len(r.word) for r in p.rel]
        normalize_involutions(p)
        got = p.take_changes()
        want = reference_normalize_involutions(q)
        assert [r.word for r in p.rel] == [r.word for r in q.rel]
        assert p.involutions == q.involutions
        assert [r.id for r in got] == [r.id for r in want]
        assert len({r.id for r in got}) == len(got)
        assert [len(r.word) for r in p.rel] == lengths


def test_normalize_never_increases_length():
    rng = random.Random(12)
    for _ in range(80):
        d = rng.randint(1, 4)
        p = make_presentation(d, [random_reduced_word(rng, d, rng.randint(1, 8))
                                  for _ in range(rng.randint(0, 8))])
        before = p.total_length()
        normalize_involutions(p)
        assert p.total_length() <= before


def test_total_length():
    p = make_presentation(3, [(1, 2, 3), (1, 2), (2, 3, 1, 2)])
    assert p.total_length() == 9
    assert make_presentation(2, []).total_length() == 0
    assert make_presentation(2, [W("abAB")]).total_length() == 4


def test_remove_duplicates_up_to_equivalence():
    p = make_presentation(2, [(1, 2), (2, 1), (-2, -1), (1, -2)])
    removed = remove_duplicates(p)
    assert len(removed) == 2
    assert [r.word for r in p.rel] == [(1, 2), (1, -2)]
    # emptied relators are dropped too, but only duplicates are reported;
    # a duplicate is emptied as it goes, which takes it out of the tally
    p = make_presentation(2, [(1, 2), (1, 1, 2), (2, 1), (1, -2)])
    assert p.occurrences() == {1: 5, 2: 4}
    p.rel[1].set_word(())
    p.rel[3].set_word(())
    duplicate = p.rel[2]
    assert remove_duplicates(p) == [duplicate.id] and duplicate.word == ()
    assert [r.word for r in p.rel] == [(1, 2)]
    assert +p.occurrences() == {1: 1, 2: 1}


def test_occurrence_tally_folds_few_changes_and_recounts_many(monkeypatch):
    # after each call the tally equals a full recount, whether few of the
    # relators changed since the last take (each is folded in) or at least
    # half of them did (the tally is counted afresh, folding none)
    folded = []

    class SpyCounter(Counter):
        def subtract(self, *args, **kwargs):
            folded.append(1)
            super().subtract(*args, **kwargs)

    monkeypatch.setattr(presentation, "Counter", SpyCounter)
    rng = random.Random(16)
    recounts = folds = 0
    for _ in range(100):
        d = rng.randint(2, 6)
        p = make_presentation(d, [random_reduced_word(rng, d, rng.randint(1, 12))
                                  for _ in range(rng.randint(4, 20))])
        p.occurrences()
        p.take_changes()
        for _ in range(6):
            most = rng.random() < 0.5
            k = len(p.rel) if most else rng.randint(0, (len(p.rel) - 1) // 2)
            changing = rng.sample(p.rel, k)
            for r in changing:
                r.set_word(() if rng.random() < 0.1 else
                           reduce_cyclic_word(random_reduced_word(rng, d, rng.randint(1, 12))))
            p.rel[:] = [r for r in p.rel if r.word]
            before = len(folded)
            tally = p.occurrences()
            assert +tally == Counter(abs(s) for r in p.rel for s in r.word)
            recount = 2 * len(changing) >= len(p.rel)
            assert len(folded) - before == (0 if recount else len(changing))
            recounts += recount and bool(changing)
            folds += not recount and bool(changing)
            p.take_changes()
            if not p.rel:
                break
    assert recounts > 200 and folds > 150


def test_take_changes_gives_each_rewritten_record_once_in_order():
    p = make_presentation(2, [(1, 2), (1, 1, 2), (2, 1, 2, 2), (1, -2)])
    p.take_changes()
    a, b, c, d = p.rel
    b.set_word((2,))
    a.set_word(())  # emptied records are taken too
    b.set_word((1,))
    c.set_word((1, 2))
    assert [r.id for r in p.take_changes()] == [b.id, a.id, c.id]
    assert p.take_changes() == []
    c.set_word((2, 2))  # a taken record queues again
    d.set_word((1,))
    assert [r.id for r in p.take_changes()] == [c.id, d.id]
    # new and cloned records are armed from birth
    e = p.add_relator((1, 2, 2))
    q = p.clone()
    e.set_word((1,))
    q.rel[0].set_word((2,))
    assert p.take_changes() == [e] and [r.id for r in q.take_changes()] == [q.rel[0].id]


def test_tally_and_change_list_under_random_interleavings():
    # occurrences() brings the tally up to date and leaves the change list
    # as it was; take_changes() folds what it takes into the tally
    rng = random.Random(26)
    ops = Counter()
    for _ in range(150):
        d = rng.randint(2, 5)
        p = make_presentation(d, [random_reduced_word(rng, d, rng.randint(1, 10))
                                  for _ in range(rng.randint(2, 12))])
        p.take_changes()
        expected = []
        for _ in range(40):
            op = rng.random()
            if op < 0.6 and p.rel:
                r = rng.choice(p.rel)
                r.set_word(() if rng.random() < 0.1 else
                           reduce_cyclic_word(random_reduced_word(rng, d, rng.randint(1, 10))))
                if all(r is not s for s in expected):
                    expected.append(r)
                p.rel[:] = [r for r in p.rel if r.word]
                ops["set_word"] += 1
            elif op < 0.8:
                taken = p.take_changes()
                assert len(taken) == len(expected)
                assert all(r is s for r, s in zip(taken, expected))
                ops["take", p._tally is not None and bool(taken)] += 1
                expected = []
            else:
                recount = p._tally is None or 2 * len(expected) >= len(p.rel)
                assert +p.occurrences() == Counter(abs(s) for r in p.rel for s in r.word)
                ops["recount" if recount else "fold"] += 1
    assert min(ops.values()) > 300, ops


def canonical_only_remove_duplicates(p):
    """Duplicate removal with a canonical form for every relator (the
    reference the keyed version must equal)."""
    seen, removed, kept = set(), [], []
    for r in p.rel:
        key = canonical_rep(r.word)
        if key in seen:
            removed.append(r.id)
        else:
            seen.add(key)
            kept.append(r)
    p.rel[:] = kept
    return removed


def test_keyed_remove_duplicates_equals_canonical_only():
    rng = random.Random(14)
    removed_total = removed_long = same_key_kept = 0
    for _ in range(400):
        d = rng.randint(1, 4)
        # short relators, and long ones of 40-88 symbols
        base = [random_reduced_word(rng, d, rng.randint(1, 12) if rng.random() < 0.5
                                    else rng.randint(40, 88))
                for _ in range(rng.randint(1, 8))]
        words = list(base)
        for w in base:
            for _ in range(rng.randint(0, 2)):
                v = rotate_right(w, rng.randrange(len(w)))
                kind = rng.randrange(3)
                if kind == 1:
                    v = invert(v)
                elif kind == 2:
                    v = v[::-1]  # the mirror: same key, rarely equivalent
                words.insert(rng.randrange(len(words) + 1), v)
        p, q = make_presentation(d, words), make_presentation(d, words)
        removed = remove_duplicates(p)
        assert removed == canonical_only_remove_duplicates(q)
        assert [r.id for r in p.rel] == [r.id for r in q.rel]
        removed_total += len(removed)
        lengths = {r.id: len(r.word) for r in make_presentation(d, words).rel}
        removed_long += sum(lengths[i] >= 48 for i in removed)
        keys = Counter(r.key() for r in p.rel)
        same_key_kept += sum(n for n in keys.values() if n > 1)
    assert removed_total > 1000 and removed_long > 400 and same_key_kept > 250


def test_remove_duplicates_on_the_duplicate_classes_fixture():
    # each word's rotations and inverses go, and so does the commutator's
    # mirror; the other mirrors share their word's key but stay
    text = (Path(__file__).resolve().parent / "data" / "duplicate_classes.pres").read_text(
        encoding="utf-8")
    p, q = parse_presentation(text), parse_presentation(text)
    dropped = [5, 6, 8, 9, 11, 13, 14, 15, 17, 18, 19]
    assert remove_duplicates(p) == dropped == canonical_only_remove_duplicates(q)
    assert [r.id for r in p.rel] == [0, 1, 2, 3, 4, 7, 10, 12, 16]
    assert [len(r.word) for r in p.rel[:4]] == [9, 14, 48, 61]
    by_id = {r.id: r for r in p.rel}
    for word, mirror in ((0, 16), (1, 12), (2, 7), (3, 10)):
        assert by_id[word].key() == by_id[mirror].key()


def test_key_is_invariant_and_survives_substitute():
    rng = random.Random(15)
    for _ in range(200):
        d = rng.randint(2, 5)
        w = random_reduced_word(rng, d, rng.randint(1, 20))
        key = RelatorRecord(0, w).key()
        assert key == (len(w), abs(sum(w)), sum(s * s for s in w),
                       sum(a * b for a, b in zip(w, w[1:] + w[:1])))
        v = rotate_right(w, rng.randrange(len(w)))
        assert RelatorRecord(1, v).key() == RelatorRecord(2, invert(v)).key() == key
    p = make_presentation(3, [(2, 3, 3), (1, 2, 1, 3)])
    keys = [r.key() for r in p.rel]
    substitute(p, 1, (2,))
    # the first relator does not hold generator 1: it keeps its word and key
    assert p.rel[0].key() == keys[0] == RelatorRecord(0, p.rel[0].word).key()
    assert p.rel[1].key() == RelatorRecord(1, p.rel[1].word).key() != keys[1]


def test_trivial_group_roundtrip():
    p = parse_presentation("gens 0\n")
    assert p.d == 0 and p.rel == []
    assert serialize_presentation(p) == "gens 0\n"
    assert serialize_presentation(parse_presentation(serialize_presentation(p))) == "gens 0\n"
    with pytest.raises(ParseError, match="out of range"):
        parse_presentation("gens 0\nrel 1\n")
    with pytest.raises(ParseError, match=">= 0"):
        parse_presentation("gens -1\n")


@pytest.fixture
def canonical_calls(monkeypatch):
    """Counts the canonical_rep calls RelatorRecord.canonical makes."""
    calls = []

    def counting(w):
        calls.append(w)
        return canonical_rep(w)

    monkeypatch.setattr(presentation, "canonical_rep", counting)
    return calls


def test_canonical_is_cached_until_set_word(canonical_calls):
    r = RelatorRecord(0, W("bab"))
    assert r.canonical() == canonical_rep(W("bab"))
    assert r.canonical() == canonical_rep(W("bab"))
    assert len(canonical_calls) == 1
    r.set_word(W("aB"))
    assert r.canonical() == canonical_rep(W("aB"))
    assert len(canonical_calls) == 2
    # the cache is not part of the record's value
    assert r == RelatorRecord(0, W("aB")) and "_canonical" not in repr(r)


def test_labels_stay_fixed_until_compaction():
    p = make_presentation(3, [(2, 3, 3), (1, 2, 1, 3)])
    p.involutions = {1, 3}
    # eliminating generator 1 rewrites only the second relator and
    # renumbers nothing; the gap it leaves is no free generator
    p.take_changes()
    substitute(p, 1, (2,))
    assert [r.id for r in p.take_changes()] == [1]
    assert [r.word for r in p.rel] == [(2, 3, 3), (2, 2, 2, 3)]
    assert p.d == 2 and p.eliminated == {1} and p.involutions == {3}
    assert p.clone().eliminated == {1}
    with pytest.raises(ValueError, match="compacted"):
        serialize_presentation(p)
    with pytest.raises(ValueError, match="compacted"):
        abelian_invariants(p)
    with pytest.raises(ValueError, match="out of range"):
        substitute(p, 1, ())
    compact_labels(p)
    assert [r.word for r in p.rel] == [(1, 2, 2), (1, 1, 1, 2)]
    assert p.d == 2 and p.eliminated == set() and p.involutions == {2}
    assert serialize_presentation(p) == "gens 2\nrel 1 2 2\nrel 1 1 1 2\n"


def test_compaction_keeps_order_duplicates_and_canonical_forms():
    # labels with gaps, as eliminations leave them: compaction maps each
    # canonical form to the mapped word's canonical form, so the sequence
    # stays sorted and its duplicates stay duplicates
    rng = random.Random(17)
    duplicates = 0
    for _ in range(300):
        d = rng.randint(2, 9)
        gone = set(rng.sample(range(1, d + 1), rng.randint(1, d - 1)))
        live = sorted(set(range(1, d + 1)) - gone)
        new = {h: i for i, h in enumerate(live, 1)}
        words = [tuple(rng.choice(live) * rng.choice((1, -1)) for _ in range(rng.randint(1, 9)))
                 for _ in range(rng.randint(1, 8))]
        words += [rotate_right(invert(w), rng.randrange(len(w))) for w in words[:2]]
        p = sort_rel(make_presentation(d, words))
        involutions = set(rng.sample(live, rng.randint(0, len(live))))
        p.d, p.eliminated, p.involutions = len(live), set(gone), set(involutions)
        ids, canon = [r.id for r in p.rel], [r.canonical() for r in p.rel]
        removed = remove_duplicates(p.clone())
        compact_labels(p)
        assert not p.eliminated and p.involutions == {new[h] for h in involutions}
        assert p.is_sorted() and [r.id for r in p.rel] == ids
        for r, c in zip(p.rel, canon):
            mapped = tuple(new[s] if s > 0 else -new[-s] for s in c)
            assert r.canonical() == canonical_rep(r.word) == mapped
        assert remove_duplicates(p) == removed
        duplicates += len(removed)
    assert duplicates > 300


def test_canonical_cache_cleared_by_normalize_involutions(canonical_calls):
    p = Presentation(2)
    p.add_relator((1, 1))
    r = p.add_relator((-1, 2, 2, 2))
    stale = r.canonical()
    normalize_involutions(p)
    assert p.take_changes() == [r]
    assert r.word == (1, 2, 2, 2)
    assert r.canonical() == canonical_rep(r.word) != stale


def test_clone_does_not_carry_canonical_cache(canonical_calls, monkeypatch):
    counts_built = []

    def counting(symbols):
        counts_built.append(1)
        return Counter(symbols)

    monkeypatch.setattr(presentation, "Counter", counting)
    p = make_presentation(2, [W("abb"), W("aBaB")])
    for r in p.rel:
        r.canonical()
        r.counts()
    q = p.clone()
    assert len(canonical_calls) == 2 and len(counts_built) == 2
    assert [r.canonical() for r in q.rel] == [r.canonical() for r in p.rel]
    assert len(canonical_calls) == 4
    assert [(r.counts(), r.once()) for r in q.rel] == [(r.counts(), r.once()) for r in p.rel]
    assert len(counts_built) == 4


def test_keys_spare_most_canonical_forms(canonical_calls, monkeypatch):
    # a canonical form is built only for a relator whose key another one
    # shares; on long relators over 3 generators sharing a motif (the s120
    # family), and on 300 short ones over 4, few relators share a key
    handed, colliding = [], []

    def counting(p):
        keys = Counter(r.key() for r in p.rel if r.word)
        handed.append(len(p.rel))
        colliding.extend(r.word for r in p.rel if r.word and keys[r.key()] > 1)
        return remove_duplicates(p)

    monkeypatch.setattr(engine, "remove_duplicates", counting)
    p = random_presentation(7, 3, 120, 120, "small-alphabet-long")
    p.add_relator(rotate_right(p.rel[0].word, 5))  # one duplicate, removed at start-up
    simplify(p, EngineConfig(match_strategy="kr-hash"))
    assert len(handed) >= 3
    assert canonical_calls == colliding and len(canonical_calls) == 2
    rng = random.Random(16)
    canonical_calls.clear()
    handed.clear()
    colliding.clear()
    for _ in range(6):
        words = [random_reduced_word(rng, 4, rng.randint(6, 16)) for _ in range(300)]
        simplify(make_presentation(4, words), EngineConfig(
            match_strategy="automaton-two", skip_policy="ts-unsorted"))
    assert canonical_calls == colliding and len(canonical_calls) > 0
    assert len(canonical_calls) <= 0.02 * sum(handed)


def test_readme_format_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Presentation file format", 1)[1]
    block = section.split("```\n", 2)[1]
    p = parse_presentation(block)
    # rel 1 2 -3 -1 and relw abCA are one relator, cyclically reduced to bC
    assert p.d == 3 and [r.word for r in p.rel] == [(2, -3), (2, -3)]
