import random
from collections import Counter
from pathlib import Path

import pytest

from helpers import squares_words
from tietze import engine, presentation
from tietze.engine import EngineConfig, simplify, substitute
from tietze.presentation import (
    SHAPE_MIN_LENGTH,
    ParseError,
    Presentation,
    RelatorRecord,
    make_presentation,
    normalize_involutions,
    parse_presentation,
    remove_duplicates,
    serialize_presentation,
    sort_rel,
)
from tietze.randgen import random_presentation, random_reduced_word
from tietze.words import canonical_rep, invert, reduce_cyclic_word, rotate_right, word_from_letters

W = word_from_letters


def test_parse_numeric():
    p = parse_presentation("gens 2\nrel 1 2 -1 -2\n")
    assert p.d == 2
    assert p.words() == [(1, 2, -1, -2)]


def test_parse_letter_form_matches_numeric():
    a = parse_presentation("gens 2\nrel 1 2 -1 -2\n")
    b = parse_presentation("gens 2\nrelw abAB\n")
    assert a.words() == b.words()


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


def test_relw_rejected_for_large_alphabets():
    with pytest.raises(ParseError, match="relw"):
        parse_presentation("gens 27\nrelw ab\n")


def test_comments_and_blank_lines_ignored():
    p = parse_presentation("# header\n\ngens 2\n# middle\nrel 1 2\n\n")
    assert p.words() == [(1, 2)]


def test_parse_reduces_relators():
    p = parse_presentation("gens 2\nrelw abBA\nrelw abA\n")
    # first reduces to nothing and is dropped, second cyclically reduces
    assert p.words() == [(2,)]


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
        assert q2.words() == p.words()
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
    assert sorted(p.words()) == [(1, 1), (2, 1, 2, 1)]


def test_normalize_involutions_noop_and_idempotent():
    p = make_presentation(2, [(1, 2), (2, 1, 2)])
    assert p.involutions == set()
    before = p.words()
    assert normalize_involutions(p) == []
    assert p.words() == before


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
        got = normalize_involutions(p)
        want = reference_normalize_involutions(q)
        assert p.words() == q.words()
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
    assert p.words() == [(1, 2), (1, -2)]


def canonical_only_remove_duplicates(p):
    """Duplicate removal with a canonical form for every relator (the
    reference the shape-keyed version must equal)."""
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


def test_shape_keyed_remove_duplicates_equals_canonical_only():
    rng = random.Random(14)
    removed_total = removed_long = same_shape_kept = 0
    for _ in range(400):
        d = rng.randint(1, 4)
        # short relators go straight to canonical forms, long ones are shaped first
        base = [random_reduced_word(rng, d, rng.randint(1, 12) if rng.random() < 0.5
                                    else rng.randint(SHAPE_MIN_LENGTH - 8, SHAPE_MIN_LENGTH + 40))
                for _ in range(rng.randint(1, 8))]
        words = list(base)
        for w in base:
            for _ in range(rng.randint(0, 2)):
                v = rotate_right(w, rng.randrange(len(w)))
                kind = rng.randrange(3)
                if kind == 1:
                    v = invert(v)
                elif kind == 2:
                    v = v[::-1]  # the mirror: same shape, rarely equivalent
                words.insert(rng.randrange(len(words) + 1), v)
        p, q = make_presentation(d, words), make_presentation(d, words)
        removed = remove_duplicates(p)
        assert removed == canonical_only_remove_duplicates(q)
        assert [r.id for r in p.rel] == [r.id for r in q.rel]
        removed_total += len(removed)
        lengths = {r.id: len(r.word) for r in make_presentation(d, words).rel}
        removed_long += sum(lengths[i] >= SHAPE_MIN_LENGTH for i in removed)
        shapes = Counter(r.shape() for r in p.rel if len(r.word) >= SHAPE_MIN_LENGTH)
        same_shape_kept += sum(n for n in shapes.values() if n > 1)
    assert removed_total > 1000 and removed_long > 400 and same_shape_kept > 250


def test_shape_is_invariant_and_survives_relabel():
    rng = random.Random(15)
    for _ in range(200):
        d = rng.randint(2, 5)
        w = random_reduced_word(rng, d, rng.randint(1, 20))
        shape = RelatorRecord(0, w).shape()
        assert shape == (len(w), tuple(sorted(Counter(map(abs, w)).values())))
        v = rotate_right(w, rng.randrange(len(w)))
        assert RelatorRecord(1, v).shape() == RelatorRecord(2, invert(v)).shape() == shape
    p = make_presentation(3, [(2, 3, 3), (1, 2, 1, 3)])
    shapes = [r.shape() for r in p.rel]
    substitute(p, 1, (2,))
    # the first relator is only renumbered and keeps its cached shape
    assert p.rel[0].shape() == shapes[0] == RelatorRecord(0, p.rel[0].word).shape()
    assert p.rel[1].shape() == RelatorRecord(1, p.rel[1].word).shape() != shapes[1]


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


def test_canonical_cache_cleared_by_substitute_renumbering(canonical_calls):
    p = make_presentation(3, [(2, 3, 3), (1, 2, 1, 3)])
    stale = [r.canonical() for r in p.rel]
    # eliminating generator 1 touches only the second relator's content,
    # but renumbers both
    changed = substitute(p, 1, (2,))
    assert [r.id for r in changed] == [1]
    assert [r.word for r in p.rel] == [(1, 2, 2), (1, 1, 1, 2)]
    assert [r.canonical() for r in p.rel] == [canonical_rep(r.word) for r in p.rel]
    assert [r.canonical() for r in p.rel] != stale


def test_canonical_cache_cleared_by_normalize_involutions(canonical_calls):
    p = Presentation(2)
    p.add_relator((1, 1))
    r = p.add_relator((-1, 2, 2, 2))
    stale = r.canonical()
    assert normalize_involutions(p) == [r]
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


def test_shapes_spare_most_canonical_forms_on_s120(canonical_calls, monkeypatch):
    # long relators over 3 generators sharing a motif (the s120 family):
    # few relators share a shape, so few canonical forms are built
    handed = []

    def counting(p):
        handed.append(len(p.rel))
        return remove_duplicates(p)

    monkeypatch.setattr(engine, "remove_duplicates", counting)
    p = random_presentation(7, 3, 120, 120, "small-alphabet-long")
    simplify(p, EngineConfig(match_strategy="kr-hash"))
    assert len(handed) >= 3
    assert 4 * len(canonical_calls) < sum(handed)


def test_readme_format_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Presentation file format", 1)[1]
    block = section.split("```\n", 2)[1]
    p = parse_presentation(block)
    # rel 1 2 -3 -1 and relw abCA are one relator, cyclically reduced to bC
    assert p.d == 3 and p.words() == [(2, -3), (2, -3)]
