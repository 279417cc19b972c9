import doctest
import random

import pytest

import tietze.words
from helpers import naive_circular_substrings
from tietze.randgen import random_reduced_word
from tietze.words import (
    canonical_rep,
    cyclic_reduce,
    extend_front,
    free_reduce,
    invert,
    letters,
    rotate_right,
    smallest_period,
    useful_threshold,
    word_from_letters,
)

W = word_from_letters


def all_equivalents(w):
    """All rotations of ``w`` and of its formal inverse."""
    n = len(w)
    if n == 0:
        return [w]
    inv = invert(w)
    return [rotate_right(w, i) for i in range(n)] + [rotate_right(inv, i) for i in range(n)]


def test_doctests():
    failures, _ = doctest.testmod(tietze.words)
    assert failures == 0


def test_invert_examples():
    assert letters(invert(W("ab"))) == "BA"
    assert invert(()) == ()
    # reverse (a,B,c) -> (c,B,a), then invert each symbol -> (C,b,A)
    assert letters(invert(W("aBc"))) == "CbA"


def test_rotate_right_examples():
    assert letters(rotate_right(W("abc"), 1)) == "cab"
    assert rotate_right(W("abc"), 0) == W("abc")
    assert rotate_right(W("abc"), 3) == W("abc")
    assert rotate_right((), 5) == ()
    with pytest.raises(ValueError):
        rotate_right(W("abc"), -1)


def test_free_reduce_examples():
    assert free_reduce(W("aA")) == ()
    assert free_reduce(W("abBA")) == ()
    assert free_reduce(W("abA")) == W("abA")


def test_cyclic_reduce_examples():
    assert cyclic_reduce(W("abA")) == W("b")
    assert cyclic_reduce(W("ab")) == W("ab")
    assert cyclic_reduce(W("aBcbA")) == W("c")


def test_extend_front_examples():
    assert letters(extend_front(W("abc"), 1)) == "abca"
    assert extend_front(W("abc"), 0) == W("abc")
    assert letters(extend_front(W("abcd"), 2)) == "abcdab"
    with pytest.raises(ValueError):
        extend_front(W("abc"), 4)


def test_useful_threshold_examples():
    assert useful_threshold(3) == 2
    assert useful_threshold(4) == 3
    assert useful_threshold(12) == 7
    with pytest.raises(ValueError):
        useful_threshold(0)


def test_smallest_period_examples():
    assert smallest_period(W("abab")) == 2
    assert smallest_period(W("abc")) == 3
    assert smallest_period(W("aaa")) == 1


def test_canonical_rep_examples():
    assert canonical_rep(W("ba")) == canonical_rep(W("ab"))
    assert canonical_rep(W("BA")) == canonical_rep(W("ab"))
    assert canonical_rep(()) == ()


def test_invert_is_involution():
    rng = random.Random(1)
    for _ in range(200):
        w = random_reduced_word(rng, rng.randint(1, 6), rng.randint(1, 15))
        assert invert(invert(w)) == w


def test_rotation_composes_to_identity():
    rng = random.Random(2)
    for _ in range(200):
        w = random_reduced_word(rng, 4, rng.randint(1, 12))
        i = rng.randint(0, len(w))
        assert rotate_right(rotate_right(w, i), len(w) - i) == w


def test_invert_of_rotation_is_rotation_of_invert():
    rng = random.Random(3)
    for _ in range(200):
        w = random_reduced_word(rng, 4, rng.randint(1, 10))
        i = rng.randint(0, len(w) - 1)
        rotations_of_inverse = {rotate_right(invert(w), k) for k in range(len(w))}
        assert invert(rotate_right(w, i)) in rotations_of_inverse


def reference_invert(w):
    out = []
    for s in w:
        out.insert(0, -s)
    return tuple(out)


def reference_free_reduce(w):
    """Cancel the leftmost adjacent inverse pair until none is left."""
    w = list(w)
    i = 0
    while i + 1 < len(w):
        if w[i] == -w[i + 1]:
            del w[i:i + 2]
            i = max(i - 1, 0)
        else:
            i += 1
    return tuple(w)


def primitive_test_words(rng):
    """Empty and one-symbol words, reduced words, and words with cancelling
    neighbours (unreduced ones and reduced ones with a pair spliced in)."""
    words = [(), (1,), (-3,), (2, -2), (1, 2, -2, -1), (1, -1, 1)]
    for _ in range(400):
        d = rng.randint(1, 5)
        symbols = [s for s in range(-d, d + 1) if s]
        reduced = random_reduced_word(rng, d, rng.randint(1, 20))
        words.append(reduced)
        words.append(tuple(rng.choice(symbols) for _ in range(rng.randint(0, 20))))
        s, cut = rng.choice(symbols), rng.randint(0, len(reduced))
        words.append(reduced[:cut] + (s, -s) + reduced[cut:])
    return words


def test_word_primitives_equal_reference_loops():
    rng = random.Random(17)
    reduced_kept = 0
    for w in primitive_test_words(rng):
        inv, fr = invert(w), free_reduce(w)
        assert type(inv) is tuple and inv == reference_invert(w)
        assert type(fr) is tuple and fr == reference_free_reduce(w)
        # a list comes back as a tuple too
        assert type(free_reduce(list(w))) is tuple and free_reduce(list(w)) == fr
        reduced_kept += fr is w
    assert reduced_kept > 400  # an already reduced tuple is returned as it is


def test_reductions_idempotent_and_non_increasing():
    rng = random.Random(4)
    for _ in range(300):
        d = rng.randint(1, 5)
        raw = tuple(rng.choice([s for s in range(-d, d + 1) if s])
                    for _ in range(rng.randint(0, 14)))
        fr = free_reduce(raw)
        assert len(fr) <= len(raw)
        assert free_reduce(fr) == fr
        cr = cyclic_reduce(fr)
        assert len(cr) <= len(fr)
        assert cyclic_reduce(cr) == cr


def test_extend_front_exposes_all_circular_substrings():
    # every circular substring of length k+1 appears linearly after
    # extending by k, checked exhaustively for short words
    rng = random.Random(5)
    for _ in range(60):
        w = random_reduced_word(rng, 3, rng.randint(1, 8))
        for k in range(len(w) + 1):
            ext = extend_front(w, k)
            linear = {ext[i:i + k + 1] for i in range(len(ext) - k)}
            circular = {s for s in naive_circular_substrings(w) if len(s) == k + 1}
            assert circular <= linear


def test_canonical_rep_constant_on_equivalents():
    rng = random.Random(6)
    for _ in range(100):
        w = cyclic_reduce(free_reduce(random_reduced_word(rng, 4, rng.randint(1, 10))))
        if not w:
            continue
        reps = {canonical_rep(e) for e in all_equivalents(w)}
        assert len(reps) == 1


def test_canonical_rep_equals_least_equivalent():
    rng = random.Random(7)
    words = [W("a"), W("A"), W("ab"), W("aB"), (300,), (-300,), (-300, 299)]
    words += [W("ab") * k for k in range(1, 8)] + [W("aBc") * k for k in range(1, 6)]
    words += [W("a") * n for n in range(1, 12)] + [W("B") * n for n in range(1, 12)]
    # the least symbol repeats, with different continuations
    words += [W("AbAcAb"), W("AbAbAc"), W("aCaCab"), W("AAbAAbAc"), W("bAbAbA" * 3 + "c")]
    words += [(-7, 3, -7, 5, -7, 3, -7, 5, -7, 9), (2, -1, 2, -1, -2, 1, -2)]
    for _ in range(1500):
        d = rng.choice((1, 2, 3, 4, 20, 300))
        words.append(random_reduced_word(rng, d, rng.randint(1, 150)))
    for w in words:
        w = cyclic_reduce(free_reduce(w))
        if w:
            assert canonical_rep(w) == min(all_equivalents(w))


def test_smallest_period_against_bruteforce():
    # all words of length <= 8 over the 2-letter alphabet {a, b}
    from itertools import product
    for n in range(1, 9):
        for w in product((1, 2), repeat=n):
            expected = next(
                p for p in range(1, n + 1)
                if n % p == 0 and all(w[i] == w[i % p] for i in range(n))
            )
            assert smallest_period(w) == expected
