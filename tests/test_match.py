import random

import pytest

from helpers import exhaustive_oracle, is_valid_match, random_pair
from tietze.match import (
    Match,
    MatchError,
    SearchCounters,
    anchor_seeds,
    brute_search,
    check_match,
    compute_signature,
    signature_skip,
)
from tietze.randgen import random_reduced_word
from tietze.words import invert, rotate_right, word_from_letters

W = word_from_letters


def test_oracle_finds_spec_example():
    m = exhaustive_oracle(W("abc"), W("dab"))
    assert m is not None and (m.u_len, m.v_len) == (1, 2)
    pe = rotate_right(W("abc"), m.pattern_rot)
    te = rotate_right(W("dab"), m.text_rot)
    assert pe[m.u_len:] == te[-m.v_len:] == W("ab")


def test_oracle_disjoint_generators():
    assert exhaustive_oracle(W("ab"), W("cd")) is None


def test_oracle_identical_relators():
    m = exhaustive_oracle(W("abAB"), W("abAB"))
    assert m is not None and m.v_len == 4 and m.u_len == 0


def test_oracle_maximal_v():
    # common circular chunk of length 3 and a stray of length 2;
    # the oracle must report the length-3 one
    m = exhaustive_oracle(W("abcd"), W("abcx"))
    assert m is not None and m.v_len == 3


def test_oracle_requires_pattern_not_longer():
    with pytest.raises(ValueError):
        exhaustive_oracle(W("abc"), W("ab"))


def test_match_invariants_checked():
    bad = Match(inverted=False, pattern_rot=0, text_rot=0, u_len=2, v_len=1)
    with pytest.raises(MatchError):
        check_match(bad, W("abc"), W("abc"))


def test_brute_spec_example():
    m = brute_search(anchor_seeds(W("abc")), W("abc"), [W("dab")], SearchCounters())[0]
    assert m is not None
    check_match(m, W("abc"), W("dab"))
    assert m.v_len == 2


def test_brute_none_on_disjoint():
    assert brute_search(anchor_seeds(W("ab")), W("ab"), [W("cd")], SearchCounters())[0] is None


def seed_symbols(seeds):
    return {s for _, _, s in seeds}


def test_anchor_set_for_nontrivial_power():
    # periodic pattern: only the first symbol and its inverse are anchors
    assert seed_symbols(anchor_seeds(W("abab"))) == {1, -1}
    assert seed_symbols(anchor_seeds(W("abc"))) == {1, -1, 2, -2}
    assert seed_symbols(anchor_seeds(W("abcd"))) == {1, -1, 3, -3}


def test_brute_agrees_with_oracle():
    rng = random.Random(21)
    for _ in range(2000):
        p, t = random_pair(rng)
        want = exhaustive_oracle(p, t)
        got = brute_search(anchor_seeds(p), p, [t], SearchCounters())[0]
        assert (got is None) == (want is None)
        if got is not None:
            assert is_valid_match(got, p, t)


def test_signature_invariances():
    rng = random.Random(22)
    for _ in range(200):
        w = random_reduced_word(rng, 5, rng.randint(1, 12))
        sig = compute_signature(w)
        assert compute_signature(invert(w)) == sig
        for i in range(len(w)):
            assert compute_signature(rotate_right(w, i)) == sig


def test_signature_disjoint_example():
    # disjoint 2-gram classes over distinct generators
    assert compute_signature(W("abab")) & compute_signature(W("cdcd")) == 0


def test_signature_single_symbol_self_pair():
    sig = compute_signature((3,))
    assert bin(sig).count("1") == 1
    # the circular self-pair class is shared with the doubled word
    assert compute_signature((3, 3)) == sig


def test_signature_skip_rules():
    assert signature_skip(0b01, 0b10, 3) is True
    assert signature_skip(0b11, 0b10, 3) is False
    assert signature_skip(0b01, 0b10, 1) is False  # inapplicable below 2


def test_signature_skip_is_sound():
    rng = random.Random(23)
    from tietze.words import useful_threshold
    for _ in range(2000):
        p, t = random_pair(rng)
        if signature_skip(compute_signature(p), compute_signature(t),
                          useful_threshold(len(p))):
            assert exhaustive_oracle(p, t) is None


def test_counters_default_and_success_counting():
    c = SearchCounters()
    m = brute_search(anchor_seeds(W("abc")), W("abc"), [W("dab")], c)[0]
    assert m is not None and c.successes == 1
    assert c.windows_scanned == 2  # the hit is at text position 1
    assert brute_search(anchor_seeds(W("ab")), W("ab"), [W("cd")], c)[0] is None
    assert c.successes == 1 and c.windows_scanned == 4  # a miss reads the whole text
