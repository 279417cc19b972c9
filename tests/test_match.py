import random
from collections import Counter
from itertools import product

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
    match_from_seed,
    signature_skip,
)
from tietze.randgen import random_reduced_word
from tietze.words import (
    invert,
    rotate_right,
    smallest_period,
    useful_threshold,
    word_from_letters,
)

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


# The threshold branch cannot be reached: u + v = |p| and v > u give
# v >= |p| // 2 + 1, which is the threshold.
@pytest.mark.parametrize("m, p, t, message", [
    (Match(False, 0, 0, 1, 1), "abc", "abc", "u+v = 1+1 != pattern length 3"),
    (Match(False, 0, 0, 2, 2), "abc", "abc", "u+v = 2+2 != pattern length 3"),
    (Match(False, 0, 0, 2, 1), "abc", "abc", "v segment not longer than u segment"),
    (Match(False, 0, 0, 2, 2), "abcd", "abcd", "v segment not longer than u segment"),
    (Match(False, 0, 0, 1, 2), "abc", "a", "v segment longer than text"),
    (Match(True, 0, 0, 0, 3), "abc", "ab", "v segment longer than text"),
    (Match(False, 0, 0, 1, 2), "abc", "xyz", "v segments differ between pattern and text"),
    (Match(False, 2, 0, 1, 2), "abc", "dab", "v segments differ between pattern and text"),
    (Match(True, 0, 0, 1, 2), "abc", "dab", "v segments differ between pattern and text"),
])
def test_check_match_rejects_with_its_message(m, p, t, message):
    with pytest.raises(MatchError) as err:
        check_match(m, W(p), W(t))
    assert str(err.value) == message


def test_check_match_returns_the_compared_words():
    # pattern "abc" rotated right by 1 is "c"+"ab", text "dab" already ends in "ab"
    m = Match(False, 1, 0, 1, 2)
    assert check_match(m, W("abc"), W("dab")) == (W("cab"), W("dab"))
    # the whole inverse "CBA" against "BAC" rotated right by 1
    m = Match(True, 0, 1, 0, 3)
    assert check_match(m, W("abc"), W("BAC")) == (W("CBA"), W("CBA"))


def _two_step_extend_seed(base, t_word, bpos, tpos):
    """The seed extension as a separate step, as first written."""
    l_b, l_t = len(base), len(t_word)
    cap = min(l_b, l_t)
    fwd = 0
    while fwd + 1 < cap and base[(bpos + fwd + 1) % l_b] == t_word[(tpos + fwd + 1) % l_t]:
        fwd += 1
    back = 0
    while fwd + back + 1 < cap and base[(bpos - back - 1) % l_b] == t_word[(tpos - back - 1) % l_t]:
        back += 1
    return (bpos + fwd) % l_b, (tpos + fwd) % l_t, fwd + back + 1


def _two_step_match_from_seed(p_word, t_word, inverted, bpos, tpos):
    base = invert(p_word) if inverted else p_word
    p_end, t_end, length = _two_step_extend_seed(base, t_word, bpos, tpos)
    l_p, l_t = len(p_word), len(t_word)
    if length < useful_threshold(l_p):
        return None
    return Match(inverted=inverted, pattern_rot=(l_p - 1 - p_end) % l_p,
                 text_rot=(l_t - 1 - t_end) % l_t, u_len=l_p - length, v_len=length)


def test_match_from_seed_equals_the_two_step_extension():
    # every (inverted, bpos, tpos), aligned or not, of seeded random pairs:
    # patterns of length 1-3 on small alphabets, longer ones on larger
    rng = random.Random(31)
    pairs = [random_pair(rng, d_max=2, l_max=3) for _ in range(120)]
    pairs += [random_pair(rng, d_max=3, l_max=14) for _ in range(200)]
    pairs += [(t, p) for p, t in pairs[-40:]]  # a few patterns longer than the text
    kinds = {"none": 0, "partial": 0, "whole pattern": 0, "aligned": 0}
    short = set()
    for p, t in pairs:
        for inverted in (False, True):
            base = invert(p) if inverted else p
            for bpos in range(len(p)):
                for tpos in range(len(t)):
                    got = match_from_seed(p, t, inverted, bpos, tpos)
                    assert got == _two_step_match_from_seed(p, t, inverted, bpos, tpos), \
                        (p, t, inverted, bpos, tpos)
                    kinds["aligned"] += base[bpos] == t[tpos]
                    if got is None:
                        kinds["none"] += 1
                    else:
                        kinds["whole pattern" if got.u_len == 0 else "partial"] += 1
                        if len(p) <= 3:
                            short.add(len(p))
    assert min(kinds.values()) > 500, kinds
    assert short == {1, 2, 3}


def test_brute_spec_example():
    m = brute_search(W("abc"), [W("dab")], SearchCounters())[0]
    assert m is not None
    check_match(m, W("abc"), W("dab"))
    assert m.v_len == 2


def test_brute_none_on_disjoint():
    assert brute_search(W("ab"), [W("cd")], SearchCounters())[0] is None


def seed_symbols(seeds):
    return {s for _, _, s in seeds}


def test_anchor_set_for_nontrivial_power():
    # periodic pattern: only the first symbol and its inverse are anchors
    assert seed_symbols(anchor_seeds(W("abab"))) == {1, -1}
    assert seed_symbols(anchor_seeds(W("abc"))) == {1, -1, 2, -2}
    assert seed_symbols(anchor_seeds(W("abcd"))) == {1, -1, 3, -3}


def test_anchor_seeds_closed_form():
    # every word of length 1-6 over 3 generators; aperiodic means no
    # nontrivial rotation fixes the word
    for l in range(1, 7):
        for w in product((1, -1, 2, -2, 3, -3), repeat=l):
            want = [(False, 0, w[0]), (True, l - 1, -w[0])]
            if l >= 2 and all(w[k:] + w[:k] != w for k in range(1, l)):
                h = l // 2
                want += [(False, h, w[h]), (True, l - 1 - h, -w[h])]
            assert anchor_seeds(w) == want, w


def test_brute_agrees_with_oracle():
    rng = random.Random(21)
    for _ in range(2000):
        p, t = random_pair(rng)
        want = exhaustive_oracle(p, t)
        got = brute_search(p, [t], SearchCounters())[0]
        assert (got is None) == (want is None)
        if got is not None:
            assert is_valid_match(got, p, t)


def _first_written_brute_search(seeds, p_word, t_words, counters, cases):
    """brute_search as first written, extending every anchor hit; it
    tallies in ``cases`` what the batches it runs on cover."""
    wanted = {s for _, _, s in seeds}
    l_p = len(p_word)
    if l_p <= 3:
        cases[f"pattern length {l_p}"] += 1
    if smallest_period(p_word) < l_p:
        cases["periodic pattern"] += 1
    found = []
    for t_word in t_words:
        l_t = len(t_word)
        if wanted.isdisjoint(t_word):
            cases["anchor-free text"] += 1
        m = None
        for j, sym in enumerate(t_word):
            if sym in wanted:
                for inverted, bpos, s in seeds:
                    if s == sym:
                        base = invert(p_word) if inverted else p_word
                        if (useful_threshold(l_p) >= 2
                                and base[(bpos + 1) % l_p] != t_word[(j + 1) % l_t]
                                and base[bpos - 1] != t_word[j - 1]):
                            cases["neighbour-rejected attempt"] += 1
                        m = match_from_seed(p_word, t_word, inverted, bpos, j)
                        if m is not None:
                            break
                if m is not None:
                    if j in (0, l_t - 1):
                        cases["hit at the first text position" if j == 0
                              else "hit at the last text position"] += 1
                    if m.inverted:
                        cases["hit from an inverted seed"] += 1
                    counters.windows_scanned += j + 1
                    counters.successes += 1
                    break
        else:
            counters.windows_scanned += len(t_word)
        found.append(m)
    return found


def test_brute_search_equals_the_first_written_scan():
    # seeded batches, one pattern against texts at least as long: short
    # and periodic patterns, texts on few generators (hits at both ends
    # of the text) and texts that hold no anchor symbol at all
    rng = random.Random(53)
    cases = Counter()
    for n in range(2000):
        d = rng.randint(1, 4)
        l_p = rng.randint(1, 3) if n % 3 == 0 else rng.randint(4, 12)
        if n % 5 == 0:
            # a cyclically reduced root makes a reduced power
            p = random_reduced_word(rng, d, rng.randint(1, 3)) * rng.randint(2, 4)
        else:
            p = random_reduced_word(rng, d, l_p)
        texts = []
        for _ in range(rng.randint(1, 6)):
            length = len(p) + rng.randint(0, rng.choice((2, 10)))
            if rng.random() < 0.2:
                # generators above the pattern's: no anchor symbol
                shift = max(map(abs, p))
                texts.append(tuple(s + shift if s > 0 else s - shift
                                   for s in random_reduced_word(rng, 2, length)))
            else:
                texts.append(random_reduced_word(rng, d + rng.randint(0, 1), length))
        want_counters, got_counters = SearchCounters(), SearchCounters()
        want = _first_written_brute_search(anchor_seeds(p), p, texts, want_counters, cases)
        got = brute_search(p, texts, got_counters)
        assert got == want, (p, texts)
        assert got_counters == want_counters, (p, texts)
    kinds = ["anchor-free text", "neighbour-rejected attempt", "hit at the first text position",
             "hit at the last text position", "hit from an inverted seed", "pattern length 1",
             "pattern length 2", "pattern length 3", "periodic pattern"]
    assert min(cases[k] for k in kinds) >= 50, cases


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
    m = brute_search(W("abc"), [W("dab")], c)[0]
    assert m is not None and c.successes == 1
    assert c.windows_scanned == 2  # the hit is at text position 1
    assert brute_search(W("ab"), [W("cd")], c)[0] is None
    assert c.successes == 1 and c.windows_scanned == 4  # a miss reads the whole text
