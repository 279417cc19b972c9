import math
import random

import pytest

from helpers import exhaustive_oracle, indexed_windows, is_valid_match, random_pair
from tietze.fingerprint import (
    BloomFilter,
    FingerprintParams,
    PatternIndex,
    fingerprint_codes,
    fp_init,
    fp_roll,
    kr_search,
    symbol_code,
)
from tietze.match import SearchCounters, match_from_seed
from tietze.randgen import random_reduced_word
from tietze.words import invert, reduce_cyclic_word, rotate_right, useful_threshold, word_from_letters

W = word_from_letters
SMALL = FingerprintParams(base=4, modulus=101)


def test_symbol_codes_dense_and_distinct():
    assert symbol_code(1) == 2 and symbol_code(-1) == 3
    assert symbol_code(7) == 14 and symbol_code(-7) == 15
    codes = {symbol_code(s) for s in range(-20, 21) if s}
    assert len(codes) == 40


def test_fp_init_example():
    assert fingerprint_codes([1, 2, 3], SMALL) == 27
    assert fingerprint_codes([0], SMALL) == 0
    with pytest.raises(ValueError):
        fingerprint_codes([], SMALL)


def test_fp_init_window_bounds():
    w = W("abc")
    assert fp_init(w, 0, 3, SMALL) == fingerprint_codes([symbol_code(s) for s in w], SMALL)
    with pytest.raises(ValueError):
        fp_init(w, 1, 3, SMALL)
    with pytest.raises(ValueError):
        fp_init(w, 0, 0, SMALL)


def test_fp_roll_example():
    high = SMALL.high_power(3)
    assert high == 16
    assert fp_roll(27, 1, 4, high, SMALL) == 48
    # constant word: rolling the same code in and out is a fixed point
    v = fingerprint_codes([5, 5, 5], SMALL)
    assert fp_roll(v, 5, 5, high, SMALL) == v


def test_roll_sweep_matches_direct_evaluation():
    rng = random.Random(31)
    params = FingerprintParams.from_seed(9)
    for _ in range(100):
        w = random_reduced_word(rng, 6, rng.randint(2, 30))
        m = rng.randint(1, len(w))
        high = params.high_power(m)
        v = fp_init(w, 0, m, params)
        for start in range(1, len(w) - m + 1):
            v = fp_roll(v, symbol_code(w[start - 1]), symbol_code(w[start + m - 1]),
                        high, params)
            assert v == fp_init(w, start, m, params)


def test_bloom_no_false_negatives():
    rng = random.Random(32)
    for k in (3, 4):
        b = BloomFilter(k, log2_size=10)
        values = [rng.getrandbits(61) for _ in range(300)]
        for v in values:
            b.insert(v)
        assert all(b.query(v) for v in values)


def test_bloom_empty_filter_rejects():
    b = BloomFilter(3, log2_size=10)
    assert not b.query(12345)


def test_bloom_false_positive_rate_ballpark():
    rng = random.Random(33)
    b = BloomFilter(3, log2_size=10)
    n = 512  # half load
    inserted = {rng.getrandbits(61) for _ in range(n)}
    for v in inserted:
        b.insert(v)
    probes = 20000
    hits = 0
    for _ in range(probes):
        v = rng.getrandbits(61)
        if v in inserted:
            continue
        hits += b.query(v)
    expected = (1 - math.exp(-n / 1024)) ** 3
    assert hits / probes == pytest.approx(expected, rel=0.3)


def test_bloom_rejects_bad_geometry():
    with pytest.raises(ValueError):
        BloomFilter(2, 10)
    with pytest.raises(ValueError):
        BloomFilter(3, 2)


def test_pattern_index_window_count():
    params = FingerprintParams.from_seed(1)
    for backing in ("exact", "bloom3", "bloom4"):
        idx = PatternIndex(W("abc"), backing, params)
        assert indexed_windows(idx) == 6
        assert idx.m == 2


def test_pattern_index_single_symbol():
    params = FingerprintParams.from_seed(1)
    idx = PatternIndex(W("a"), "exact", params)
    assert idx.m == 1
    assert indexed_windows(idx) == 2
    assert len(idx.exact_candidates()) == 2  # the symbol and its inverse


def test_pattern_index_collapses_duplicate_windows():
    params = FingerprintParams.from_seed(1)
    # invert("abAB") is a rotation of itself, so windows coincide
    idx = PatternIndex(W("abAB"), "exact", params)
    assert indexed_windows(idx) == 8
    assert len(idx.exact_candidates()) <= 8


def test_kr_search_example_exact():
    params = FingerprintParams.from_seed(5)
    idx = PatternIndex(W("abc"), "exact", params)
    c = SearchCounters()
    m = kr_search(idx, W("abc"), W("dab"), c)
    assert m is not None and m.v_len == 2
    assert c.fingerprint_matches >= 1
    assert c.fingerprint_false_matches == 0
    assert c.bloom_false_hits == 0


def test_kr_search_disjoint_counts_only_collisions():
    params = FingerprintParams.from_seed(5)
    idx = PatternIndex(W("ab"), "exact", params)
    c = SearchCounters()
    assert kr_search(idx, W("ab"), W("cd"), c) is None
    assert c.successes == 0
    assert c.fingerprint_matches == 0


def test_kr_counter_identity_with_bloom():
    rng = random.Random(34)
    params = FingerprintParams.from_seed(7)
    for _ in range(400):
        p, t = random_pair(rng, d_max=3, l_max=16)
        c = SearchCounters()
        idx = PatternIndex(p, "bloom3", params, bloom_log2_size=6)
        kr_search(idx, p, t, c)
        assert c.filter_hits == c.fingerprint_matches + c.bloom_false_hits
        assert c.fingerprint_false_matches <= c.fingerprint_matches


def test_kr_agrees_with_oracle_all_backings():
    rng = random.Random(35)
    params = FingerprintParams.from_seed(11)
    indexes = {}
    for _ in range(1500):
        p, t = random_pair(rng)
        want = exhaustive_oracle(p, t) is not None
        for backing in ("exact", "bloom3", "bloom4"):
            idx = PatternIndex(p, backing, params, bloom_log2_size=10)
            got = kr_search(idx, p, t, SearchCounters())
            assert (got is not None) == want
            if got is not None:
                assert is_valid_match(got, p, t)


def reference_kr_scan(p, t):
    """(Match or None, windows scanned) of a plain in-order window scan.

    Text windows are taken in order; for each, the pattern's windows are
    tried uninverted before inverted, each by ascending start, and the
    first equal pair is extended.
    """
    m = useful_threshold(len(p))
    pattern_windows = []
    for inverted, base in ((False, p), (True, invert(p))):
        ext = base + base[:m - 1]
        pattern_windows += [(inverted, start, ext[start:start + m]) for start in range(len(base))]
    text_ext = t + t[:m - 1]
    for tstart in range(len(t)):
        window = text_ext[tstart:tstart + m]
        for inverted, pstart, pw in pattern_windows:
            if pw == window:
                return match_from_seed(p, t, inverted, pstart, tstart), tstart + 1
    return None, len(t)


def planted_pair(rng, d):
    """A pattern and a text that often shares a window with it."""
    p = random_reduced_word(rng, d, rng.randint(1, 24))
    t = random_reduced_word(rng, d, rng.randint(len(p), 40))
    if rng.random() < 0.7:
        base = invert(p) if rng.random() < 0.5 else p
        chunk = rotate_right(base, rng.randrange(len(p)))[:rng.randint(1, len(p))]
        cut = rng.randint(0, len(t))
        t = reduce_cyclic_word(t[:cut] + chunk + t[cut:])
    return p, t


def test_kr_hash_equals_reference_scan_wide_alphabet():
    rng = random.Random(36)
    params = FingerprintParams.from_seed(12)
    hits = wide_hits = 0
    for _ in range(1500):
        p, t = planted_pair(rng, rng.randint(1, 300))
        if len(t) < len(p):
            continue
        want, scanned = reference_kr_scan(p, t)
        c = SearchCounters()
        got = kr_search(PatternIndex(p, "exact", params), p, t, c)
        assert got == want
        assert c.windows_scanned == scanned
        assert c.fingerprint_false_matches == 0 and c.bloom_false_hits == 0
        found = int(got is not None)
        assert (c.filter_hits, c.fingerprint_matches, c.confirmations, c.successes) == (found,) * 4
        hits += found
        wide_hits += found and max(map(abs, p)) > 255
    assert hits > 300 and wide_hits > 50  # symbols beyond one byte do match


def sampled_filter_pair(rng, d):
    """A pattern and a text aimed at the edges of the sampled q-gram filter.

    Kinds: 0 plants a pattern chunk of length q .. m - 1 (samples may hit
    but no window is a key), 1 plants a chunk of length m .. l_p across
    the end of the text (the key window wraps), 2 makes the text as long
    as the pattern, 3 is a plain random pair.  A quarter of the patterns
    have length 1 to 3.
    """
    kind = rng.randrange(4)
    p = random_reduced_word(rng, d, rng.randint(1, 3) if rng.random() < 0.25 else rng.randint(4, 40))
    m = useful_threshold(len(p))
    q = (m + 1) // 2
    base = rotate_right(invert(p) if rng.random() < 0.5 else p, rng.randrange(len(p)))
    if kind == 2:
        t = list(base)
        for _ in range(rng.randint(0, 3)):
            t[rng.randrange(len(t))] = rng.choice([s for s in range(-d, d + 1) if s])
        return p, tuple(t)
    t = random_reduced_word(rng, d, rng.randint(len(p), 60))
    if kind == 0:
        chunk = base[:rng.randint(q, max(q, m - 1))]
        cut = rng.randint(0, len(t))
        t = t[:cut] + chunk + t[cut:]
    elif kind == 1:
        chunk = base[:rng.randint(m, len(p))]
        split = rng.randint(1, len(chunk))
        t = chunk[split:] + t + chunk[:split]
    return p, t


def test_kr_hash_sampled_filter_equals_reference_scan():
    rng = random.Random(37)
    params = FingerprintParams.from_seed(13)
    filtered_misses = wrapped = hits = short = same_length = wide_hits = 0
    for _ in range(4000):
        p, t = sampled_filter_pair(rng, rng.choice((1, 2, 3, 8, 300)))
        if len(t) < len(p):
            continue
        want, scanned = reference_kr_scan(p, t)
        idx = PatternIndex(p, "exact", params)
        c = SearchCounters()
        assert kr_search(idx, p, t, c) == want
        found = int(want is not None)
        assert c == SearchCounters(windows_scanned=scanned, filter_hits=found,
                                   fingerprint_matches=found, confirmations=found,
                                   successes=found)
        m = useful_threshold(len(p))
        q = (m + 1) // 2
        ext = t + t[:m - 1]
        sampled = {ext[j:j + q] for j in range(0, len(t) + m - q, m - q + 1)}
        pattern_qgrams = {e[i:i + q] for e in (p + p, invert(p) + invert(p))
                          for i in range(len(p))}
        # the window table is built exactly when a sample hits
        assert bool(idx.candidates) == bool(sampled & pattern_qgrams)
        filtered_misses += not found and bool(sampled & pattern_qgrams)
        wrapped += found and scanned > len(t) - m + 1
        hits += found
        short += found and len(p) <= 3
        same_length += found and len(p) == len(t)
        wide_hits += found and max(map(abs, p)) > 255
    assert filtered_misses > 300 and wrapped > 150 and hits > 1500
    assert short > 300 and same_length > 300 and wide_hits > 100
