import math
import random

import pytest

from helpers import (
    batch_per_text,
    exhaustive_oracle,
    horner_fingerprint,
    indexed_windows,
    is_valid_match,
    mixed_batch,
    place,
    qgram_alignments,
    random_pair,
)
from tietze.fingerprint import (
    BloomFilter,
    MERSENNE61,
    QGRAM_CAP,
    PatternIndex,
    fingerprint_base,
    kr_search,
    sample_length,
    window_fingerprints,
)
from tietze.match import SearchCounters, match_from_seed
from tietze.randgen import random_reduced_word
from tietze.strategies import make_strategy
from tietze.words import invert, reduce_cyclic_word, rotate_right, useful_threshold, word_from_letters

W = word_from_letters


def test_symbol_codes_dense_and_distinct():
    # with m = 1 each window's fingerprint is its symbol's code
    assert window_fingerprints((1, -1, 7, -7), 1, 4) == [2, 3, 14, 15]
    w = tuple(s for s in range(-20, 21) if s)
    assert sorted(window_fingerprints(w, 1, fingerprint_base(9))) == list(range(2, 42))


def test_first_window_is_horner_evaluation():
    # codes of a, b, c are 2, 4, 6; base 4
    assert window_fingerprints(W("abc"), 3, 4)[0] == (2 * 4 + 4) * 4 + 6 == 54
    assert window_fingerprints(W("aBc"), 3, 4)[0] == (2 * 4 + 5) * 4 + 6
    assert window_fingerprints(W("a"), 1, 4) == [2]


def test_windows_wrap_circularly():
    # windows "abc", "bca", "cab": one per start, the last two wrap
    assert window_fingerprints(W("abc"), 3, 4) == [54, (4 * 4 + 6) * 4 + 2, (6 * 4 + 2) * 4 + 4]


def test_roll_example():
    # window "bc" rolls from "ab": drop code 2 at weight 4, append code 6
    assert window_fingerprints(W("abc"), 2, 4) == [12, (12 - 2 * 4) * 4 + 6, 26]
    # base -1: signed sums of codes, reduced into [0, MERSENNE61)
    assert window_fingerprints(W("abc"), 2, MERSENNE61 - 1) == [2, 2, MERSENNE61 - 4]
    # constant word: rolling the same code in and out is a fixed point
    assert len(set(window_fingerprints(W("aaaaa"), 3, fingerprint_base(3)))) == 1


def test_roll_sweep_matches_direct_evaluation():
    rng = random.Random(31)
    base = fingerprint_base(9)
    for _ in range(100):
        w = random_reduced_word(rng, 6, rng.randint(2, 30))
        m = rng.randint(1, len(w))
        assert window_fingerprints(w, m, base) == [
            horner_fingerprint(w, start, m, base) for start in range(len(w))]


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


def test_pattern_index_window_count():
    base = fingerprint_base(1)
    for backing in ("exact", "bloom3", "bloom4"):
        idx = PatternIndex(W("abc"), backing, base)
        assert indexed_windows(idx) == 6
        assert idx.m == 2


def test_pattern_index_single_symbol():
    base = fingerprint_base(1)
    idx = PatternIndex(W("a"), "exact", base)
    assert idx.m == 1
    assert indexed_windows(idx) == 2
    # the symbol and its inverse, each once
    assert idx.first == {(1,): 0, (-1,): 1} and idx.repeats == {}
    assert {gram: place(idx, a) for gram, a in idx.first.items()} == {
        (1,): (False, 0), (-1,): (True, 0)}


def test_pattern_index_collapses_duplicate_windows():
    base = fingerprint_base(1)
    # "abab" has period 2, so each of its q-grams (q = 2) recurs two
    # places on, in the word and in its inverse: the 8 windows share 4 keys
    idx = PatternIndex(W("abab"), "exact", base)
    assert idx.q == 2 and indexed_windows(idx) == 8
    assert {gram: place(idx, a) for gram, a in idx.first.items()} == {
        W("ab"): (False, 0), W("ba"): (False, 1), W("BA"): (True, 0), W("AB"): (True, 1)}
    assert {gram: [place(idx, a) for a in at] for gram, at in idx.repeats.items()} == {
        W("ab"): [(False, 0), (False, 2)], W("ba"): [(False, 1), (False, 3)],
        W("BA"): [(True, 0), (True, 2)], W("AB"): [(True, 1), (True, 3)]}


def test_kr_search_example_exact():
    base = fingerprint_base(5)
    idx = PatternIndex(W("abc"), "exact", base)
    c = SearchCounters()
    m = kr_search(idx, W("abc"), [W("dab")], c)[0]
    assert m is not None and m.v_len == 2
    assert c.fingerprint_matches >= 1
    assert c.fingerprint_false_matches == 0
    assert c.bloom_false_hits == 0


def test_kr_search_disjoint_counts_only_collisions():
    base = fingerprint_base(5)
    idx = PatternIndex(W("ab"), "exact", base)
    c = SearchCounters()
    assert kr_search(idx, W("ab"), [W("cd")], c)[0] is None
    assert c.successes == 0
    assert c.fingerprint_matches == 0


def test_kr_counter_identity_with_bloom():
    rng = random.Random(34)
    base = fingerprint_base(7)
    for _ in range(400):
        p, t = random_pair(rng, d_max=3, l_max=16)
        c = SearchCounters()
        idx = PatternIndex(p, "bloom3", base, bloom_log2_size=6)
        kr_search(idx, p, [t], c)[0]
        assert c.filter_hits == c.fingerprint_matches + c.bloom_false_hits
        assert c.fingerprint_false_matches <= c.fingerprint_matches


def test_kr_agrees_with_oracle_all_backings():
    rng = random.Random(35)
    base = fingerprint_base(11)
    indexes = {}
    for _ in range(1500):
        p, t = random_pair(rng)
        want = exhaustive_oracle(p, t) is not None
        for backing in ("exact", "bloom3", "bloom4"):
            idx = PatternIndex(p, backing, base, bloom_log2_size=10)
            got = kr_search(idx, p, [t], SearchCounters())[0]
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
    first_occurrence = {}
    for inverted, base in ((False, p), (True, invert(p))):
        ext = base + base[:m - 1]
        for start in range(len(base)):
            first_occurrence.setdefault(ext[start:start + m], (inverted, start))
    text_ext = t + t[:m - 1]
    for tstart in range(len(t)):
        hit = first_occurrence.get(text_ext[tstart:tstart + m])
        if hit is not None:
            return match_from_seed(p, t, *hit, tstart), tstart + 1
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
    base = fingerprint_base(12)
    hits = wide_hits = 0
    for _ in range(1500):
        p, t = planted_pair(rng, rng.randint(1, 300))
        if len(t) < len(p):
            continue
        want, scanned = reference_kr_scan(p, t)
        c = SearchCounters()
        got = kr_search(PatternIndex(p, "exact", base), p, [t], c)[0]
        assert got == want
        assert c.windows_scanned == scanned
        assert c.fingerprint_false_matches == 0 and c.bloom_false_hits == 0
        found = int(got is not None)
        assert (c.filter_hits, c.fingerprint_matches, c.confirmations, c.successes) == (found,) * 4
        hits += found
        wide_hits += found and max(map(abs, p)) > 255
    assert hits > 300 and wide_hits > 50  # symbols beyond one byte do match


def reference_bloom_scan(p, t, k, log2_size, base):
    """(Match or None, counters) of a plain in-order Bloom window scan.

    The pattern's windows are fingerprinted directly and inserted into a
    fresh k-table Bloom filter.  Each text window, in order, is
    fingerprinted directly and probed; a hit is looked up in the pattern's
    fingerprints, and a fingerprint match is confirmed against the pattern
    windows with that fingerprint, uninverted before inverted, each by
    ascending start.
    """
    m = useful_threshold(len(p))
    bloom = BloomFilter(k, log2_size)
    windows = {}
    for inverted, b in ((False, p), (True, invert(p))):
        for start in range(len(b)):
            v = horner_fingerprint(b, start, m, base)
            windows.setdefault(v, []).append((inverted, b, start))
            bloom.insert(v)
    c = SearchCounters()
    for tstart in range(len(t)):
        c.windows_scanned += 1
        v = horner_fingerprint(t, tstart, m, base)
        if not bloom.query(v):
            continue
        c.filter_hits += 1
        if v not in windows:
            c.bloom_false_hits += 1
            continue
        c.fingerprint_matches += 1
        for inverted, b, start in windows[v]:
            c.confirmations += 1
            if all(b[(start + i) % len(b)] == t[(tstart + i) % len(t)] for i in range(m)):
                c.successes += 1
                return match_from_seed(p, t, inverted, start, tstart), c
        c.fingerprint_false_matches += 1
    return None, c


def test_kr_batch_scans_equal_reference_scans():
    # both backings scan a mixed batch in one call; each text's Match and
    # counters inside it equal the plain reference scan of that text alone
    rng = random.Random(39)
    seed, log2_size = 15, 6
    base = fingerprint_base(seed)
    hits = inverted = false_hits = 0
    for _ in range(150):
        d = rng.randint(1, 4)
        p = random_reduced_word(rng, d, rng.randint(1, 12))
        texts = mixed_batch(rng, p, d)
        exact = batch_per_text(lambda: make_strategy("kr-hash", seed, log2_size), p, texts)
        for t, got in zip(texts, exact):
            want, scanned = reference_kr_scan(p, t)
            found = int(want is not None)
            assert got == (want, SearchCounters(
                windows_scanned=scanned, filter_hits=found, fingerprint_matches=found,
                confirmations=found, successes=found).to_dict())
            hits += found
            inverted += found and want.inverted
        for k in (3, 4):
            bloom = batch_per_text(lambda: make_strategy(f"kr-bloom{k}", seed, log2_size),
                                   p, texts)
            for t, got in zip(texts, bloom):
                want, ref = reference_bloom_scan(p, t, k, log2_size, base)
                assert got == (want, ref.to_dict())
                false_hits += ref.bloom_false_hits > 0
    assert hits > 300 and inverted > 100 and false_hits > 40


def test_kr_bloom_equals_reference_scan_with_false_hits():
    rng = random.Random(38)
    seed, log2_size = 14, 6
    base = random.Random(seed).randrange(2, MERSENNE61 - 1)
    strategies = {k: make_strategy(f"kr-bloom{k}", seed, log2_size) for k in (3, 4)}
    hits = {3: 0, 4: 0}
    false_hit_scans = {3: 0, 4: 0}
    for _ in range(800):
        p, t = planted_pair(rng, rng.randint(1, 8))
        if len(t) < len(p):
            continue
        for k, strategy in strategies.items():
            want, ref = reference_bloom_scan(p, t, k, log2_size, base)
            c = SearchCounters()
            assert strategy.search(p, [t], c)[0] == want
            assert c == ref
            hits[k] += want is not None
            false_hit_scans[k] += ref.bloom_false_hits > 0
    assert min(hits.values()) > 300
    assert min(false_hit_scans.values()) > 150  # a 64-bit table overfills


def sampled_filter_pair(rng, d):
    """A pattern and a text aimed at the edges of the sampled q-gram filter.

    Kinds: 0 plants a pattern chunk of length q .. m - 1 (samples may hit
    but no window is a key), 1 plants a chunk of length m .. l_p across
    the end of the text (the key window wraps), 2 makes the text as long
    as the pattern, 3 plants a short chunk and then a key-length chunk
    later (an earlier sample may hit without a key window), 4 is a plain
    random pair.  A fifth of the patterns have length 1 to 3; the others
    reach 90, so thresholds above 2 * QGRAM_CAP are common.
    """
    kind = rng.randrange(5)
    p = random_reduced_word(rng, d, rng.randint(1, 3) if rng.random() < 0.2 else rng.randint(4, 90))
    m = useful_threshold(len(p))
    q = sample_length(m)

    def chunk(lo, hi):
        base = rotate_right(invert(p) if rng.random() < 0.5 else p, rng.randrange(len(p)))
        return base[:rng.randint(lo, max(lo, hi))]

    if kind == 2:
        t = list(chunk(len(p), len(p)))
        for _ in range(rng.randint(0, 3)):
            t[rng.randrange(len(t))] = rng.choice([s for s in range(-d, d + 1) if s])
        return p, tuple(t)
    t = random_reduced_word(rng, d, rng.randint(len(p), len(p) + 60))
    if kind in (0, 3):
        cut = rng.randint(0, len(t) // 2 if kind == 3 else len(t))
        t = t[:cut] + chunk(q, m - 1) + t[cut:]
    if kind == 1:
        full = chunk(m, len(p))
        split = rng.randint(1, len(full))
        t = full[split:] + t + full[:split]
    elif kind == 3:
        cut = rng.randint(len(t) // 2, len(t))
        t = t[:cut] + chunk(m, len(p)) + t[cut:]
    return p, t


def test_kr_hash_sampled_filter_equals_reference_scan():
    rng = random.Random(37)
    base = fingerprint_base(13)
    filtered_misses = wrapped = wrapped_sample = later_sample = hits = 0
    short = long_threshold = same_length = wide_hits = 0
    for _ in range(4000):
        p, t = sampled_filter_pair(rng, rng.choice((1, 2, 2, 3, 3, 8, 300)))
        if len(t) < len(p):
            continue
        want, scanned = reference_kr_scan(p, t)
        idx = PatternIndex(p, "exact", base)
        c = SearchCounters()
        assert kr_search(idx, p, [t], c)[0] == want
        found = int(want is not None)
        assert c == SearchCounters(windows_scanned=scanned, filter_hits=found,
                                   fingerprint_matches=found, confirmations=found,
                                   successes=found)
        m = useful_threshold(len(p))
        q, stride = sample_length(m), m - sample_length(m) + 1
        assert (idx.q, idx.stride) == (q, stride)
        ext = t + t[:m - 1]
        pattern_qgrams = {e[i:i + q] for e in (p + p, invert(p) + invert(p))
                          for i in range(len(p))}
        hit_samples = [j for j in range(0, len(t) + m - q, stride)
                       if ext[j:j + q] in pattern_qgrams]
        # the map holds exactly the pattern q-grams, each with its ordered
        # occurrences; a recurring one, and only such, is in ``repeats``
        occurrences = {}
        for inverted, b in ((False, p), (True, invert(p))):
            for i in range(len(p)):
                occurrences.setdefault((b + b)[i:i + q], []).append((inverted, i))
        assert set(idx.first) == set(occurrences) == pattern_qgrams
        assert {gram: qgram_alignments(idx, gram) for gram in idx.first} == occurrences
        assert set(idx.repeats) == {gram for gram, at in occurrences.items() if len(at) > 1}
        filtered_misses += not found and bool(hit_samples)
        if found:
            # the one sample in the key window [scanned - 1, scanned - 1 + m)
            key_sample = -(-(scanned - 1) // stride) * stride
            assert key_sample in hit_samples
            wrapped_sample += key_sample >= len(t)
            later_sample += key_sample > hit_samples[0]
        wrapped += found and scanned > len(t) - m + 1
        hits += found
        short += found and len(p) <= 3
        long_threshold += found and m > 2 * QGRAM_CAP and max(map(abs, p)) <= 3
        same_length += found and len(p) == len(t)
        wide_hits += found and max(map(abs, p)) > 255
    assert filtered_misses > 300 and wrapped > 150 and hits > 1500
    assert wrapped_sample > 30 and later_sample > 300 and long_threshold > 500
    assert short > 300 and same_length > 300 and wide_hits > 100


def tied_window_pair(rng, d):
    """A pattern whose windows repeat, and a text that holds some of them.

    Patterns are periodic, u^k or u^k c for a short u, so a threshold
    window and a sampled q-gram occur at several pattern positions.  Over
    d >= 2 a third kind, u^k c u^-k, is freely but not cyclically reduced:
    every window inside the u^-k u^k around its wrap point is the inverse
    of another such window, so it equals a window of the inverse too.  (In
    a cyclically reduced pattern no window equals an inverse window: two
    threshold windows overlap, and a window overlapping its own inverse
    holds a cancelling pair.)  The text plants, between random symbols, a
    short chunk of the pattern or its inverse (a sample may hit on the
    wrong alignment) and a chunk of threshold length or more.
    """
    symbols = [s for s in range(-d, d + 1) if s]
    p = random_reduced_word(rng, d, rng.randint(1, 3)) * rng.randint(2, 7)
    kind = rng.randrange(3 if d > 1 else 2)
    if kind == 1:
        p += (rng.choice([s for s in symbols if s not in (-p[-1], -p[0])]),)
    elif kind == 2:
        p += (rng.choice([s for s in symbols if s not in (-p[-1], p[-1])]),) + invert(p)
    m = useful_threshold(len(p))
    q = sample_length(m)

    def chunk(lo, hi):
        base = invert(p) if rng.random() < 0.5 else p
        start = rng.randrange(len(p))
        return (base + base)[start:start + rng.randint(lo, max(lo, hi))]

    def noise(hi):
        n = rng.randint(0, hi)
        return random_reduced_word(rng, d, n) if n else ()

    t = noise(4) + chunk(q, m - 1) + noise(3) + chunk(m, len(p)) + noise(4)
    if len(t) < len(p):
        t += random_reduced_word(rng, d, len(p) - len(t))
    return p, rotate_right(t, rng.randrange(len(t)) if rng.random() < 0.3 else 0)


def test_kr_hash_first_key_window_ties():
    # when the first key window equals several pattern windows, and the
    # sample that finds it occurs at several pattern positions, kr-hash
    # still reports the reference scan's first window and first candidate
    rng = random.Random(40)
    base = fingerprint_base(16)
    hits = many_candidates = both_bases = later_alignment = 0
    for _ in range(3000):
        p, t = tied_window_pair(rng, rng.choice((1, 2, 3)))
        want, scanned = reference_kr_scan(p, t)
        c = SearchCounters()
        assert kr_search(PatternIndex(p, "exact", base), p, [t], c)[0] == want
        found = int(want is not None)
        assert c == SearchCounters(windows_scanned=scanned, filter_hits=found,
                                   fingerprint_matches=found, confirmations=found,
                                   successes=found)
        if not found:
            continue
        hits += 1
        l_p = len(p)
        m = useful_threshold(l_p)
        q = sample_length(m)
        stride = m - q + 1
        bases = ((False, p), (True, invert(p)))

        def at(w, start, n):
            return tuple(w[(start + i) % len(w)] for i in range(n))

        tstart = scanned - 1
        window = at(t, tstart, m)
        candidates = [(inv, s) for inv, b in bases for s in range(l_p) if at(b, s, m) == window]
        j = -(-tstart // stride) * stride  # the one sample inside the key window
        sample = at(t, j, q)
        alignments = [(inv, s) for inv, b in bases for s in range(l_p) if at(b, s, q) == sample]
        holds = [(inv, (s - (j - tstart)) % l_p) in candidates for inv, s in alignments]
        many_candidates += len(candidates) >= 2
        both_bases += {inv for inv, _ in candidates} == {False, True}
        later_alignment += len(alignments) >= 2 and not holds[0] and any(holds[1:])
    assert hits > 2500 and many_candidates > 1500
    assert both_bases > 150 and later_alignment > 300


def alignment_guard_patterns(rng):
    """Patterns for the q-gram alignment guard, each with its kind.

    Periodic words (``abab``, ``aaaa``, u^k), every short word over two
    generators up to length 4 and random words up to length 11 (q = 1 to
    3), involution-heavy words (positive symbols only, as normalized
    involutions leave them, and u^k c u^-k, whose windows equal windows
    of its inverse), and long random words.
    """
    out = [(kind, W(s)) for kind, s in (
        ("periodic", "abab"), ("periodic", "aaaa"), ("periodic", "aaaaaaa"),
        ("periodic", "abcabcabc"), ("periodic", "aBaBaBaB"), ("short", "a"),
        ("short", "A"), ("short", "ab"), ("short", "aB"), ("short", "aA"),
        ("involution", "aabb"), ("involution", "abcabcab"), ("involution", "abAB"))]
    symbols = (1, -1, 2, -2)
    words = [()]
    for _ in range(4):
        words = [w + (s,) for w in words for s in symbols]
        out += [("short", w) for w in words]
    for _ in range(200):
        d = rng.randint(1, 4)
        u = random_reduced_word(rng, d, rng.randint(1, 3))
        out.append(("periodic", u * rng.randint(2, 8)))
        out.append(("short", random_reduced_word(rng, d, rng.randint(1, 11))))
        out.append(("involution", tuple(rng.randint(1, d) for _ in range(rng.randint(1, 20)))))
        if d > 1:
            c = rng.choice([s for s in range(-d, d + 1) if s not in (0, u[-1], -u[-1])])
            out.append(("involution", u * rng.randint(1, 4) + (c,) + invert(u) * rng.randint(1, 4)))
        out.append(("random", random_reduced_word(rng, rng.choice((2, 3, 8, 300)),
                                                  rng.randint(12, 48))))
    return out


def guard_text(rng, p):
    """A text at least as long as p, planting chunks of p and of its inverse."""
    d = max(map(abs, p))
    parts = []
    for _ in range(rng.randint(1, 3)):
        base = invert(p) if rng.random() < 0.5 else p
        start = rng.randrange(len(p))
        parts.append((base + base)[start:start + rng.randint(1, len(p))])
        parts.append(tuple(rng.choice((1, -1)) * rng.randint(1, d + 1)
                           for _ in range(rng.randint(0, 4))))
    t = sum(parts, ())
    if len(t) < len(p):
        t += tuple(rng.choice((1, -1)) * rng.randint(1, d + 1) for _ in range(len(p) - len(t)))
    return t


def test_qgram_alignments_equal_enumeration():
    # every pattern q-gram, and every sampled text q-gram, has the index's
    # alignments in enumeration order: uninverted first, by ascending start
    rng = random.Random(41)
    base = fingerprint_base(17)
    kinds, repeats, repeat_hits, hits = set(), 0, 0, 0
    for kind, p in alignment_guard_patterns(rng):
        l_p = len(p)
        m = useful_threshold(l_p)
        q, stride = sample_length(m), m - sample_length(m) + 1
        bases = ((False, p), (True, invert(p)))

        def gram_at(w, s):
            return tuple(w[(s + i) % len(w)] for i in range(q))

        def enumerated(gram):
            return [(inv, s) for inv, b in bases for s in range(l_p) if gram_at(b, s) == gram]

        idx = PatternIndex(p, "exact", base)
        assert (idx.q, idx.stride) == (q, stride)
        pattern_grams = {gram_at(b, s) for _, b in bases for s in range(l_p)}
        for gram in pattern_grams:
            assert qgram_alignments(idx, gram) == enumerated(gram)
        assert bool(idx.repeats) == (len(pattern_grams) < 2 * l_p)
        repeats += len(pattern_grams) < 2 * l_p
        kinds.add(kind)
        for _ in range(2):
            t = guard_text(rng, p)
            samples = [gram_at(t, j) for j in range(0, len(t) + m - q, stride)]
            for gram in samples:
                assert qgram_alignments(idx, gram) == enumerated(gram)
            want, scanned = reference_kr_scan(p, t)
            c = SearchCounters()
            assert kr_search(idx, p, [t], c)[0] == want
            found = int(want is not None)
            assert c == SearchCounters(windows_scanned=scanned, filter_hits=found,
                                       fingerprint_matches=found, confirmations=found,
                                       successes=found)
            hits += found
            if found:
                # the sample that found the key window: the search walked
                # its chained occurrences when it recurs in the pattern
                key_sample = samples[-(-(scanned - 1) // stride)]
                assert (key_sample in idx.repeats) == (len(enumerated(key_sample)) >= 2)
                repeat_hits += key_sample in idx.repeats
    assert kinds == {"periodic", "short", "involution", "random"}
    assert repeats > 600 and repeat_hits > 700 and hits > 1500
