"""Karp-Rabin window search with an exact or a Bloom-filter backing.

Both backings index the 2*l_p threshold-length circular windows of a
pattern and of its formal inverse once, and one ``kr_search`` call scans
a whole list of texts with that index, each text's windows in order.

The exact backing (``kr-hash``) keys its table on the windows themselves:
each word is packed once as machine ints (``array("i")``) and every window
is a bytes slice of that buffer, so slicing, hashing and lookup all run in
C and a table hit is already an exact match.  It never reports a
fingerprint false match.  It filters first: it samples the text's q-grams
(q = ``sample_length(m)``, every m - q + 1 positions) against the set of
the pattern's q-grams.  Every window contains exactly one sample, so when
no sample hits the text is a proven miss and is never packed; when one
does, only the m - q + 1 windows that contain that sample are looked up.

The Bloom backings (``kr-bloom3``/``kr-bloom4``) need a numeric key, so they
use Karp-Rabin fingerprints, all from one roll, ``window_fingerprints``,
for the index build and the text scan alike.  It codes each symbol once,
densely: code(g) = 2g for a generator and 2g + 1 for its inverse.  The
first window's fingerprint is the Horner evaluation of its codes modulo
the Mersenne prime 2^61 - 1, and each later window is rolled from the one
before it.  The base is drawn from the run seed (``fingerprint_base``), so
adversarial collisions are improbable.
"""

from __future__ import annotations

import random
from array import array

from .match import Match, SearchCounters, extend_hit
from .words import Word, extend_front, invert, useful_threshold

MERSENNE61 = (1 << 61) - 1

# one odd mixing constant per Bloom table
_BLOOM_MIX = (
    0x9E3779B97F4A7C15,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
    0x27D4EB2F165667C5,
)


def fingerprint_base(seed: int) -> int:
    """The Bloom backings' fingerprint base, drawn from the run seed."""
    return random.Random(seed).randrange(2, MERSENNE61 - 1)


def window_fingerprints(w: Word, m: int, base: int) -> list[int]:
    """Fingerprints of the len(w) circular length-m windows of w, in order.

    Each symbol is coded once; window 0 is evaluated by Horner's rule and
    every later window is rolled from the one before it, modulo MERSENNE61.
    """
    codes = [2 * s if s > 0 else 1 - 2 * s for s in w]
    codes += codes[:m - 1]
    v = 0
    for c in codes[:m]:
        v = (v * base + c) % MERSENNE61
    out = [v]
    high = pow(base, m - 1, MERSENNE61)  # the weight of the outgoing code
    for out_code, in_code in zip(codes, codes[m:]):
        v = ((v - out_code * high) * base + in_code) % MERSENNE61
        out.append(v)
    return out


class BloomFilter:
    """k bit-tables of 2^log2_size bits; one bit per table per fingerprint."""

    def __init__(self, bits_per_fingerprint: int = 3, log2_size: int = 16):
        self.shift = 64 - log2_size
        self.tables = [(mix, bytearray(1 << (log2_size - 3)))
                       for mix in _BLOOM_MIX[:bits_per_fingerprint]]

    def insert(self, value: int) -> None:
        for mix, table in self.tables:
            a = ((value * mix) & 0xFFFFFFFFFFFFFFFF) >> self.shift
            table[a >> 3] |= 1 << (a & 7)

    def query(self, value: int) -> bool:
        for mix, table in self.tables:
            a = ((value * mix) & 0xFFFFFFFFFFFFFFFF) >> self.shift
            if not table[a >> 3] >> (a & 7) & 1:
                return False
        return True


_ITEM = array("i").itemsize

# the longest q-gram the exact backing samples
QGRAM_CAP = 8


def sample_length(m: int) -> int:
    """q of the exact backing's q-gram filter for threshold length m.

    Any q <= m keeps the filter sound (the q-gram lemma): a window equal
    to a pattern window has only pattern q-grams.  Half the window, capped
    at ``QGRAM_CAP``, keeps the pattern's q-gram set cheap to build and
    the samples far apart (stride m - q + 1) on long patterns.
    """
    return min((m + 1) // 2, QGRAM_CAP)


def _pack(w: Word, m: int) -> bytes:
    """``w`` extended by its first m - 1 symbols, as native ints.

    Circular window i of length m is ``packed[i * _ITEM:(i + m) * _ITEM]``.
    """
    return array("i", extend_front(w, m - 1)).tobytes()


class PatternIndex:
    """Per-pattern search state for the Karp-Rabin strategies.

    Indexes the 2*l_p minimal possibly-useful windows (all threshold-length
    circular windows of the pattern and of its formal inverse).
    ``candidates`` maps a window key to its ``(inverted, window start)``
    occurrences in insertion order: uninverted windows first, each base by
    ascending start.  The exact backing keys on the packed window bytes;
    the Bloom backings key on fingerprints and put a Bloom filter in front,
    so that hits are re-checked against the exact fingerprint set and
    false Bloom hits can be counted.

    The exact backing also keeps ``qgrams``, the circular q-grams of both
    bases as tuples, with q = ``sample_length(m)``, and ``stride`` =
    m - q + 1.  Any m-window [i, i + m) of the text contains the q-gram at
    the one multiple of the stride in [i, i + m - q], and a key window's
    q-grams are pattern q-grams, so a text none of whose sampled q-grams is
    in the set holds no key window and is rejected without being packed.
    The exact ``candidates`` table is built by ``exact_candidates`` on the
    first sample hit, so a pattern whose every text misses never builds it.
    """

    def __init__(self, p_word: Word, backing: str, base: int, bloom_log2_size: int = 16):
        self.base = base
        self.m = useful_threshold(len(p_word))
        self.inverse = invert(p_word)
        self.candidates: dict[bytes | int, list[tuple[bool, int]]] = {}
        self.bloom: BloomFilter | None = None
        self.bases = ((False, p_word), (True, self.inverse))
        if backing == "exact":
            q = self.q = sample_length(self.m)
            self.stride = self.m - q + 1
            self.qgrams = {ext[i:i + q] for ext in (extend_front(p_word, q - 1),
                                                    extend_front(self.inverse, q - 1))
                           for i in range(len(p_word))}
            return
        self.bloom = BloomFilter(3 if backing == "bloom3" else 4, bloom_log2_size)
        for inverted, word in self.bases:
            for start, value in enumerate(window_fingerprints(word, self.m, base)):
                self.candidates.setdefault(value, []).append((inverted, start))
                self.bloom.insert(value)

    def exact_candidates(self) -> dict[bytes | int, list[tuple[bool, int]]]:
        """The exact backing's ``candidates``, built when first asked for."""
        if not self.candidates:
            span = self.m * _ITEM
            for inverted, word in self.bases:
                packed = _pack(word, self.m)
                for start in range(len(word)):
                    offset = start * _ITEM
                    key = packed[offset:offset + span]
                    self.candidates.setdefault(key, []).append((inverted, start))
        return self.candidates


def kr_search(idx: PatternIndex, p_word: Word, t_words: list[Word],
              counters: SearchCounters) -> list[Match | None]:
    """Scan each text's threshold-length windows in order; extend the first hit.

    Returns one optional Match per text.
    """
    if idx.bloom is None:
        return _exact_search(idx, p_word, t_words, counters)
    l_p, m, base = len(p_word), idx.m, idx.base
    bases = (p_word, idx.inverse)
    candidates = idx.candidates
    query = idx.bloom.query
    found: list[Match | None] = []
    for t_word in t_words:
        l_t = len(t_word)
        for tstart, value in enumerate(window_fingerprints(t_word, m, base)):
            if not query(value):
                continue
            counters.filter_hits += 1
            cands = candidates.get(value)
            if cands is None:
                counters.bloom_false_hits += 1
                continue
            counters.fingerprint_matches += 1
            t_window = tuple(t_word[(tstart + i) % l_t] for i in range(m))
            for inverted, pstart in cands:
                counters.confirmations += 1
                word = bases[inverted]
                if all(word[(pstart + i) % l_p] == t_window[i] for i in range(m)):
                    break
            else:
                counters.fingerprint_false_matches += 1
                continue
            counters.windows_scanned += tstart + 1
            found.append(extend_hit(p_word, t_word, inverted, pstart, tstart, counters))
            break
        else:
            counters.windows_scanned += l_t
            found.append(None)
    return found


def _exact_search(idx: PatternIndex, p_word: Word, t_words: list[Word],
                  counters: SearchCounters) -> list[Match | None]:
    """The exact backing: in each text, the first window whose bytes are a table key.

    The samples (see ``PatternIndex``) are taken in order, straight from
    the text, wrapping past its end.  Sample j lies in exactly the windows
    starting in [j - (m - q), j], and these ranges follow one another
    without overlap, so looking up, in order, only the windows of each
    hitting sample still finds the first key window, and looks up each
    window at most once.  A text is packed on its first hit.
    """
    m, q, stride = idx.m, idx.q, idx.stride
    qgrams = idx.qgrams
    span = m * _ITEM
    found: list[Match | None] = []
    for t_word in t_words:
        l_t = len(t_word)
        packed = None
        for j in range(0, l_t + m - q, stride):
            k = j % l_t
            sample = t_word[k:k + q] if k + q <= l_t else t_word[k:] + t_word[:k + q - l_t]
            if sample not in qgrams:
                continue
            if packed is None:
                packed = _pack(t_word, m)
                get = idx.exact_candidates().get
            for offset in range(max(0, j - m + q) * _ITEM, min(j + 1, l_t) * _ITEM, _ITEM):
                cands = get(packed[offset:offset + span])
                if cands is not None:
                    break
            else:
                continue
            tstart = offset // _ITEM
            counters.windows_scanned += tstart + 1
            counters.filter_hits += 1
            counters.fingerprint_matches += 1
            counters.confirmations += 1
            inverted, pstart = cands[0]
            found.append(extend_hit(p_word, t_word, inverted, pstart, tstart, counters))
            break
        else:
            counters.windows_scanned += l_t
            found.append(None)
    return found
