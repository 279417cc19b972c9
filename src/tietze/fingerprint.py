"""Karp-Rabin window search with an exact or a Bloom-filter backing.

Both backings index the 2*l_p threshold-length circular windows of a
pattern and of its formal inverse, and scan the text's windows in order.

The exact backing (``kr-hash``) keys its table on the windows themselves:
each word is packed once as machine ints (``array("i")``) and every window
is a bytes slice of that buffer, so slicing, hashing and lookup all run in
C and a table hit is already an exact match.  It never reports a
fingerprint false match.  Before that scan it samples the text's q-grams
(q = ceil(m/2), every m - q + 1 positions) against the set of the
pattern's q-grams; every window contains a sample, so when no sample hits
the text is a proven miss and is never packed, and when one does the scan
starts at the earliest window that can contain that sample.

The Bloom backings (``kr-bloom3``/``kr-bloom4``) need a numeric key, so they
roll Karp-Rabin fingerprints: symbols are coded densely, code(g) = 2g for
a generator and 2g + 1 for its inverse, and a fingerprint is the Horner
evaluation of the code sequence modulo a Mersenne prime, with the base
drawn from the run seed so adversarial collisions are improbable.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass

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


def symbol_code(s: int) -> int:
    """code(g_j) = 2j, code(g_j^-1) = 2j + 1."""
    if s == 0:
        raise ValueError("0 is not a symbol")
    return 2 * s if s > 0 else 1 - 2 * s


@dataclass(frozen=True)
class FingerprintParams:
    base: int
    modulus: int = MERSENNE61

    @staticmethod
    def from_seed(seed: int) -> "FingerprintParams":
        base = random.Random(seed).randrange(2, MERSENNE61 - 1)
        return FingerprintParams(base)

    def high_power(self, m: int) -> int:
        """base^(m-1) mod modulus, the weight of the outgoing code."""
        return pow(self.base, m - 1, self.modulus)


def fingerprint_codes(codes, params: FingerprintParams) -> int:
    if len(codes) == 0:
        raise ValueError("empty window has no fingerprint")
    v = 0
    for c in codes:
        v = (v * params.base + c) % params.modulus
    return v


def fp_init(w: Word, start: int, m: int, params: FingerprintParams) -> int:
    if m < 1 or start < 0 or start + m > len(w):
        raise ValueError(f"window [{start}, {start + m}) out of bounds")
    return fingerprint_codes([symbol_code(s) for s in w[start:start + m]], params)


def fp_roll(value: int, out_code: int, in_code: int, high: int,
            params: FingerprintParams) -> int:
    """Shift the window one symbol: drop out_code, append in_code."""
    return ((value - out_code * high) * params.base + in_code) % params.modulus


def _window_fingerprints(w: Word, m: int, params: FingerprintParams):
    """Fingerprints of all len(w) circular length-m windows, by rolling."""
    ext = extend_front(w, m - 1)
    high = params.high_power(m)
    v = fp_init(ext, 0, m, params)
    yield 0, v
    for i in range(1, len(w)):
        v = fp_roll(v, symbol_code(ext[i - 1]), symbol_code(ext[i + m - 1]), high, params)
        yield i, v


class BloomFilter:
    """k bit-tables of 2^log2_size bits; one bit per table per fingerprint."""

    def __init__(self, bits_per_fingerprint: int = 3, log2_size: int = 16):
        if bits_per_fingerprint not in (3, 4):
            raise ValueError("bits_per_fingerprint must be 3 or 4")
        if not 3 <= log2_size <= 30:
            raise ValueError("log2_size out of range")
        self.k = bits_per_fingerprint
        self.log2_size = log2_size
        self.tables = [bytearray(1 << (log2_size - 3)) for _ in range(self.k)]

    def _addresses(self, value: int):
        shift = 64 - self.log2_size
        for i in range(self.k):
            yield i, ((value * _BLOOM_MIX[i]) & 0xFFFFFFFFFFFFFFFF) >> shift

    def insert(self, value: int) -> None:
        for i, a in self._addresses(value):
            self.tables[i][a >> 3] |= 1 << (a & 7)

    def query(self, value: int) -> bool:
        return all(self.tables[i][a >> 3] >> (a & 7) & 1 for i, a in self._addresses(value))


_ITEM = array("i").itemsize


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
    bases as tuples, with q = ceil(m/2), and ``stride`` = m - q + 1.  Any
    m-window [i, i + m) of the text contains the q-gram at the one multiple
    of the stride in [i, i + m - q], and a key window's q-grams are pattern
    q-grams, so a text none of whose sampled q-grams is in the set holds no
    key window and is rejected without being packed.  The exact
    ``candidates`` table is built by ``exact_candidates`` on the first
    sample hit, so a pattern whose every text misses never builds it.
    """

    def __init__(self, p_word: Word, backing: str, params: FingerprintParams,
                 bloom_log2_size: int = 16):
        if backing not in ("exact", "bloom3", "bloom4"):
            raise ValueError(f"unknown backing {backing!r}")
        if len(p_word) < 1:
            raise ValueError("cannot index an empty pattern")
        self.params = params
        self.m = useful_threshold(len(p_word))
        self.inverse = invert(p_word)
        self.candidates: dict[bytes | int, list[tuple[bool, int]]] = {}
        self.bloom: BloomFilter | None = None
        self.bases = ((False, p_word), (True, self.inverse))
        if backing == "exact":
            q = self.q = (self.m + 1) // 2
            self.stride = self.m - q + 1
            self.qgrams = {ext[i:i + q] for ext in (extend_front(p_word, q - 1),
                                                    extend_front(self.inverse, q - 1))
                           for i in range(len(p_word))}
            return
        self.bloom = BloomFilter(3 if backing == "bloom3" else 4, bloom_log2_size)
        for inverted, base in self.bases:
            for start, value in _window_fingerprints(base, self.m, params):
                self.candidates.setdefault(value, []).append((inverted, start))
                self.bloom.insert(value)

    def exact_candidates(self) -> dict[bytes | int, list[tuple[bool, int]]]:
        """The exact backing's ``candidates``, built when first asked for."""
        if not self.candidates:
            span = self.m * _ITEM
            for inverted, base in self.bases:
                packed = _pack(base, self.m)
                for start in range(len(base)):
                    offset = start * _ITEM
                    key = packed[offset:offset + span]
                    self.candidates.setdefault(key, []).append((inverted, start))
        return self.candidates


def kr_search(idx: PatternIndex, p_word: Word, t_word: Word,
              counters: SearchCounters) -> Match | None:
    """Scan the text's threshold-length windows in order; extend the first hit."""
    if idx.bloom is None:
        return _exact_search(idx, p_word, t_word, counters)
    l_p, l_t, m = len(p_word), len(t_word), idx.m
    bases = (p_word, idx.inverse)
    for tstart, value in _window_fingerprints(t_word, m, idx.params):
        counters.windows_scanned += 1
        if not idx.bloom.query(value):
            continue
        counters.filter_hits += 1
        cands = idx.candidates.get(value)
        if cands is None:
            counters.bloom_false_hits += 1
            continue
        counters.fingerprint_matches += 1
        t_window = tuple(t_word[(tstart + i) % l_t] for i in range(m))
        confirmed = None
        for inverted, pstart in cands:
            counters.confirmations += 1
            base = bases[inverted]
            if all(base[(pstart + i) % l_p] == t_window[i] for i in range(m)):
                confirmed = (inverted, pstart)
                break
        if confirmed is None:
            counters.fingerprint_false_matches += 1
            continue
        return extend_hit(p_word, t_word, *confirmed, tstart, counters)
    return None


def _exact_search(idx: PatternIndex, p_word: Word, t_word: Word,
                  counters: SearchCounters) -> Match | None:
    """The exact backing: the first text window whose bytes are a table key.

    The sampled q-grams go first (see ``PatternIndex``).  No key window
    starts more than m - q before the first sample that hits, so the byte
    scan begins there and still finds the first key window.
    """
    l_t, m, q = len(t_word), idx.m, idx.q
    ext = t_word + t_word[:m - 1]
    qgrams = idx.qgrams
    for first in range(0, l_t + m - q, idx.stride):
        if ext[first:first + q] in qgrams:
            break
    else:
        counters.windows_scanned += l_t
        return None
    packed = array("i", ext).tobytes()
    span = m * _ITEM
    get = idx.exact_candidates().get
    for offset in range(max(0, first - (m - q)) * _ITEM, l_t * _ITEM, _ITEM):
        cands = get(packed[offset:offset + span])
        if cands is not None:
            tstart = offset // _ITEM
            counters.windows_scanned += tstart + 1
            counters.filter_hits += 1
            counters.fingerprint_matches += 1
            counters.confirmations += 1
            inverted, pstart = cands[0]
            return extend_hit(p_word, t_word, inverted, pstart, tstart, counters)
    counters.windows_scanned += l_t
    return None

