"""Karp-Rabin window search with an exact or a Bloom-filter backing.

Both backings find, in each text of one ``kr_search`` call, the first
threshold-length circular window (a key window) equal to one of the
2*l_p such windows of the pattern and of its formal inverse.

The exact backing (``kr-hash``) hashes q-grams and verifies by comparing
symbols, so it never reports a fingerprint false match.  It samples the
text's q-grams (q = ``sample_length(m)``, every m - q + 1 positions)
against a map, built with the index, from each q-gram of the pattern and
of its inverse to its occurrences there.  Every window contains exactly
one sample, so when no sample hits the text is a proven miss; when one
does, text and pattern are compared along each alignment that puts that
q-gram on one of its occurrences.

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


class PatternIndex:
    """Per-pattern search state for the Karp-Rabin strategies.

    The bases are the pattern and its formal inverse; place a < 2 * l_p is
    start a of the pattern when a < l_p, else start a - l_p of the inverse.
    The Bloom backings index all threshold-length circular windows of
    both, fingerprinted with ``base``: ``candidates`` maps a fingerprint to
    its places, ascending, behind a Bloom filter.  The exact backing
    ignores ``base``.

    The exact backing takes q-grams, q = ``sample_length(m)``, and
    ``stride`` = m - q + 1.  Any m-window [i, i + m) of the text contains
    the q-gram at the one multiple of the stride in [i, i + m - q], and a
    key window's q-grams are pattern q-grams, so a text none of whose
    sampled q-grams is a pattern q-gram holds no key window.  ``first``
    maps each circular q-gram of both bases, as a tuple, to its least
    place.  A q-gram that recurs has its places, ascending, in ``repeats``,
    which is empty unless ``first`` has fewer than 2 * l_p keys.
    """

    def __init__(self, p_word: Word, backing: str, base: int, bloom_log2_size: int = 16):
        self.m = useful_threshold(len(p_word))
        self.inverse = invert(p_word)
        self.bloom: BloomFilter | None = None
        if backing == "exact":
            q = self.q = sample_length(self.m)
            self.stride = self.m - q + 1
            n = len(p_word)
            grams: list[Word] = []
            for word in (p_word, self.inverse):
                ext = extend_front(word, q - 1)
                grams += zip(*[ext[k:] for k in range(q)])  # ext[s:s + q] for s < n
            # grams[a] is at place a; a later pair overwrites: go last to first
            self.first = dict(zip(reversed(grams), range(2 * n - 1, -1, -1)))
            self.repeats: dict[Word, list[int]] = {}
            if len(self.first) < 2 * n:  # some q-gram recurs: chain its later places
                for a, gram in enumerate(grams):
                    if a != self.first[gram]:
                        self.repeats.setdefault(gram, [self.first[gram]]).append(a)
            return
        self.base = base
        self.bloom = BloomFilter(3 if backing == "bloom3" else 4, bloom_log2_size)
        self.candidates: dict[int, list[int]] = {}
        for offset, word in ((0, p_word), (len(p_word), self.inverse)):
            for a, value in enumerate(window_fingerprints(word, self.m, base), offset):
                self.candidates.setdefault(value, []).append(a)
                self.bloom.insert(value)


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
            for a in cands:
                counters.confirmations += 1
                word = bases[a >= l_p]
                if all(word[(a + i) % l_p] == t_window[i] for i in range(m)):
                    break
            else:
                counters.fingerprint_false_matches += 1
                continue
            counters.windows_scanned += tstart + 1
            found.append(extend_hit(p_word, t_word, a >= l_p, a % l_p, tstart, counters))
            break
        else:
            counters.windows_scanned += l_t
            found.append(None)
    return found


def _exact_search(idx: PatternIndex, p_word: Word, t_words: list[Word],
                  counters: SearchCounters) -> list[Match | None]:
    """The exact backing: in each text, the first window equal to a pattern window.

    The samples (see ``PatternIndex``) are taken in order, wrapping past
    the text's end.  Sample j lies in exactly the windows starting in
    [j - (m - q), j], and these ranges follow one another without overlap,
    so checking, in order, only the windows of each hitting sample still
    finds the first key window.  A pattern window equal to text window i
    holds the sample at offset j - i, so it lies on an alignment: text
    position j facing the start of a place of the sample, the one in
    ``first`` or, for a recurring sample, each in ``repeats``.  Along one
    alignment, walking back from j (not past the range's first start),
    then forward from j + q until m symbols agree, finds its first key
    window, if any; its others start later.  So the least (window start,
    inverted, pattern start) over the alignments is the first key window
    with its first equal pattern window, in the order of places.
    """
    m, q, stride, l_p = idx.m, idx.q, idx.stride, len(p_word)
    first_at, repeats = idx.first, idx.repeats
    doubled = (p_word + p_word, idx.inverse + idx.inverse)
    found: list[Match | None] = []
    for t_word in t_words:
        l_t = len(t_word)
        ext = None
        for j in range(0, l_t + m - q, stride):
            k = j % l_t
            sample = t_word[k:k + q] if k + q <= l_t else t_word[k:] + t_word[:k + q - l_t]
            at = first_at.get(sample)
            if at is None:
                continue
            if ext is None:
                ext = t_word + t_word[:m - 1]  # m - 1 < l_p <= l_t
            first = max(0, j - m + q)
            hits = []
            for a in repeats.get(sample, (at,)):
                base = doubled[a >= l_p]
                shift = a % l_p - j  # text position i faces base position i + shift
                i = j
                while i > first and ext[i - 1] == base[i - 1 + shift]:
                    i -= 1
                if i >= l_t:
                    continue
                end, e = i + m, j + q
                while e < end and ext[e] == base[e + shift]:
                    e += 1
                if e == end:
                    hits.append((i, a >= l_p, (i + shift) % l_p))
            if not hits:
                continue
            tstart, inverted, pstart = min(hits)
            counters.windows_scanned += tstart + 1
            counters.filter_hits += 1
            counters.fingerprint_matches += 1
            counters.confirmations += 1
            found.append(extend_hit(p_word, t_word, inverted, pstart, tstart, counters))
            break
        else:
            counters.windows_scanned += l_t
            found.append(None)
    return found
