"""Common-substring search between two circular relators.

A useful common substring v of a pattern R_p and a text R_t (with
len(R_p) <= len(R_t)) witnesses a rotation u.v of R_p or of its formal
inverse and a rotation w.v of R_t with len(v) > len(u), i.e.
len(v) >= useful_threshold(len(R_p)).  A search sees only the words,
never the presentation or its involutions; every scan takes one pattern
and a list of texts and answers for each text on its own.  This module
holds the match type and its validity check, which guards every rewrite,
the maximal match around an aligned hit that every scan shares, the
anchored brute force search and the rotation/inversion invariant
signatures.  The exhaustive enumeration that every strategy is tested
against lives with the tests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

from .words import (
    Word,
    invert,
    rotate_right,
    smallest_period,
    useful_threshold,
)


@dataclass
class SearchCounters:
    """Match-level diagnostic counters, accumulated across searches.

    The automata count ``automata_built`` per indexed pattern word, also
    where two words share one automaton, and ``windows_scanned`` per scan.
    """

    windows_scanned: int = 0
    filter_hits: int = 0
    fingerprint_matches: int = 0
    fingerprint_false_matches: int = 0
    bloom_false_hits: int = 0
    confirmations: int = 0
    successes: int = 0
    automata_built: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


class Match(NamedTuple):
    """A witnessed useful common substring.

    The chosen pattern equivalent is ``rotate_right(base, pattern_rot)``
    where ``base`` is R_p, or invert(R_p) when ``inverted``; it splits as
    u.v with the given lengths, and ``rotate_right(R_t, text_rot)`` ends
    with the identical v segment.
    """

    inverted: bool
    pattern_rot: int
    text_rot: int
    u_len: int
    v_len: int


class MatchError(ValueError):
    """A Match that violates its invariants against the given words."""


def check_match(m: Match, p_word: Word, t_word: Word) -> tuple[Word, Word]:
    """Raise MatchError unless ``m`` is a valid witness for the pair.

    Returns the compared pattern equivalent and text rotation.
    """
    inverted, pattern_rot, text_rot, u_len, v_len = m
    l_p, l_t = len(p_word), len(t_word)
    if u_len + v_len != l_p:
        raise MatchError(f"u+v = {u_len}+{v_len} != pattern length {l_p}")
    if v_len <= u_len:
        raise MatchError("v segment not longer than u segment")
    if v_len < useful_threshold(l_p):
        raise MatchError("v segment below usefulness threshold")
    if v_len > l_t:
        raise MatchError("v segment longer than text")
    pe = rotate_right(invert(p_word) if inverted else p_word, pattern_rot)
    te = rotate_right(t_word, text_rot)
    if pe[u_len:] != te[l_t - v_len:]:
        raise MatchError("v segments differ between pattern and text")
    return pe, te


def match_from_seed(p_word: Word, t_word: Word, inverted: bool,
                    bpos: int, tpos: int, base: Word | None = None) -> Match | None:
    """Maximal Match around one aligned symbol, or None below threshold.

    The symbol at ``bpos`` of the base (R_p, or invert(R_p) when
    ``inverted``) and at ``tpos`` of the text grows circularly forward,
    then backward, with its length capped at min(|R_p|, |R_t|) so that it
    never wraps past a full pattern period.  A caller that holds the base
    already may pass it.
    """
    if base is None:
        base = invert(p_word) if inverted else p_word
    l_p, l_t = len(p_word), len(t_word)
    cap = min(l_p, l_t)
    fwd = 0
    while fwd + 1 < cap and base[(bpos + fwd + 1) % l_p] == t_word[(tpos + fwd + 1) % l_t]:
        fwd += 1
    length = fwd + 1
    while (length < cap
           and base[(bpos + fwd - length) % l_p] == t_word[(tpos + fwd - length) % l_t]):
        length += 1
    if length < useful_threshold(l_p):
        return None
    # v ends at bpos + fwd and tpos + fwd: rotate both so that it ends them
    return Match(inverted, (-1 - bpos - fwd) % l_p, (-1 - tpos - fwd) % l_t,
                 l_p - length, length)


def anchor_seeds(p_word: Word) -> list[tuple[bool, int, int]]:
    """Anchor alignments (inverted, position in base, symbol) for brute search.

    Any useful substring of a pattern equivalent covers the first or the
    middle symbol of the pattern, or one of their inverses; when the
    pattern is a nontrivial power only the first symbol and its inverse
    are needed.  Each alignment carries the symbol at that position of its
    base; no two coincide, as positions 0 and l_p // 2 differ.
    """
    l_p = len(p_word)
    positions = [0]
    if smallest_period(p_word) == l_p and l_p >= 2:
        positions.append(l_p // 2)
    seeds: list[tuple[bool, int, int]] = []
    for pos in positions:
        seeds += [(False, pos, p_word[pos]), (True, l_p - 1 - pos, -p_word[pos])]
    return seeds


def extend_hit(p_word: Word, t_word: Word, inverted: bool, bpos: int, tpos: int,
               counters: SearchCounters) -> Match:
    """``match_from_seed`` for a hit already known to reach the threshold."""
    match = match_from_seed(p_word, t_word, inverted, bpos, tpos)
    if match is None:
        raise AssertionError("threshold hit failed to extend")
    counters.successes += 1
    return match


def brute_search(p_word: Word, t_words: list[Word],
                 counters: SearchCounters) -> list[Match | None]:
    """Anchored brute force: scan each text for anchor symbols and extend.

    The anchors are ``anchor_seeds(p_word)``, found once per call; returns
    one optional Match per text.  ``windows_scanned`` counts the text
    symbols read: the hit position plus one on a hit, |t| on a miss.

    Two rejects skip work that cannot succeed, so the result and the
    counters are those of extending every anchor hit.  A text that holds
    no anchor symbol is a miss without a scan.  An anchor hit whose two
    circular neighbours both differ from the base's, ``base[bpos + 1]``
    against ``t[j + 1]`` and ``base[bpos - 1]`` against ``t[j - 1]``,
    aligns a run of one symbol, which fails every threshold of 2 or more:
    it is not extended unless the threshold is 1 (|R_p| = 1).  The
    inverted base is built once per call.
    """
    l_p = len(p_word)
    inverse = invert(p_word)
    wide = useful_threshold(l_p) == 1  # a one-symbol run is useful
    seeds = anchor_seeds(p_word)
    tries = []  # (symbol, inverted, bpos, base, base's next, base's previous)
    for inverted, bpos, s in seeds:
        base = inverse if inverted else p_word
        tries.append((s, inverted, bpos, base, base[(bpos + 1) % l_p], base[bpos - 1]))
    wanted = {s for _, _, s in seeds}
    found: list[Match | None] = []
    for t_word in t_words:
        m = None
        if not wanted.isdisjoint(t_word):
            l_t = len(t_word)
            for j, sym in enumerate(t_word):
                if sym in wanted:
                    after, before = t_word[(j + 1) % l_t], t_word[j - 1]
                    for s, inverted, bpos, base, nxt, prv in tries:
                        if s == sym and (wide or after == nxt or before == prv):
                            m = match_from_seed(p_word, t_word, inverted, bpos, j, base)
                            if m is not None:
                                break
                    if m is not None:
                        counters.windows_scanned += j + 1
                        counters.successes += 1
                        break
        if m is None:
            counters.windows_scanned += len(t_word)
        found.append(m)
    return found


# --- rotation/inversion invariant signatures -------------------------------

_SIG_MIX_A = 0x9E3779B97F4A7C15
_SIG_MIX_B = 0xC2B2AE3D27D4EB4F


def _gram_class(a: int, b: int) -> tuple[int, int]:
    return min((a, b), (-b, -a))


def compute_signature(w: Word) -> int:
    """64-bit mask of hashed canonical circular 2-gram classes.

    Invariant under rotation and formal inversion; a length-1 word
    contributes its circular self-pair.
    """
    if len(w) < 1:
        raise ValueError("signature of empty word")
    sig = 0
    n = len(w)
    for i in range(n):
        a, b = _gram_class(w[i], w[(i + 1) % n])
        h = (a * _SIG_MIX_A + b * _SIG_MIX_B) & 0xFFFFFFFFFFFFFFFF
        sig |= 1 << (h >> 58)
    return sig


def signature_skip(sig_p: int, sig_t: int, threshold: int) -> bool:
    """True when the pair can safely be skipped without searching.

    Sound because any common substring of length >= 2 contributes a shared
    canonical 2-gram class; a threshold of 1 makes the filter inapplicable.
    """
    return threshold >= 2 and (sig_p & sig_t) == 0
