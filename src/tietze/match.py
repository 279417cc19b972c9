"""Common-substring search between two circular relators.

A useful common substring v of a pattern R_p and a text R_t (with
len(R_p) <= len(R_t)) witnesses a rotation u.v of R_p or of its formal
inverse and a rotation w.v of R_t with len(v) > len(u), i.e.
len(v) >= useful_threshold(len(R_p)).  This module holds the match type
and its validity check, which guards every rewrite, the anchored brute
force search and the rotation/inversion invariant signatures.  The
exhaustive enumeration that every strategy is tested against lives with
the tests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .words import (
    Word,
    invert,
    rotate_right,
    smallest_period,
    useful_threshold,
)


@dataclass
class SearchCounters:
    """Match-level diagnostic counters, accumulated across searches."""

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


@dataclass(frozen=True)
class Match:
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


def pattern_equivalent(m: Match, p_word: Word) -> Word:
    base = invert(p_word) if m.inverted else p_word
    return rotate_right(base, m.pattern_rot)


def check_match(m: Match, p_word: Word, t_word: Word) -> None:
    """Raise MatchError unless ``m`` is a valid witness for the pair."""
    l_p, l_t = len(p_word), len(t_word)
    if m.u_len + m.v_len != l_p:
        raise MatchError(f"u+v = {m.u_len}+{m.v_len} != pattern length {l_p}")
    if m.v_len <= m.u_len:
        raise MatchError("v segment not longer than u segment")
    if m.v_len < useful_threshold(l_p):
        raise MatchError("v segment below usefulness threshold")
    if m.v_len > l_t:
        raise MatchError("v segment longer than text")
    pe = pattern_equivalent(m, p_word)
    te = rotate_right(t_word, m.text_rot)
    if pe[m.u_len:] != te[l_t - m.v_len:]:
        raise MatchError("v segments differ between pattern and text")


def extend_seed(base: Word, t_word: Word, bpos: int, tpos: int) -> tuple[int, int, int]:
    """Grow an aligned single-symbol match circularly in both directions.

    Returns (end position in base, end position in text, length), with the
    length capped at len(base) so the match never wraps past a full
    pattern period.
    """
    l_b, l_t = len(base), len(t_word)
    cap = min(l_b, l_t)
    fwd = 0
    while fwd + 1 < cap and base[(bpos + fwd + 1) % l_b] == t_word[(tpos + fwd + 1) % l_t]:
        fwd += 1
    back = 0
    while fwd + back + 1 < cap and base[(bpos - back - 1) % l_b] == t_word[(tpos - back - 1) % l_t]:
        back += 1
    return (bpos + fwd) % l_b, (tpos + fwd) % l_t, fwd + back + 1


def match_from_seed(p_word: Word, t_word: Word, inverted: bool,
                    bpos: int, tpos: int) -> Match | None:
    """Maximal Match around one aligned symbol, or None below threshold."""
    base = invert(p_word) if inverted else p_word
    p_end, t_end, length = extend_seed(base, t_word, bpos, tpos)
    l_p, l_t = len(p_word), len(t_word)
    if length < useful_threshold(l_p):
        return None
    return Match(inverted=inverted, pattern_rot=(l_p - 1 - p_end) % l_p,
                 text_rot=(l_t - 1 - t_end) % l_t, u_len=l_p - length, v_len=length)


def anchor_seeds(p_word: Word) -> list[tuple[bool, int, int]]:
    """Anchor alignments (inverted, position in base, symbol) for brute search.

    Any useful substring of a pattern equivalent covers the first or the
    middle symbol of the pattern, or one of their inverses; when the
    pattern is a nontrivial power only the first symbol and its inverse
    are needed.  An alignment is listed once, with the symbol at that
    position of its base.
    """
    l_p = len(p_word)
    positions = [0]
    if smallest_period(p_word) == l_p and l_p >= 2:
        positions.append(l_p // 2)
    seeds: list[tuple[bool, int, int]] = []
    seen: set[tuple[bool, int]] = set()
    for pos in positions:
        sym = p_word[pos]
        for inverted, bpos, s in ((False, pos, sym), (True, l_p - 1 - pos, -sym)):
            if (inverted, bpos) not in seen:
                seen.add((inverted, bpos))
                seeds.append((inverted, bpos, s))
    return seeds


def live_seeds(seeds: list[tuple[bool, int, int]],
               involutions: frozenset[int] | set[int]) -> list[tuple[bool, int, int]]:
    """The seeds whose symbol is not the inverse of an involution.

    That symbol cannot occur in a normalized text.  Dropping after
    ``anchor_seeds`` deduplicates is the same as dropping before, because
    an alignment always carries the same symbol.
    """
    if not involutions:
        return seeds
    return [seed for seed in seeds if not (seed[2] < 0 and -seed[2] in involutions)]


def brute_search(p_word: Word, t_word: Word,
                 involutions: frozenset[int] | set[int] = frozenset(),
                 counters: SearchCounters | None = None,
                 seeds: list[tuple[bool, int, int]] | None = None) -> Match | None:
    """Anchored brute force: scan the text for anchor symbols and extend.

    ``seeds`` is ``anchor_seeds(p_word)``, computed here when not given;
    the strategies pass it cached per pattern.
    """
    l_p, l_t = len(p_word), len(t_word)
    if not 1 <= l_p <= l_t:
        raise ValueError("brute search requires 1 <= |pattern| <= |text|")
    if counters is None:
        counters = SearchCounters()
    if seeds is None:
        seeds = anchor_seeds(p_word)
    seeds = live_seeds(seeds, involutions)
    wanted = {s for _, _, s in seeds}
    for j in range(l_t):
        counters.windows_scanned += 1
        sym = t_word[j]
        if sym not in wanted:
            continue
        for inverted, bpos, s in seeds:
            if s != sym:
                continue
            m = match_from_seed(p_word, t_word, inverted, bpos, j)
            if m is not None:
                counters.successes += 1
                return m
    return None


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
