"""Shared test utilities: corpora, scripted searchers, reference oracles,
and automaton queries built on ``LSAutomaton.step``."""

from __future__ import annotations

import random

from tietze.automaton import LSAutomaton
from tietze.match import Match, MatchError, check_match
from tietze.presentation import Presentation, make_presentation
from tietze.randgen import random_reduced_word
from tietze.skip import SearchEvent
from tietze.words import Word, invert, rotate_right, useful_threshold


def random_pair(rng: random.Random, d_max=6, l_max=20) -> tuple[Word, Word]:
    """A random (pattern, text) pair with len(pattern) <= len(text)."""
    d = rng.randint(1, d_max)
    lp = rng.randint(1, l_max)
    lt = rng.randint(lp, l_max)
    return random_reduced_word(rng, d, lp), random_reduced_word(rng, d, lt)


def sparse_presentation(seed: int) -> Presentation:
    """Random presentation with rare natural matches plus one planted overlap.

    Mirrors the regime where successful searches are sparse: useful for
    comparing skip policies, whose search counts are only comparable when
    replacement cascades stay short.
    """
    rng = random.Random(seed)
    d = rng.randint(5, 8)
    q = rng.randint(4, 8)
    words = [random_reduced_word(rng, d, rng.randint(5, 11)) for _ in range(q)]
    if q >= 2:
        i, j = rng.sample(range(q), 2)
        src = min(words[i], words[j], key=len)
        dst = max(words[i], words[j], key=len)
        t = useful_threshold(len(src))
        chunk = (src + src[: t - 1])[:t]
        rest_len = max(1, len(dst) - t)
        tail = random_reduced_word(rng, d, rest_len)
        for _ in range(80):
            if tail[0] != -chunk[-1] and tail[-1] != -chunk[0]:
                break
            tail = random_reduced_word(rng, d, rest_len)
        words[words.index(dst)] = rotate_right(chunk + tail, rng.randrange(t + rest_len))
    return make_presentation(d, words)


def dense_presentation(rng: random.Random, d_max=6, q_max=10, l_max=12) -> Presentation:
    """Small random presentation; matches and cascades are common."""
    d = rng.randint(1, d_max)
    q = rng.randint(0, q_max)
    return make_presentation(
        d, [random_reduced_word(rng, d, rng.randint(1, l_max)) for _ in range(q)]
    )


class ScriptedSearcher:
    """Fake searcher for skip-level tests: shrinks texts with seeded probability.

    Records (relator id, ordinal of the performed search) for every change,
    the format the necessity oracle consumes.
    """

    def __init__(self, seed: int, change_prob: float = 0.2):
        self.rng = random.Random(seed)
        self.change_prob = change_prob
        self.calls = 0
        self.changes: list[tuple[int, int]] = []

    def __call__(self, pres, pattern, text) -> bool:
        ordinal = self.calls
        self.calls += 1
        if len(text.word) > 1 and self.rng.random() < self.change_prob:
            text.set_word(text.word[:-1])
            self.changes.append((text.id, ordinal))
            return True
        return False


def recorded(pass_fn, pres, ctx, searcher):
    """Run one pass driver with a recorder; returns (tally, events)."""
    events = []
    tally = pass_fn(pres, ctx, searcher, events.append)
    return tally, events


def naive_circular_substrings(w: Word) -> set[Word]:
    """All nonempty circular substrings of w, up to length len(w)."""
    out: set[Word] = set()
    n = len(w)
    ext = w + w
    for k in range(1, n + 1):
        for i in range(n):
            out.add(ext[i:i + k])
    return out


def state_count(a: LSAutomaton) -> int:
    return len(a.max_len)


def longest_match_lengths(a: LSAutomaton, text: Word) -> list[int]:
    """Longest indexed substring ending at each text position."""
    out = []
    state, length = 0, 0
    for sym in text:
        state, length = a.step(state, length, sym)
        out.append(length)
    return out


def accepts_substring(a: LSAutomaton, s: Word) -> bool:
    """Whether s is a (linear) substring of the indexed word.

    The running length after feeding s from the initial state is the
    length of the longest suffix of s that is a substring, so it reaches
    len(s) exactly when s itself is one.
    """
    state = length = 0
    for sym in s:
        state, length = a.step(state, length, sym)
    return length == len(s)


def is_valid_match(m: Match, p_word: Word, t_word: Word) -> bool:
    try:
        check_match(m, p_word, t_word)
        return True
    except MatchError:
        return False


def _circular_windows(w: Word, k: int) -> list[Word]:
    ext = w + w[: k - 1]
    return [ext[i:i + k] for i in range(len(w))]


def exhaustive_oracle(p_word: Word, t_word: Word) -> Match | None:
    """Try every rotation of R_p and invert(R_p) against every rotation of R_t.

    The correctness oracle for every match-level strategy.  Returns a Match
    of globally maximal v length, or None when no common circular
    substring reaches the usefulness threshold.  Deterministic: among
    maximal matches, the uninverted equivalent and the smallest window
    offsets win.
    """
    l_p, l_t = len(p_word), len(t_word)
    if not 1 <= l_p <= l_t:
        raise ValueError("oracle requires 1 <= |pattern| <= |text|")
    m = useful_threshold(l_p)
    bases = (p_word, invert(p_word))

    def common_at(k: int):
        text_first: dict[Word, int] = {}
        for j, g in enumerate(_circular_windows(t_word, k)):
            text_first.setdefault(g, j)
        for inv, base in enumerate(bases):
            for i, g in enumerate(_circular_windows(base, k)):
                if g in text_first:
                    return bool(inv), i, text_first[g]
        return None

    hit = common_at(m)
    if hit is None:
        return None
    best, best_k = hit, m
    k = m + 1
    while k <= l_p:
        nxt = common_at(k)
        if nxt is None:
            break
        best, best_k = nxt, k
        k += 1
    inverted, i, j = best
    # the v segment is the window of length best_k at i in the base and at
    # j in the text: rotate both so that it ends them
    p_end, t_end = (i + best_k - 1) % l_p, (j + best_k - 1) % l_t
    return Match(inverted=inverted, pattern_rot=(l_p - 1 - p_end) % l_p,
                 text_rot=(l_t - 1 - t_end) % l_t, u_len=l_p - best_k, v_len=best_k)


def necessary_set_oracle(events: list[SearchEvent],
                         changes: list[tuple[int, int]]
                         ) -> set[tuple[int, int, int]]:
    """The necessary searches among the considered pairs.

    ``changes`` lists (relator id, ordinal of the performed search during
    which the change happened); performed events and searcher invocations
    correspond one to one, in order.  A consideration is necessary when
    the pair was never searched before or a member changed at or after the
    pair's previous search (a change during that search counts).
    """
    changes_at: dict[int, list[int]] = {}
    for rel_id, ordinal in changes:
        changes_at.setdefault(ordinal, []).append(rel_id)
    last_search: dict[frozenset[int], int] = {}
    last_change: dict[int, int] = {}
    necessary: set[tuple[int, int, int]] = set()
    performed_count = 0
    for t, ev in enumerate(events, start=1):
        pair = frozenset((ev.pattern_id, ev.text_id))
        prev = last_search.get(pair)
        if prev is None or any(
            last_change.get(rid, -1) >= prev for rid in (ev.pattern_id, ev.text_id)
        ):
            necessary.add((ev.pattern_id, ev.text_id, ev.pass_no))
        if ev.performed:
            last_search[pair] = t
            for rid in changes_at.get(performed_count, ()):
                last_change[rid] = t
            performed_count += 1
    return necessary


def performed_set(events: list[SearchEvent]) -> set[tuple[int, int, int]]:
    return {(e.pattern_id, e.text_id, e.pass_no) for e in events if e.performed}
