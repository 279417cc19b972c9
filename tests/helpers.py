"""Shared test utilities: corpora, scripted searchers, reference oracles,
and the automaton's direct-transition step with the queries built on it."""

from __future__ import annotations

import random

from tietze.automaton import LSAutomaton
from tietze.fingerprint import MERSENNE61, PatternIndex
from tietze.match import Match, MatchError, SearchCounters, check_match
from tietze.presentation import Presentation, make_presentation, sort_rel
from tietze.randgen import random_reduced_word
from tietze.skip import PassContext, SearchEvent, init_pass_state, run_pass
from tietze.words import Word, eliminable, invert, rotate_right, useful_threshold


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


def squares_words(rng: random.Random, d_max=4, q_max=10, l_max=12) -> tuple[int, list[Word]]:
    """A generator count and random relator words with planted squares g g.

    The squares make involutions, so a replacement mid-run can write the
    inverse of an involution into a text before the next normalization.
    """
    d = rng.randint(2, d_max)
    words = [random_reduced_word(rng, d, rng.randint(3, l_max))
             for _ in range(rng.randint(2, q_max))]
    for g in rng.sample(range(1, d + 1), rng.randint(1, 2)):
        words.insert(rng.randrange(len(words) + 1), (g, g) if rng.random() < 0.5 else (-g, -g))
    return d, words


class PairSearcher:
    """A batch searcher built from a per-pair rule.

    The skip drivers hand a searcher one pattern and a list of texts and
    read back one bool per text.  A subclass defines ``pair(pattern, text)
    -> bool``, and a call maps it over the texts in order.
    """

    def __call__(self, pattern, texts) -> list[bool]:
        return [self.pair(pattern, text) for text in texts]


class ScriptedSearcher(PairSearcher):
    """Fake searcher for skip-level tests: shrinks texts with seeded probability.

    Records (relator id, ordinal of the performed search) for every change,
    the format the necessity oracle consumes.
    """

    def __init__(self, seed: int, change_prob: float = 0.2):
        self.rng = random.Random(seed)
        self.change_prob = change_prob
        self.calls = 0
        self.changes: list[tuple[int, int]] = []

    def pair(self, pattern, text) -> bool:
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


def changes_from(events: list[SearchEvent]) -> list[tuple[int, int]]:
    """(text id, ordinal among the performed events) of each successful search.

    A successful search changes its text, so for runs whose only changes
    are in-pass rewrites this is the change list the necessity oracle reads.
    """
    performed = (e for e in events if e.performed)
    return [(e.text_id, o) for o, e in enumerate(performed) if e.successful]


def mixed_batch(rng: random.Random, p_word: Word, d: int) -> list[Word]:
    """Texts for one pattern over d generators, shuffled.

    A threshold-length or longer window of the pattern, and one of its
    inverse, each planted in a text as long as the pattern and in a
    longer one; a random text; and two misses over other generators, one
    as long as the pattern.
    """
    l_p = len(p_word)
    m = useful_threshold(l_p)
    texts = []
    for base in (p_word, invert(p_word)):
        for length in (l_p, l_p + rng.randint(1, 6)):
            k = rng.randint(m, l_p)
            start = rng.randrange(l_p)
            w = (base + base)[start:start + k]
            if length > k:
                w += random_reduced_word(rng, d, length - k)
            texts.append(rotate_right(w, rng.randrange(length)))
    texts.append(random_reduced_word(rng, d, l_p + rng.randint(0, 6)))
    for length in (l_p, l_p + rng.randint(1, 6)):
        texts.append(tuple(s + d if s > 0 else s - d for s in random_reduced_word(rng, d, length)))
    rng.shuffle(texts)
    return texts


def batch_per_text(make, p_word: Word, texts: list[Word]) -> list[tuple[Match | None, dict]]:
    """Each text's Match and counters inside one batch scan of ``texts``.

    ``make()`` builds a fresh strategy.  Every batch builds its own
    per-pattern state once, so that build (``automata_built``) counts in
    the first text only.  The batches of the first k and the first k + 1
    texts differ by text k's counters; every batch must report the same
    Matches for the texts they share.
    """
    out: list[tuple[Match | None, dict]] = []
    before = SearchCounters().to_dict()
    for k in range(1, len(texts) + 1):
        c = SearchCounters()
        found = make().search(p_word, texts[:k], c)
        assert found[:-1] == [m for m, _ in out]
        after = c.to_dict()
        out.append((found[-1], {key: after[key] - before[key] for key in after}))
        before = after
    return out


def naive_circular_substrings(w: Word) -> set[Word]:
    """All nonempty circular substrings of w, up to length len(w)."""
    out: set[Word] = set()
    n = len(w)
    ext = w + w
    for k in range(1, n + 1):
        for i in range(n):
            out.add(ext[i:i + k])
    return out


def step(a: LSAutomaton, state: int, sym: int) -> int | None:
    """One direct transition, the reference for the scan's inlined probe:
    the next state, or None where the automaton has none."""
    return a.nxt[state].get(sym)


def holds(a: LSAutomaton, k: int, state: int) -> bool:
    """Whether the strings of ``state`` occur in word k."""
    return a.last_end[k][state] > 0


def state_count(a: LSAutomaton, k: int = 0) -> int:
    """States whose strings occur in word k."""
    return sum(holds(a, k, s) for s in range(len(a.nxt)))


def walk(a: LSAutomaton, s: Word) -> int | None:
    """The state of s: its walk through the direct transitions from the
    initial state, which succeeds exactly when s is a substring of an
    indexed word; None when it fails."""
    state = 0
    for sym in s:
        state = step(a, state, sym)
        if state is None:
            return None
    return state


def longest_match_lengths(a: LSAutomaton, text: Word) -> list[int]:
    """Per text position, the longest text substring ending there whose
    inverse is a substring of an indexed word: how far the scan's
    backward read, feeding inverted symbols, gets from there."""
    out = []
    for end in range(len(text)):
        start, state = end, 0
        while start >= 0:
            state = step(a, state, -text[start])
            if state is None:
                break
            start -= 1
        out.append(end - start)
    return out


def accepts_substring(a: LSAutomaton, s: Word, k: int = 0) -> bool:
    """Whether s is a (linear) substring of word k: its walk succeeds and
    word k holds the state it ends in."""
    state = walk(a, s)
    return state is not None and holds(a, k, state)


def place(idx: PatternIndex, a: int) -> tuple[bool, int]:
    """An index's int-coded place a, decoded as (inverted, start)."""
    l_p = len(idx.inverse)
    return a >= l_p, a % l_p


def qgram_alignments(idx: PatternIndex, gram: Word) -> list[tuple[bool, int]]:
    """The ordered (inverted, start) occurrences the exact index holds for gram."""
    if gram in idx.repeats:
        return [place(idx, a) for a in idx.repeats[gram]]
    return [place(idx, idx.first[gram])] if gram in idx.first else []


def indexed_windows(idx: PatternIndex) -> int:
    """Occurrences a PatternIndex holds: of q-grams (exact) or of windows (Bloom)."""
    if idx.bloom is None:
        return sum(len(qgram_alignments(idx, gram)) for gram in idx.first)
    return sum(map(len, idx.candidates.values()))


def horner_fingerprint(w: Word, start: int, m: int, base: int) -> int:
    """Karp-Rabin fingerprint of the circular window w[start:start + m],
    evaluated directly by Horner's rule over the codes 2g (g) and 2g + 1
    (g^-1): the reference for the rolled fingerprints."""
    v = 0
    for i in range(start, start + m):
        s = w[i % len(w)]
        v = (v * base + (2 * s if s > 0 else 1 - 2 * s)) % MERSENNE61
    return v


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
                         changes: list[tuple[int, int]],
                         marks: list[tuple[int, int]] = ()
                         ) -> set[tuple[int, int, int]]:
    """The necessary searches among the considered pairs.

    ``changes`` lists (relator id, ordinal of the performed search during
    which the change happened); performed events and searcher invocations
    correspond one to one, in order.  ``marks`` lists (relator id, number
    of events considered before it): relators that count as changed
    between two events, such as those a pass left marked.  A consideration
    is necessary when the pair was never searched before or a member
    changed at or after the pair's previous search (a change during that
    search counts).
    """
    changes_at: dict[int, list[int]] = {}
    for rel_id, ordinal in changes:
        changes_at.setdefault(ordinal, []).append(rel_id)
    marks_at: dict[int, list[int]] = {}
    for rel_id, position in marks:
        marks_at.setdefault(position, []).append(rel_id)
    last_search: dict[frozenset[int], int] = {}
    last_change: dict[int, int] = {}
    necessary: set[tuple[int, int, int]] = set()
    performed_count = 0
    for t, ev in enumerate(events, start=1):
        for rid in marks_at.get(t - 1, ()):
            last_change[rid] = t - 1
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


def unreached_after_early_end(order: list[int], pass_events: list[SearchEvent],
                              pres: Presentation) -> list[int]:
    """The relators a pass never reached as patterns, if it ended early.

    ``order`` lists the relator ids at the start of the pass.  A pass ends
    after the pattern loop in which a success leaves its text eliminable,
    and that loop is the pass's last: the relators after its pattern are
    unreached.  Read from the events and words alone, not from stamps.
    """
    if not pass_events:
        return []
    last = pass_events[-1].pattern_id
    words = {r.id: r.word for r in pres.rel}
    if not any(e.successful and eliminable(words[e.text_id])
               for e in pass_events if e.pattern_id == last):
        return []
    return order[order.index(last) + 1:]


def theorem_trial(policy: str, seed: int) -> tuple[bool, int]:
    """Scripted passes on a small dense presentation until one changes
    nothing; returns (whether the searches performed are exactly the
    necessary ones, the number of marks).

    A ts-unsorted pass that ends early marks the relators it did not
    reach (tp = -1), and the oracle counts each such relator as changed
    when the pass ends.  ts-sorted marks nothing: its unreached patterns
    keep their stamps, which the one clock keeps comparable.
    """
    rng = random.Random(seed)
    pres = dense_presentation(rng, d_max=4, q_max=12, l_max=10)
    if len(pres.rel) < 2:
        return True, 0
    sort_rel(pres)
    ctx = PassContext(policy=policy)
    init_pass_state(pres, ctx)
    searcher = ScriptedSearcher(seed * 31 + 7)
    events: list[SearchEvent] = []
    marks: list[tuple[int, int]] = []
    for _ in range(80):
        sort_rel(pres)
        order = [r.id for r in pres.rel]
        start = len(events)
        tally = run_pass(pres, ctx, searcher, events.append)
        if policy == "ts-unsorted":
            marks += [(rid, len(events))
                      for rid in unreached_after_early_end(order, events[start:], pres)]
        if not tally.successful:
            break
    ok = necessary_set_oracle(events, searcher.changes, marks) == performed_set(events)
    return ok, len(marks)
