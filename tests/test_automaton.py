import random
from collections import Counter
from itertools import product

import pytest

from helpers import (
    accepts_substring,
    batch_per_text,
    exhaustive_oracle,
    is_valid_match,
    longest_match_lengths,
    mixed_batch,
    random_pair,
    state_count,
    step,
    walk,
)
from tietze import strategies
from tietze.automaton import build_ls_automaton
from tietze.match import SearchCounters, match_from_seed
from tietze.randgen import random_reduced_word
from tietze.strategies import make_strategy
from tietze.words import (
    extend_front,
    free_reduce,
    invert,
    reduce_cyclic_word,
    rotate_right,
    useful_threshold,
    word_from_letters,
)

W = word_from_letters


def naive_longest_match_lengths(pattern, text):
    subs = {pattern[i:j] for i in range(len(pattern)) for j in range(i + 1, len(pattern) + 1)}
    out = []
    for e in range(1, len(text) + 1):
        best = 0
        for s in range(e):
            if text[s:e] in subs:
                best = max(best, e - s)
        out.append(best)
    return out


def test_recognizes_exact_substring_set():
    # exhaustive over a 2-symbol alphabet up to length 8, all candidates
    for n in range(1, 9):
        for word in product((1, -2), repeat=n):
            a = build_ls_automaton(word)
            assert state_count(a) <= 2 * n
            subs = {word[i:j] for i in range(n) for j in range(i + 1, n + 1)}
            for k in range(1, min(n, 4) + 1):
                for cand in product((1, -2, 3), repeat=k):
                    assert accepts_substring(a, cand) == (cand in subs)
            for s in subs:
                assert accepts_substring(a, s)


def test_feeding_pattern_reaches_full_length():
    # the walk of "abc" succeeds, in a state whose greatest end is 3
    a = build_ls_automaton(W("abcd"))
    state = 0
    for sym in W("abc"):
        state = step(a, state, sym)
        assert state is not None
    assert state == walk(a, W("abc")) and a.last_end[0][state] == 3


def test_absent_symbol_has_no_transition():
    a = build_ls_automaton(W("abcd"))
    assert step(a, 0, 26) is None
    assert walk(a, W("bd")) is None


def test_longest_match_lengths_against_naive():
    # an automaton of the pattern's inverse, read backward with inverted
    # symbols, finds the longest pattern substring ending at each position
    rng = random.Random(42)
    for _ in range(150):
        p = random_reduced_word(rng, 3, rng.randint(1, 10))
        t = random_reduced_word(rng, 3, rng.randint(1, 18))
        a = build_ls_automaton(invert(p))
        assert longest_match_lengths(a, t) == naive_longest_match_lengths(p, t)


def test_search_example_both_modes():
    for mode in ("two", "one"):
        m = make_strategy(f"automaton-{mode}").search(W("abc"), [W("dab")], SearchCounters())[0]
        assert m is not None and m.v_len == 2
        assert is_valid_match(m, W("abc"), W("dab"))


def test_modes_agree_on_success():
    rng = random.Random(43)
    two, one = make_strategy("automaton-two"), make_strategy("automaton-one")
    for _ in range(1500):
        p, t = random_pair(rng)
        got_two = two.search(p, [t], SearchCounters())[0] is not None
        got_one = one.search(p, [t], SearchCounters())[0] is not None
        assert got_two == got_one


def test_search_agrees_with_oracle():
    rng = random.Random(44)
    strategies = [make_strategy("automaton-two"), make_strategy("automaton-one")]
    for _ in range(1500):
        p, t = random_pair(rng)
        want = exhaustive_oracle(p, t) is not None
        for strategy in strategies:
            got = strategy.search(p, [t], SearchCounters())[0]
            assert (got is not None) == want
            if got is not None:
                assert is_valid_match(got, p, t)


def test_build_counts_per_search():
    c2, c1 = SearchCounters(), SearchCounters()
    make_strategy("automaton-two").search(W("abc"), [W("dab")], c2)[0]
    make_strategy("automaton-one").search(W("abc"), [W("dab")], c1)[0]
    assert c2.automata_built == 2
    assert c1.automata_built == 1


def window_owners(p, m, mode):
    """Each threshold window of a circular base, with its owners in tie-break
    order: (0, start) for the pattern before (1, start) for its inverse,
    each by least start.  Mode one owns the pattern's windows alone."""
    bases = (p, invert(p)) if mode == "two" else (p,)
    owners = {}
    for k, base in enumerate(bases):
        ext = base + base
        for start in range(len(base)):
            owners.setdefault(ext[start:start + m], []).append((k, start))
    return owners


def first_window(p, t, mode):
    """The first threshold window, in text order, that a circular window of
    the pattern (or, in mode two, of its inverse) equals, found without an
    automaton.  Mode one looks at the text, then at the inverted text.

    Returns the in-order ``windows_scanned`` of the scans and the hit:
    (inverted text, window start, the window's owners), or None.
    """
    l_p, l_t = len(p), len(t)
    m = useful_threshold(l_p)
    owners = window_owners(p, m, mode)
    scanned = 0
    for inverted_text in (False,) if mode == "two" else (False, True):
        text = extend_front(invert(t) if inverted_text else t, m - 1)
        for pos in range(l_t):
            if text[pos:pos + m] in owners:
                return scanned + pos + m, (inverted_text, pos, owners[text[pos:pos + m]])
        scanned += l_t + m - 1
    return scanned, None


def reference_search(p, t, mode, counters):
    """The automaton search of one text, with no automaton.

    At the first window, the pattern answers before its inverse, then the
    least start; the hit is extended from the window's first symbol, and
    a hit on the inverted text is reflected onto the inverted pattern
    against the text.  Counts what the strategy counts: its one build per
    indexed word, the in-order windows and the success.
    """
    l_p, l_t = len(p), len(t)
    counters.automata_built += 2 if mode == "two" else 1
    scanned, hit = first_window(p, t, mode)
    counters.windows_scanned += scanned
    if hit is None:
        return None
    inverted_text, t_start, ((k, p_start), *_) = hit
    if inverted_text:
        found = match_from_seed(p, t, True, l_p - 1 - p_start, l_t - 1 - t_start)
    else:
        found = match_from_seed(p, t, k == 1, p_start, t_start)
    assert found is not None
    counters.successes += 1
    return found


def tie_pattern(rng, d):
    """A random pattern, a power u^k, or a conjugate u.v.u^-1: in the last
    two a threshold window can recur in the pattern or in its inverse, so
    that the tie-break decides the Match."""
    kind = rng.choice(("random", "periodic", "conjugate"))
    if kind == "periodic":
        u = random_reduced_word(rng, d, rng.randint(1, 4))
        return kind, u * rng.randint(2, 12 // len(u) + 1)
    if kind == "conjugate":
        u = random_reduced_word(rng, d, rng.randint(1, 5))
        return kind, free_reduce(u + random_reduced_word(rng, d, rng.randint(1, 4)) + invert(u))
    return kind, random_reduced_word(rng, d, rng.randint(1, 12))


@pytest.mark.parametrize("mode", ["two", "one"])
def test_batch_scan_equals_reference_search(mode):
    # one automaton scans a mixed batch; each text's Match and counters
    # inside it equal the automaton-free reference of that text alone, so
    # nothing carries over between texts; periodic and conjugate patterns
    # make windows recur, where the tie-break decides the Match
    rng = random.Random(47)
    seen = Counter()
    for _ in range(300):
        d = rng.randint(1, 4)
        kind, p = tie_pattern(rng, d)
        texts = mixed_batch(rng, p, d)
        per_text = batch_per_text(lambda: make_strategy(f"automaton-{mode}"), p, texts)
        for i, (t, (m, counts)) in enumerate(zip(texts, per_text)):
            c = SearchCounters()
            assert reference_search(p, t, mode, c) == m
            # the reference counts the build for every text; the batch
            # built once, counted with its first text
            if i:
                c.automata_built = 0
            assert c.to_dict() == counts
            seen["miss" if m is None else "inverted" if m.inverted else "hit"] += 1
            seen["equal length"] += len(t) == len(p)
            if m is not None:
                seen[kind] += 1
                if kind != "random":
                    seen["tie"] += len(first_window(p, t, mode)[1][2]) > 1
    assert min(seen.values()) > 100, seen


def shaped_pair(rng):
    """A pattern of length 1, 2 or more, a text that is often exactly as long,
    symbols from up to 300 generators, and often a piece of the pattern or of
    its inverse written over the text."""
    d = rng.choice((1, 2, 4, rng.randint(5, 300)))
    lp = rng.choice((1, 2, rng.randint(1, 16)))
    lt = lp if rng.random() < 0.3 else rng.randint(lp, 30)
    while True:
        p = random_reduced_word(rng, d, lp)
        t = random_reduced_word(rng, d, lt)
        if rng.random() < 0.7:
            base = invert(p) if rng.random() < 0.5 else p
            chunk = rotate_right(base, rng.randrange(lp))[:rng.randint(1, lp)]
            cut = rng.randint(0, lt - len(chunk))
            t = reduce_cyclic_word(t[:cut] + chunk + t[cut + len(chunk):])
        if len(t) == lt:
            return p, t


def test_search_equals_reference_scan():
    rng = random.Random(45)
    hits = {"short": 0, "equal": 0, "wide": 0, "inverted": 0}
    for _ in range(2500):
        p, t = shaped_pair(rng)
        for mode in ("two", "one"):
            want_c, got_c = SearchCounters(), SearchCounters()
            want = reference_search(p, t, mode, want_c)
            got = make_strategy(f"automaton-{mode}").search(p, [t], got_c)[0]
            assert got == want
            assert got_c.to_dict() == want_c.to_dict()
        if want is not None:
            hits["short"] += len(p) <= 2
            hits["equal"] += len(p) == len(t)
            hits["wide"] += max(map(abs, p + t)) > 100
            hits["inverted"] += want.inverted
    assert min(hits.values()) > 50, hits


def naive_last_end(word, s):
    """The greatest end position (one past the last symbol) of s in word."""
    return max(e for e in range(len(s), len(word) + 1) if word[e - len(s):e] == s)


def pattern_and_inverse(rng):
    """A random pattern's inverse and the pattern, front-extended as the
    strategy extends them half the time.  Half the patterns are conjugates
    u.v.u^-1, which share the long factors u and u^-1 with their inverse
    u.v^-1.u^-1."""
    d = rng.choice((2, 3, 5))
    if rng.random() < 0.5:
        u = random_reduced_word(rng, d, rng.randint(1, 6))
        p = free_reduce(u + random_reduced_word(rng, d, rng.randint(1, 4)) + invert(u))
    else:
        p = random_reduced_word(rng, d, rng.randint(1, 12))
    words = (invert(p), p)
    if rng.random() < 0.5:
        cut = len(p) - useful_threshold(len(p)) + 1
        words = tuple(w[cut:] + w for w in words)
    return d, words


def mixed_text(rng, d, words):
    """Random symbols mixed with pieces of the indexed words."""
    text = ()
    while len(text) < 24:
        if rng.random() < 0.6:
            w = rng.choice(words)
            i = rng.randrange(len(w))
            text += w[i:i + rng.randint(1, len(w))]
        else:
            text += random_reduced_word(rng, d, rng.randint(1, 3))
    return text


def test_shared_automaton_answers_for_each_word():
    rng = random.Random(46)
    members = Counter()
    for _ in range(300):
        d, words = pattern_and_inverse(rng)
        a = build_ls_automaton(*words)
        assert len(a.nxt) <= 2 * sum(map(len, words))
        for k, w in enumerate(words):
            subs = {w[i:j] for i in range(len(w)) for j in range(i + 1, len(w) + 1)}
            for _ in range(3):
                text = mixed_text(rng, d, words)
                for i in range(len(text)):
                    piece = text[i:i + rng.randint(1, 8)]
                    assert accepts_substring(a, piece, k) == (piece in subs)
                    members[piece in subs] += 1
            for sub in subs:
                assert accepts_substring(a, sub, k)
                assert a.last_end[k][walk(a, sub)] == naive_last_end(w, sub)
    assert min(members.values()) > 5000, members


class ReadRow(dict):
    """A row of an automaton's direct transitions that counts, in ``reads``,
    the symbols read through it by probe (``get``) and by lookup (``item``)."""

    def __init__(self, row, reads):
        super().__init__(row)
        self.reads = reads

    def get(self, sym, default=None):
        self.reads["get"] += 1
        return dict.get(self, sym, default)

    def __getitem__(self, sym):
        self.reads["item"] += 1
        return dict.__getitem__(self, sym)


def test_one_build_per_pattern_and_one_pass_per_text(monkeypatch):
    builds, reads = [], Counter()
    build = strategies.build_ls_automaton

    def counting_build(*words):
        builds.append(words)
        a = build(*words)
        a.nxt = [ReadRow(row, reads) for row in a.nxt]
        return a

    monkeypatch.setattr(strategies, "build_ls_automaton", counting_build)
    a, b, miss = W("abc"), W("abd"), W("xyzw")
    for mode, words, scans in (("two", 2, 1), ("one", 1, 2)):
        strategy = make_strategy(f"automaton-{mode}")
        builds.clear()
        for p in (a, a, b, a):
            reads.clear()
            counters = SearchCounters()
            assert strategy.search(p, [miss], counters)[0] is None
            # "xyzwx" is read backward from "y", which fails and rules out
            # the windows at 0 and 1, then from "w": 2 probes where a
            # forward scan reads 5; mode one then reads "WZYXW" the same
            # way, from "Z" and from "X"
            assert reads == {"get": 2 * scans}
            # counted in order: the whole extended text, per scan
            assert counters.windows_scanned == scans * (len(miss) + 1)
        # no automaton outlives its call: a repeated pattern builds again
        assert [len(ws) for ws in builds] == [words] * 4
    # a hit on the inverse in mode two: "y" fails, the window "CB" reads
    # back in full (2 probes) and ends in the state of its inverse "bc";
    # no forward re-read; counted in order up to the window's end,
    # position 3 of "xyCBx"
    reads.clear()
    counters = SearchCounters()
    found = make_strategy("automaton-two").search(a, [W("xyCB")], counters)[0]
    assert found is not None and found.inverted
    assert reads == {"get": 3}
    assert counters.windows_scanned == 4
    # the same text in mode one: "xyCBx" misses after 2 probes (5 windows
    # counted); in "bcYXb" the window "bc" reads back in full (2 probes),
    # the first window, counted up to its end
    reads.clear()
    counters = SearchCounters()
    found = make_strategy("automaton-one").search(a, [W("xyCB")], counters)[0]
    assert found is not None and found.inverted
    assert reads == {"get": 4}
    assert counters.windows_scanned == 5 + 2


def cyclically_reduced_words(length, gens=2):
    symbols = [s for g in range(1, gens + 1) for s in (g, -g)]
    return [w for w in product(symbols, repeat=length) if reduce_cyclic_word(w) == w]


def test_backward_scan_equals_reference_on_every_small_pair():
    # every cyclically reduced pattern of length 1-3 on 2 generators
    # against every cyclically reduced text of length |p| to 5, one batch
    # per pattern: thresholds 1 and 2, texts as long as the pattern, and
    # every shortest skip after a failed backward read
    words = {n: cyclically_reduced_words(n) for n in range(1, 6)}
    two = make_strategy("automaton-two")
    outcomes = Counter()
    for l_p in (1, 2, 3):
        texts = [t for n in range(l_p, 6) for t in words[n]]
        for p in words[l_p]:
            got_c, want_c = SearchCounters(), SearchCounters()
            want = [reference_search(p, t, "two", want_c) for t in texts]
            assert two.search(p, texts, got_c) == want
            want_c.automata_built = 2  # the reference builds per text, the batch once
            assert got_c == want_c
            outcomes.update("miss" if m is None else m.inverted for m in want)
    assert min(outcomes.values()) > 1000, outcomes
