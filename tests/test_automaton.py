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
)
from tietze import automaton, strategies
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
    a = build_ls_automaton(W("abcd"))
    state, length = 0, 0
    for sym in W("abc"):
        state, length = step(a, state, length, sym)
    assert length == 3


def test_absent_symbol_falls_to_initial():
    a = build_ls_automaton(W("abcd"))
    state, length = step(a, 0, 0, 26)
    assert (state, length) == (0, 0)


def test_step_increases_length_by_at_most_one():
    rng = random.Random(41)
    for _ in range(100):
        p = random_reduced_word(rng, 4, rng.randint(1, 12))
        t = random_reduced_word(rng, 4, rng.randint(1, 20))
        a = build_ls_automaton(p)
        state, length = 0, 0
        for sym in t:
            state, nlength = step(a, state, length, sym)
            assert nlength <= length + 1
            length = nlength


def test_longest_match_lengths_against_naive():
    rng = random.Random(42)
    for _ in range(150):
        p = random_reduced_word(rng, 3, rng.randint(1, 10))
        t = random_reduced_word(rng, 3, rng.randint(1, 18))
        a = build_ls_automaton(p)
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


def reference_search(p, t, mode, counters):
    """The automaton search with one ``step`` call per symbol and automaton.

    Builds its own single-word automata, one per indexed word, where
    ``automaton_search`` shares one automaton between the pattern and its
    inverse and inlines the step.  Mode two feeds the text to both in
    lockstep and stops at the first symbol where either reaches the
    threshold, preferring the pattern's; mode one scans the text, then the
    inverted text.  The hit is seeded at the window's first symbol, and
    one window is counted per symbol fed.
    """
    l_p, l_t = len(p), len(t)
    m = useful_threshold(l_p)
    bases = (p, invert(p)) if mode == "two" else (p,)
    automata = [build_ls_automaton(extend_front(w, m - 1)) for w in bases]
    counters.automata_built += len(automata)
    for inverted_text in (False,) if mode == "two" else (False, True):
        text = extend_front(invert(t) if inverted_text else t, min(m - 1, l_t))
        runs = [(0, 0)] * len(automata)
        for idx, sym in enumerate(text):
            counters.windows_scanned += 1
            runs = [step(a, state, length, sym) for a, (state, length) in zip(automata, runs)]
            k = next((k for k, (_, length) in enumerate(runs) if length >= m), None)
            if k is None:
                continue
            p_start = automata[k].first_end[0][runs[k][0]] - m
            t_start = idx - m + 1
            if inverted_text:
                found = match_from_seed(p, t, True, (l_p - 1 - p_start) % l_p,
                                        (l_t - 1 - t_start) % l_t)
            else:
                found = match_from_seed(p, t, k == 1, p_start % l_p, t_start % l_t)
            counters.successes += 1
            return found
    return None


@pytest.mark.parametrize("mode", ["two", "one"])
def test_batch_scan_equals_reference_search(mode):
    # one automaton scans a mixed batch; each text's Match and counters
    # inside it equal the reference scan of that text alone, so nothing
    # (state, running length) carries over between texts
    rng = random.Random(47)
    seen = Counter()
    for _ in range(200):
        d = rng.randint(1, 4)
        p = random_reduced_word(rng, d, rng.randint(1, 12))
        texts = mixed_batch(rng, p, d)
        per_text = batch_per_text(lambda: make_strategy(f"automaton-{mode}"), p, texts)
        for i, (t, (m, counts)) in enumerate(zip(texts, per_text)):
            c = SearchCounters()
            assert reference_search(p, t, mode, c) == m
            # the reference builds its automata for every text; the batch
            # built them once, counted with its first text
            if i:
                c.automata_built = 0
            assert c.to_dict() == counts
            seen["miss" if m is None else "inverted" if m.inverted else "hit"] += 1
            seen["equal length"] += len(t) == len(p)
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


def naive_first_end(word, s):
    """The least end position (one past the last symbol) of s in word."""
    return next(e for e in range(len(s), len(word) + 1) if word[e - len(s):e] == s)


def pattern_and_inverse(rng):
    """A random pattern and its inverse, extended as the strategy extends
    them half the time.  Half the patterns are conjugates u.v.u^-1, which
    share the long factors u and u^-1 with their inverse u.v^-1.u^-1."""
    d = rng.choice((2, 3, 5))
    if rng.random() < 0.5:
        u = random_reduced_word(rng, d, rng.randint(1, 6))
        p = free_reduce(u + random_reduced_word(rng, d, rng.randint(1, 4)) + invert(u))
    else:
        p = random_reduced_word(rng, d, rng.randint(1, 12))
    words = (p, invert(p))
    if rng.random() < 0.5:
        words = tuple(extend_front(w, useful_threshold(len(p)) - 1) for w in words)
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
        assert len(a.table) <= 2 * sum(map(len, words))
        for k, w in enumerate(words):
            subs = {w[i:j] for i in range(len(w)) for j in range(i + 1, len(w) + 1)}
            for _ in range(3):
                text = mixed_text(rng, d, words)
                for i in range(len(text)):
                    piece = text[i:i + rng.randint(1, 8)]
                    assert accepts_substring(a, piece, k) == (piece in subs)
                    members[piece in subs] += 1
            for sub in subs:
                state = length = 0
                for sym in sub:
                    state, length = step(a, state, length, sym)
                assert length == len(sub) and accepts_substring(a, sub, k)
                assert a.first_end[k][state] == naive_first_end(w, sub)
    assert min(members.values()) > 5000, members


class FedWord(tuple):
    """A word that counts the symbols read from it by iteration."""

    fed = 0

    def __iter__(self):
        for sym in tuple.__iter__(self):
            self.fed += 1
            yield sym


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
    builds, texts, reads = [], [], Counter()
    build = strategies.build_ls_automaton

    def counting_build(*words):
        builds.append(words)
        a = build(*words)
        a.nxt = [ReadRow(row, reads) for row in a.nxt]
        return a

    def fed_enumerate(iterable, start=0):
        # mode one's scan enumerates its extended text, a tuple; the build
        # enumerates lists of prefix ends
        if isinstance(iterable, tuple):
            texts.append(FedWord(iterable))
            iterable = texts[-1]
        return enumerate(iterable, start)

    monkeypatch.setattr(strategies, "build_ls_automaton", counting_build)
    monkeypatch.setattr(automaton, "enumerate", fed_enumerate, raising=False)
    a, b, miss = W("abc"), W("abd"), W("xyzw")
    for mode, words in (("two", 2), ("one", 1)):
        strategy = make_strategy(f"automaton-{mode}")
        builds.clear()
        for p in (a, a, b, a):
            texts.clear()
            reads.clear()
            counters = SearchCounters()
            assert strategy.search(p, [miss], counters)[0] is None
            if mode == "one":
                # one pass over the extended text and one over the
                # extended inverted text, each read in full; no direct
                # transition is read
                assert len(texts) == 2 and not reads
                assert all(t.fed == len(t) == len(miss) + 1 for t in texts)
                assert counters.windows_scanned == sum(map(len, texts))
            else:
                # no forward pass: "xyzwx" is read backward from "y", which
                # fails and rules out the windows at 0 and 1, then from
                # "w": 2 symbols where a forward scan reads 5
                assert not texts and reads == {"get": 2}
                # counted in order: the whole extended text
                assert counters.windows_scanned == len(miss) + 1
        # no automaton outlives its call: a repeated pattern builds again
        assert [len(ws) for ws in builds] == [words] * 4
    # a hit on the inverse in mode two: "y" fails, the window "CB" reads
    # back in full (2 probes), then forward once for its state (2 lookups);
    # counted in order up to the window's end, position 3 of "xyCBx"
    reads.clear()
    counters = SearchCounters()
    found = make_strategy("automaton-two").search(a, [W("xyCB")], counters)[0]
    assert found is not None and found.inverted
    assert reads == {"get": 3, "item": 2}
    assert counters.windows_scanned == 4


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
