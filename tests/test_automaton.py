import random
from itertools import product

from helpers import (
    accepts_substring,
    exhaustive_oracle,
    is_valid_match,
    longest_match_lengths,
    random_pair,
    state_count,
)
from tietze.automaton import build_ls_automaton
from tietze.match import SearchCounters, match_from_seed
from tietze.randgen import random_reduced_word
from tietze.strategies import AutomatonStrategy
from tietze.words import (
    extend_front,
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
        state, length = a.step(state, length, sym)
    assert length == 3


def test_absent_symbol_falls_to_initial():
    a = build_ls_automaton(W("abcd"))
    state, length = a.step(0, 0, 26)
    assert (state, length) == (0, 0)


def test_step_increases_length_by_at_most_one():
    rng = random.Random(41)
    for _ in range(100):
        p = random_reduced_word(rng, 4, rng.randint(1, 12))
        t = random_reduced_word(rng, 4, rng.randint(1, 20))
        a = build_ls_automaton(p)
        state, length = 0, 0
        for sym in t:
            state, nlength = a.step(state, length, sym)
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
        m = AutomatonStrategy(mode).search(W("abc"), W("dab"), frozenset(), SearchCounters())
        assert m is not None and m.v_len == 2
        assert is_valid_match(m, W("abc"), W("dab"))


def test_modes_agree_on_success():
    rng = random.Random(43)
    two, one = AutomatonStrategy("two"), AutomatonStrategy("one")
    for _ in range(1500):
        p, t = random_pair(rng)
        got_two = two.search(p, t, frozenset(), SearchCounters()) is not None
        got_one = one.search(p, t, frozenset(), SearchCounters()) is not None
        assert got_two == got_one


def test_search_agrees_with_oracle():
    rng = random.Random(44)
    strategies = [AutomatonStrategy("two"), AutomatonStrategy("one")]
    for _ in range(1500):
        p, t = random_pair(rng)
        want = exhaustive_oracle(p, t) is not None
        for strategy in strategies:
            got = strategy.search(p, t, frozenset(), SearchCounters())
            assert (got is not None) == want
            if got is not None:
                assert is_valid_match(got, p, t)


def test_build_counts_per_search():
    c2, c1 = SearchCounters(), SearchCounters()
    AutomatonStrategy("two").search(W("abc"), W("dab"), frozenset(), c2)
    AutomatonStrategy("one").search(W("abc"), W("dab"), frozenset(), c1)
    assert c2.automata_built == 2
    assert c1.automata_built == 1


def reference_search(p, t, mode, counters):
    """The automaton search with one ``LSAutomaton.step`` call per symbol.

    Builds its own automata and counts every symbol as it is fed, where
    ``automaton_search`` inlines the step and counts once per scan.
    """
    l_p, l_t = len(p), len(t)
    m = useful_threshold(l_p)
    automata = [build_ls_automaton(extend_front(p, m - 1))]
    if mode == "two":
        automata.append(build_ls_automaton(extend_front(invert(p), m - 1)))
        second = (automata[1], True, False)
    else:
        second = (automata[0], False, True)
    counters.automata_built += len(automata)
    for a, inverted_pattern, inverted_text in ((automata[0], False, False), second):
        text = extend_front(invert(t) if inverted_text else t, min(m - 1, l_t))
        state, length = 0, 0
        for idx, sym in enumerate(text):
            counters.windows_scanned += 1
            state, length = a.step(state, length, sym)
            if length < m:
                continue
            p_end = (a.first_end[state] - 1) % l_p
            t_end = idx % l_t
            if inverted_text:
                found = match_from_seed(p, t, True, (l_p - 1 - p_end) % l_p,
                                        (l_t - 1 - t_end) % l_t)
            else:
                found = match_from_seed(p, t, inverted_pattern, p_end, t_end)
            counters.successes += 1
            return found
    return None


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
            got = AutomatonStrategy(mode).search(p, t, frozenset(), got_c)
            assert got == want
            assert got_c.to_dict() == want_c.to_dict()
        if want is not None:
            hits["short"] += len(p) <= 2
            hits["equal"] += len(p) == len(t)
            hits["wide"] += max(map(abs, p + t)) > 100
            hits["inverted"] += want.inverted
    assert min(hits.values()) > 50, hits
