"""Longest-substring automaton over a pattern word.

The automaton recognizes exactly the substrings of the indexed word and,
scanned over a text, yields at each position the length of the longest
indexed substring ending there.  It is a suffix automaton (at most
2*len(P) states) whose transitions are resolved into flat per-symbol
next_state / next_length tables, so a step is a single dictionary probe:
next_length caps the running length after a fallback through suffix
links.  Space is O(len(P) * alphabet) for the resolved tables.

A search builds each extended text once (mode ``two`` scans the same one
with both automata) and scans it with one tight loop.  The loop inlines
``LSAutomaton.step``, which stays as the one-symbol reference: per symbol
it probes the resolved table, unpacks the next state and cap, and raises
the running length by one up to the cap; a dead symbol reads as state 0
with cap 0.  ``windows_scanned`` counts the symbols fed and is added once
per scan: the hit position plus one on a hit, the whole extended text on
a miss.
"""

from __future__ import annotations

from .match import Match, SearchCounters, extend_hit
from .words import Word, extend_front, invert, useful_threshold


class LSAutomaton:
    def __init__(self, word: Word):
        if len(word) < 1:
            raise ValueError("cannot build an automaton for the empty word")
        self.word = word
        # raw suffix automaton arrays
        maxlen = [0]
        link = [-1]
        nxt: list[dict[int, int]] = [{}]
        first_end = [0]
        last = 0
        for i, c in enumerate(word):
            cur = len(maxlen)
            maxlen.append(maxlen[last] + 1)
            link.append(0)
            nxt.append({})
            first_end.append(i + 1)
            p = last
            while p >= 0 and c not in nxt[p]:
                nxt[p][c] = cur
                p = link[p]
            if p >= 0:
                q = nxt[p][c]
                if maxlen[p] + 1 == maxlen[q]:
                    link[cur] = q
                else:
                    clone = len(maxlen)
                    maxlen.append(maxlen[p] + 1)
                    link.append(link[q])
                    nxt.append(dict(nxt[q]))
                    first_end.append(first_end[q])
                    while p >= 0 and nxt[p].get(c) == q:
                        nxt[p][c] = clone
                        p = link[p]
                    link[q] = clone
                    link[cur] = clone
            last = cur
        self.max_len = maxlen
        self.first_end = first_end
        # resolve fallbacks: per state, symbol -> (next state, next length).
        # Parents in the suffix-link tree have strictly smaller max_len, so
        # resolving in max_len order sees the parent table first.
        order = sorted(range(len(maxlen)), key=lambda s: maxlen[s])
        table: list[dict[int, tuple[int, int]]] = [dict() for _ in maxlen]
        for s in order:
            if link[s] >= 0:
                table[s] = dict(table[link[s]])
            for c, q in nxt[s].items():
                table[s][c] = (q, maxlen[s] + 1)
        self.table = table

    def step(self, state: int, length: int, sym: int) -> tuple[int, int]:
        """One scan step; falls back to the initial state on a dead symbol."""
        hit = self.table[state].get(sym)
        if hit is None:
            return 0, 0
        nstate, nlength = hit
        return nstate, min(length + 1, nlength)


def build_ls_automaton(word: Word) -> LSAutomaton:
    return LSAutomaton(word)


# table entry of a symbol absent from a state: back to the initial state
_DEAD = (0, 0)


def _scan_for_match(a: LSAutomaton, scan_text: Word, m: int, p_word: Word, t_word: Word,
                    inverted_pattern: bool, inverted_text: bool,
                    counters: SearchCounters) -> Match | None:
    """Scan one extended text and turn the first threshold hit into a Match."""
    table = a.table
    state = length = 0
    for idx, sym in enumerate(scan_text):
        state, cap = table[state].get(sym, _DEAD)
        length = length + 1 if length < cap else cap
        if length < m:
            continue
        counters.windows_scanned += idx + 1
        # some occurrence of the matched string ends at first_end in the
        # indexed word; map both ends back onto the original circles
        l_p, l_t = len(p_word), len(t_word)
        p_end = (a.first_end[state] - 1) % l_p
        t_end = idx % l_t
        if inverted_text:
            # the hit pairs pattern with invert(text); reflect it onto the
            # inverted pattern equivalent against the original text
            p_end, t_end = (l_p - 1 - p_end) % l_p, (l_t - 1 - t_end) % l_t
        return extend_hit(p_word, t_word, inverted_pattern or inverted_text, p_end, t_end,
                          counters)
    counters.windows_scanned += len(scan_text)
    return None


def automaton_search(automata: tuple[LSAutomaton, ...], p_word: Word, t_word: Word,
                     counters: SearchCounters) -> Match | None:
    """Automaton-backed ComStr over automata prebuilt for the pattern.

    The automata given choose the variant: two (mode ``two``, for the
    extended pattern and its inverse) each scan the extended text; one
    (mode ``one``) scans the extended text, then the extended inverted text.
    """
    m = useful_threshold(len(p_word))
    # m - 1 < l_p <= l_t: the extension is a proper prefix of the text
    scan_text = extend_front(t_word, m - 1)
    found = _scan_for_match(automata[0], scan_text, m, p_word, t_word, False, False, counters)
    if found is not None:
        return found
    if len(automata) == 2:
        return _scan_for_match(automata[1], scan_text, m, p_word, t_word, True, False, counters)
    return _scan_for_match(automata[0], extend_front(invert(t_word), m - 1), m,
                           p_word, t_word, False, True, counters)
