"""Longest-substring automaton over one or two pattern words.

The suffix automaton of a set of words (the DAWG of Blumer et al., at
most 2*(total length) states) recognizes exactly their substrings; each
word is inserted from the initial state.  Its transitions are resolved
into flat per-symbol (next state, next length) tables, so a step is one
dictionary probe: next length caps the running length after a fallback
through suffix links.  Per word k, ``first_end[k][s]`` is the least end
position in word k of the strings of state s, and ``owner[k][s]`` is s if
they occur in word k, else the nearest suffix-link ancestor whose do.

Mode ``two`` indexes the extended pattern and its inverse and scans the
extended text once; mode ``one`` indexes the extended pattern and scans
the extended text, then the extended inverted text.  ``windows_scanned``
is counted per indexed word, once per scan: the hit position plus one on
a hit, the whole extended text on a miss.
"""

from __future__ import annotations

from .match import Match, SearchCounters, extend_hit
from .words import Word, extend_front, invert, useful_threshold


class LSAutomaton:
    def __init__(self, *words: Word):
        self.words = words
        # raw suffix automaton arrays; ends[k] lists the state holding each
        # prefix of word k, which stays the longest string of that state
        maxlen = [0]
        link = [-1]
        nxt: list[dict[int, int]] = [{}]
        ends: list[list[int]] = []

        def clone_of(p: int, c: int, q: int) -> int:
            clone = len(maxlen)
            maxlen.append(maxlen[p] + 1)
            link.append(link[q])
            nxt.append(dict(nxt[q]))
            while p >= 0 and nxt[p].get(c) == q:
                nxt[p][c] = clone
                p = link[p]
            link[q] = clone
            return clone

        for word in words:
            last = 0
            ends.append([])
            for c in word:
                q = nxt[last].get(c)
                if q is not None:
                    # the extended prefix is already a substring: reuse its
                    # state when it is the longest there, else split it off
                    last = q if maxlen[last] + 1 == maxlen[q] else clone_of(last, c, q)
                else:
                    cur = len(maxlen)
                    maxlen.append(maxlen[last] + 1)
                    link.append(0)
                    nxt.append({})
                    p = last
                    while p >= 0 and c not in nxt[p]:
                        nxt[p][c] = cur
                        p = link[p]
                    if p >= 0:
                        q = nxt[p][c]
                        link[cur] = q if maxlen[p] + 1 == maxlen[q] else clone_of(p, c, q)
                    last = cur
                ends[-1].append(last)
        self.max_len = maxlen
        # Parents in the suffix-link tree have strictly smaller max_len, so
        # max_len order visits every parent before its children.
        order = sorted(range(len(maxlen)), key=lambda s: maxlen[s])
        never = max(map(len, words)) + 1
        self.first_end, self.owner = [], []  # per word: list over states
        for word_ends in ends:
            first = [never] * len(maxlen)
            for pos, s in enumerate(word_ends, 1):
                first[s] = pos
            for s in reversed(order[1:]):
                first[link[s]] = min(first[link[s]], first[s])
            owner = [0] * len(maxlen)
            for s in order[1:]:
                owner[s] = s if first[s] < never else owner[link[s]]
            self.first_end.append(first)
            self.owner.append(owner)
        # resolve fallbacks: per state, symbol -> (next state, next length)
        table: list[dict[int, tuple[int, int]]] = [dict() for _ in maxlen]
        for s in order:
            if link[s] >= 0:
                table[s] = dict(table[link[s]])
            for c, q in nxt[s].items():
                table[s][c] = (q, maxlen[s] + 1)
        self.table = table


def build_ls_automaton(*words: Word) -> LSAutomaton:
    return LSAutomaton(*words)


# table entry of a symbol absent from a state: back to the initial state
_DEAD = (0, 0)


def _scan(a: LSAutomaton, text: Word, m: int,
          counters: SearchCounters) -> tuple[int, int, int] | None:
    """Word 0's first threshold hit in one scan of text, else word 1's.

    Returns (word index, least end position in that word of the matched
    string, text position) or None.
    """
    table, max_len, owner = a.table, a.max_len, a.owner[0]
    state = length = 0
    second = None
    for idx, sym in enumerate(text):
        state, cap = table[state].get(sym, _DEAD)
        length = length + 1 if length < cap else cap
        if length < m:
            continue
        # the running length is the longer of the words' matches; word 0's
        # grows by at most one per symbol, so its first hit is exactly m long
        o = owner[state]
        if o == state or max_len[o] >= m:
            counters.windows_scanned += idx + 1
            return 0, a.first_end[0][o], idx
        # word 1 holds the running match, m long at its first hit
        if second is None:
            second = (1, a.first_end[1][state], idx)
    # per indexed word: word 0 read the whole text, word 1 up to its hit
    counters.windows_scanned += (len(text) * len(a.words) if second is None
                                 else len(text) + second[2] + 1)
    return second


def automaton_search(a: LSAutomaton, p_word: Word, t_word: Word,
                     counters: SearchCounters) -> Match | None:
    """Automaton-backed ComStr over an automaton prebuilt for the pattern.

    An automaton over the extended pattern and its inverse (mode ``two``)
    scans the extended text once; one over the extended pattern alone
    (mode ``one``) scans the extended text, then the extended inverted text.
    """
    m = useful_threshold(len(p_word))
    # m - 1 < l_p <= l_t: the extension is a proper prefix of the text
    hit = _scan(a, extend_front(t_word, m - 1), m, counters)
    inverted_text = hit is None and len(a.words) == 1
    if inverted_text:
        hit = _scan(a, extend_front(invert(t_word), m - 1), m, counters)
    if hit is None:
        return None
    # map both ends of the hit back onto the original circles
    k, end, idx = hit
    l_p, l_t = len(p_word), len(t_word)
    p_end, t_end = (end - 1) % l_p, idx % l_t
    if inverted_text:
        # the hit pairs pattern with invert(text); reflect it onto the
        # inverted pattern equivalent against the original text
        p_end, t_end = (l_p - 1 - p_end) % l_p, (l_t - 1 - t_end) % l_t
    return extend_hit(p_word, t_word, bool(k) or inverted_text, p_end, t_end, counters)
