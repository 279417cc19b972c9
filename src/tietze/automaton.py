"""Longest-substring automaton over one or two pattern words.

The suffix automaton of a set of words (the DAWG of Blumer et al., at
most 2*(total length) states) recognizes exactly their substrings; each
word is inserted from the initial state.  Its transitions are resolved
into flat per-symbol (next state, next length) tables, so a step is one
dictionary probe: next length caps the running length after a fallback
through suffix links.  Per word k, ``first_end[k][s]`` is the least end
position in word k of the strings of state s, and ``owner[k][s]`` is s if
they occur in word k, else the nearest suffix-link ancestor whose do.

Mode ``two`` indexes the extended pattern and its inverse and scans each
extended text once; mode ``one`` indexes the extended pattern and scans
each extended text, then, on a miss, the extended inverted text.  One
``automaton_search`` call scans a whole list of texts with one automaton.
``windows_scanned`` is counted per indexed word, once per scan: the hit
position plus one on a hit, the whole extended text on a miss.
"""

from __future__ import annotations

from .match import Match, SearchCounters, extend_hit
from .words import Word, invert, useful_threshold


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


def automaton_search(a: LSAutomaton, p_word: Word, t_words: list[Word],
                     counters: SearchCounters) -> list[Match | None]:
    """Automaton-backed ComStr of each text over an automaton prebuilt for the pattern.

    An automaton over the extended pattern and its inverse (mode ``two``)
    scans each extended text once and reports word 0's first threshold hit,
    else word 1's; one over the extended pattern alone (mode ``one``) scans
    the extended text, then the extended inverted text.  Returns one
    optional Match per text.
    """
    l_p = len(p_word)
    m = useful_threshold(l_p)
    table, max_len, first_end = a.table, a.max_len, a.first_end
    owner = a.owner[0]
    words = len(a.words)
    flips = (False,) if words == 2 else (False, True)
    found: list[Match | None] = []
    for t_word in t_words:
        hit = None
        for inverted_text in flips:
            # m - 1 < l_p <= l_t: the extension is a proper prefix of the text
            t = invert(t_word) if inverted_text else t_word
            text = t + t[:m - 1]
            state = length = 0
            second = None
            for idx, sym in enumerate(text):
                state, cap = table[state].get(sym, _DEAD)
                length = length + 1 if length < cap else cap
                if length < m:
                    continue
                # the running length is the longer of the words' matches; word
                # 0's grows by at most one per symbol, so its first hit is
                # exactly m long
                o = owner[state]
                if o == state or max_len[o] >= m:
                    hit = 0, first_end[0][o], idx
                    break
                # word 1 holds the running match, m long at its first hit
                if second is None:
                    second = 1, first_end[1][state], idx
            if hit is not None:
                counters.windows_scanned += hit[2] + 1
                break
            # per indexed word: word 0 read the whole text, word 1 up to its hit
            counters.windows_scanned += (len(text) * words if second is None
                                         else len(text) + second[2] + 1)
            hit = second
            if hit is not None:
                break
        if hit is None:
            found.append(None)
            continue
        # map both ends of the hit back onto the original circles
        k, end, idx = hit
        l_t = len(t_word)
        p_end, t_end = (end - 1) % l_p, idx % l_t
        if inverted_text:
            # the hit pairs pattern with invert(text); reflect it onto the
            # inverted pattern equivalent against the original text
            p_end, t_end = (l_p - 1 - p_end) % l_p, (l_t - 1 - t_end) % l_t
        found.append(extend_hit(p_word, t_word, bool(k) or inverted_text, p_end, t_end, counters))
    return found
