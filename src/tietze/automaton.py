"""Longest-substring automaton over one or two pattern words.

The suffix automaton of a set of words (the DAWG of Blumer et al., at
most 2*(total length) states) recognizes exactly their substrings; each
word is inserted from the initial state.  Its transitions are resolved
into flat per-symbol (next state, next length) tables, so a step is one
dictionary probe: next length caps the running length after a fallback
through suffix links.  Per word k, ``first_end[k][s]`` is the least end
position in word k of the strings of state s, or one more than the
longest word's length when they do not occur in word k.

Mode ``two`` indexes the extended pattern and its inverse and reads
each threshold window of each extended text backward through the
direct transitions ``nxt``, skipping the windows a failed read rules out
(the factor principle of Backward DAWG Matching, Crochemore et al.,
Algorithmica 1994); mode ``one`` indexes the extended pattern and scans
each extended text, then, on a miss, the extended inverted text.  One
``automaton_search`` call scans a whole list of texts with one automaton.
``windows_scanned`` is the in-order count, added once per scan: the hit
window's end on a hit, the whole extended text on a miss.
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
        # Parents in the suffix-link tree have strictly smaller maxlen, so
        # maxlen order visits every parent before its children.
        order = sorted(range(len(maxlen)), key=lambda s: maxlen[s])
        never = max(map(len, words)) + 1
        self.first_end = []  # per word: list over states
        for word_ends in ends:
            first = [never] * len(maxlen)
            for pos, s in enumerate(word_ends, 1):
                first[s] = pos
            for s in reversed(order[1:]):
                first[link[s]] = min(first[link[s]], first[s])
            self.first_end.append(first)
        # resolve fallbacks: per state, symbol -> (next state, next length)
        table: list[dict[int, tuple[int, int]]] = [dict() for _ in maxlen]
        for s in order:
            if link[s] >= 0:
                table[s] = dict(table[link[s]])
            for c, q in nxt[s].items():
                table[s][c] = (q, maxlen[s] + 1)
        self.table = table
        self.nxt = nxt  # the direct transitions alone


def build_ls_automaton(*words: Word) -> LSAutomaton:
    return LSAutomaton(*words)


# table entry of a symbol absent from a state: back to the initial state
_DEAD = (0, 0)


def automaton_search(a: LSAutomaton, p_word: Word, t_words: list[Word],
                     counters: SearchCounters) -> list[Match | None]:
    """Automaton-backed ComStr of each text over an automaton prebuilt for the pattern.

    Each scan finds the text's first threshold window (m long) that the
    automaton holds, and that window's own state: the pattern (word 0)
    answers for it if it holds it, else the inverse (word 1), at its least
    end.  The hit is extended from the window's first symbol, as
    ``kr_search`` extends its first key window.  An automaton over the
    extended pattern and its inverse (mode ``two``) reads the windows of
    the extended text backward, and a hit window forward once for its
    state.  One over the extended pattern alone (mode ``one``) feeds the
    extended text forward and stops where the running length reaches m:
    it grows by at most one per symbol, so that window is m long and the
    state is its own.  On a miss it does the same on the extended
    inverted text.  Returns one optional Match per text.
    """
    l_p = len(p_word)
    m = useful_threshold(l_p)
    table, nxt, first_end = a.table, a.nxt, a.first_end
    in_pattern = len(a.words[0])  # a larger first_end[0]: not in the pattern
    two = len(a.words) == 2
    found: list[Match | None] = []
    for t_word in t_words:
        # m - 1 < l_p <= l_t: the extension is a proper prefix of the text
        l_t = len(t_word)
        inverted_text = False
        if two:
            text = t_word + t_word[:m - 1]
            # Up to length m, the factors of the two extended words are the
            # cyclic factors of the pattern and of its inverse, a set closed
            # under inversion.  So feeding text[j], text[j - 1], ... inverted
            # succeeds exactly while the window's suffix from j on is a
            # factor.  When it fails at j, every window starting in [pos, j]
            # holds that suffix and cannot match: the next starts at j + 1.
            pos = 0
            while pos < l_t:
                j = pos + m - 1
                state = 0
                while j >= pos:
                    state = nxt[state].get(-text[j])
                    if state is None:
                        break
                    j -= 1
                else:
                    break
                pos = j + 1
            if pos >= l_t:
                counters.windows_scanned += l_t + m - 1
                found.append(None)
                continue
            counters.windows_scanned += pos + m  # in order, up to the window's end
            state = 0
            for sym in text[pos:pos + m]:
                state = nxt[state][sym]
        else:
            for inverted_text in (False, True):
                t = invert(t_word) if inverted_text else t_word
                text = t + t[:m - 1]
                state = length = 0
                for idx, sym in enumerate(text):
                    state, cap = table[state].get(sym, _DEAD)
                    length = length + 1 if length < cap else cap
                    if length == m:
                        break
                counters.windows_scanned += idx + 1  # the whole text on a miss
                if length == m:
                    break
            if length < m:
                found.append(None)
                continue
            pos = idx - m + 1
        inverse = first_end[0][state] > in_pattern
        # the window starts at end - m in its word and at pos in the text
        p_start, t_start = first_end[inverse][state] - m, pos
        if inverted_text:
            # the hit pairs pattern with invert(text); reflect it onto the
            # inverted pattern equivalent against the original text
            p_start, t_start = l_p - 1 - p_start, l_t - 1 - t_start
        found.append(extend_hit(p_word, t_word, inverse or inverted_text, p_start, t_start,
                                counters))
    return found
