"""Longest-substring automaton over one or two words, read backward.

The suffix automaton of a set of words (the DAWG of Blumer et al., at
most 2*(total length) states) recognizes exactly their substrings; each
word is inserted from the initial state, and a string is a substring
exactly when its walk through the direct transitions ``nxt`` from the
initial state succeeds.  Per word k, ``last_end[k][s]`` is the greatest
end position in word k of the strings of state s, or 0 when they do not
occur in word k.

Both modes index, for each word they answer for, its inverse w with its
last m - 1 symbols also written in front, ``w[l_p - m + 1:] + w``:
w = p^-1 in mode ``one``; w = p^-1, then w = p, in mode ``two``.  The
factors of length m of that word are the inverses of the threshold
windows of the circular word w^-1.  Each scan reads every threshold
window of the extended text backward through ``nxt``, feeding inverted
symbols, so a read that reaches the window's first symbol ends in the
state of the window's inverse; a failed read skips the windows it rules
out (the factor principle of Backward DAWG Matching, Crochemore et al.,
Algorithmica 1994).  Mode ``two`` scans each extended text once; mode
``one`` scans it, then, on a miss, the extended inverted text.  One
``automaton_search`` call scans a whole list of texts with one
automaton.  ``windows_scanned`` is the in-order count, added once per
scan: the hit window's end on a hit, the whole extended text on a miss.
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
        # decreasing maxlen visits every state before its parent.
        order = sorted(range(1, len(maxlen)), key=maxlen.__getitem__, reverse=True)
        self.last_end = []  # per word: list over states
        for word_ends in ends:
            greatest = [0] * len(maxlen)
            for pos, s in enumerate(word_ends, 1):
                greatest[s] = pos
            for s in order:
                greatest[link[s]] = max(greatest[link[s]], greatest[s])
            self.last_end.append(greatest)
        self.nxt = nxt


def build_ls_automaton(*words: Word) -> LSAutomaton:
    return LSAutomaton(*words)


def automaton_search(a: LSAutomaton, p_word: Word, t_words: list[Word],
                     counters: SearchCounters) -> list[Match | None]:
    """Automaton-backed ComStr of each text over an automaton prebuilt for the pattern.

    Each scan finds the text's first threshold window (m long) whose
    inverse the automaton holds, and that inverse's state: the pattern
    answers for the window if word 0 holds the state, else the inverse
    (word 1), at its least start ``l_p + m - 1 - last_end[k][state]``.
    The hit is extended from the window's first symbol, as ``kr_search``
    extends its first key window.  A hit on the inverted text (mode
    ``one``) is reflected onto the inverted pattern against the text.
    Returns one optional Match per text.
    """
    l_p = len(p_word)
    m = useful_threshold(l_p)
    nxt, last_end = a.nxt, a.last_end
    inverted_texts = (False,) if len(a.words) == 2 else (False, True)
    found: list[Match | None] = []
    for t_word in t_words:
        # m - 1 < l_p <= l_t: the extension is a proper prefix of the text
        l_t = len(t_word)
        for inverted_text in inverted_texts:
            t = invert(t_word) if inverted_text else t_word
            text = t + t[:m - 1]
            # Feeding text[j], text[j - 1], ... inverted succeeds exactly
            # while the inverse of the window's suffix from j on is a
            # factor.  When it fails at j, every window starting in
            # [pos, j] holds that suffix and cannot match: the next
            # starts at j + 1.
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
            if pos < l_t:
                counters.windows_scanned += pos + m  # in order, up to the window's end
                break
            counters.windows_scanned += l_t + m - 1
        else:
            found.append(None)
            continue
        inverse = not last_end[0][state]
        # the greatest end of the window's inverse in word k is the least
        # start of the window in the circular pattern (k = 0) or inverse
        p_start, t_start = l_p + m - 1 - last_end[inverse][state], pos
        if inverted_text:
            # the hit pairs pattern with invert(text); reflect it onto the
            # inverted pattern equivalent against the original text
            p_start, t_start = l_p - 1 - p_start, l_t - 1 - t_start
        found.append(extend_hit(p_word, t_word, inverse or inverted_text, p_start, t_start,
                                counters))
    return found
