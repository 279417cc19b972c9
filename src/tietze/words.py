"""Words over a signed generator alphabet.

A generator is a positive integer index and its formal inverse is the
negated index, so a word is a tuple of nonzero ints.  In letter notation
(valid up to 26 generators) ``a = 1``, ``A = -1``: the word "abA" is
``(1, 2, -1)``.  Relators are circular; circularity is realized through
rotation, front extension and modular indexing rather than a dedicated
cyclic container.
"""

from __future__ import annotations

from operator import add, neg

Word = tuple[int, ...]


def word_from_letters(s: str) -> Word:
    """Parse letter notation, lowercase = generator, uppercase = inverse.

    >>> word_from_letters("abAB")
    (1, 2, -1, -2)
    """
    out = []
    for ch in s:
        if "a" <= ch <= "z":
            out.append(ord(ch) - ord("a") + 1)
        elif "A" <= ch <= "Z":
            out.append(-(ord(ch) - ord("A") + 1))
        else:
            raise ValueError(f"not a generator letter: {ch!r}")
    return tuple(out)


def letters(w: Word) -> str:
    """Inverse of :func:`word_from_letters`; only valid for indices <= 26."""
    out = []
    for s in w:
        if not 1 <= abs(s) <= 26:
            raise ValueError(f"symbol {s} has no letter form")
        out.append(chr(ord("a") + s - 1) if s > 0 else chr(ord("A") - s - 1))
    return "".join(out)


def invert(w: Word) -> Word:
    """Formal inverse: reverse the word and invert each symbol.

    >>> letters(invert(word_from_letters("aBc")))
    'CbA'
    """
    return tuple(map(neg, reversed(w)))


def rotate_right(w: Word, i: int) -> Word:
    """Move the last ``i mod len(w)`` symbols to the front.

    >>> letters(rotate_right(word_from_letters("abc"), 1))
    'cab'
    """
    if i < 0:
        raise ValueError("rotation count must be non-negative")
    n = len(w)
    if n == 0:
        return w
    k = i % n  # k = 0 gives w back
    return w[n - k:] + w[:n - k]


def free_reduce(w: Word) -> Word:
    """Cancel adjacent inverse pairs until none remain.

    A word with no adjacent pair summing to 0 is already reduced and comes
    back as a tuple, itself when it is one.
    """
    if all(map(add, w, w[1:])):
        return tuple(w)
    out: list[int] = []
    for s in w:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def cyclic_reduce(w: Word) -> Word:
    """Strip mutually inverse first/last symbols of a freely reduced word."""
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo] == -w[hi - 1]:
        lo += 1
        hi -= 1
    return w[lo:hi]


def reduce_cyclic_word(w: Word) -> Word:
    """Full normalization for a relator: free then cyclic reduction."""
    return cyclic_reduce(free_reduce(w))


def eliminable(w: Word) -> bool:
    """Whether relator ``w`` eliminates a generator by a substitution alone.

    A word of one symbol, or of two symbols over two different generators,
    solves for its highest generator with no other relator's help: what
    ``engine.short_eliminate`` takes, and what ends a replacement pass.

    >>> eliminable((2,)), eliminable((1, -2)), eliminable((2, 2)), eliminable((1, 2, 1))
    (True, True, False, False)
    """
    return len(w) == 1 or len(w) == 2 and abs(w[0]) != abs(w[1])


def extend_front(w: Word, k: int) -> Word:
    """Append the first ``k`` symbols of ``w`` to its end.

    The extension is capped at one extra period: ``k`` may not exceed
    ``len(w)``.
    """
    if not 0 <= k <= len(w):
        raise ValueError(f"extension {k} out of range for word of length {len(w)}")
    return w + w[:k]


def useful_threshold(l_p: int) -> int:
    """Minimal useful common-substring length, ceil((l_p + 1) / 2)."""
    if l_p < 1:
        raise ValueError("empty pattern has no useful substring length")
    return (l_p + 2) // 2


def smallest_period(w: Word) -> int:
    """Smallest p dividing len(w) with w equal to its length-p prefix repeated.

    ``w`` is a nontrivial power iff the result is < len(w).  A divisor p
    is a period iff w[i] == w[i - p] for every i >= p, which is the one
    slice comparison ``w[p:] == w[:-p]``.

    >>> smallest_period(word_from_letters("abab"))
    2
    """
    n = len(w)
    if n < 1:
        raise ValueError("empty word has no period")
    for p in range(1, n):
        if n % p == 0 and w[p:] == w[:-p]:
            return p
    return n


def canonical_rep(w: Word) -> Word:
    """Lexicographically least equivalent of a cyclically reduced word.

    Equal for every rotation of ``w`` and of ``invert(w)``; used for
    duplicate detection.  Symbols compare by signed integer value.  The
    least equivalent starts with the least symbol occurring in any
    equivalent, so only the rotations of ``w`` and of ``invert(w)`` that
    start with that symbol are built and compared, not all 2n of them.
    """
    if len(w) == 0:
        return w
    inv = invert(w)
    least = min(min(w), min(inv))
    return min(base[i:] + base[:i] for base in (w, inv)
               for i, s in enumerate(base) if s == least)
