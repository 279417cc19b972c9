import hashlib
import random
from itertools import combinations
from math import gcd, prod
from pathlib import Path

from tietze import verify
from tietze.engine import EngineConfig, simplify
from tietze.presentation import make_presentation, parse_presentation
from tietze.randgen import random_presentation, random_reduced_word
from tietze.verify import abelian_invariants, exponent_matrix, smith_normal_form
from tietze.words import invert, rotate_right, word_from_letters

W = word_from_letters


def minors_gcd(matrix, k):
    """gcd of all k x k minors (0 when they all vanish)."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0

    def det(rs, cs):
        n = len(rs)
        if n == 0:
            return 1
        if n == 1:
            return matrix[rs[0]][cs[0]]
        total = 0
        for k, c in enumerate(cs):
            sub = det(rs[1:], cs[:k] + cs[k + 1:])
            total += (-1) ** k * matrix[rs[0]][c] * sub
        return total

    g = 0
    for rs in combinations(range(rows), k):
        for cs in combinations(range(cols), k):
            g = gcd(g, det(list(rs), list(cs)))
    return g


def minor_gcd_divisors(matrix):
    """Independent oracle: elementary divisors from k x k minor gcds."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    divisors = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = minors_gcd(matrix, k)
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return divisors


def test_exponent_matrix_examples():
    assert exponent_matrix(make_presentation(2, [W("abAB")])) == [[0, 0]]
    assert exponent_matrix(make_presentation(2, [W("aab")])) == [[2, 1]]
    assert exponent_matrix(make_presentation(3, [])) == []


def test_snf_examples():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[1, 0], [0, 0]]) == [1]
    assert smith_normal_form([[0]]) == []


def test_abelian_invariant_examples():
    assert abelian_invariants(make_presentation(1, [(1, 1)])) == ([2], 0)
    assert abelian_invariants(make_presentation(2, [W("abAB")])) == ([], 2)
    assert abelian_invariants(make_presentation(1, [(1,)])) == ([], 0)


def test_snf_against_minor_gcd_oracle():
    rng = random.Random(61)
    for _ in range(150):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        got = smith_normal_form(m)
        assert got == minor_gcd_divisors(m)
        for a, b in zip(got, got[1:]):
            assert b % a == 0


def test_snf_divisibility_chain_larger():
    rng = random.Random(62)
    for _ in range(40):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        d = smith_normal_form(m)
        assert all(b % a == 0 for a, b in zip(d, d[1:]))


def test_invariants_stable_under_equivalence_moves():
    rng = random.Random(63)
    for _ in range(60):
        d = rng.randint(1, 5)
        words = [random_reduced_word(rng, d, rng.randint(1, 10))
                 for _ in range(rng.randint(1, 6))]
        base = abelian_invariants(make_presentation(d, words))
        rotated = [rotate_right(w, rng.randint(0, len(w))) for w in words]
        inverted = [invert(w) if rng.random() < 0.5 else w for w in words]
        shuffled = words[:]
        rng.shuffle(shuffled)
        for variant in (rotated, inverted, shuffled):
            assert abelian_invariants(make_presentation(d, variant)) == base


def test_unused_generators_add_free_rank_and_no_columns(monkeypatch):
    # generators that occur in no relator add to the free rank only: the
    # exponent matrix has a column for each generator that occurs, ascending
    widths = []

    def watched(matrix):
        widths.append(max(map(len, matrix), default=0))
        return smith_normal_form(matrix)

    monkeypatch.setattr(verify, "smith_normal_form", watched)
    rng = random.Random(64)
    for _ in range(60):
        d = rng.randint(1, 6)
        words = [random_reduced_word(rng, d, rng.randint(1, 10))
                 for _ in range(rng.randint(0, 6))]
        occurring = {abs(s) for w in words for s in w}
        torsion, rank = abelian_invariants(make_presentation(d, words))
        for added in (1, rng.randint(2, 50), 200000):
            widths.clear()
            assert abelian_invariants(make_presentation(d + added, words)) == (torsion, rank + added)
            assert widths == [len(occurring)]
    assert exponent_matrix(make_presentation(9, [(7, 2, 7), (2, -9)])) == [[1, 2, 0], [1, 0, -1]]


def test_invariants_preserved_by_simplify():
    rng = random.Random(64)
    for _ in range(40):
        d = rng.randint(1, 5)
        p = make_presentation(d, [random_reduced_word(rng, d, rng.randint(1, 10))
                                  for _ in range(rng.randint(0, 8))])
        before = abelian_invariants(p)
        simplify(p, EngineConfig())
        assert abelian_invariants(p) == before


def test_snf_divisor_products_are_minor_gcds():
    # d_1 * ... * d_k = gcd of the k x k minors, for every k; entries of
    # both signs and mixed sizes exercise the nearest-quotient reduction
    rng = random.Random(65)
    for _ in range(120):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        bound = rng.choice((3, 30, 1000))
        m = [[rng.randint(-bound, bound) if rng.random() < 0.7 else 0
              for _ in range(cols)] for _ in range(rows)]
        d = smith_normal_form(m)
        for k in range(1, min(rows, cols) + 1):
            assert minors_gcd(m, k) == (prod(d[:k]) if k <= len(d) else 0), (m, d)


def test_snf_obfuscated_fibonacci_67():
    # F(2,7) behind 60 added generators: a 67 x 67 exponent matrix whose
    # coefficients grew without bound under floor-quotient reduction
    text = (Path(__file__).parent / "data" / "fibonacci_2_7_obfuscated_67.pres").read_text()
    p = parse_presentation(text)
    m = exponent_matrix(p)
    assert (len(m), len(m[0])) == (67, 67)
    assert abelian_invariants(p) == ([29], 0)


SNF_DIGEST = "4c12d8c096e13eba3933b78c86478fdbdb69ab873f742288eb08149739f67c61"


def snf_guard_matrices():
    """Matrices too large for the minor-gcd oracle, shaped like real inputs."""
    text = (Path(__file__).parent / "data" / "fibonacci_2_7_obfuscated_67.pres").read_text()
    yield exponent_matrix(parse_presentation(text))
    rng = random.Random(66)
    # the benchmark's motif and dense shapes: 120 x 3 and 300 x 4
    for _ in range(6):
        yield exponent_matrix(random_presentation(rng, 3, 120, 120, "small-alphabet-long"))
    for _ in range(6):
        words = [random_reduced_word(rng, 4, rng.randint(6, 16)) for _ in range(300)]
        yield exponent_matrix(make_presentation(4, words))
    for _ in range(20):
        rows, cols = rng.randint(20, 60), rng.randint(20, 60)
        yield [[rng.randint(-30, 30) if rng.random() < 0.3 else 0 for _ in range(cols)]
               for _ in range(rows)]


def test_snf_digest_on_large_matrices():
    # a change to the reduction that keeps every divisor keeps this digest
    divisors = [smith_normal_form(m) for m in snf_guard_matrices()]
    assert hashlib.sha256(repr(divisors).encode()).hexdigest() == SNF_DIGEST
