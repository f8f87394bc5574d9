import itertools
import math
import random
from fractions import Fraction

import pytest

from clutterlab import kernel, lattice
from clutterlab.errors import UsageError

from conftest import det_oracle, rank_oracle, solve_oracle


LIFTED_SQUARE = [
    (1, 0, 1, 0, 1),
    (1, 0, 0, 1, 1),
    (0, 1, 1, 0, 1),
    (0, 1, 0, 1, 1),
]

INCIDENCE_6x8 = [
    (1, 1, 1, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 1, 1, 1),
    (1, 0, 0, 0, 1, 0, 0, 0),
    (0, 1, 0, 0, 0, 1, 0, 0),
    (0, 0, 1, 0, 0, 0, 1, 0),
    (0, 0, 0, 1, 0, 0, 0, 1),
]


def smith_rank(matrix):
    """The rank as the kernel lattice shows it: the column count less the
    size of `kernel.integer_kernel_basis`, read off one Smith form."""
    return (len(matrix[0]) if matrix else 0) - len(kernel.integer_kernel_basis(matrix))


def test_rank_identity():
    assert smith_rank([[1, 0], [0, 1]]) == 2


def test_rank_lifted_square_columns():
    # two pairs of columns share their difference, so the lift loses a rank
    assert smith_rank(LIFTED_SQUARE) == 3


def test_rank_bipartite_incidence():
    # connected bipartite incidence matrix: rank = vertices - 1
    assert smith_rank(INCIDENCE_6x8) == 5


def test_rank_empty():
    assert smith_rank([]) == 0


def test_rank_matches_oracle_and_transpose():
    # the Smith form's rank, of a matrix and of its transpose
    rng = random.Random(0)
    for _ in range(400):
        nr, nc = rng.randint(0, 5), rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        want = rank_oracle(m)
        assert smith_rank(m) == want
        if nr:
            t = [[m[i][j] for i in range(nr)] for j in range(nc)]
            assert smith_rank(t) == want


def test_clear_denominators():
    # primitive divides out the common factor, keeping the direction
    assert kernel.primitive((2, 4)) == (1, 2)
    assert kernel.primitive((4, -6)) == (2, -3)
    assert kernel.primitive((0, -3, 0)) == (0, -1, 0)


def test_clear_denominators_returns_int_entries():
    # coprime int entries, of which the input is a positive multiple
    rng = random.Random(3)
    for _ in range(200):
        vec = tuple(rng.randint(-12, 12) for _ in range(rng.randint(1, 4)))
        if not any(vec):
            continue
        got = kernel.primitive(vec)
        assert all(type(x) is int for x in got)
        assert math.gcd(*got) == 1
        g = math.gcd(*vec)
        assert tuple(g * x for x in got) == vec


def test_clear_denominators_zero_vector():
    with pytest.raises(UsageError):
        kernel.primitive((0, 0))


def test_fraction_arithmetic_is_exact():
    rng = random.Random(2)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        assert (a + b) - b == a
        prod = a * b
        assert prod.denominator > 0
        from math import gcd

        assert gcd(abs(prod.numerator), prod.denominator) == 1


def test_smith_normal_form_random():
    rng = random.Random(3)

    def matmul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))
        ]

    for _ in range(150):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        u, d, v = kernel.smith_normal_form(a)
        uav = matmul(matmul([list(r) for r in u], a), [list(r) for r in v])
        for i in range(nr):
            for j in range(nc):
                assert uav[i][j] == d[i][j]
                if i != j:
                    assert d[i][j] == 0
        assert abs(det_oracle(u)) == 1
        assert abs(det_oracle(v)) == 1
        diag = [d[i][i] for i in range(min(nr, nc))]
        for i in range(len(diag) - 1):
            assert diag[i] >= 0
            if diag[i] == 0:
                assert diag[i + 1] == 0
            else:
                assert diag[i + 1] % diag[i] == 0


def test_integer_solve_roundtrip():
    # b = A x for an integer x is feasible by construction
    rng = random.Random(4)
    for _ in range(150):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        x = [rng.randint(-3, 3) for _ in range(nc)]
        b = [sum(a[i][j] * x[j] for j in range(nc)) for i in range(nr)]
        assert kernel.integer_feasible(a)(b) is True


def test_integer_solve_no_solution():
    assert kernel.integer_feasible([[2]])([1]) is False
    assert kernel.integer_feasible([[1], [1]])([1, 2]) is False  # no rational one either
    assert kernel.integer_feasible([])([]) is True


def test_integer_feasible_matches_the_rational_solution():
    # with full column rank the rational solution, if any, is unique
    # (solve_oracle), so an integer one exists exactly when it is integral
    rng = random.Random(5)
    seen = {"integral": 0, "fractional": 0, "inconsistent": 0}
    for _ in range(300):
        nc = rng.randint(1, 3)
        nr = rng.randint(nc, 4)
        a = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        if rank_oracle(a) < nc:
            continue
        feasible = kernel.integer_feasible(a)
        for _ in range(5):
            b = [rng.randint(-6, 6) for _ in range(nr)]
            x = solve_oracle(a, b)
            want = x is not None and all(v.denominator == 1 for v in x)
            assert feasible(b) is want, (a, b)
            seen["inconsistent" if x is None else "integral" if want else "fractional"] += 1
    assert min(seen.values()) >= 50, seen


def test_integer_feasible_reads_every_rhs_off_one_smith_form(monkeypatch):
    smith = kernel.smith_normal_form
    calls = []
    monkeypatch.setattr(kernel, "smith_normal_form", lambda m: calls.append(m) or smith(m))
    rng = random.Random(41)
    infeasible = 0
    for _ in range(40):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        calls.clear()
        feasible = kernel.integer_feasible(a)
        for _ in range(10):
            x = [rng.randint(-3, 3) for _ in range(nc)]
            reached = [sum(a[i][j] * x[j] for j in range(nc)) for i in range(nr)]
            drawn = [rng.randint(-6, 6) for _ in range(nr)]
            assert feasible(reached)
            infeasible += not feasible(drawn)
        assert len(calls) == 1
    assert infeasible >= 50


def test_integer_kernel_basis():
    basis = kernel.integer_kernel_basis([[1, 1, 1]])
    assert len(basis) == 2
    assert all(sum(v) == 0 for v in basis)


def _matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def smith_diagonal(matrix):
    _, d, _ = kernel.smith_normal_form(matrix)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def test_determinant_matches_fraction_oracle():
    # the product of a square matrix's invariant factors is the absolute
    # value of its determinant, 0 exactly when it is singular: the count of
    # box points that `lattice._parallelepiped_points` reads off
    rng = random.Random(5)
    kinds = {"random": 0, "singular": 0, "swap": 0}
    for trial in range(300):
        n = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        kind = ("random", "singular", "swap")[trial % 3]
        if kind == "singular" and n > 1:
            # one row a combination of the others
            i = rng.randrange(n)
            others = [r for r in range(n) if r != i]
            j, k = rng.choice(others), rng.choice(others)
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
        elif kind == "swap" and n > 1:
            # a zero leading entry forces a swap at the first pivot
            m[0][0] = 0
            m[rng.randrange(1, n)][0] = rng.choice((-3, -1, 1, 2))
        want = det_oracle(m)
        assert math.prod(smith_diagonal(m)) == abs(want), m
        if kind == "singular" and n > 1:
            assert want == 0
            kinds[kind] += 1
        elif kind == "swap" and n > 1 and want != 0:
            kinds[kind] += 1
        elif kind == "random":
            kinds[kind] += 1
    assert smith_diagonal([]) == []
    assert all(count >= 50 for count in kinds.values()), kinds


def test_determinant_of_tall_matrix_is_a_maximal_minor():
    # n x k with n > k: the product of the k invariant factors is the gcd of
    # the maximal minors, 0 exactly when the rank is below k; when it is 1
    # the columns span a saturated lattice, a Smith form of all ones, as
    # `lattice` requires of a lineality basis
    rng = random.Random(7)
    kinds = {"full rank": 0, "rank below k": 0, "leading zero": 0, "saturated": 0}
    for trial in range(300):
        k = rng.randint(1, 4)
        n = rng.randint(k + 1, 6)
        m = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
        if trial % 3 == 0:
            # a zero first column on top forces swaps with rows below
            for row in m[: n - 1]:
                row[0] = 0
        elif trial % 3 == 1 and k > 1:
            for row in m:
                row[-1] = 2 * row[0]
        minors = [int(det_oracle([m[i] for i in rows])) for rows in itertools.combinations(range(n), k)]
        diag = smith_diagonal(m)
        assert math.prod(diag) == math.gcd(*minors), (m, diag)
        full = rank_oracle(m) == k
        assert full == any(minors) == all(diag), m
        kinds["full rank" if full else "rank below k"] += 1
        if trial % 3 == 0 and full:
            kinds["leading zero"] += 1
        if diag == [1] * k:
            kinds["saturated"] += 1
    saturated = kinds.pop("saturated")
    assert all(count >= 50 for count in kinds.values()), kinds
    assert saturated >= 20, saturated


def test_elimination_on_sparse_matrices():
    # most entries are 0, so most rows and columns need no reduction at a
    # pivot: the transforms still give U*A*V = D with unimodular U and V,
    # D's diagonal is the divisibility chain, and its product is |det A|
    rng = random.Random(8)
    for _ in range(300):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.choice((0, 0, 0, 0, 1, -1, 2, -3)) for _ in range(nc)] for _ in range(nr)]
        u, d, v = kernel.smith_normal_form(m)
        assert _matmul(_matmul(u, m), v) == [list(row) for row in d], m
        assert abs(det_oracle(u)) == abs(det_oracle(v)) == 1, m
        diag = smith_diagonal(m)
        assert all(d[i][j] == 0 for i in range(nr) for j in range(nc) if i != j), m
        assert all(y % x == 0 if x else y == 0 for x, y in zip(diag, diag[1:])), m
        if nr == nc:
            assert math.prod(diag) == abs(det_oracle(m)), m
        x = [rng.randint(-2, 2) for _ in range(nc)]
        assert kernel.integer_feasible(m)([kernel.dot(row, x) for row in m]), m


def elementary_product(rng, n):
    """A random product of elementary integer row operations: unimodular."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, 12)):
        e = [[int(i == j) for j in range(n)] for i in range(n)]
        i, j = rng.randrange(n), rng.randrange(n)
        op = rng.randrange(3)
        if op == 0 and i != j:
            e[i][j] = rng.randint(-3, 3)  # add a multiple of row j to row i
        elif op == 1:
            e[i], e[j] = e[j], e[i]
        else:
            e[i][i] = -1
        u = _matmul(e, u)
    return u


def test_unimodular_inverse_of_elementary_products():
    # a unimodular U has Smith form U2*U*V2 = I, so V2*U2 is its inverse:
    # the read `lattice._lineality_checks` makes of a Smith transform
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(1, 5)
        u = elementary_product(rng, n)
        u2, d, v2 = kernel.smith_normal_form(u)
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        assert _matmul(_matmul(u2, u), v2) == ident == [list(row) for row in d]
        assert _matmul(_matmul(v2, u2), u) == ident


def test_unimodular_inverse_rejects_other_matrices(monkeypatch):
    # a square matrix that is not unimodular has an invariant factor other
    # than 1, and `lattice` refuses a Smith transform whose own Smith form
    # shows one
    for m in ([[2]], [[1, 2], [3, 4]], [[1, 1], [1, 1]], [[0, 1, 0], [1, 0, 0], [1, 1, 0]]):
        assert smith_diagonal(m) != [1] * len(m), m
    smith = kernel.smith_normal_form

    def doubled_transform(u):
        return (tuple(2 * x for x in u[0]),) + u[1:]

    def repeated_transform(u):
        # singular, though every entry is that of a unimodular matrix
        return (u[0], u[0]) + u[2:]

    for transform in (doubled_transform, repeated_transform):
        spoiled, inverted = [], []

        def spoiling(matrix):
            # every Smith form returns a spoiled transform, except the one
            # taken of such a transform, which `lattice` inverts
            u, d, v = smith(matrix)
            if matrix in spoiled:
                inverted.append(matrix)
                return u, d, v
            spoiled.append(transform(u))
            return spoiled[-1], d, v

        monkeypatch.setattr(kernel, "smith_normal_form", spoiling)
        with pytest.raises(AssertionError, match="Smith transform must be unimodular"):
            lattice.is_hilbert_basis([(1, 0), (-1, 0), (0, 1)])
        assert inverted
