import itertools
import math
import random
from fractions import Fraction

import pytest

from clutterlab import kernel, lattice
from clutterlab.errors import UsageError

from conftest import det_oracle, pivot_minor_oracle, rank_oracle, solve_oracle


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


def pivot_minor(matrix):
    """The minor that `kernel.scaled_solve` returns with no right-hand side,
    up to sign: it runs the elimination alone."""
    d, columns = kernel.scaled_solve(matrix, ())
    assert list(columns) == []
    return abs(d)


def test_rank_identity():
    assert smith_rank([[1, 0], [0, 1]]) == 2
    assert pivot_minor([[1, 0], [0, 1]]) == 1


def test_rank_lifted_square_columns():
    # two pairs of columns share their difference, so the lift loses a rank
    assert smith_rank(LIFTED_SQUARE) == 3


def test_rank_bipartite_incidence():
    # connected bipartite incidence matrix: rank = vertices - 1
    assert smith_rank(INCIDENCE_6x8) == 5


def test_rank_empty():
    assert smith_rank([]) == 0
    assert pivot_minor([]) == 1


def test_rank_matches_oracle_and_transpose():
    # the Smith form's rank, and the Bareiss minor on the pivot rows and
    # columns, whose order is the rank
    rng = random.Random(0)
    for _ in range(400):
        nr, nc = rng.randint(0, 5), rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        want = rank_oracle(m)
        assert smith_rank(m) == want
        assert pivot_minor(m) == abs(pivot_minor_oracle(m)) != 0, m
        if nr:
            t = [[m[i][j] for i in range(nr)] for j in range(nc)]
            assert smith_rank(t) == want
            assert pivot_minor(t) == abs(pivot_minor_oracle(t)) != 0, t


def scaled_solution(m, b):
    """The solution of m x = b that `kernel.scaled_solve` scales, as
    Fractions, or None; d is a nonzero integer and d*x an integer vector."""
    d, (x,) = kernel.scaled_solve(m, [b])
    assert type(d) is int and d != 0
    if x is None:
        return None
    assert all(type(v) is int for v in x)
    return tuple(Fraction(v, d) for v in x)


def test_solve_identity():
    got = scaled_solution([[1, 0], [0, 1]], [3, 5])
    assert got == solve_oracle([[1, 0], [0, 1]], [3, 5]) == (Fraction(3), Fraction(5))


def test_solve_inconsistent():
    assert scaled_solution([(1, 0), (1, 0)], (1, 2)) is None
    assert solve_oracle([(1, 0), (1, 0)], (1, 2)) is None


def test_solve_lifted_clique_system():
    # the 9x8 system: rows are the lifted clique vectors plus the degree row
    rows = [[INCIDENCE_6x8[i][j] for i in range(6)] for j in range(8)]
    rows.append([1] * 6)
    sol = scaled_solution(rows, [1] * 8 + [3])
    assert sol == solve_oracle(rows, [1] * 8 + [3]) == tuple([Fraction(1, 2)] * 6)


def test_solve_exactness_random():
    rng = random.Random(1)
    for _ in range(200):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        b = [rng.randint(-4, 4) for _ in range(nr)]
        x = scaled_solution(m, b)
        assert x == solve_oracle(m, b), (m, b)
        if x is not None:
            assert all(kernel.dot(row, x) == bi for row, bi in zip(m, b))


def test_scaled_solve_takes_many_right_hand_sides():
    # one elimination serves every column and each equals its own solve; d
    # is the minor on the pivot rows and columns, up to the row swaps' sign
    rng = random.Random(12)
    for _ in range(200):
        nr, nc = rng.randint(0, 5), rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        rhss = [[rng.randint(-3, 3) for _ in range(nr)] for _ in range(rng.randint(0, 4))]
        d, columns = kernel.scaled_solve(m, rhss)
        columns = list(columns)
        assert len(columns) == len(rhss)
        for b, x in zip(rhss, columns):
            alone = scaled_solution(m, b)
            assert alone == solve_oracle(m, b), (m, b)
            assert alone == (None if x is None else tuple(Fraction(v, d) for v in x))
        if nr and rank_oracle(m) == nr == nc:
            assert abs(d) == abs(det_oracle(m)), m
    with pytest.raises(UsageError):
        kernel.scaled_solve([[1, 2], [3, 4]], [[1, 2, 3]])
    with pytest.raises(UsageError):
        kernel.scaled_solve([[1, 2], [3]], [[1, 2]])
    d, columns = kernel.scaled_solve([], [(), ()])
    assert (d, list(columns)) == (1, [(), ()])


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


def test_determinant_matches_fraction_oracle():
    # with no right-hand side, scaled_solve's minor is the determinant up to
    # sign when the matrix is nonsingular, and the nonzero minor on the
    # pivot rows and columns of lower order when it is singular
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
            # a zero leading entry forces a row swap at the first pivot
            m[0][0] = 0
            m[rng.randrange(1, n)][0] = rng.choice((-3, -1, 1, 2))
        want = det_oracle(m)
        got = pivot_minor(m)
        assert got == abs(pivot_minor_oracle(m)) != 0, (m, got)
        assert (got == abs(want)) == (want != 0), (m, got, want)
        if kind == "singular" and n > 1:
            assert want == 0
            kinds[kind] += 1
        elif kind == "swap" and n > 1 and want != 0:
            kinds[kind] += 1
        elif kind == "random":
            kinds[kind] += 1
    assert pivot_minor([]) == 1
    assert all(count >= 50 for count in kinds.values()), kinds


def test_determinant_of_tall_matrix_is_a_maximal_minor():
    # n x k with n > k and rank k: scaled_solve's minor is the maximal minor
    # on the pivot rows, whose sign `lattice._lexicographic_signs` reads;
    # when it is ±1 the columns span a saturated lattice, so their Smith
    # form is all ones.  With rank below k it is a nonzero minor of lower
    # order and every maximal minor is 0
    rng = random.Random(7)
    kinds = {"full rank": 0, "rank below k": 0, "leading zero": 0}
    unit_minors = 0
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
        got = pivot_minor(m)
        minors = [det_oracle([m[i] for i in rows]) for rows in itertools.combinations(range(n), k)]
        assert got == abs(pivot_minor_oracle(m)) != 0, (m, got)
        full = rank_oracle(m) == k
        assert full == any(minors), m
        if full:
            assert got in {abs(x) for x in minors}, (m, got)
            if got == 1:
                _, d, _ = kernel.smith_normal_form(m)
                assert all(d[i][i] == 1 for i in range(k)), m
                unit_minors += 1
        kinds["full rank" if full else "rank below k"] += 1
        if trial % 3 == 0 and full:
            kinds["leading zero"] += 1
    assert all(count >= 50 for count in kinds.values()), kinds
    assert unit_minors >= 20, unit_minors


def test_elimination_on_sparse_matrices():
    # most rows have 0 in the pivot column: Bareiss only rescales them, or
    # keeps them when the pivot equals the previous one
    rng = random.Random(8)
    for _ in range(300):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.choice((0, 0, 0, 0, 1, -1, 2, -3)) for _ in range(nc)] for _ in range(nr)]
        assert pivot_minor(m) == abs(pivot_minor_oracle(m)), m
        if nr == nc and det_oracle(m):
            assert pivot_minor(m) == abs(det_oracle(m)), m
        x = [rng.randint(-2, 2) for _ in range(nc)]
        b = [kernel.dot(row, x) for row in m]
        sol = scaled_solution(m, b)
        assert sol == solve_oracle(m, b), m
        assert sol is not None and all(kernel.dot(row, sol) == bi for row, bi in zip(m, b)), m


def test_solve_none_exactly_when_rank_grows():
    rng = random.Random(6)
    seen = {True: 0, False: 0}
    for _ in range(400):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        if rng.random() < 0.5:
            x = [rng.randint(-3, 3) for _ in range(nc)]
            b = [sum(r * xi for r, xi in zip(row, x)) for row in m]
        else:
            b = [rng.randint(-3, 3) for _ in range(nr)]
        inconsistent = rank_oracle(m) < rank_oracle([row + [bi] for row, bi in zip(m, b)])
        sol = scaled_solution(m, b)
        assert sol == solve_oracle(m, b), (m, b)
        assert (sol is None) == inconsistent, (m, b)
        if sol is not None:
            assert all(kernel.dot(row, sol) == bi for row, bi in zip(m, b))
        seen[inconsistent] += 1
    assert min(seen.values()) >= 50, seen


def unit_vectors(n):
    return [tuple(int(i == j) for i in range(n)) for j in range(n)]


def test_unimodular_inverse_of_elementary_products():
    # scaled_solve against the unit vectors: a minor d = ±1 and d times each
    # column of the inverse, the read `lattice` makes of a Smith transform
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(1, 5)
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
        d, columns = kernel.scaled_solve(u, unit_vectors(n))
        assert abs(d) == 1
        inv = [[d * x for x in row] for row in zip(*columns)]
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        assert _matmul(u, inv) == ident
        assert _matmul(inv, u) == ident


def test_unimodular_inverse_rejects_other_matrices(monkeypatch):
    # a square matrix that is not unimodular shows a minor other than ±1 or
    # an inconsistent unit vector, and `lattice` refuses a Smith transform
    # that shows either
    for m in ([[2]], [[1, 2], [3, 4]], [[1, 1], [1, 1]], [[0, 1, 0], [1, 0, 0], [1, 1, 0]]):
        d, columns = kernel.scaled_solve(m, unit_vectors(len(m)))
        assert abs(d) != 1 or None in list(columns), m
    smith = kernel.smith_normal_form

    def doubled_transform(matrix):
        u, d, v = smith(matrix)
        return (tuple(2 * x for x in u[0]),) + u[1:], d, v

    def repeated_transform(matrix):
        # a singular transform whose pivot minor is still ±1
        u, d, v = smith(matrix)
        return (u[0], u[0]) + u[2:], d, v

    for transform in (doubled_transform, repeated_transform):
        monkeypatch.setattr(kernel, "smith_normal_form", transform)
        with pytest.raises(AssertionError, match="Smith transform must be unimodular"):
            lattice.is_hilbert_basis([(1, 0), (-1, 0), (0, 1)])
