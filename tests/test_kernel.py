import itertools
import math
import random
from fractions import Fraction

import pytest

from clutterlab import kernel
from clutterlab.errors import UsageError

from conftest import det_oracle, rank_oracle


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


def test_rank_identity():
    assert kernel.rank([[1, 0], [0, 1]]) == 2


def test_rank_lifted_square_columns():
    # two pairs of columns share their difference, so the lift loses a rank
    assert kernel.rank(LIFTED_SQUARE) == 3


def test_rank_bipartite_incidence():
    # connected bipartite incidence matrix: rank = vertices - 1
    assert kernel.rank(INCIDENCE_6x8) == 5


def test_rank_empty():
    assert kernel.rank([]) == 0


def test_rank_matches_oracle_and_transpose():
    rng = random.Random(0)
    for _ in range(400):
        nr, nc = rng.randint(0, 5), rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        want = rank_oracle(m)
        assert kernel.rank(m) == want
        if nr:
            t = [[m[i][j] for i in range(nr)] for j in range(nc)]
            assert kernel.rank(t) == want


def test_solve_identity():
    assert kernel.solve([[1, 0], [0, 1]], [3, 5]) == (Fraction(3), Fraction(5))


def test_solve_inconsistent():
    assert kernel.solve([(1, 0), (1, 0)], (1, 2)) is None


def test_solve_lifted_clique_system():
    # the 9x8 system: rows are the lifted clique vectors plus the degree row
    rows = [[INCIDENCE_6x8[i][j] for i in range(6)] for j in range(8)]
    rows.append([1] * 6)
    sol = kernel.solve(rows, [1] * 8 + [3])
    assert sol == tuple([Fraction(1, 2)] * 6)


def test_solve_exactness_random():
    rng = random.Random(1)
    for _ in range(200):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        b = [rng.randint(-4, 4) for _ in range(nr)]
        x = kernel.solve(m, b)
        if x is not None:
            assert all(kernel.dot(row, x) == bi for row, bi in zip(m, b))


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


def test_integer_multiple_uses_least_factor():
    rng = random.Random(4)
    for _ in range(200):
        vec = tuple(
            rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 12))])
            for _ in range(rng.randint(0, 4))
        )
        ints, t = kernel.integer_multiple(vec)
        assert t > 0 and all(type(x) is int for x in ints)
        assert ints == tuple(t * x for x in vec)
        assert ints == tuple(int(x * t) for x in vec)  # the Fraction route
        assert not any(all((s * x).denominator == 1 for x in vec) for s in range(1, t))


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
        assert abs(kernel.determinant(u)) == 1
        assert abs(kernel.determinant(v)) == 1
        diag = [d[i][i] for i in range(min(nr, nc))]
        for i in range(len(diag) - 1):
            assert diag[i] >= 0
            if diag[i] == 0:
                assert diag[i + 1] == 0
            else:
                assert diag[i + 1] % diag[i] == 0


def test_integer_solve_roundtrip():
    rng = random.Random(4)
    for _ in range(150):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        x = [rng.randint(-3, 3) for _ in range(nc)]
        b = [sum(a[i][j] * x[j] for j in range(nc)) for i in range(nr)]
        s = kernel.integer_solve(a, b)
        assert s is not None
        assert all(sum(a[i][j] * s[j] for j in range(nc)) == b[i] for i in range(nr))


def test_integer_solve_no_solution():
    assert kernel.integer_solve([[2]], [1]) is None


def test_integer_solver_reads_every_rhs_off_one_smith_form(monkeypatch):
    smith = kernel.smith_normal_form
    calls = []
    monkeypatch.setattr(kernel, "smith_normal_form", lambda m: calls.append(m) or smith(m))
    rng = random.Random(41)
    nones = 0
    for _ in range(40):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        calls.clear()
        solve_for = kernel.integer_solver(a)
        for _ in range(10):
            x = [rng.randint(-3, 3) for _ in range(nc)]
            reached = [sum(a[i][j] * x[j] for j in range(nc)) for i in range(nr)]
            drawn = [rng.randint(-6, 6) for _ in range(nr)]
            for b in (reached, drawn):
                s = solve_for(b)
                if s is None:
                    assert b is drawn
                    nones += 1
                else:
                    assert all(sum(a[i][j] * s[j] for j in range(nc)) == b[i] for i in range(nr))
        assert len(calls) == 1
    assert nones >= 50


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
        got = kernel.determinant(m)
        assert got == want, (m, got, want)
        if kind == "singular" and n > 1:
            assert got == 0
            kinds[kind] += 1
        elif kind == "swap" and n > 1 and want != 0:
            kinds[kind] += 1
        elif kind == "random":
            kinds[kind] += 1
    assert kernel.determinant([]) == 1
    assert all(count >= 50 for count in kinds.values()), kinds


def test_determinant_of_tall_matrix_is_a_maximal_minor():
    # n x k with n > k: the minor on the pivot rows, in their input order;
    # 0 exactly when the rank is below k
    rng = random.Random(7)
    kinds = {"nonzero": 0, "zero": 0, "leading zero": 0}
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
        got = kernel.determinant(m)
        minors = {det_oracle([m[i] for i in rows]) for rows in itertools.combinations(range(n), k)}
        assert got in minors, (m, got)
        assert (got == 0) == (rank_oracle(m) < k), (m, got)
        kinds["zero" if got == 0 else "nonzero"] += 1
        if trial % 3 == 0 and got != 0:
            kinds["leading zero"] += 1
    assert all(count >= 50 for count in kinds.values()), kinds
    with pytest.raises(UsageError):
        kernel.determinant([[1, 2]])


def test_elimination_on_sparse_matrices():
    # most rows have 0 in the pivot column: Bareiss only rescales them, or
    # keeps them when the pivot equals the previous one
    rng = random.Random(8)
    for _ in range(300):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.choice((0, 0, 0, 0, 1, -1, 2, -3)) for _ in range(nc)] for _ in range(nr)]
        assert kernel.rank(m) == rank_oracle(m), m
        if nr == nc:
            assert kernel.determinant(m) == det_oracle(m), m
        x = [rng.randint(-2, 2) for _ in range(nc)]
        b = [kernel.dot(row, x) for row in m]
        sol = kernel.solve(m, b)
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
        sol = kernel.solve(m, b)
        assert (sol is None) == inconsistent, (m, b)
        if sol is not None:
            assert all(kernel.dot(row, sol) == bi for row, bi in zip(m, b))
        seen[inconsistent] += 1
    assert min(seen.values()) >= 50, seen


def test_unimodular_inverse_of_elementary_products():
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
        inv = kernel.unimodular_inverse(u)
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        assert _matmul([list(r) for r in inv], u) == ident
        assert _matmul(u, [list(r) for r in inv]) == ident


def test_unimodular_inverse_rejects_other_matrices():
    for m in ([[2]], [[1, 2], [3, 4]], [[1, 1], [1, 1]], [[1, 0, 0], [0, 1, 0]]):
        with pytest.raises(UsageError):
            kernel.unimodular_inverse(m)
