"""Exact linear algebra in integers.

Integers in, integers out: every input is an integer vector or matrix, and
so is every result; rational solutions come as integer numerators over one
common denominator (`scaled_solve`).  No floating point, and no `Fraction`
is built here.  Elimination is fraction-free (Bareiss) so intermediate
entries stay integral and growth stays polynomial.  Its one entry point,
`scaled_solve`, returns the minor on the pivot rows and columns with the
scaled solutions: against a simplex's perturbation vectors, the signs of
their coordinates (`lattice._lexicographic_signs`); against the unit
vectors, the inverse of a unimodular matrix (`lattice._lineality_checks`).
The lattice side rests on one Smith normal form per matrix: box points read
off it, and so do kernel lattices and integer feasibility, whether A x = b
has an integer solution, for any number of right-hand sides b.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Iterator, Sequence

from .errors import UsageError


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise UsageError(f"dot: dimension mismatch {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def _bareiss(m: list[list[int]], ncols: int) -> list[int]:
    """Fraction-free forward elimination of `m` in place.

    Pivots are chosen only among the first `ncols` columns; any columns
    after them (an augmented right-hand side) are carried along.  Returns
    the pivot columns, in order; row r of the result holds the r-th pivot.
    """
    nrows = len(m)
    piv_cols: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(piv_cols)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        top = m[r]
        p = top[c]
        for i in range(r + 1, nrows):
            # rows r and below are zero left of column c, so whole-row
            # updates keep them zero; a row with 0 at c is still rescaled
            # by p / prev, since skipping that breaks exact division later
            row = m[i]
            q = row[c]
            if q:
                m[i] = [(p * x - q * y) // prev for x, y in zip(row, top)]
            elif p != prev:
                m[i] = [p * x // prev for x in row]
        prev = p
        piv_cols.append(c)
    return piv_cols


def scaled_solve(
    matrix: Sequence[Sequence[int]], rhss: Sequence[Sequence[int]]
) -> tuple[int, Iterator[tuple[int, ...] | None]]:
    """Exact solutions of M x = b for any number of right-hand sides b, as
    integers over one common denominator.

    Returns (d, columns).  d is the nonzero minor of M on the rows and
    columns that one Bareiss elimination of [M | b_1 | b_2 | ...] pivots on
    (1 when M is zero).  columns yields, in the order of `rhss`, d*x for the
    solution x of M x = b whose free variables are zero, or None when that
    system is inconsistent; each is back-substituted when it is reached, so
    a caller that stops early pays for the elimination alone.  By Cramer's
    rule each d*x_j is an integer, so every division of the
    back-substitution is exact, and x_j has the sign of d times that of
    d*x_j.  Raises UsageError on dimension mismatch.
    """
    nrows = len(matrix)
    if any(len(b) != nrows for b in rhss):
        raise UsageError(f"scaled_solve: {nrows} rows vs a right-hand side of another length")
    ncols = len(matrix[0]) if nrows else 0
    m = [list(row) + [b[i] for b in rhss] for i, row in enumerate(matrix)]
    if any(len(row) != ncols + len(rhss) for row in m):
        raise UsageError("scaled_solve: ragged matrix")
    piv_cols = _bareiss(m, ncols)
    r = len(piv_cols)
    # row r - 1 of the echelon form starts with the minor on the pivot rows
    # and columns; the rows below it hold (r+1)-minors that vanish exactly
    # when the system is consistent
    d = m[r - 1][piv_cols[-1]] if r else 1
    pivots = list(zip(m, piv_cols))[::-1]
    below = m[r:]

    def back_substitute(col: int) -> tuple[int, ...] | None:
        if any([row[col] for row in below]):
            return None
        x = [0] * ncols
        for row, c in pivots:
            x[c] = (d * row[col] - sum(map(mul, row[c + 1:ncols], x[c + 1:]))) // row[c]
        return tuple(x)

    return d, map(back_substitute, range(ncols, ncols + len(rhss)))


def primitive(vec: Sequence[int]) -> tuple[int, ...]:
    """The integer vector `vec` divided by the gcd of its entries: the
    primitive vector with the same direction."""
    g = gcd(*vec)
    if g == 0:
        raise UsageError("primitive: zero vector")
    return tuple([x // g for x in vec])


# ---------------------------------------------------------------------------
# Integer lattice algebra (Smith normal form and friends)
# ---------------------------------------------------------------------------


def smith_normal_form(matrix: Sequence[Sequence[int]]):
    """Smith normal form with transforms: returns (U, D, V), U*A*V = D.

    U (rows x rows) and V (cols x cols) are unimodular; D is diagonal with
    d_1 | d_2 | ... >= 0.  Straightforward pivoting implementation, adequate
    at desk scale.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    a = [list(row) for row in matrix]
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    rmax = min(nrows, ncols)

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def diagonalize_from(t0: int):
        for t in range(t0, rmax):
            piv = None
            best = None
            for i in range(t, nrows):
                for j in range(t, ncols):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                        best = abs(a[i][j])
                        piv = (i, j)
            if piv is None:
                return
            swap_rows(t, piv[0])
            swap_cols(t, piv[1])
            while True:
                for i in range(t + 1, nrows):
                    if a[i][t] != 0:
                        row_op(i, t, a[i][t] // a[t][t])
                rem = [i for i in range(t + 1, nrows) if a[i][t] != 0]
                if rem:
                    swap_rows(t, min(rem, key=lambda i: abs(a[i][t])))
                    continue
                for j in range(t + 1, ncols):
                    if a[t][j] != 0:
                        col_op(j, t, a[t][j] // a[t][t])
                rem = [j for j in range(t + 1, ncols) if a[t][j] != 0]
                if rem:
                    swap_cols(t, min(rem, key=lambda j: abs(a[t][j])))
                    continue
                break
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
                u[t] = [-x for x in u[t]]

    diagonalize_from(0)
    # enforce the divisibility chain d_i | d_{i+1}; `diagonalize_from` stops
    # only where all that is left is zero, so zero diagonal entries come last
    while True:
        i = next((i for i in range(rmax - 1) if a[i][i] and a[i + 1][i + 1] % a[i][i]), None)
        if i is None:
            break
        col_op(i, i + 1, -1)  # creates an off-diagonal entry, then redo
        diagonalize_from(i)
    return (
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in a),
        tuple(tuple(r) for r in v),
    )


def integer_kernel_basis(matrix: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Basis of the lattice {x in Z^n : A x = 0} (columns of V at zero pivots)."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    _, d, v = smith_normal_form(matrix)
    r = sum(1 for i in range(min(nrows, ncols)) if d[i][i] != 0)
    basis = []
    for j in range(r, ncols):
        basis.append(tuple(v[i][j] for i in range(ncols)))
    return tuple(basis)


def integer_feasible(matrix: Sequence[Sequence[int]]):
    """A test of whether A x = b has an integer solution, built from one
    Smith form.

    With U*A*V = D, x = V*y turns A x = b into D y = U*b, so it has an
    integer solution exactly when each (U*b)_i is divisible by d_i (and is 0
    where d_i is 0, and in the rows of D past its last column).  The
    returned function maps b to that verdict; it reads U and D alone.
    """
    u, d, _ = smith_normal_form(matrix)
    diag = [row[i] if i < len(row) else 0 for i, row in enumerate(d)]

    def feasible(rhs: Sequence[int]) -> bool:
        for row, di in zip(u, diag):
            c = dot(row, rhs)
            if (c % di if di else c) != 0:
                return False
        return True

    return feasible
