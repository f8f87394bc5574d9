"""Exact rational and integer linear algebra.

Inputs are integer vectors and matrices; `solve` returns `Fraction`s, and
`integer_multiple` scales a rational vector to an integer one.  No floating
point anywhere.  Elimination is fraction-free (Bareiss) so
intermediate entries stay integral and growth stays polynomial; one
forward-elimination routine serves `rank`, `determinant` (the maximal minor
on the pivot rows) and `solve`.  The minor certifies unimodularity without
a Smith form for the simplices that `lattice` cannot already certify from
its facet heights.  The lattice side rests on one Smith normal form per
matrix: kernel lattices, integer solutions for any number of right-hand
sides and inverses of unimodular matrices all read off it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import UsageError


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise UsageError(f"dot: dimension mismatch {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def vsub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def integer_multiple(vec: Sequence) -> tuple[tuple[int, ...], int]:
    """(t * vec, t) for the least integer t > 0 making every entry an int.

    Entries may be int or Fraction; both carry a `numerator` and a
    `denominator`, so t * x is the int x.numerator * (t // x.denominator),
    with no Fraction built (Fraction(3) * 1 would still be a Fraction).
    """
    if all(type(x) is int for x in vec):
        return tuple(vec), 1
    t = lcm(*[x.denominator for x in vec])
    return tuple([x.numerator * (t // x.denominator) for x in vec]), t


def _bareiss(m: list[list[int]], ncols: int) -> tuple[list[int], list[int]]:
    """Fraction-free forward elimination of `m` in place.

    Pivots are chosen only among the first `ncols` columns; any columns
    after them (an augmented right-hand side) are carried along.  Returns
    the pivot columns, in order, and the row order: row r of the result
    came from input row `rows[r]` and holds the r-th pivot.
    """
    nrows = len(m)
    piv_cols: list[int] = []
    rows = list(range(nrows))
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
            rows[r], rows[piv] = rows[piv], rows[r]
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
    return piv_cols, rows


def rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals via fraction-free (Bareiss) elimination."""
    m = [list(row) for row in matrix]
    if not m:
        return 0
    ncols = len(m[0])
    if any(len(row) != ncols for row in m):
        raise UsageError("rank: ragged matrix")
    return len(_bareiss(m, ncols)[0])


def determinant(matrix: Sequence[Sequence[int]]) -> int:
    """The k x k minor of an n x k integer matrix (n >= k) on the rows that
    Bareiss elimination pivots on, taken in their input order.

    For a square matrix this is the determinant.  It is 0 exactly when the
    rank is below k; otherwise it is a nonzero maximal minor, and ±1 proves
    that the gcd of all maximal minors, the index of the column lattice in
    its saturation, is 1.
    """
    n = len(matrix)
    k = len(matrix[0]) if n else 0
    if n < k or any(len(row) != k for row in matrix):
        raise UsageError("determinant: needs an n x k matrix with n >= k")
    if k == 0:
        return 1
    m = [list(row) for row in matrix]
    piv_cols, rows = _bareiss(m, k)
    if len(piv_cols) < k:
        return 0
    # m[k-1][k-1] is the minor on rows[:k] in that order; sort them back
    pivots = rows[:k]
    swaps = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1:])
    return -m[k - 1][k - 1] if swaps % 2 else m[k - 1][k - 1]


def solve(matrix: Sequence[Sequence[int]], rhs: Sequence[int]) -> tuple[Fraction, ...] | None:
    """One exact solution of M x = b over the rationals, or None if the
    system is inconsistent.

    Free variables are set to zero.  Raises UsageError on dimension mismatch.
    """
    nrows = len(matrix)
    if nrows != len(rhs):
        raise UsageError(f"solve: {nrows} rows vs {len(rhs)} rhs entries")
    if nrows == 0:
        return ()
    ncols = len(matrix[0])
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    if any(len(row) != ncols + 1 for row in aug):
        raise UsageError("solve: ragged matrix")
    piv_cols, _ = _bareiss(aug, ncols)
    if any(aug[i][ncols] != 0 for i in range(len(piv_cols), nrows)):
        return None
    sol = [Fraction(0)] * ncols
    for i in range(len(piv_cols) - 1, -1, -1):
        c = piv_cols[i]
        s = Fraction(aug[i][ncols])
        for j in range(c + 1, ncols):
            s -= aug[i][j] * sol[j]
        sol[c] = s / aug[i][c]
    return tuple(sol)


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
    while True:  # enforce the divisibility chain d_i | d_{i+1}
        problem = None
        for i in range(rmax - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if di == 0 and dj != 0:
                problem = ("swap", i)
                break
            if di != 0 and dj % di != 0:
                problem = ("fold", i)
                break
        if problem is None:
            break
        kind, i = problem
        if kind == "swap":
            swap_rows(i, i + 1)
            swap_cols(i, i + 1)
        else:
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
    if nrows == 0:
        return tuple(tuple(int(i == j) for i in range(ncols)) for j in range(ncols))
    _, d, v = smith_normal_form(matrix)
    r = sum(1 for i in range(min(nrows, ncols)) if d[i][i] != 0)
    basis = []
    for j in range(r, ncols):
        basis.append(tuple(v[i][j] for i in range(ncols)))
    return tuple(basis)


def integer_solver(matrix: Sequence[Sequence[int]]):
    """A reader of integer solutions of A x = b, built from one Smith form.

    With U*A*V = D, A x = b has an integer solution exactly when each
    (U*b)_i is divisible by d_i (and is 0 where d_i is 0); then x = V*y
    with y_i = (U*b)_i / d_i.  The returned function maps b to one such x,
    or to None when there is none.
    """
    nrows = len(matrix)
    if nrows == 0:
        return lambda rhs: ()
    ncols = len(matrix[0])
    u, d, v = smith_normal_form(matrix)
    diag = [d[i][i] for i in range(min(nrows, ncols))] + [0] * (nrows - ncols)

    def solve_for(rhs: Sequence[int]) -> tuple[int, ...] | None:
        y = [0] * ncols
        for i, (row, di) in enumerate(zip(u, diag)):
            c = dot(row, rhs)
            if di == 0:
                if c != 0:
                    return None
            elif c % di != 0:
                return None
            else:
                y[i] = c // di
        return tuple(dot(row, y) for row in v)

    return solve_for


def integer_solve(matrix: Sequence[Sequence[int]], rhs: Sequence[int]) -> tuple[int, ...] | None:
    """One integer solution of A x = b, or None if no integral solution exists."""
    return integer_solver(matrix)(rhs)


def unimodular_inverse(u: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Exact inverse of a unimodular integer matrix (still integral).

    One Smith normal form P*u*Q = I gives u = P^-1 * Q^-1, so the inverse
    is Q*P.
    """
    n = len(u)
    if any(len(row) != n for row in u):
        raise UsageError("unimodular_inverse: matrix is not unimodular")
    p, d, q = smith_normal_form(u)
    if any(d[i][i] != 1 for i in range(n)):
        raise UsageError("unimodular_inverse: matrix is not unimodular")
    return tuple(tuple(dot(row, col) for col in zip(*p)) for row in q)
