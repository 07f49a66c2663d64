"""Exact integer and rational linear algebra.

All vectors are tuples of ints (lattice vectors) or Fractions (rational
points).  Matrices are tuples of row tuples.  Nothing here ever touches
floating point; every result is exact.  The Hermite normal form is the
one elimination: integer kernels, integer solutions and lattice indices
all come from it, and lattice coordinates from exact division along its
pivots.
"""

from fractions import Fraction
from math import gcd
from operator import mul


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_neg(a):
    return tuple(-x for x in a)


def vec_dot(a, b):
    return sum(map(mul, a, b))


def vec_int(v):
    """The entries of v as ints, or ValueError when one is not an integer.

    Unlike int(), a non-integral Fraction is refused, never truncated.
    """
    out = []
    for x in v:
        if type(x) is not int:
            q = Fraction(x)
            if q.denominator != 1:
                raise ValueError("%s is not an integer" % (x,))
            x = q.numerator
        out.append(x)
    return tuple(out)


def is_zero(a):
    return all(x == 0 for x in a)


def primitive_vector(v):
    """Scale an integer vector down to its primitive representative.

    Raises ValueError on the zero vector.
    """
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def _unit_rows(count, width=None, offset=0):
    """Unit rows e_offset, ..., e_(offset+count-1) of Z^width (width
    defaults to count, giving the identity matrix)."""
    width = count if width is None else width
    return tuple(
        tuple(1 if j == offset + i else 0 for j in range(width)) for i in range(count)
    )


def _pivot_col(row):
    """Column of the first nonzero entry of a nonzero row."""
    return next(j for j, x in enumerate(row) if x)


def clear_denominators(v):
    """Return (w, d) with w an integer vector, d > 0 and w == d*v.

    An entry that is neither an int nor a Fraction is read exactly with
    Fraction() first, never truncated."""
    if all(type(x) is int for x in v):
        return tuple(v), 1
    d = 1
    exact = []
    for x in v:
        if type(x) is not int:
            if not isinstance(x, Fraction):
                x = Fraction(x)
            den = x.denominator
            d = d * den // gcd(d, den)
        exact.append(x)
    return tuple(int(x * d) for x in exact), d


# ---------------------------------------------------------------------------
# Hermite normal form


def hnf(rows):
    """Row Hermite normal form with transform.

    Returns (H, U) where H = U * M, U is unimodular, H is in row echelon
    form with positive pivots and entries above each pivot reduced into
    [0, pivot).  Zero rows of H sit at the bottom.  H is the canonical
    representative of the row lattice of M.
    """
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    piv_row = 0
    for col in range(n):
        # find a row at or below piv_row with a nonzero entry in col
        best = None
        for i in range(piv_row, m):
            if rows[i][col] != 0:
                if best is None or abs(rows[i][col]) < abs(rows[best][col]):
                    best = i
        if best is None:
            continue
        rows[piv_row], rows[best] = rows[best], rows[piv_row]
        u[piv_row], u[best] = u[best], u[piv_row]
        # euclidean elimination below the pivot
        while True:
            done = True
            for i in range(piv_row + 1, m):
                if rows[i][col] != 0:
                    q = rows[i][col] // rows[piv_row][col]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[piv_row])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[piv_row])]
                    if rows[i][col] != 0:
                        rows[i], rows[piv_row] = rows[piv_row], rows[i]
                        u[i], u[piv_row] = u[piv_row], u[i]
                        done = False
            if done:
                break
        if rows[piv_row][col] < 0:
            rows[piv_row] = [-a for a in rows[piv_row]]
            u[piv_row] = [-a for a in u[piv_row]]
        p = rows[piv_row][col]
        for i in range(piv_row):
            q = rows[i][col] // p
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[piv_row])]
                u[i] = [a - q * b for a, b in zip(u[i], u[piv_row])]
        piv_row += 1
        if piv_row == m:
            break
    h = tuple(tuple(r) for r in rows)
    return h, tuple(tuple(r) for r in u)


def hnf_basis(rows):
    """Nonzero rows of the HNF: canonical basis of the row lattice."""
    if not rows:
        return ()
    h, _ = hnf(rows)
    return tuple(r for r in h if not is_zero(r))


# ---------------------------------------------------------------------------
# Kernels and solving


def integer_kernel(rows, dim=None):
    """Basis of the saturated lattice {x in Z^dim : M x = 0}.

    `rows` are the rows of M; `dim` is the number of columns (needed when
    `rows` is empty).
    """
    rows = tuple(tuple(r) for r in rows)
    if not rows:
        if dim is None:
            raise ValueError("dim required for empty matrix")
        return _unit_rows(dim)
    # transpose: left kernel of M^T equals right kernel of M
    cols = len(rows[0])
    mt = tuple(tuple(rows[i][j] for i in range(len(rows))) for j in range(cols))
    h, u = hnf(mt)
    out = tuple(u[i] for i in range(len(h)) if is_zero(h[i]))
    return hnf_basis(out) if out else ()


def solve_integer(rows, rhs):
    """One integer solution x of M x = rhs, or None if none exists."""
    m = len(rows)
    if m == 0:
        return ()
    n = len(rows[0])
    # row HNF of M^T: H = U * M^T, so M x = rhs becomes H^T z = rhs with
    # x = U^T z; H^T is lower triangular, solve by forward substitution.
    mt = tuple(tuple(rows[i][j] for i in range(m)) for j in range(n))
    h, u = hnf(mt)
    z = [0] * n
    residual = list(rhs)
    for i in range(n):
        col_i = tuple(h[i][j] for j in range(m))
        lead = None
        for j in range(m):
            if col_i[j] != 0:
                lead = j
                break
        if lead is None:
            continue
        if residual[lead] % col_i[lead] != 0:
            return None
        t = residual[lead] // col_i[lead]
        z[i] = t
        residual = [residual[j] - t * col_i[j] for j in range(m)]
    if any(residual):
        return None
    x = [0] * n
    for i in range(n):
        if z[i]:
            for j in range(n):
                x[j] += z[i] * u[i][j]
    return tuple(x)


def _lattice_coords(basis, v):
    """Integer coordinates of v in an echelon basis such as an HNF basis,
    or None when v is not in the lattice the basis generates."""
    w = list(v)
    coords = []
    for row in basis:
        p = _pivot_col(row)
        q, rem = divmod(w[p], row[p])
        if rem:
            return None
        coords.append(q)
        if q:
            w = [a - q * b for a, b in zip(w, row)]
    return None if any(w) else tuple(coords)


def lattice_index(sub_basis, basis):
    """Index of the lattice generated by sub_basis inside that of basis.

    Both inputs must be linearly independent families spanning the same
    rational subspace, with the first generating a sublattice of the
    second; otherwise a ValueError is raised.
    """
    r = len(basis)
    if len(sub_basis) != r:
        raise ValueError("sublattice span mismatch")
    hbasis = hnf_basis(basis)
    if len(hbasis) != r:
        raise ValueError("lattice bases must be linearly independent")
    coords = [_lattice_coords(hbasis, b) for b in sub_basis]
    if None in coords:
        raise ValueError("first family is not a sublattice of the second")
    h = hnf_basis(coords)
    if len(h) != r:
        raise ValueError("lattice bases must be linearly independent")
    # the HNF of a full-rank square matrix is upper triangular with
    # positive pivots, and their product is |det|
    index = 1
    for row in h:
        index *= row[_pivot_col(row)]
    return index
