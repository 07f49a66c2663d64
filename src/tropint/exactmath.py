"""Exact integer and rational linear algebra.

All vectors are tuples of ints (lattice vectors) or Fractions (rational
points).  Matrices are tuples of row tuples.  Nothing here ever touches
floating point; every result is exact.  Rank, determinants, rational
solving and span membership share one fraction-free (Bareiss) elimination;
lattice coordinates come from exact division along HNF pivots.
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
    """Return (w, d) with w an integer vector, d > 0 and w == d*v."""
    if all(type(x) is int for x in v):
        return tuple(v), 1
    d = 1
    for x in v:
        if isinstance(x, Fraction):
            den = x.denominator
            d = d * den // gcd(d, den)
    return tuple(int(x * d) for x in v), d


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


def _echelon(mat, ncols):
    """Fraction-free (Bareiss) row echelon form of an integer matrix.

    `mat` is a list of integer row lists, reduced in place; pivots are
    sought in its first `ncols` columns, later columns (a right-hand side)
    are carried along.  Returns (pivot columns, sign of the row
    permutation).  Row r < rank has its pivot in column pivots[r]; rows
    from rank on are zero in the first `ncols` columns.  Pivot rows hold
    minors of the input, and a square matrix of full rank ends in its
    determinant times the sign.

    A row with a zero in the pivot column is left as it is instead of
    being scaled by pivot / previous pivot; `scale[i]` records the pivot
    row i was last brought up to date with, so that every division stays
    exact when the row is next used.
    """
    m = len(mat)
    scale = [1] * m
    pivots = []
    sign = 1
    prev = 1
    for col in range(ncols):
        rank = len(pivots)
        if rank == m:
            break
        for piv in range(rank, m):
            if mat[piv][col]:
                break
        else:
            continue
        if piv != rank:
            mat[rank], mat[piv] = mat[piv], mat[rank]
            scale[rank], scale[piv] = scale[piv], scale[rank]
            sign = -sign
        if scale[rank] != prev:
            mat[rank] = [a * prev // scale[rank] for a in mat[rank]]
        prow = mat[rank]
        p = prow[col]
        for i in range(rank + 1, m):
            row = mat[i]
            c = row[col]
            if c:
                mat[i] = [(p * a - c * b) // scale[i] for a, b in zip(row, prow)]
                scale[i] = p
        prev = p
        pivots.append(col)
    return pivots, sign


def rank_int(rows):
    """Rank over Q of a matrix with integer or Fraction entries."""
    mat = [list(clear_denominators(r)[0]) for r in rows]
    return len(_echelon(mat, len(mat[0]) if mat else 0)[0])


def det_int(rows):
    """Determinant of a square integer matrix."""
    n = len(rows)
    mat = [list(r) for r in rows]
    pivots, sign = _echelon(mat, n)
    if len(pivots) < n:
        return 0
    return sign * mat[-1][-1] if n else 1


# ---------------------------------------------------------------------------
# Kernels, saturation, solving


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


def saturate(rows, dim):
    """Canonical HNF basis of Z^dim intersected with the span of `rows`."""
    rows = [r for r in rows if not is_zero(r)]
    if not rows:
        return ()
    ker = integer_kernel(rows, dim)
    if not ker:
        return _unit_rows(dim)
    return integer_kernel(ker, dim)


def _reduce_system(rows, rhs):
    """Echelon form of [M | rhs] and its pivot columns, or None when
    M x = rhs has no rational solution."""
    n = len(rows[0]) if rows else 0
    mat = [list(clear_denominators(tuple(r) + (b,))[0]) for r, b in zip(rows, rhs)]
    pivots, _ = _echelon(mat, n)
    if any(row[n] for row in mat[len(pivots):]):
        return None
    return mat, pivots


def solve_rational(rows, rhs):
    """Solve M x = rhs exactly over the rationals.

    Returns (x, kernel_basis) with x a tuple of Fractions and kernel_basis
    a tuple of rational vectors spanning the solution space of M x = 0, or
    None when the system is inconsistent.  x is zero on the free columns;
    kernel vector i is one on the i-th free column and zero on the others.
    """
    reduced = _reduce_system(rows, rhs)
    if reduced is None:
        return None
    mat, pivots = reduced
    n = len(rows[0]) if rows else 0

    def back_substitute(v, t):
        # pivot unknowns of v from U v = t * rhs, free unknowns already set
        for r in range(len(pivots) - 1, -1, -1):
            row, col = mat[r], pivots[r]
            s = t * row[n] - sum(row[j] * v[j] for j in range(col + 1, n))
            v[col] = Fraction(s, row[col])
        return tuple(v)

    x = back_substitute([Fraction(0)] * n, 1)
    kernel = []
    for f in range(n):
        if f not in pivots:
            v = [Fraction(0)] * n
            v[f] = Fraction(1)
            kernel.append(back_substitute(v, 0))
    return x, tuple(kernel)


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


def member_of_span(rows, v):
    """True iff v lies in the rational span of `rows`."""
    if not rows:
        return is_zero(v)
    return _reduce_system(tuple(zip(*rows)), v) is not None


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
    det = det_int(coords)
    if det == 0:
        raise ValueError("lattice bases must be linearly independent")
    return abs(det)
