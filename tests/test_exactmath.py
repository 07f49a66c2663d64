"""Exact linear algebra: frozen examples plus randomized property checks.

The HNF oracle below is an independent implementation (pairwise extended
euclid, no transform tracking) used to cross-check the canonical form.
`frac_rank` and `frac_det` are plain Fraction eliminations, the rank and
determinant references of every test module.
"""

import random
from fractions import Fraction
from math import gcd

from tropint.exactmath import (
    clear_denominators,
    hnf,
    hnf_basis,
    integer_kernel,
    lattice_index,
    primitive_vector,
    solve_integer,
    vec_dot,
    vec_int,
)

import pytest


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def oracle_hnf(rows):
    """Row HNF via pairwise extended euclid; returns the nonzero rows."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    n = len(mat[0])
    piv = 0
    for col in range(n):
        for i in range(piv + 1, len(mat)):
            if mat[i][col] == 0:
                continue
            if mat[piv][col] == 0:
                mat[piv], mat[i] = mat[i], mat[piv]
                continue
            g, s, t = _xgcd(mat[piv][col], mat[i][col])
            p, q = mat[piv][col] // g, mat[i][col] // g
            new_piv = [s * a + t * b for a, b in zip(mat[piv], mat[i])]
            new_i = [-q * a + p * b for a, b in zip(mat[piv], mat[i])]
            mat[piv], mat[i] = new_piv, new_i
        if mat[piv][col] == 0:
            continue
        if mat[piv][col] < 0:
            mat[piv] = [-a for a in mat[piv]]
        for i in range(piv):
            q = mat[i][col] // mat[piv][col]
            mat[i] = [a - q * b for a, b in zip(mat[i], mat[piv])]
        piv += 1
        if piv == len(mat):
            break
    return tuple(tuple(r) for r in mat[:piv])


def frac_det(rows):
    mat = [[Fraction(x) for x in r] for r in rows]
    n = len(mat)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if mat[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        for i in range(col + 1, n):
            c = mat[i][col] / mat[col][col]
            mat[i] = [a - c * b for a, b in zip(mat[i], mat[col])]
    return det


def frac_rank(rows):
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(rank + 1, len(mat)):
            c = mat[i][col] / mat[rank][col]
            mat[i] = [a - c * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def random_matrix(rng, m, n, lo=-9, hi=9):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(m))


def awkward_matrix(rng, m, n):
    """Random matrix that is often rank deficient and has zero columns
    (which force a skipped pivot)."""
    mat = [list(r) for r in random_matrix(rng, m, n, -5, 5)]
    if m > 1 and rng.random() < 0.5:
        i, j = rng.sample(range(m), 2)
        c = rng.randint(-2, 2)
        mat[i] = [c * x for x in mat[j]]
    if rng.random() < 0.5:
        col = rng.randrange(n)
        for row in mat:
            row[col] = 0
    return tuple(tuple(r) for r in mat)


def test_primitive_vector():
    assert primitive_vector((4, -6, 2)) == (2, -3, 1)
    assert primitive_vector((0, 0, -5)) == (0, 0, -1)
    with pytest.raises(ValueError):
        primitive_vector((0, 0, 0))


def test_vec_dot_and_vec_int():
    assert vec_dot((1, -2, 3), (4, 5, 6)) == 12
    assert vec_dot((Fraction(1, 2), 3), (4, Fraction(1, 3))) == 3
    assert vec_dot((), ()) == 0
    # like zip, a longer first vector is cut to the second's length
    assert vec_dot((1, 2, 7), (3, 4)) == 11
    assert vec_int((Fraction(4, 2), -3, "5", 2.0, True)) == (2, -3, 5, 2, 1)
    assert all(type(x) is int for x in vec_int((Fraction(-6, 3), 2.0)))
    for bad in ((Fraction(1, 2),), (0, Fraction(-7, 3)), (2.5,), ("1/3",)):
        with pytest.raises(ValueError):
            vec_int(bad)


def test_clear_denominators():
    w, d = clear_denominators((Fraction(1, 2), Fraction(-2, 3), 1))
    assert (w, d) == ((3, -4, 6), 6)
    w, d = clear_denominators((2, 0, -3))
    assert (w, d) == ((2, 0, -3), 1)


def test_hnf_frozen():
    h, u = hnf(((2, 4, 4), (-6, 6, 12), (10, 4, 16)))
    # diagonal product 2*2*156 = |det M| = 624, entries above pivots reduced
    assert h == ((2, 0, 120), (0, 2, 20), (0, 0, 156))
    m = ((2, 4, 4), (-6, 6, 12), (10, 4, 16))
    for i in range(3):
        for j in range(3):
            assert sum(u[i][k] * m[k][j] for k in range(3)) == h[i][j]
    assert abs(frac_det(u)) == 1


def test_hnf_matches_oracle_and_transform():
    rng = random.Random(20240801)
    for _ in range(120):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        mat = random_matrix(rng, m, n)
        h, u = hnf(mat)
        nonzero = tuple(r for r in h if any(r))
        assert nonzero == oracle_hnf(mat)
        assert all(not any(r) for r in h[len(nonzero):])
        for i in range(m):
            for j in range(n):
                assert sum(u[i][k] * mat[k][j] for k in range(m)) == h[i][j]
        assert abs(frac_det(u)) == 1


def hnf_pivot_product(rows):
    """Product of the pivots of the HNF of a square matrix, 0 when it is
    singular."""
    basis = hnf_basis(rows)
    if len(basis) < len(rows):
        return 0
    out = 1
    for i, row in enumerate(basis):
        out *= row[i]
    return out


def test_rank_and_det():
    """The HNF gives the rank (its nonzero rows) and |det| (the product of
    its pivots), checked against the Fraction references."""
    assert frac_rank(((1, 2), (2, 4))) == 1
    assert frac_rank(()) == 0
    assert frac_det(((3, 1), (1, 2))) == 5
    assert frac_det(()) == 1
    assert len(hnf_basis(((1, 2), (2, 4)))) == 1
    assert hnf_pivot_product(((3, 1), (1, 2))) == 5
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 5)
        mat = random_matrix(rng, n, n)
        assert hnf_pivot_product(mat) == abs(frac_det(mat))
    rng = random.Random(71)
    for _ in range(150):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        mat = awkward_matrix(rng, m, n)
        assert len(hnf_basis(mat)) == frac_rank(mat)
        square = awkward_matrix(rng, n, n)
        assert hnf_pivot_product(square) == abs(frac_det(square))


def test_integer_kernel_properties():
    rng = random.Random(99)
    for _ in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        mat = random_matrix(rng, m, n, -6, 6)
        ker = integer_kernel(mat, n)
        assert len(ker) == n - frac_rank(mat)
        for v in ker:
            assert all(vec_dot(row, v) == 0 for row in mat)
        if ker:
            assert frac_rank(ker) == len(ker)
            # saturation: primitive combinations stay inside
            combo = ker[0]
            assert vec_dot(combo, combo) > 0
    assert integer_kernel((), 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    # saturated: kernel of (1, 1) contains (1, -1), not just (2, -2)
    assert integer_kernel(((2, 2),), 2) == ((1, -1),)


def test_solve_integer():
    assert solve_integer(((2,),), (3,)) is None
    x = solve_integer(((2, 3),), (1,))
    assert 2 * x[0] + 3 * x[1] == 1
    assert solve_integer(((1, 1), (2, 2)), (1, 3)) is None
    rng = random.Random(13)
    for _ in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        mat = random_matrix(rng, m, n, -5, 5)
        xs = tuple(rng.randint(-4, 4) for _ in range(n))
        rhs = tuple(vec_dot(row, xs) for row in mat)
        got = solve_integer(mat, rhs)
        assert got is not None
        assert all(vec_dot(row, got) == rhs[i] for i, row in enumerate(mat))


def test_lattice_index():
    assert lattice_index(((2, 0), (0, 1)), ((1, 0), (0, 1))) == 2
    assert lattice_index(((1, 1), (1, -1)), ((1, 0), (0, 1))) == 2
    assert lattice_index(((3, 3),), ((1, 1),)) == 3
    assert lattice_index((), ()) == 1
    with pytest.raises(ValueError):
        lattice_index(((1, 0),), ((0, 1),))
    with pytest.raises(ValueError):
        lattice_index(((1, 0), (0, 1)), ((2, 0), (0, 1)))
    # same span and determinant ratio 1, but (1, 0) is not in 2Z x Z
    with pytest.raises(ValueError):
        lattice_index(((1, 0), (0, 2)), ((2, 0), (0, 1)))
    # a dependent first family
    with pytest.raises(ValueError):
        lattice_index(((2, 0), (4, 0)), ((1, 0), (0, 1)))


def test_lattice_index_of_random_sublattices():
    """The sublattice C B of the lattice of a basis B has index |det C|;
    B spans a random subspace and is given scrambled, not in HNF."""
    rng = random.Random(31)
    tried = 0
    while tried < 80:
        r = rng.randint(1, 4)
        n = rng.randint(r, 5)
        basis = random_matrix(rng, r, n, -4, 4)
        if frac_rank(basis) < r:
            continue
        coeffs = random_matrix(rng, r, r, -3, 3)
        det = frac_det(coeffs)
        sub = tuple(
            tuple(sum(c * b[j] for c, b in zip(row, basis)) for j in range(n))
            for row in coeffs
        )
        if det == 0:
            with pytest.raises(ValueError):
                lattice_index(sub, basis)
        else:
            assert lattice_index(sub, basis) == abs(det)
        tried += 1


def test_hnf_basis_canonical_for_equal_lattices():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        mat = random_matrix(rng, n, n, -4, 4)
        basis = hnf_basis(mat)
        # random unimodular rescramble: elementary row ops preserve the lattice
        scr = [list(r) for r in mat]
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-3, 3)
                scr[i] = [a + c * b for a, b in zip(scr[i], scr[j])]
        assert hnf_basis(scr) == basis
