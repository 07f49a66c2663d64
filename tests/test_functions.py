"""PL functions and divisors: corner loci, kink functions, pullbacks."""

import collections
import random
from fractions import Fraction

import pytest

from tropint import functions
from tropint.functions import (
    CartierExpression,
    PLFunction,
    UnbalancedCycleError,
    add_functions,
    affine_function,
    divisor,
    max_poly_function,
    pullback_function,
    ray_function,
    scale_function,
)
from tropint.exactmath import integer_kernel, vec_dot
from tropint.intersect import (
    intersect_cycles,
    linear_space_context,
    product_context,
    star_context,
)
from tropint.linspace import (
    _symbol_expression,
    build_fnk,
    build_lnk,
    fnk_cycle,
    rn_cycle,
)
from tropint.polyhedra import (
    Complex,
    TropicalGeometryError,
    VerificationError,
    _refine,
    add_cycles,
    clear_caches,
    common_refinement,
    cone_from_generators,
    cross,
    cycles_equal,
    degree,
    diagonal_cycle,
    empty_cycle,
    facet_data,
    lattice_normal,
    make_cell,
    make_cycle,
    scale_cycle,
    stellar_subdivide,
)

F = Fraction


def real_line_cycle():
    return make_cycle(
        1, 1, [(make_cell(1, vertices=[(0,)], lineality=[(1,)]), 1)]
    )


def plane_cycle():
    return make_cycle(
        2,
        1 + 1,
        [
            (
                make_cell(2, vertices=[(0, 0)], lineality=[(1, 0), (0, 1)]),
                1,
            )
        ],
    )


def tropical_max_xy():
    """max(0, x, y) on the fan that makes it cellwise linear."""
    carrier = Complex(
        2,
        [
            cone_from_generators(2, [(-1, 0), (0, -1)]),
            cone_from_generators(2, [(0, -1), (1, 1)]),
            cone_from_generators(2, [(-1, 0), (1, 1)]),
        ],
    )
    return max_poly_function(carrier, [((0, 0), 0), ((1, 0), 0), ((0, 1), 0)])


def l21_cycle():
    return make_cycle(
        2,
        1,
        [
            (cone_from_generators(2, [(-1, 0)]), 1),
            (cone_from_generators(2, [(0, -1)]), 1),
            (cone_from_generators(2, [(1, 1)]), 1),
        ],
    )


def l32_cycle():
    """The codimension-one fan on the rays -e_0, ..., -e_3 in R^3."""
    rays = [(1, 1, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    cells = [
        (cone_from_generators(3, [rays[i], rays[j]]), 1)
        for i in range(4)
        for j in range(i + 1, 4)
    ]
    return make_cycle(3, 2, cells)


def test_max_on_line():
    carrier = Complex(
        1,
        [
            make_cell(1, vertices=[(0,)], rays=[(-1,)]),
            make_cell(1, vertices=[(0,)], rays=[(1,)]),
        ],
    )
    phi = max_poly_function(carrier, [((0,), 0), ((1,), 0)])
    assert phi.value((-5,)) == 0
    assert phi.value((F(7, 2),)) == F(7, 2)
    d = divisor(phi, real_line_cycle())
    assert d.cells == ((make_cell(1, vertices=[(0,)]), 1),)
    assert degree(d) == 1


def test_max_poly_needs_fine_carrier():
    whole = Complex(1, [make_cell(1, vertices=[(0,)], lineality=[(1,)])])
    with pytest.raises(TropicalGeometryError):
        max_poly_function(whole, [((0,), 0), ((1,), 0)])


def test_corner_locus_of_max_xy():
    phi = tropical_max_xy()
    assert phi.value((3, 1)) == 3
    assert phi.value((-2, -7)) == 0
    d = divisor(phi, plane_cycle())
    assert cycles_equal(d, l21_cycle())
    dd = divisor(phi, d)
    assert dd.cells == ((make_cell(2, vertices=[(0, 0)]), 1),)
    assert degree(dd) == 1


def test_divisor_of_affine_function_vanishes():
    aff = affine_function(2, (3, -2), 5)
    assert divisor(aff, l21_cycle()).is_empty
    assert divisor(aff, plane_cycle()).is_empty


def test_divisor_additive_in_the_function():
    x = l21_cycle()
    phi = tropical_max_xy()
    aff = affine_function(2, (1, 1), 0)
    s = add_functions(phi, aff)
    assert cycles_equal(divisor(s, x), divisor(phi, x))
    doubled = scale_function(phi, 2)
    d1 = divisor(phi, x)
    d2 = divisor(doubled, x)
    assert degree(d2) == 2 * degree(d1)


def test_divisor_requires_balancing():
    halfline = make_cycle(2, 1, [(cone_from_generators(2, [(1, 0)]), 1)])
    with pytest.raises(UnbalancedCycleError):
        divisor(tropical_max_xy(), halfline)


def test_divisor_refines_cycle_to_carrier():
    # the cycle is one cell; the carrier forces a subdivision at 0
    phi_carrier = Complex(
        1,
        [
            make_cell(1, vertices=[(0,)], rays=[(-1,)]),
            make_cell(1, vertices=[(0,)], rays=[(1,)]),
        ],
    )
    phi = max_poly_function(phi_carrier, [((0,), 0), ((2,), 0)])
    line = make_cycle(1, 1, [(make_cell(1, vertices=[(5,)], lineality=[(1,)]), 3)])
    d = divisor(phi, line)
    assert d.cells == ((make_cell(1, vertices=[(0,)]), 6),)

    # the x-axis lies in faces shared by two quadrants whose covectors for
    # max(0, x) + max(0, +-y) differ off the axis; whichever quadrant the
    # refinement reports, only max(0, x) along the axis counts
    signs = (1, -1)
    quadrants = Complex(
        2, [cone_from_generators(2, [(sx, 0), (0, sy)]) for sx in signs for sy in signs]
    )
    axis = make_cycle(2, 1, [(make_cell(2, vertices=[(0, 0)], lineality=[(1, 0)]), 1)])
    halves = make_cycle(2, 1, [(cone_from_generators(2, [(s, 0)]), 1) for s in signs])
    origin = make_cell(2, vertices=[(0, 0)])
    for sy in signs:
        phi = max_poly_function(
            quadrants, [((0, 0), 0), ((1, 0), 0), ((0, sy), 0), ((1, sy), 0)]
        )
        for x in (axis, halves):
            assert divisor(phi, x).cells == ((origin, 1),)


def test_divisor_outside_carrier_fails():
    phi_carrier = Complex(1, [make_cell(1, vertices=[(0,)], rays=[(1,)])])
    phi = max_poly_function(phi_carrier, [((1,), 0)])
    with pytest.raises(TropicalGeometryError):
        divisor(phi, real_line_cycle())


def test_ray_function_values():
    fan = l21_cycle()
    phi = ray_function(fan, {(-1, 0): 2, (0, -1): 3, (1, 1): 5})
    assert phi.value((-4, 0)) == 8
    assert phi.value((0, -2)) == 6
    assert phi.value((3, 3)) == 15
    zero = ray_function(fan, {})
    assert zero.value((-4, 0)) == 0
    with pytest.raises(TropicalGeometryError):
        ray_function(plane_cycle(), {})  # not pointed
    # a value off the rays would be dropped: a multiple of a ray and
    # vectors outside the support are refused
    for off in ((2, 2), (-2, 0), (-1, -1)):
        with pytest.raises(TropicalGeometryError, match=r"\(%d, %d\)" % off):
            ray_function(fan, {(1, 1): 1, off: 1})


def test_kink_function_on_subdivided_fan():
    x = l32_cycle()
    x = stellar_subdivide(x, (-1, -1, 0))
    x = stellar_subdivide(x, (1, 1, 0))
    psi = add_functions(
        ray_function(x, {(1, 1, 1): 1}),
        scale_function(ray_function(x, {(-1, -1, 0): 1}), -1),
    )
    assert psi.value((1, 1, 1)) == 1
    assert psi.value((-2, -2, 0)) == -2
    assert psi.value((2, 2, 1)) == 1
    assert psi.value((2, 2, -1)) == 0
    assert psi.value((1, 1, 0)) == 0
    # corner cycle: exactly the two subdivision rays, weight one each
    c = divisor(psi, x)
    assert cycles_equal(
        c,
        make_cycle(
            3,
            1,
            [
                (cone_from_generators(3, [(-1, -1, 0)]), 1),
                (cone_from_generators(3, [(1, 1, 0)]), 1),
            ],
        ),
    )


def test_kink_function_on_curve():
    x = l32_cycle()
    x = stellar_subdivide(x, (-1, -1, 0))
    x = stellar_subdivide(x, (1, 1, 0))
    psi = add_functions(
        ray_function(x, {(1, 1, 1): 1}),
        scale_function(ray_function(x, {(-1, -1, 0): 1}), -1),
    )
    curve = make_cycle(
        3,
        1,
        [
            (cone_from_generators(3, [(-2, -3, 0)]), 1),
            (cone_from_generators(3, [(2, 2, -1)]), 1),
            (cone_from_generators(3, [(0, 1, 1)]), 1),
        ],
    )
    d = divisor(psi, curve)
    assert d.cells == ((make_cell(3, vertices=[(0, 0, 0)]), -1),)
    assert degree(d) == -1


def test_add_functions_needs_carriers_of_one_support():
    # on L^2_1, and on a complete fan of R^2; each sub-fan misses a cone
    l21 = l21_cycle().complex()
    quadrants = Complex(
        2,
        [
            cone_from_generators(2, [(1, 0), (0, 1)]),
            cone_from_generators(2, [(0, 1), (-1, 0)]),
            cone_from_generators(2, [(-1, 0), (0, -1)]),
            cone_from_generators(2, [(0, -1), (1, 0)]),
        ],
    )
    for fan, value in [(l21, {(1, 1): 2}), (quadrants, {(1, 0): 1, (0, -1): 3})]:
        whole = ray_function(fan, value)
        part = ray_function(Complex(2, fan.maximal[:2]), {})
        for f, g in [(part, whole), (whole, part)]:
            with pytest.raises(TropicalGeometryError):
                add_functions(f, g)


def test_add_functions_on_two_subdivisions_of_one_fan():
    # the sum lives on the common refinement of two stellar subdivisions
    # and is f + g at the relative interior point of each of its cells
    x = l32_cycle()
    f = ray_function(
        stellar_subdivide(x, (-1, -1, 0)), {(1, 1, 1): 1, (-1, -1, 0): 2, (0, 0, -1): -1}
    )
    g = ray_function(
        stellar_subdivide(x, (1, 1, 0)), {(1, 1, 0): -1, (-1, 0, 0): 3, (0, -1, 0): 1}
    )
    for s in (add_functions(f, g), add_functions(g, f)):
        assert len(s.cells) == len(f.cells) + 1 == len(g.cells) + 1 == 8
        for cell in s.cells:
            p = cell.relint_point()
            assert s.form_at(p) == s.form_on(cell)
            assert s.value(p) == f.value(p) + g.value(p)
        assert cycles_equal(
            make_cycle(3, 2, [(c, 1) for c in s.cells]), x
        )


def test_pullback_function():
    carrier = Complex(
        1,
        [
            make_cell(1, vertices=[(0,)], rays=[(-1,)]),
            make_cell(1, vertices=[(0,)], rays=[(1,)]),
        ],
    )
    phi = max_poly_function(carrier, [((0,), 0), ((1,), 0)])
    pulled = pullback_function(((1, -1),), None, phi)
    assert pulled.ambient_dim == 2
    assert len(pulled.cells) == 2
    rng = random.Random(3)
    for _ in range(25):
        p = (F(rng.randint(-9, 9), 2), F(rng.randint(-9, 9), 2))
        assert pulled.value(p) == phi.value((p[0] - p[1],))
    # affine pullback picks up the translation in the offset
    shifted = pullback_function(((1, 0),), (4,), phi)
    assert shifted.value((1, 7)) == 5
    assert shifted.value((-9, 0)) == 0


def test_pullback_composes_with_forms():
    phi = tropical_max_xy()
    mat = ((1, 0, 2), (0, 1, -1))
    pulled = pullback_function(mat, (1, 0), phi)
    rng = random.Random(8)
    for _ in range(25):
        p = tuple(F(rng.randint(-6, 6), 2) for _ in range(3))
        q = (p[0] + 2 * p[2] + 1, p[1] - p[2])
        assert pulled.value(p) == phi.value(q)


def _seeded_ray_function(fan, rng):
    rays = sorted({r for cone in fan.maximal for r in cone.rays})
    return ray_function(fan, {r: rng.randint(-3, 3) for r in rays})


def _coordinate_maps(m, rng):
    """(name, matrix, translation) for maps onto R^m whose rows are
    distinct unit vectors: a projection, a permutation and f x id for a
    projection f, each with no, an integer and a rational translation."""

    def rows(columns, n):
        return tuple(tuple(int(j == c) for j in range(n)) for c in columns)

    h = m // 2
    f_columns = rng.sample(range(h + 1), h)
    shapes = [
        ("projection", rows(sorted(rng.sample(range(m + 2), m)), m + 2), m),
        ("permutation", rows(rng.sample(range(m), m), m), m),
        ("f x id", rows(f_columns + list(range(h + 1, 2 * h + 1)), 2 * h + 1), h),
    ]
    for name, matrix, moved in shapes:
        pad = (0,) * (m - moved)
        yield name, matrix, None
        yield name, matrix, tuple(rng.randint(-4, 4) for _ in range(moved)) + pad
        yield name, matrix, tuple(
            F(rng.randint(-7, 7), rng.randint(1, 3)) for _ in range(moved)
        ) + pad


def test_pullback_lift_matches_the_cut():
    """Along coordinate maps the lifted preimages are the cells, facets
    and span equations the whole-space cut gives, built from empty caches."""
    rng = random.Random(13)
    f22 = build_fnk(2, 2)
    # the sum of a unimodular cone's rays keeps the subdivision unimodular
    apex = tuple(map(sum, zip(*f22.maximal[0].rays)))
    subdivided = stellar_subdivide(fnk_cycle(2, 2), apex)
    stages = linear_space_context(3, 2).stages
    l32 = {id(phi): phi for st in stages for _, fs in st.terms for phi in fs}
    carriers = [
        ("F^2_2", _seeded_ray_function(f22, rng)),
        ("L^3_2", rng.choice(sorted(l32.values(), key=lambda phi: phi.forms))),
        ("subdivided F^2_2", _seeded_ray_function(subdivided.complex(), rng)),
    ]
    for label, phi in carriers:
        for name, matrix, t in _coordinate_maps(phi.ambient_dim, rng):
            clear_caches()
            lifted = pullback_function(matrix, t, phi)
            clear_caches()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(functions, "_unit_columns", lambda matrix: None)
                cut = pullback_function(matrix, t, phi)
            case = (label, name, t)
            assert lifted.cells == cut.cells and lifted.forms == cut.forms, case
            for a, b in zip(lifted.cells, cut.cells):
                assert (a.hom_facets, a.hom_eqs) == (b.hom_facets, b.hom_eqs), case


def test_pullback_lifts_only_along_coordinate_maps(monkeypatch):
    assert functions._unit_columns(((0, 1, 0), (1, 0, 0))) == [1, 0]
    for matrix in (((1, -1),), ((2, 0),), ((1, 0), (1, 0)), ((-1, 0),)):
        assert functions._unit_columns(matrix) is None
    cuts = []
    real = functions.cut_cell_by_hom_forms
    monkeypatch.setattr(
        functions, "cut_cell_by_hom_forms", lambda *a: cuts.append(a) or real(*a)
    )
    phi = tropical_max_xy()
    pullback_function(((0, 0, 1), (1, 0, 0)), (F(1, 2), 3), phi)
    assert cuts == []
    line = max_poly_function(
        Complex(1, [cone_from_generators(1, [(1,)]), cone_from_generators(1, [(-1,)])]),
        [((0,), 0), ((1,), 0)],
    )
    pullback_function(((1, -1),), None, line)
    assert len(cuts) == len(line.cells)


def test_function_continuity_validation():
    cells = (
        make_cell(1, vertices=[(0,)], rays=[(-1,)]),
        make_cell(1, vertices=[(0,)], rays=[(1,)]),
    )
    good = PLFunction(cells, (((0,), 0), ((1,), 0)))
    good.validate()
    bad = PLFunction(cells, (((0,), 0), ((1,), 1)))
    with pytest.raises(VerificationError):
        bad.validate()


def _loops_nonnegative(dc, do, cell):
    """x -> dc.x + do is >= 0 on the cell, read off its Fraction vertices,
    rays and lineality."""
    return (
        all(vec_dot(dc, v) + do >= 0 for v in cell.vertices)
        and all(vec_dot(dc, r) >= 0 for r in cell.rays)
        and all(vec_dot(dc, l) == 0 for l in cell.lineality)
    )


def _loops_vanish(dc, do, cell):
    """x -> dc.x + do is 0 on the cell, read the same way."""
    return all(vec_dot(dc, v) + do == 0 for v in cell.vertices) and all(
        vec_dot(dc, r) == 0 for r in cell.rays + cell.lineality
    )


def test_difference_forms_on_generators_match_the_vertex_loops():
    """A difference of affine forms read on a cell's homogeneous generators,
    as max_poly_function and PLFunction.validate read it, is >= 0 or 0 on
    seeded cells with rational vertices, rays and lineality exactly when
    the loops over the cell's vertices, rays and lineality say so."""
    rng = random.Random(4242)
    seen = collections.Counter()
    for _ in range(400):
        n = rng.randint(1, 3)

        def rational():
            return F(rng.randint(-6, 6), rng.choice((1, 2, 3)))

        def direction():
            return tuple(rng.randint(-2, 2) for _ in range(n))

        verts = [tuple(rational() for _ in range(n)) for _ in range(rng.randint(1, 3))]
        rays = [direction() for _ in range(rng.randint(0, 2))]
        lin = [direction() for _ in range(rng.choice((0, 0, 1)))]
        cell = make_cell(n, verts, rays, lin)
        dc = direction() if rng.random() < 0.8 else (0,) * n
        # an offset tight at a vertex of the cell, or any rational one
        v = rng.choice(cell.vertices)
        do = -vec_dot(dc, v) if rng.random() < 0.7 else rational()
        cov, off = direction(), rational()
        form, other = (cov, off), (tuple(a - b for a, b in zip(cov, dc)), off - do)
        values = functions._difference_values(form, other, cell)
        nonnegative, vanish = all(x >= 0 for x in values), not any(values)
        assert nonnegative == _loops_nonnegative(dc, do, cell)
        assert vanish == _loops_vanish(dc, do, cell)
        seen[nonnegative, vanish] += 1
    assert min(seen[k] for k in ((False, False), (True, False), (True, True))) >= 30, seen


def test_cartier_expression():
    phi = tropical_max_xy()
    expr = CartierExpression([(1, (phi, phi))])
    assert expr.degree() == 2
    out = expr.apply(plane_cycle())
    assert degree(out) == 1
    combo = CartierExpression([(2, (phi,)), (-1, (phi,))])
    assert cycles_equal(combo.apply(plane_cycle()), l21_cycle())
    empty = CartierExpression([(1, (phi, phi, phi))]).apply(plane_cycle())
    assert empty.is_empty


def test_non_integral_slopes_and_coefficients_are_refused():
    half = F(1, 2)
    space = affine_function(2, (0, 0)).cells
    with pytest.raises(TropicalGeometryError):
        affine_function(2, (half, 1))
    with pytest.raises(TropicalGeometryError):
        PLFunction(space, (((1, F(7, 3)), 0),))
    with pytest.raises(TropicalGeometryError):
        max_poly_function(real_line_cycle(), [((half,), 0)])
    with pytest.raises(TropicalGeometryError):
        scale_function(tropical_max_xy(), half)
    with pytest.raises(TropicalGeometryError):
        ray_function(l21_cycle(), {(1, 1): half})
    with pytest.raises(TropicalGeometryError):
        CartierExpression([(1, ()), (F(3, 2), ())])
    # integral Fractions (and any exact integer) are taken as ints
    phi = affine_function(2, (F(4, 2), 1), F(1, 2))
    assert phi.forms == (((2, 1), F(1, 2)),)
    assert all(type(c) is int for c in phi.forms[0][0])
    assert scale_function(phi, F(-3, 3)).forms == (((-2, -1), F(-1, 2)),)
    assert CartierExpression([(F(6, 3), ())]).terms == ((2, ()),)
    assert ray_function(l21_cycle(), {(1, 1): F(2)}).value((1, 1)) == 2


# -- the factor tree against the term-by-term loop -------------------------


def _reference_divisor(phi, x):
    """The divisor with its own refinement and no shared face data."""
    if x.is_empty or x.dim == 0:
        return empty_cycle(x.ambient_dim)
    refined, origin = _refine(x, phi.carrier)
    cells = [c for c, _ in refined.cells]
    weights = [w for _, w in refined.cells]
    covs = [phi.form_on(origin[cell])[0] for cell in cells]
    n = x.ambient_dim
    items = []
    for tau, around in facet_data(cells).items():
        total = [0] * n
        val = 0
        for idx, form in around:
            u = lattice_normal(cells[idx], tau, form)
            val += weights[idx] * sum(a * b for a, b in zip(covs[idx], u))
            total = [t + weights[idx] * a for t, a in zip(total, u)]
        if not tau.spans_direction(tuple(total)):
            raise UnbalancedCycleError("unbalanced")
        weight = val - sum(a * b for a, b in zip(covs[around[0][0]], total))
        items.append((tau, weight))
    return make_cycle(n, x.dim - 1, items)


def _term_by_term(expr, x):
    """The expression applied one term at a time, one divisor per factor."""
    result = empty_cycle(x.ambient_dim)
    for coeff, factors in expr.terms:
        cur = x
        for phi in factors:
            cur = _reference_divisor(phi, cur)
            if cur.is_empty:
                break
        result = add_cycles(result, scale_cycle(cur, coeff))
    return result


def _assert_tree_is_term_by_term(stages, x):
    for stage in stages:
        got, want = stage.apply(x), _term_by_term(stage, x)
        assert cycles_equal(got, want)
        x = got
        if x.is_empty:
            break
    return x


def _seeded_curve(rng):
    """A balanced fan curve in L^3_2: the divisor of a seeded ray function
    on L^3_2 subdivided along the sum of two of its rays."""
    rays = [(1, 1, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    a, b = rng.sample(rays, 2)
    r = tuple(p + q for p, q in zip(a, b))
    x = stellar_subdivide(l32_cycle(), r)
    while True:
        values = {ray: rng.randint(-2, 2) for ray in rays + [r]}
        c = divisor(ray_function(x, values), x)
        if not c.is_empty:
            return c


def _seeded_affine_curve(rng, x=None):
    """The divisor of max(0, a.v + c) on the cycle x (L^3_2 by default) cut
    along a.v = -c."""
    if x is None:
        x = l32_cycle()
    n = x.ambient_dim
    while True:
        a = tuple(rng.randint(-1, 1) for _ in range(n))
        if any(a):
            break
    c = rng.choice((-2, -1, 1, 2))
    p = tuple(F(-c * v, sum(v * v for v in a)) for v in a)
    lin = integer_kernel([a], n)
    halves = Complex(
        n,
        [make_cell(n, [p], [a], lin), make_cell(n, [p], [tuple(-v for v in a)], lin)],
    )
    x = common_refinement(x, halves)
    return divisor(max_poly_function(x, [((0,) * n, 0), (a, c)]), x)


def test_factor_tree_matches_term_by_term_on_linear_spaces():
    for n, m in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]:
        ctx = linear_space_context(n, m)
        got = _assert_tree_is_term_by_term(ctx.stages, cross(ctx.ambient, ctx.ambient))
        assert cycles_equal(got, diagonal_cycle(ctx.ambient)), (n, m)
    # in R^3 and in L^4_3, a surface times a curve and a surface
    for n, m, a, b in [(3, 3, 2, 1), (4, 3, 2, 1)]:
        ctx = linear_space_context(n, m)
        x = cross(build_lnk(n, a), build_lnk(n, b))
        _assert_tree_is_term_by_term(ctx.stages, x)


def test_factor_tree_matches_term_by_term_on_seeded_cycles():
    rng = random.Random(21)
    ctx = linear_space_context(3, 2)
    curves = [_seeded_curve(rng) for _ in range(3)]
    curves += [_seeded_affine_curve(rng) for _ in range(3)]
    for c, d in zip(curves, curves[1:] + curves[:1]):
        _assert_tree_is_term_by_term(ctx.stages, cross(c, d))
    _assert_tree_is_term_by_term(ctx.stages, cross(curves[0], l32_cycle()))


def test_factor_tree_matches_term_by_term_on_stars_and_products():
    star = star_context(3, 2, cone_from_generators(3, [(1, 1, 1)]))
    line = make_cycle(
        3, 1, [(cone_from_generators(3, [s]), 1) for s in ((1, 1, 1), (-1, -1, -1))]
    )
    _assert_tree_is_term_by_term(star.stages, cross(star.ambient, star.ambient))
    _assert_tree_is_term_by_term(star.stages, cross(line, star.ambient))
    r1, l21 = linear_space_context(1, 1), linear_space_context(2, 1)
    for cx, cy in [(l21, r1), (l21, l21)]:
        ctx = product_context(cx, cy)
        # the functions pulled back along the two projections have their
        # own carriers
        pulled = [phi for st in ctx.stages for _, fs in st.terms for phi in fs]
        assert len({phi.cells for phi in pulled}) > 1
        amb = ctx.ambient
        got = _assert_tree_is_term_by_term(ctx.stages, cross(amb, amb))
        assert cycles_equal(got, diagonal_cycle(amb))


def test_factor_tree_matches_term_by_term_on_relations_and_constants():
    rng = random.Random(4)
    c = _seeded_curve(rng)
    base = cross(c, rn_cycle(3))
    relations = [
        [{("T", 0): 1}, {("B", 0): 1}],
        [{("T", 1): 1}, {("T", 2): 1}],
        [{("T", 1): 1}, {("D", 0): 1}],
        [{("B", 0): 1}, {("D", 0): 1}, {("T", 3): 1}],
    ]
    for factors in relations:
        expr = _symbol_expression(3, ((1, factors),))
        got = _assert_tree_is_term_by_term([expr], base)
        assert got.is_empty
    phi = tropical_max_xy()
    plane, flat = plane_cycle(), affine_function(2, (1, -2), 5)
    # mixed degrees add up as long as the nonzero parts share a dimension
    works = [
        (CartierExpression([(2, ()), (-1, ())]), plane),
        (
            CartierExpression([(3, ()), (1, (flat,)), (-2, (flat, phi))]),
            scale_cycle(plane, 3),
        ),
        (CartierExpression([(0, (phi,)), (1, (phi, flat)), (-1, (phi, phi))]), None),
    ]
    for expr, want in works:
        got = expr.apply(plane)
        assert cycles_equal(got, _term_by_term(expr, plane))
        assert want is None or cycles_equal(got, want)
    assert degree(works[2][0].apply(plane)) == -1
    mixed = CartierExpression([(1, (phi, phi)), (2, (phi,)), (-1, (flat,))])
    for apply in (mixed.apply, lambda x: _term_by_term(mixed, x)):
        with pytest.raises(TropicalGeometryError, match="different dimensions"):
            apply(plane)


def test_factor_tree_rejects_unbalanced_cycles():
    halfline = make_cycle(2, 1, [(cone_from_generators(2, [(1, 0)]), 1)])
    phi = tropical_max_xy()
    for expr in (
        CartierExpression([(1, (phi,))]),
        CartierExpression([(1, (phi, phi)), (-1, (phi,))]),
        CartierExpression([(1, (phi,)), (-1, (phi,))]),
    ):
        with pytest.raises(UnbalancedCycleError):
            _term_by_term(expr, halfline)
        with pytest.raises(UnbalancedCycleError):
            expr.apply(halfline)


def test_factor_tree_refines_once_per_product(monkeypatch):
    """An L^3_2 stage has 12 terms of two factors but 5 distinct functions
    on one carrier: 5 divisors for the first factors, one merged divisor
    under each, and one refinement of [C x D]."""
    rng = random.Random(9)
    ctx = linear_space_context(3, 2)
    c, d = _seeded_curve(rng), _seeded_affine_curve(rng)
    (stage,) = ctx.stages
    assert len(stage) == 12
    assert len({id(phi) for _, fs in stage.terms for phi in fs}) == 5
    refines, evaluations = [], []
    real_refine, real_divisor = functions._refine, functions._Faces.divisor
    monkeypatch.setattr(
        functions, "_refine", lambda *a: refines.append(1) or real_refine(*a)
    )
    monkeypatch.setattr(
        functions._Faces,
        "divisor",
        lambda self, phi: evaluations.append(phi) or real_divisor(self, phi),
    )
    got = intersect_cycles(c, d, ctx)
    assert not got.is_empty
    assert (len(refines), len(evaluations)) == (1, 10)
    monkeypatch.undo()
    assert cycles_equal(got, intersect_cycles(d, c, ctx))
