"""End-to-end release checks for the library and the command line.

Each test is one gate; conftest.py lists them one per line in the
terminal summary.  All comparisons are exact, there are no tolerances.
"""

import itertools
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

from tropint import (
    CartierExpression,
    Morphism,
    add_cycles,
    add_functions,
    apply_expression,
    build_fnk,
    build_lnk,
    cone_from_generators,
    cross,
    cycles_equal,
    degree,
    diagonal_cycle,
    diagonal_divisors_rn,
    diagonal_morphism,
    divisor,
    empty_cycle,
    fnk_cycle,
    identity_morphism,
    intersect_cycles,
    is_balanced,
    linear_space_context,
    make_cell,
    make_cycle,
    max_poly_function,
    parse_document,
    product_context,
    projection_morphism,
    pullback_cycle,
    pullback_function,
    pushforward,
    ray_function,
    relations_check,
    rewrite_diagonal,
    rn_cycle,
    scale_cycle,
    scale_function,
    serialize,
    star_context,
    stellar_subdivide,
    symbol_function,
)
from tropint import cli
from tropint.linspace import symbol_ray

N_K_PAIRS = [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1), (3, 2)]


def point(coords, w=1):
    n = len(coords)
    return make_cycle(n, 0, [(make_cell(n, [coords]), w)])


def line_through(direction, w=1):
    n = len(direction)
    return make_cycle(
        n,
        1,
        [
            (cone_from_generators(n, [direction]), w),
            (cone_from_generators(n, [tuple(-x for x in direction)]), w),
        ],
    )


def psi_curve(w=1):
    return line_through((1, 1, 0), w)


def second_curve():
    return make_cycle(
        3,
        1,
        [
            (cone_from_generators(3, [(-2, -3, 0)]), 1),
            (cone_from_generators(3, [(2, 2, -1)]), 1),
            (cone_from_generators(3, [(0, 1, 1)]), 1),
        ],
    )


def kink_setup():
    """L^3_2 subdivided so that the kink function is piecewise linear."""
    x = stellar_subdivide(build_lnk(3, 2), (-1, -1, 0))
    x = stellar_subdivide(x, (1, 1, 0))
    psi = add_functions(
        ray_function(x, {(1, 1, 1): 1}),
        scale_function(ray_function(x, {(-1, -1, 0): 1}), -1),
    )
    return x, psi


def max_function(space):
    """max(0, x_1, ..., x_n) on the cones of a linear space fan."""
    n = space.ambient_dim
    forms = [((0,) * n, 0)]
    forms.extend(
        (tuple(1 if j == i else 0 for j in range(n)), 0) for i in range(n)
    )
    return max_poly_function(space.complex(), forms)


def compose(g, f):
    rows = [
        tuple(
            sum(g.matrix[i][k] * f.matrix[k][j] for k in range(f.target_dim))
            for j in range(f.source_dim)
        )
        for i in range(g.target_dim)
    ]
    trans = tuple(
        sum(g.matrix[i][k] * f.translation[k] for k in range(f.target_dim))
        + g.translation[i]
        for i in range(g.target_dim)
    )
    return Morphism(rows, trans)


def test_criterion_1():
    """Divisor products on the doubled fan cut out each small diagonal, < 30 s."""
    start = time.monotonic()
    for n, k in N_K_PAIRS:
        got = apply_expression(diagonal_divisors_rn(n, k), fnk_cycle(n, n))
        want = diagonal_cycle(build_lnk(n, n - k))
        assert cycles_equal(got, want), (n, k)
    assert time.monotonic() - start < 30.0


def test_criterion_2():
    """The first n factors alone leave the doubled origin with weight one."""
    for n in (1, 2, 3):
        base = cross(point((0,) * n), rn_cycle(n))
        got = apply_expression(diagonal_divisors_rn(n, 0), base)
        assert cycles_equal(got, point((0,) * (2 * n))), n


def test_criterion_3(capsys):
    """diagonal-rewrite --n 3 --k 2 verifies and matches the six-term tuple, < 10 s."""
    start = time.monotonic()
    code = cli.main(["diagonal-rewrite", "--n", "3", "--k", "2", "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    rep = parse_document(out)
    assert rep.verified
    rep.verify()  # re-run the identity on [L^3_1 x L^3_1]
    assert rep.expression.degree() == 1
    h = symbol_function(
        3,
        {
            ("T", 1): 1,
            ("T", 2): 1,
            ("T", 3): 1,
            ("B", 0): 1,
            ("T", 0): -2,
            ("D", 0): -2,
        },
    )
    # equality up to relations: the difference kills [L^3_1 x L^3_1]
    diff = CartierExpression(list(rep.expression.terms) + [(-1, [h])])
    l31 = build_lnk(3, 1)
    assert diff.apply(cross(l31, l31)).is_empty
    assert time.monotonic() - start < 10.0


def test_criterion_4():
    """All admissible vanishing relations hold on three kinds of subcycles."""
    syms = [("T", 1), ("T", 2), ("T", 3), ("D", 0)]
    # each cycle sits in the smallest linear space containing its support,
    # which admits the largest family of relations
    cases = [
        (build_lnk(3, 1), 1),
        (point((0, 0, 0)), 0),
        (psi_curve(), 2),
    ]
    for c, m in cases:
        assert relations_check(3, m, c, "a")
        for size in range(m + 1, len(syms) + 1):
            for vs in itertools.combinations(syms, size):
                assert relations_check(3, m, c, "b", vs), (m, vs)
        for s in (1, 2, 3):
            for size in range(max(0, m - s + 1), len(syms) + 1):
                for vs in itertools.combinations(syms, size):
                    assert relations_check(3, m, c, "c", vs, s), (m, vs, s)


def test_criterion_5():
    """Each linear space is the unit for products with its subcycles."""
    l11 = build_lnk(1, 1)
    l21 = build_lnk(2, 1)
    l32 = build_lnk(3, 2)
    max_on_l32 = divisor(max_function(l32), l32)
    # cutting with max(0, x) drops the linear space one step
    assert cycles_equal(max_on_l32, build_lnk(3, 1))
    samples = [
        (linear_space_context(1, 1), l11, [
            scale_cycle(l11, 4),
            point((0,)),
            point((-3,), 2),
            divisor(max_function(l11), l11),
        ]),
        (linear_space_context(2, 1), l21, [
            scale_cycle(l21, 2),
            point((-3, 0), 5),
            point((2, 2)),
            divisor(max_function(l21), l21),
        ]),
        (linear_space_context(3, 2), l32, [
            scale_cycle(build_lnk(3, 1), 2),
            psi_curve(),
            psi_curve(3),
            second_curve(),
            point((5, 5, 0), 2),
            max_on_l32,
        ]),
    ]
    for ctx, space, cycles in samples:
        for d in cycles:
            assert cycles_equal(intersect_cycles(space, d, ctx), d)
            assert cycles_equal(intersect_cycles(d, space, ctx), d)


def test_criterion_6():
    """A pair of curves on L^3_2 meets in expected dimension with degree -1."""
    x, psi = kink_setup()
    assert cycles_equal(x, build_lnk(3, 2))
    c = divisor(psi, x)
    assert cycles_equal(c, psi_curve())
    d = second_curve()
    cd = intersect_cycles(c, d, linear_space_context(3, 2))
    assert cycles_equal(cd, point((0, 0, 0), -1))
    assert degree(cd) == -1
    # on the plane itself such a product is never negative; the ambient
    # linear space is what makes this possible
    assert cycles_equal(intersect_cycles(d, c, linear_space_context(3, 2)), cd)


def _l21_samplers(rng):
    l21 = build_lnk(2, 1)

    def pt():
        d = rng.choice([(-1, 0), (0, -1), (1, 1)])
        t = rng.randint(0, 4)
        return point((t * d[0], t * d[1]), rng.randint(1, 3))

    def curve():
        return scale_cycle(l21, rng.randint(1, 3))

    return pt, curve


def _l32_samplers(rng):
    dirs = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]

    def pt():
        d = rng.choice(dirs + [(1, 1, 1), (-1, 0, 0)])
        t = rng.randint(0, 3)
        return point(tuple(t * x for x in d), rng.randint(1, 3))

    def curve():
        kind = rng.randrange(3)
        if kind == 0:
            return line_through(rng.choice(dirs), rng.randint(1, 2))
        if kind == 1:
            return scale_cycle(build_lnk(3, 1), rng.randint(1, 2))
        return scale_cycle(second_curve(), rng.randint(1, 2))

    def surface():
        return scale_cycle(build_lnk(3, 2), rng.randint(1, 3))

    return pt, curve, surface


def _check_commutative(ctx, a, b):
    assert cycles_equal(intersect_cycles(a, b, ctx), intersect_cycles(b, a, ctx))


def _check_associative(ctx, a, b, c):
    left = intersect_cycles(intersect_cycles(a, b, ctx), c, ctx)
    right = intersect_cycles(a, intersect_cycles(b, c, ctx), ctx)
    assert cycles_equal(left, right)


def _check_distributive(ctx, a, b, c):
    left = intersect_cycles(a, add_cycles(b, c), ctx)
    right = add_cycles(
        intersect_cycles(a, b, ctx), intersect_cycles(a, c, ctx)
    )
    assert cycles_equal(left, right)


def _check_divisor_compatible(ctx, phi, a, b):
    left = divisor(phi, intersect_cycles(a, b, ctx))
    right = intersect_cycles(divisor(phi, a), b, ctx)
    assert cycles_equal(left, right)


def test_criterion_7():
    """Ring laws hold on 52 seeded random instances over L^2_1 and L^3_2."""
    rng = random.Random(96225)
    count = 0

    ctx21 = linear_space_context(2, 1)
    l21 = build_lnk(2, 1)
    phi21 = lambda: ray_function(
        l21, {r: rng.randint(-2, 3) for r in [(-1, 0), (0, -1), (1, 1)]}
    )
    pt, curve = _l21_samplers(rng)
    for _ in range(4):
        _check_commutative(ctx21, curve(), pt())
        _check_commutative(ctx21, curve(), curve())
        _check_associative(ctx21, curve(), curve(), curve())
        _check_associative(ctx21, curve(), curve(), pt())
        _check_distributive(ctx21, curve(), pt(), pt())
        _check_distributive(ctx21, curve(), curve(), curve())
        _check_divisor_compatible(ctx21, phi21(), curve(), curve())
        _check_divisor_compatible(ctx21, phi21(), curve(), pt())
        count += 8

    ctx32 = linear_space_context(3, 2)
    l32 = build_lnk(3, 2)
    rays32 = [r for cell, _ in build_lnk(3, 1).cells for r in cell.rays]
    phi32 = lambda: ray_function(
        l32, {r: rng.randint(-2, 3) for r in rays32}
    )
    pt, curve, surface = _l32_samplers(rng)
    for _ in range(4):
        _check_commutative(ctx32, curve(), curve())
        _check_commutative(ctx32, surface(), pt())
        _check_associative(ctx32, surface(), curve(), curve())
        _check_distributive(ctx32, curve(), curve(), curve())
        _check_divisor_compatible(ctx32, phi32(), surface(), curve())
        count += 5

    assert count >= 50


def test_criterion_8():
    """The pull-back identities hold for projections, embeddings, and stars."""
    r1 = rn_cycle(1)
    ctx_r1 = linear_space_context(1, 1)
    ctx_rr = product_context(ctx_r1, ctx_r1)
    ctx21 = linear_space_context(2, 1)
    l21 = build_lnk(2, 1)
    ctx_ll = product_context(ctx21, ctx21)
    p2 = projection_morphism((2, 2), 1)
    p1 = projection_morphism((1, 1), 0)
    delta = diagonal_morphism(1)

    # (a) the pull-back of the target space is the source space
    assert cycles_equal(pullback_cycle(p2, l21, ctx_ll, ctx21), cross(l21, l21))
    assert cycles_equal(
        pullback_cycle(identity_morphism(2), l21, ctx21, ctx21), l21
    )

    # (b) the identity pulls every cycle back to itself
    for c in [scale_cycle(l21, 2), point((5, 5), 3), point((0, 0))]:
        assert cycles_equal(
            pullback_cycle(identity_morphism(2), c, ctx21, ctx21), c
        )
    assert cycles_equal(
        pullback_cycle(identity_morphism(1), point((-4,), 2), ctx_r1, ctx_r1),
        point((-4,), 2),
    )

    # (c) pulling back a divisor cut agrees with cutting the pulled-back
    # function; a pull-back lives on the whole source space, so phi is
    # pulled back through max(0, x, y), which agrees with it on L^2_1
    phi = ray_function(l21, {(1, 1): 1})
    ext = max_function(build_lnk(2, 2))
    assert all(ext.value(r) == phi.value(r) for r in [(1, 1), (-1, 0), (0, -1)])
    fphi = pullback_function(p2.matrix, p2.translation, ext)
    lhs = pullback_cycle(p2, divisor(phi, l21), ctx_ll, ctx21)
    rhs = divisor(fphi, cross(l21, l21))
    assert cycles_equal(lhs, rhs)
    assert cycles_equal(lhs, cross(l21, point((0, 0))))

    # (d) projection formula
    d_cyc = cross(point((-2, 0)), l21)
    c_pt = point((5, 5), 2)
    lhs = intersect_cycles(c_pt, pushforward(p2, d_cyc), ctx21)
    rhs = pushforward(
        p2,
        intersect_cycles(
            pullback_cycle(p2, c_pt, ctx_ll, ctx21), d_cyc, ctx_ll
        ),
    )
    assert cycles_equal(lhs, rhs)
    c2 = cross(point((4,), 2), r1)
    lhs = intersect_cycles(c2, pushforward(delta, r1), ctx_rr)
    rhs = pushforward(
        delta,
        intersect_cycles(pullback_cycle(delta, c2, ctx_r1, ctx_rr), r1, ctx_r1),
    )
    assert cycles_equal(lhs, rhs)
    assert cycles_equal(lhs, point((4, 4), 2))

    # (e) functoriality: projection after the diagonal is the identity,
    # and translations compose
    c3 = point((7,), 3)
    via = pullback_cycle(
        delta, pullback_cycle(p1, c3, ctx_rr, ctx_r1), ctx_r1, ctx_rr
    )
    direct = pullback_cycle(compose(p1, delta), c3, ctx_r1, ctx_r1)
    assert cycles_equal(via, direct)
    assert cycles_equal(direct, c3)
    sh2 = Morphism([[1]], (2,))
    sh5 = Morphism([[1]], (-5,))
    via = pullback_cycle(
        sh2, pullback_cycle(sh5, point((0,), 2), ctx_r1, ctx_r1), ctx_r1, ctx_r1
    )
    direct = pullback_cycle(compose(sh5, sh2), point((0,), 2), ctx_r1, ctx_r1)
    assert cycles_equal(via, direct)
    assert cycles_equal(via, point((3,), 2))

    # (f) multiplicativity, including an instance where both sides collapse
    # below expected dimension
    lhs = pullback_cycle(
        p2, intersect_cycles(point((5, 5), 2), l21, ctx21), ctx_ll, ctx21
    )
    rhs = intersect_cycles(
        pullback_cycle(p2, point((5, 5), 2), ctx_ll, ctx21),
        pullback_cycle(p2, l21, ctx_ll, ctx21),
        ctx_ll,
    )
    assert cycles_equal(lhs, rhs)
    cc = cross(point((3,)), r1)
    ccp = diagonal_cycle(r1)
    lhs = pullback_cycle(
        delta, intersect_cycles(cc, ccp, ctx_rr), ctx_r1, ctx_rr
    )
    rhs = intersect_cycles(
        pullback_cycle(delta, cc, ctx_r1, ctx_rr),
        pullback_cycle(delta, ccp, ctx_r1, ctx_rr),
        ctx_r1,
    )
    assert lhs.is_empty and rhs.is_empty

    # pulling back along the projection of a product is crossing with the
    # other factor
    for e in [point((0, 0)), point((5, 5), 3), l21, scale_cycle(l21, 2)]:
        got = pullback_cycle(p2, e, ctx_ll, ctx21)
        assert cycles_equal(got, cross(l21, e))

    # pulling back along the inclusion of a star is intersecting with it
    ray111 = cone_from_generators(3, [(1, 1, 1)])
    line_ctx = star_context(3, 1, ray111)
    plane_ctx = star_context(3, 2, ray111)
    iota = identity_morphism(3)
    line = line_ctx.ambient
    plane = plane_ctx.ambient
    assert cycles_equal(pullback_cycle(iota, plane, line_ctx, plane_ctx), line)
    tripod = build_lnk(3, 1)  # sits inside the star of the plane
    got = pullback_cycle(iota, tripod, line_ctx, plane_ctx)
    want = intersect_cycles(line, tripod, plane_ctx)
    assert cycles_equal(got, want)
    assert cycles_equal(got, point((0, 0, 0)))
    for e in [line, point((0, 1, 1), 2)]:
        got = pullback_cycle(iota, e, line_ctx, plane_ctx)
        want = intersect_cycles(line, e, plane_ctx)
        assert got.is_empty and want.is_empty


def test_criterion_9():
    """Divisor stages stay balanced; refined fans are unimodular and complete."""
    # every intermediate cycle of every rewriting tuple is balanced
    for n, k in [(2, 1), (3, 2), (3, 1)]:
        rep = rewrite_diagonal(n, k)
        space = build_lnk(n, n - k)
        for _, factors in rep.expression.terms:
            z = cross(space, space)
            for phi in factors:
                z = divisor(phi, z)
                assert is_balanced(z)
    for n in (1, 2, 3):
        z = cross(point((0,) * n), rn_cycle(n))
        for phi in diagonal_divisors_rn(n, 0).terms[0][1]:
            z = divisor(phi, z)
            assert is_balanced(z)
    x, psi = kink_setup()
    assert is_balanced(divisor(psi, x))
    assert is_balanced(divisor(max_function(build_lnk(3, 2)), build_lnk(3, 2)))

    # vanishing weights: a face whose neighbourhood kills one of the
    # functions carries weight zero
    for n in (2, 3):
        f = fnk_cycle(n, n)
        fan = build_fnk(n, n)
        for i in (0, 1):
            t_i = symbol_ray(n, ("T", i))
            b_i = symbol_ray(n, ("B", i))
            # the split never lets a cone keep both halves of a pair, so
            # the product of the pair's ray functions vanishes identically
            for cell, _ in f.cells:
                assert not (t_i in cell.rays and b_i in cell.rays)
            pair = CartierExpression(
                [(1, [ray_function(fan, {t_i: 1}), ray_function(fan, {b_i: 1})])]
            )
            assert pair.apply(f).is_empty

    f = fnk_cycle(2, 2)
    fan = build_fnk(2, 2)
    maxrays = [frozenset(cell.rays) for cell, _ in f.cells]
    u1 = symbol_ray(2, ("D", 1))
    u2 = symbol_ray(2, ("T", 2))
    z1 = CartierExpression([(1, [ray_function(fan, {u1: 1})])]).apply(f)
    for cell, _ in z1.cells:
        rays = frozenset(cell.rays)
        # a facet keeping nonzero weight has a neighbour where the
        # function is not identically zero
        assert any(rays <= m and u1 in m for m in maxrays)
    z1_cells = {cell for cell, _ in z1.cells}
    dead = [
        fs
        for fs in {m - {r} for m in maxrays for r in m}
        if not any(fs <= m and u1 in m for m in maxrays)
    ]
    assert dead
    for fs in dead:
        assert cone_from_generators(4, sorted(fs)) not in z1_cells
    z2 = CartierExpression(
        [(1, [ray_function(fan, {u1: 1}), ray_function(fan, {u2: 1})])]
    ).apply(f)
    assert not z2.is_empty
    for cell, _ in z2.cells:
        rays = frozenset(cell.rays)
        assert any(rays <= m and u1 in m and u2 in m for m in maxrays)

    # the refined doubled fans are unimodular, and every facet separates
    # exactly two maximal cones, so the fans are complete
    for n in (1, 2, 3):
        f = fnk_cycle(n, n)
        facets = Counter()
        for cell, w in f.cells:
            assert w == 1
            assert not cell.lineality and len(cell.rays) == 2 * n
            assert abs(_det(cell.rays)) == 1
            for ray in cell.rays:
                facets[frozenset(cell.rays) - {ray}] += 1
        assert set(facets.values()) == {2}
        assert is_balanced(f)


def _det(rows):
    rows = [list(r) for r in rows]
    n = len(rows)
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        for r in range(col + 1, n):
            factor = Fraction(rows[r][col], rows[col][col])
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    product = sign
    for i in range(n):
        product *= rows[i][i]
    return product


def test_criterion_10(tmp_path):
    """Serialization round trips and CLI output is byte-identical across runs."""
    x, psi = kink_setup()
    corpus = [
        build_lnk(1, 1),
        build_lnk(2, 1),
        build_lnk(3, 2),
        fnk_cycle(2, 2),
        rn_cycle(2),
        psi_curve(),
        second_curve(),
        empty_cycle(3),
        point((5, 5), 3),
        make_cycle(
            2,
            1,
            [
                (make_cell(2, [(1, 1)], rays=[(-1, 0)]), 1),
                (make_cell(2, [(1, 1)], rays=[(0, -1)]), 1),
                (make_cell(2, [(1, 1)], rays=[(1, 1)]), 1),
            ],
        ),
        make_cycle(
            2, 1, [(make_cell(2, [(3, 0)], lineality=[(0, 1)]), 2)]
        ),
        ray_function(build_lnk(3, 2), {(1, 1, 1): 2, (-1, 0, 0): -1}),
        psi,
        max_function(build_lnk(2, 1)),
        diagonal_morphism(2),
        Morphism([[1, 0], [0, 1]], (Fraction(1, 2), -3)),
        rewrite_diagonal(2, 1),
        rewrite_diagonal(3, 2),
    ]
    for obj in corpus:
        doc = serialize(obj)
        back = parse_document(doc)
        assert serialize(back) == doc

    c_path = tmp_path / "c.json"
    d_path = tmp_path / "d.json"
    c_path.write_text(serialize(psi_curve()))
    d_path.write_text(serialize(second_curve()))
    commands = [
        ["lnk", "--n", "3", "--k", "2"],
        ["diagonal-rewrite", "--n", "2", "--k", "1"],
        ["intersect", str(c_path), str(d_path), "--ambient", "lnk:3,2"],
    ]
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "tropint.cli", *argv, "--quiet"],
                capture_output=True,
                check=False,
            )
            for _ in range(2)
        ]
        for run in runs:
            assert run.returncode == 0, run.stderr
            assert run.stdout
            assert not run.stderr
        assert runs[0].stdout == runs[1].stdout
        assert parse_document(runs[0].stdout.decode("ascii")) is not None
