import random
from fractions import Fraction

import pytest

from test_functions import _seeded_affine_curve, _seeded_curve
from tropint import cli, intersect, linspace, polyhedra
from tropint.exactmath import clear_denominators
from tropint.formats import parse_document, serialize
from tropint.functions import (
    CartierExpression,
    divisor,
    max_poly_function,
    ray_function,
)
from tropint.intersect import (
    AmbientContext,
    Morphism,
    diagonal_morphism,
    graph,
    identity_morphism,
    intersect_cycles,
    linear_space_context,
    product_context,
    projection_morphism,
    pullback_cycle,
    pushforward,
    star_context,
)
from tropint.linspace import build_fnk, build_lnk, rn_cycle, symbol_function
from tropint.polyhedra import (
    TropicalGeometryError,
    VerificationError,
    add_cycles,
    cone_from_generators,
    cross,
    cycles_equal,
    degree,
    diagonal_cycle,
    empty_cycle,
    is_balanced,
    make_cell,
    make_cycle,
    scale_cycle,
    stellar_subdivide,
)


def point(coords, w=1):
    return make_cycle(len(coords), 0, [(make_cell(len(coords), [coords]), w)])


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


# the closing example's curves inside L^3_2
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


def test_unit_law_on_l21():
    ctx = linear_space_context(2, 1)
    l21 = build_lnk(2, 1)
    for d in [
        l21,
        scale_cycle(l21, 3),
        point((0, 0)),
        point((-4, 0), 2),
        point((5, 5), 7),
    ]:
        assert cycles_equal(intersect_cycles(l21, d, ctx), d)
        assert cycles_equal(intersect_cycles(d, l21, ctx), d)


def test_unit_law_on_l32_line():
    ctx = linear_space_context(3, 2)
    l32 = build_lnk(3, 2)
    line = line_through((1, 1, 0), 3)
    assert cycles_equal(intersect_cycles(l32, line, ctx), line)


def test_negative_expected_dimension_is_empty():
    ctx = linear_space_context(2, 1)
    out = intersect_cycles(point((0, 0)), point((0, 0)), ctx)
    assert out.is_empty
    assert intersect_cycles(point((0, 0)), empty_cycle(2), ctx).is_empty


def test_support_violation_rejected():
    ctx = linear_space_context(2, 1)
    bad = make_cycle(2, 1, [(cone_from_generators(2, [(1, 0)]), 1)])
    with pytest.raises(TropicalGeometryError):
        intersect_cycles(bad, build_lnk(2, 1), ctx)
    with pytest.raises(TropicalGeometryError):
        intersect_cycles(point((0, 0, 0)), build_lnk(2, 1), ctx)


def test_closing_example_negative_product():
    # two curves on L^3_2 meeting in expected dimension with degree -1
    ctx = linear_space_context(3, 2)
    c = psi_curve()
    d = second_curve()
    cd = intersect_cycles(c, d, ctx)
    assert cd.cells == ((make_cell(3, [(0, 0, 0)]), -1),)
    assert degree(cd) == -1
    assert cycles_equal(cd, intersect_cycles(d, c, ctx))


def test_commutativity_samples():
    ctx = linear_space_context(2, 1)
    l21 = build_lnk(2, 1)
    pairs = [
        (l21, point((3, 3), 2)),
        (scale_cycle(l21, 2), l21),
        (l21, point((0, 0))),
    ]
    for d, e in pairs:
        assert cycles_equal(intersect_cycles(d, e, ctx), intersect_cycles(e, d, ctx))


def test_associativity_over_l32():
    ctx = linear_space_context(3, 2)
    d = scale_cycle(build_lnk(3, 2), 2)
    e = psi_curve(3)
    f = second_curve()
    left = intersect_cycles(intersect_cycles(d, e, ctx), f, ctx)
    right = intersect_cycles(d, intersect_cycles(e, f, ctx), ctx)
    assert cycles_equal(left, right)
    assert degree(left) == 2 * 3 * (-1)


def test_distributivity():
    ctx = linear_space_context(3, 2)
    c1 = psi_curve()
    c2 = line_through((0, 1, 1))
    e = second_curve()
    lhs = intersect_cycles(add_cycles(c1, c2), e, ctx)
    rhs = add_cycles(intersect_cycles(c1, e, ctx), intersect_cycles(c2, e, ctx))
    assert cycles_equal(lhs, rhs)


def test_divisor_compatibility():
    ctx = linear_space_context(3, 2)
    l32 = build_lnk(3, 2)
    phi = ray_function(l32, {(1, 1, 1): 2, (-1, 0, 0): 1})
    d = scale_cycle(l32, 2)
    e = psi_curve()
    lhs = intersect_cycles(divisor(phi, d), e, ctx)
    rhs = divisor(phi, intersect_cycles(d, e, ctx))
    assert cycles_equal(lhs, rhs)
    assert is_balanced(lhs)


def test_representation_independence():
    # swapping the two factors of the ambient product gives another valid
    # representation; products computed with it agree
    l21 = build_lnk(2, 1)
    swapped = CartierExpression(
        [
            (
                1,
                [
                    symbol_function(
                        2,
                        {
                            ("B", 1): 1,
                            ("B", 2): 1,
                            ("T", 0): 1,
                            ("B", 0): -1,
                            ("D", 0): -1,
                        },
                    )
                ],
            )
        ]
    )
    alt = AmbientContext(l21, (swapped,))
    assert alt.verify()
    std = linear_space_context(2, 1)
    for d, e in [(l21, point((2, 2), 3)), (scale_cycle(l21, 2), l21)]:
        assert cycles_equal(
            intersect_cycles(d, e, alt), intersect_cycles(d, e, std)
        )


def test_pushforward_projection_and_index():
    l21 = build_lnk(2, 1)
    p = Morphism([(1, 0)])
    image = pushforward(p, l21)
    assert cycles_equal(image, line_through((1,)))

    # index 2 map of the plane onto itself
    f = Morphism([(1, 1), (1, -1)])
    r2 = build_lnk(2, 2)
    out = pushforward(f, r2)
    assert out.cells[0][1] == 2 and out.dim == 2

    # translation moves a point
    g = Morphism([(1, 0), (0, 1)], translation=(5, -1))
    assert cycles_equal(pushforward(g, point((1, 1), 4)), point((6, 0), 4))


def test_pushforward_support_validation():
    l21 = build_lnk(2, 1)
    p = Morphism([(1, 0)])
    with pytest.raises(TropicalGeometryError):
        pushforward(p, l21, target=point((0,)))
    out = pushforward(p, l21, target=line_through((1,)))
    assert not out.is_empty
    with pytest.raises(TropicalGeometryError):
        pushforward(p, l21, source=point((0, 0)))
    assert cycles_equal(pushforward(p, l21, source=l21), out)
    # p2 shifted by (5, 0) maps L^2_1 x L^2_1 off L^2_1; the cells whose
    # image loses a dimension are dropped from the image, not from the check
    shifted = Morphism([(0, 0, 1, 0), (0, 0, 0, 1)], translation=(5, 0))
    with pytest.raises(TropicalGeometryError):
        pushforward(shifted, cross(l21, l21), target=l21)
    assert pushforward(shifted, cross(l21, l21)).is_empty
    p2 = projection_morphism([2, 2], 1)
    assert pushforward(p2, cross(l21, l21), target=l21).is_empty


def test_graph_examples():
    l21 = build_lnk(2, 1)
    x = cross(l21, l21)
    p = projection_morphism([2, 2], 1)
    assert cycles_equal(graph(p, x), cross(l21, diagonal_cycle(l21)))
    gi = graph(identity_morphism(2), l21)
    assert cycles_equal(gi, diagonal_cycle(l21))
    assert gi.dim == l21.dim


def test_pullback_matches_the_graph_route():
    # reference: Gamma_f . (X x c) in the product context, projected to X
    r1 = linear_space_context(1, 1)
    l21 = linear_space_context(2, 1)
    rr = product_context(r1, r1)
    ll = product_context(l21, l21)
    ray = cone_from_generators(3, [(1, 1, 1)])
    line = star_context(3, 1, ray)
    plane = star_context(3, 2, ray)
    real = r1.ambient
    tripod = l21.ambient
    on_l21 = [point((0, 0)), point((5, 5), 3), tripod, scale_cycle(tripod, 2)]
    on_plane = [
        cross(point((4,), 2), real),
        cross(real, point((4,), 2)),
        diagonal_cycle(real),
        point((3, 3)),
    ]
    on_star = [plane.ambient, build_lnk(3, 1), line.ambient, point((0, 1, 1), 2)]
    rows = [  # (f, source, target, cycles on the target)
        (identity_morphism(2), l21, l21, on_l21 + [point((-2, 0), 3)]),
        (identity_morphism(1), r1, r1, [point((-4,), 2), real]),
        (projection_morphism([2, 2], 1), ll, l21, on_l21),
        (projection_morphism([1, 1], 1), rr, r1, [point((0,)), point((7,), 2), real]),
        (projection_morphism([1, 1], 0), rr, r1, [point((7,), 3)]),
        (diagonal_morphism(1), r1, rr, on_plane),
        (Morphism([[1]], (2,)), r1, r1, [point((0,), 2), point((-3,), 2)]),
        (Morphism([[1]], (-5,)), r1, r1, [point((0,), 2)]),
        (Morphism([[1]], (-3,)), r1, r1, [point((0,), 2)]),  # their composite
        (Morphism([[1]], (Fraction(1, 2),)), r1, r1, [point((0,), 2)]),
        (identity_morphism(3), line, plane, on_star),
    ]
    for f, src, tgt, cycles in rows:
        x = src.ambient
        back = projection_morphism([f.source_dim, f.target_dim], 0)
        prod = product_context(src, tgt)
        for c in cycles:
            want = pushforward(back, intersect_cycles(graph(f, x), cross(x, c), prod))
            assert cycles_equal(pullback_cycle(f, c, src, tgt), want), (f, c)


def test_pullback_identity_map():
    ctx = linear_space_context(2, 1)
    l21 = build_lnk(2, 1)
    ident = identity_morphism(2)
    for c in [point((0, 0)), point((-2, 0), 3), scale_cycle(l21, 2), l21]:
        assert cycles_equal(pullback_cycle(ident, c, ctx, ctx), c)


def test_pullback_of_target_is_source():
    # f*Y = X for the projection of R x R onto its second factor
    ctx1 = linear_space_context(1, 1)
    r1 = build_lnk(1, 1)
    prod = product_context(ctx1, ctx1)
    p = projection_morphism([1, 1], 1)
    assert cycles_equal(pullback_cycle(p, r1, prod, ctx1), cross(r1, r1))


def test_pullback_projection_is_cross():
    ctx1 = linear_space_context(1, 1)
    r1 = build_lnk(1, 1)
    prod = product_context(ctx1, ctx1)
    p = projection_morphism([1, 1], 1)
    for e in [point((0,)), point((7,), 2)]:
        assert cycles_equal(pullback_cycle(p, e, prod, ctx1), cross(r1, e))


def test_pullback_to_the_point_r0():
    # the map R^2 -> R^0 pulls the point R^0 back to the whole of R^2
    polyhedra.clear_caches()
    f = Morphism((), source_dim=2)
    r0 = linear_space_context(0, 0)
    got = pullback_cycle(f, rn_cycle(0), linear_space_context(2, 2), r0)
    assert cycles_equal(got, rn_cycle(2))


def test_pullback_functoriality():
    # p after delta is the identity on R
    ctx1 = linear_space_context(1, 1)
    prod = product_context(ctx1, ctx1)
    delta = diagonal_morphism(1)
    p = projection_morphism([1, 1], 1)
    c = point((4,), 2)
    gc = pullback_cycle(p, c, prod, ctx1)
    fgc = pullback_cycle(delta, gc, ctx1, prod)
    assert cycles_equal(fgc, c)


def test_pullback_multiplicativity():
    ctx1 = linear_space_context(1, 1)
    r1 = build_lnk(1, 1)
    prod = product_context(ctx1, ctx1)
    p = projection_morphism([1, 1], 1)
    c = point((0,), 2)
    cp = r1
    cc = intersect_cycles(c, cp, ctx1)
    lhs = pullback_cycle(p, cc, prod, ctx1)
    rhs = intersect_cycles(
        pullback_cycle(p, c, prod, ctx1), pullback_cycle(p, cp, prod, ctx1), prod
    )
    assert cycles_equal(lhs, rhs)


def test_pullback_divisor_compatibility():
    # C = phi . Y pulls back to (phi o f) . X
    ctx1 = linear_space_context(1, 1)
    r1 = build_lnk(1, 1)
    prod = product_context(ctx1, ctx1)
    p = projection_morphism([1, 1], 1)
    halves = [cone_from_generators(1, [(1,)]), cone_from_generators(1, [(-1,)])]
    phi = max_poly_function(
        make_cycle(1, 1, [(h, 1) for h in halves]), [((1,), 0), ((0,), 0)]
    )
    c = divisor(phi, r1)
    assert cycles_equal(c, point((0,)))
    lhs = pullback_cycle(p, c, prod, ctx1)
    from tropint.functions import pullback_function

    fphi = pullback_function(p.matrix, None, phi)
    rhs = divisor(fphi, cross(r1, r1))
    assert cycles_equal(lhs, rhs)


def test_projection_formula():
    # C . f_*D = f_*(f*C . D) for the second-factor projection of R x R
    ctx1 = linear_space_context(1, 1)
    r1 = build_lnk(1, 1)
    prod = product_context(ctx1, ctx1)
    p = projection_morphism([1, 1], 1)
    dprime = diagonal_cycle(r1)  # the line y = x in the plane
    c = point((0,), 1)
    lhs = intersect_cycles(c, pushforward(p, dprime), ctx1)
    fc = pullback_cycle(p, c, prod, ctx1)
    rhs = pushforward(p, intersect_cycles(fc, dprime, prod))
    assert cycles_equal(lhs, rhs)
    assert cycles_equal(lhs, c)


def test_product_contexts_are_verified_by_their_factors():
    # the product formula: a product of verified contexts is verified, and
    # the geometric identity holds on it
    r1 = linear_space_context(1, 1)
    l21 = linear_space_context(2, 1)
    star = star_context(2, 1, cone_from_generators(2, [(1, 1)]))
    cases = [(r1, r1), (l21, l21), (l21, r1), (star, r1)]
    cases.append((product_context(r1, r1), r1))
    for cx, cy in cases:
        ctx = product_context(cx, cy)
        assert ctx.verified, (cx.label, cy.label)
        assert AmbientContext(ctx.ambient, ctx.stages).verify()


def test_products_with_the_point_r0():
    # R^0 is the unit of products of ambients, on either side
    polyhedra.clear_caches()
    l32, r0 = linear_space_context(3, 2), linear_space_context(0, 0)
    line, plane = build_lnk(3, 1), build_lnk(3, 2)
    for ctx in (product_context(l32, r0), product_context(r0, l32)):
        for a, b in ((line, line), (plane, line)):
            got = intersect_cycles(a, b, ctx)
            assert cycles_equal(got, intersect_cycles(a, b, l32)), (ctx, a, b)


def test_product_stages_are_pulled_back_on_first_use(monkeypatch):
    l21 = linear_space_context(2, 1)
    # unlabelled factors, so that the product is built here and not cached
    target = AmbientContext(l21.ambient, l21.stages)
    target.verified = True
    pulled = []
    real = intersect.pullback_function
    monkeypatch.setattr(
        intersect, "pullback_function", lambda *a: pulled.append(a[2]) or real(*a)
    )
    source = product_context(target, target)
    assert pulled == [] and source.verified
    distinct = {id(phi) for st in target.stages for _, fs in st.terms for phi in fs}
    # a pull-back reads the source's ambient and pulls the target's stages
    # back along f x id, each distinct function once
    tripod = l21.ambient
    c = point((5, 5), 3)
    got = pullback_cycle(projection_morphism([2, 2], 1), c, source, target)
    assert cycles_equal(got, cross(tripod, c))
    assert len(pulled) == len(distinct)
    # the product's stages are pulled back when first read, and only then
    stages = source.stages
    assert len(pulled) == 3 * len(distinct)
    assert source.stages is stages
    # the product of (A x B) and (C x D) is (A.C) x (B.D)
    a, b = cross(tripod, point((0, 0))), cross(point((-2, 0), 2), tripod)
    want = cross(point((-2, 0), 2), point((0, 0)))
    assert cycles_equal(intersect_cycles(a, b, source), want)
    assert len(pulled) == 3 * len(distinct)
    assert cycles_equal(intersect_cycles(a, b, product_context(l21, l21)), want)
    assert AmbientContext(source.ambient, source.stages).verify()


def test_pull_expression_pulls_each_function_once(monkeypatch):
    phi = symbol_function(1, {("T", 0): 1})
    psi = symbol_function(1, {("B", 1): 1, ("D", 0): -1})
    pulled = []
    real = intersect.pullback_function
    monkeypatch.setattr(
        intersect, "pullback_function", lambda *a: pulled.append(a[2]) or real(*a)
    )
    expr = CartierExpression([(1, (phi, phi)), (-2, (psi, phi))])
    swap = ((0, 1), (1, 0))
    got = intersect._pull_expression(expr, swap)
    assert sorted(map(id, pulled)) == sorted((id(phi), id(psi)))
    (_, (a, b)), (_, (c, d)) = got.terms
    assert a is b is d and c is not a
    assert a.forms == real(swap, None, phi).forms


def test_unverified_context_is_checked_before_use():
    # twice the diagonal of R^1: a hand-built factor that is wrong
    r1 = linear_space_context(1, 1)
    doubled = CartierExpression((2 * c, f) for c, f in r1.stages[0].terms)
    wrong = AmbientContext(r1.ambient, (doubled,))
    prod = product_context(wrong, r1)
    assert not prod.verified
    plane = prod.ambient
    for ctx in (wrong, prod):
        amb = ctx.ambient
        with pytest.raises(VerificationError):
            intersect_cycles(amb, amb, ctx)
        assert not ctx.verified
    # a right hand-built context is checked once, then used
    right = AmbientContext(r1.ambient, r1.stages)
    c = point((3,), 2)
    assert cycles_equal(intersect_cycles(c, r1.ambient, right), c)
    assert right.verified
    assert cycles_equal(
        intersect_cycles(plane, plane, product_context(right, r1)), plane
    )
    # a pull-back uses the target's representation only
    shift = Morphism([[1]], (2,))
    with pytest.raises(VerificationError):
        pullback_cycle(shift, c, r1, wrong)
    assert not wrong.verified
    assert cycles_equal(pullback_cycle(shift, c, wrong, r1), point((1,), 2))


def test_clear_caches_empties_every_module_cache():
    caches = [
        polyhedra._BUILD_MEMO,
        linspace._LNK_CACHE,
        linspace._FNK_CACHE,
        linspace._REWRITE_CACHE,
        intersect._CONTEXT_CACHE,
    ]
    assert sorted(map(id, caches)) == sorted(map(id, polyhedra._CACHES))
    ctx = linear_space_context(2, 1)
    build_fnk(2, 1)
    intersect_cycles(ctx.ambient, point((1, 1)), ctx)
    assert all(caches)
    # the pool of live cells is not a cache: a live cell stays one object
    live = ctx.ambient.cells[0][0]
    polyhedra.clear_caches()
    assert not any(caches)
    assert polyhedra._CELL_POOL[live.key()] is live
    assert make_cell(2, live.vertices, live.rays, live.lineality) is live
    again = linear_space_context(2, 1)
    assert again is not ctx and again.verified
    got = intersect_cycles(again.ambient, point((1, 1)), again)
    assert cycles_equal(got, point((1, 1)))


def test_cells_keep_their_normals_but_not_their_hosts_past_clear_caches(monkeypatch):
    """Lattice normals and refinement hosts live on the cell, not in a
    module memo: after clear_caches() a live cycle is checked for balance
    again with no integer solve, while a refinement along the same carrier
    starts cold and signs its cells against the carrier again."""
    assert len(polyhedra._CACHES) == 5
    assert not hasattr(polyhedra, "_NORMAL_MEMO")
    assert not hasattr(polyhedra, "_REFINE_MEMO")
    ctx = linear_space_context(3, 2)
    (carrier,) = {
        phi.cells: phi.carrier for st in ctx.stages for _, fs in st.terms for phi in fs
    }.values()
    x = cross(build_lnk(3, 1), build_lnk(3, 1))
    solves, sides = [], []
    real_solve, real_sides = polyhedra.solve_integer, polyhedra._missed_sides
    monkeypatch.setattr(
        polyhedra, "solve_integer", lambda *args: solves.append(1) or real_solve(*args)
    )
    monkeypatch.setattr(
        polyhedra, "_missed_sides", lambda *args: sides.append(1) or real_sides(*args)
    )
    polyhedra.clear_caches()
    assert is_balanced(x) and solves
    first = polyhedra._refine(x, carrier)
    assert sides
    polyhedra.clear_caches()
    del solves[:], sides[:]
    assert is_balanced(x) and not solves
    again = polyhedra._refine(x, carrier)
    assert sides
    assert again[0].cells == first[0].cells and again[1] == first[1]


def test_lru_cache_keeps_what_was_read_last(monkeypatch):
    monkeypatch.setattr(polyhedra, "_CACHE_LIMIT", 3)
    cache = polyhedra._LRUCache()
    for key in "abc":
        cache[key] = key.upper()
    assert cache.get("a") == "A"
    cache["d"] = "D"  # evicts b, the least recently used
    assert sorted(cache) == ["a", "c", "d"]
    assert cache.get("b") is None and cache.get("b", 0) == 0
    cache["c"] = "C"  # assignment marks use too
    cache["e"] = "E"
    assert sorted(cache) == ["c", "d", "e"]


def _seeded_fan_curve(rng):
    """The divisor of a seeded ray function on L^3_2 subdivided along the
    sum of two of its rays."""
    rays = [(1, 1, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    a, b = rng.sample(rays, 2)
    x = stellar_subdivide(build_lnk(3, 2), tuple(p + q for p, q in zip(a, b)))
    fan_rays = sorted({r for c, _ in x.cells for r in c.rays})
    while True:
        c = divisor(ray_function(x, {r: rng.randint(-2, 2) for r in fan_rays}), x)
        if not c.is_empty:
            return c


def test_bounded_caches_give_identical_bytes(monkeypatch, capsys):
    """With three entries per module cache, an intersection, a pull-back
    and a diagonal rewrite give the bytes they give with the usual bound,
    and no cache grows past the bound."""

    def outputs():
        polyhedra.clear_caches()
        rng = random.Random(31)
        c, d = _seeded_fan_curve(rng), _seeded_fan_curve(rng)
        got = [serialize(intersect_cycles(c, d, linear_space_context(3, 2)))]
        l21 = linear_space_context(2, 1)
        p2 = projection_morphism([2, 2], 1)
        pulled = pullback_cycle(p2, point((-2, 0), 3), product_context(l21, l21), l21)
        got.append(serialize(pulled))
        assert cli.main(["diagonal-rewrite", "--n", "3", "--k", "1", "--quiet"]) == 0
        got.append(capsys.readouterr().out)
        return got

    want = outputs()
    assert degree(parse_document(want[0])) != 0
    monkeypatch.setattr(polyhedra, "_CACHE_LIMIT", 3)
    assert outputs() == want
    assert all(len(cache) <= 3 for cache in polyhedra._CACHES)


def test_repeated_products_and_pullbacks_reuse_their_refinements(monkeypatch):
    """A product or pull-back run again gives the same bytes, and every
    refinement it makes, the support checks included, is a memo hit: no
    cell is signed against a carrier's hyperplanes again."""
    sides = []
    real = polyhedra._missed_sides
    monkeypatch.setattr(
        polyhedra, "_missed_sides", lambda *args: sides.append(1) or real(*args)
    )
    rng = random.Random(31)
    c, d = _seeded_fan_curve(rng), _seeded_fan_curve(rng)
    ctx = linear_space_context(3, 2)
    l21 = linear_space_context(2, 1)
    p2 = projection_morphism([2, 2], 1)
    square = product_context(l21, l21)
    runs = {
        "product": lambda: intersect_cycles(c, d, ctx),
        "pull-back": lambda: pullback_cycle(p2, point((-2, 0), 3), square, l21),
    }
    for name, run in runs.items():
        del sides[:]
        first = serialize(run())
        assert sides, name
        del sides[:]
        assert serialize(run()) == first, name
        assert not sides, name


def test_star_context_products():
    tau = cone_from_generators(3, [(1, 1, 1)])
    ctx = star_context(3, 2, tau)
    amb = ctx.ambient
    line = line_through((1, 1, 1), 2)
    assert cycles_equal(intersect_cycles(amb, line, ctx), line)


def test_morphism_validation():
    with pytest.raises(TropicalGeometryError):
        Morphism([(1, 0), (1,)])
    with pytest.raises(TropicalGeometryError):
        Morphism([(1, 0)], translation=(1, 2))
    with pytest.raises(TropicalGeometryError):
        Morphism([], translation=())
    m = Morphism([(2, 1), (0, 3)], translation=(1, 1))
    assert m.apply((1, 1)) == (4, 4)
    # matrix entries must be integers: a non-integral one is refused, not
    # truncated, and an integral Fraction is taken as an int
    with pytest.raises(TropicalGeometryError):
        Morphism([(Fraction(1, 2), 1)])
    with pytest.raises(TropicalGeometryError):
        Morphism([(None, 1)])
    m = Morphism([(Fraction(4, 2), 1)], translation=(Fraction(1, 2),))
    assert m.matrix == ((2, 1),) and type(m.matrix[0][0]) is int
    assert m.apply((1, 1)) == (Fraction(7, 2),)


def test_morphism_translation_must_be_numbers():
    """A translation is read exactly when the morphism is built; an entry
    that is not a number is refused then, not when the map is applied."""
    for bad in (("a",), (None,), ([],), 5):
        with pytest.raises(TropicalGeometryError):
            Morphism([(1,)], bad)
    m = Morphism([(1, 0), (0, 1)], translation=(0.25, "3/2"))
    assert m.translation == (Fraction(1, 4), Fraction(3, 2))
    assert m.apply((1, 1)) == (Fraction(5, 4), Fraction(5, 2))
    assert type(Morphism([(1,)], (2,)).translation[0]) is int


def test_float_entries_are_read_exactly():
    """An entry that is neither an int nor a Fraction is read with
    Fraction(), never truncated: in clearing denominators, in point
    containment and in a pull-back along a translated map."""
    assert clear_denominators((0.5,)) == ((1,), 2)
    assert clear_denominators((0.5, 1, Fraction(1, 3))) == ((3, 6, 2), 6)
    assert make_cell(1, [(Fraction(1, 4),), (Fraction(3, 4),)]).contains_point((0.5,))
    real = linear_space_context(1, 1)
    shifted = Morphism([[1]], (0.5,))
    got = pullback_cycle(shifted, point((2,)), real, real)
    assert cycles_equal(got, point((Fraction(3, 2),)))
    pushed = pushforward(shifted, point((2,)))
    assert cycles_equal(pushed, point((Fraction(5, 2),)))


def test_intersect_requires_matching_ambient():
    ctx = linear_space_context(2, 1)
    with pytest.raises(TropicalGeometryError):
        intersect_cycles(build_lnk(3, 2), build_lnk(2, 1), ctx)


def test_pullback_requires_a_cycle_in_the_target_space():
    l21 = linear_space_context(2, 1)
    source = product_context(l21, l21)
    p2 = projection_morphism([2, 2], 1)
    for c in (point((1,)), build_lnk(3, 2)):
        with pytest.raises(TropicalGeometryError, match="does not live in the target"):
            pullback_cycle(p2, c, source, l21)


def test_pullback_and_pushforward_input_checks():
    r2, l21 = linear_space_context(2, 2), linear_space_context(2, 1)
    source = product_context(l21, l21)
    p2 = projection_morphism([2, 2], 1)
    # every cell of L^2_1 x L^2_1 loses a dimension under the projection, so
    # the shifted image leaves L^2_1 without a full-dimensional image cell
    shifted = Morphism([(0, 0, 1, 0), (0, 0, 0, 1)], translation=(5, 0))
    for f, c, src, message in [
        (identity_morphism(3), build_lnk(2, 1), l21, "morphism does not match the contexts"),
        (identity_morphism(2), build_lnk(2, 1), r2, "does not map source into target"),
        (shifted, point((0, 0)), source, "does not map source into target"),
        (p2, point((1, 2)), source, "cycle support leaves the target space"),
    ]:
        with pytest.raises(TropicalGeometryError, match=message):
            pullback_cycle(f, c, src, l21)
    out = pullback_cycle(p2, empty_cycle(2), source, l21)
    assert out.is_empty and out.ambient_dim == 4
    with pytest.raises(TropicalGeometryError, match="does not live in the source"):
        pushforward(identity_morphism(2), build_lnk(3, 2))


def _seeded_divisor(rng, x):
    """A seeded affine divisor on the cycle x that is not empty."""
    while True:
        got = _seeded_affine_curve(rng, x)
        if not got.is_empty:
            return got


def test_diagonal_stages_are_the_stages_restricted_to_the_base_fan():
    """apply_diagonal reads the representation on F^n_m, the fan that
    [L^n_m x L^n_m] lies in (its star at (x, x) for a star context); on
    [A x A] and on seeded [C x D] that gives the cycles the stages on
    F^n_n give, and each diagonal stage is verified on its own."""
    rng = random.Random(20)
    l32 = linear_space_context(3, 2)
    stars = [
        star_context(3, 2, cone_from_generators(3, [(1, 1, 1)])),
        star_context(4, 3, cone_from_generators(4, [(-1, 0, 0, 0), (0, -1, 0, 0)])),
    ]
    cases = [(linear_space_context(n, m), m) for n, m in [(2, 1), (3, 1), (4, 2), (3, 0)]]
    cases += [(l32, 2)] + [(ctx, None) for ctx in stars]
    for ctx, m in cases:
        n = ctx.ambient.ambient_dim
        fan = build_fnk(n, m) if m is not None else None
        for stage in ctx.diagonal_stages:
            for _, factors in stage.terms:
                for phi in factors:
                    if fan is not None:
                        assert phi.cells == fan.maximal, ctx.label
                    assert len(phi.forms[0][0]) == 2 * n
        amb = ctx.ambient
        c = _seeded_divisor(rng, amb) if amb.dim else amb
        d = _seeded_divisor(rng, c) if c.dim else c
        for z in (cross(amb, amb), cross(c, amb), cross(amb, d), cross(c, d)):
            got = ctx.apply_diagonal(z)
            assert cycles_equal(got, intersect._apply_stages(ctx.stages, z)), ctx.label
        assert AmbientContext(amb, ctx.diagonal_stages).verify()
    for fs, gs in [(_seeded_curve(rng), _seeded_affine_curve(rng)) for _ in range(2)]:
        z = cross(fs, gs)
        assert cycles_equal(l32.apply_diagonal(z), intersect._apply_stages(l32.stages, z))
    # the L^n_0 diagonal has no factors; F^3_0 has no rays to read values on
    assert symbol_function(3, {("T", 1): 1}, 0).forms == (((0,) * 6, 0),)


def test_intersections_never_build_the_complete_fan():
    polyhedra.clear_caches()
    rng = random.Random(3)
    ctx = linear_space_context(3, 2)
    got = intersect_cycles(_seeded_curve(rng), _seeded_affine_curve(rng), ctx)
    assert got.dim == 0
    assert (3, 2) in linspace._FNK_CACHE and (3, 3) not in linspace._FNK_CACHE
