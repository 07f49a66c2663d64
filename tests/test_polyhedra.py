"""Cells, complexes and cycles: frozen fixtures plus randomized oracles.

The main oracle: membership of sampled rational points, checked directly
against generator data, must agree with the H-representation the double
description pass produces, and intersections must agree pointwise.  Cells
that take their facets by incidence from candidate inequalities (faces,
intersections, cuts, products) must equal the dual pass's build of the
same generators, the facets the dual pass picks by incidence must be
those a rank test picks from the dual cone's generators, and the vertices
and rays of every build those a rank test picks from its generators.
"""

import collections
import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest

from test_exactmath import frac_rank
from test_functions import _seeded_affine_curve, _seeded_curve, l32_cycle
from tropint import functions, polyhedra
from tropint.exactmath import (
    _unit_rows,
    clear_denominators,
    integer_kernel,
    primitive_vector,
    vec_dot,
    vec_neg,
)
from tropint.functions import (
    UnbalancedCycleError,
    affine_function,
    divisor,
    max_poly_function,
)
from tropint.intersect import (
    intersect_cycles,
    linear_space_context,
    product_context,
    projection_morphism,
    pullback_cycle,
    star_context,
)
from tropint.formats import parse_document, serialize
from tropint.linspace import build_fnk, build_lnk, fnk_cycle, rn_cycle
from tropint.polyhedra import (
    _BUILD_MEMO,
    Complex,
    TropicalGeometryError,
    VerificationError,
    ZeroCycleSummary,
    _build_from_hom,
    _hyperplane_key,
    _missed_sides,
    _reduce_mod,
    _refine,
    add_cycles,
    check_cover,
    clear_caches,
    common_refinement,
    cone_from_generators,
    cross,
    cross_cells,
    cut_cell_by_hom_forms,
    cycles_equal,
    degree,
    empty_cycle,
    facet_data,
    intersect_cells,
    is_balanced,
    is_face,
    lattice_normal,
    make_cell,
    make_cycle,
    map_cell,
    pushforward_cycle,
    scale_cycle,
    star,
    star_cell,
    stellar_subdivide,
)


def F(a, b=1):
    return Fraction(a, b)


def random_cell(rng, ambient=3):
    kind = rng.randrange(3)
    verts, rays, lin = [], [], []
    if kind == 0:  # polytope
        for _ in range(rng.randint(1, 4)):
            verts.append(tuple(F(rng.randint(-6, 6), 2) for _ in range(ambient)))
    elif kind == 1:  # cone
        for _ in range(rng.randint(1, 4)):
            r = tuple(rng.randint(-3, 3) for _ in range(ambient))
            if any(r):
                rays.append(r)
    else:  # mixed
        for _ in range(rng.randint(1, 2)):
            verts.append(tuple(F(rng.randint(-4, 4), 2) for _ in range(ambient)))
        for _ in range(rng.randint(0, 3)):
            r = tuple(rng.randint(-3, 3) for _ in range(ambient))
            if any(r):
                rays.append(r)
    if rng.random() < 0.3:
        l = tuple(rng.randint(-2, 2) for _ in range(ambient))
        if any(l):
            lin.append(l)
    return make_cell(ambient, verts, rays, lin)


def sample_points(rng, count, ambient=3):
    pts = []
    for _ in range(count):
        d = rng.choice((1, 1, 2))
        pts.append(tuple(F(rng.randint(-8, 8), d) for _ in range(ambient)))
    return pts


def test_cell_canonicalization_frozen():
    # interior generator and duplicate vertex are pruned
    tri = make_cell(
        2,
        vertices=[(0, 0), (1, 0), (0, 1), (F(1, 4), F(1, 4)), (1, 0)],
    )
    assert tri.vertices == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)))
    assert tri.rays == () and tri.lineality == ()
    assert tri.dim == 2
    # redundant and non-primitive rays
    cone = cone_from_generators(2, [(2, 0), (1, 1), (3, 1)])
    assert cone.vertices == ((F(0), F(0)),)
    assert cone.rays == ((1, 0), (1, 1))
    assert cone.is_cone
    # opposite rays become lineality
    line = make_cell(2, vertices=[(0, 3)], rays=[(1, 0), (-1, 0)])
    assert line.lineality == ((1, 0),)
    assert line.rays == ()
    assert line.dim == 1
    # vertex off the lineality line is reduced to a canonical representative
    line2 = make_cell(2, vertices=[(5, 3)], rays=[(1, 0), (-1, 0)])
    assert line2 == line


def test_cell_halfplane_and_point():
    half = make_cell(2, vertices=[(0, 0)], rays=[(0, 1)], lineality=[(1, 0)])
    assert half.dim == 2
    assert half.contains_point((F(7), F(2)))
    assert not half.contains_point((0, -1))
    fc = half.facet_cells()
    assert len(fc) == 1
    edge, _ = fc[0]
    assert edge.lineality == ((1, 0),) and edge.dim == 1
    pt = make_cell(3, vertices=[(F(1, 2), 0, 1)])
    assert pt.dim == 0
    assert pt.facet_cells() == ()
    assert pt.contains_point((F(1, 2), 0, 1))
    assert not pt.contains_point((0, 0, 1))


def test_full_space_cell():
    rn = make_cell(3, vertices=[(0, 0, 0)], lineality=[(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert rn.dim == 3
    assert rn.hom_facets == ((0, 0, 0, 1),)
    assert rn.facet_cells() == ()
    assert rn.contains_point((F(-5), F(1, 3), F(2)))


def test_empty_and_intersections_frozen():
    a = make_cell(2, vertices=[(0, 0), (1, 0)])
    b = make_cell(2, vertices=[(3, 3), (4, 3)])
    assert intersect_cells(a, b).is_empty
    assert intersect_cells(a, b).dim == -1
    c1 = cone_from_generators(2, [(1, 0), (1, 3)])
    c2 = cone_from_generators(2, [(1, 2), (0, 1)])
    meet = intersect_cells(c1, c2)
    assert meet.rays == ((1, 2), (1, 3))
    only_origin = intersect_cells(
        cone_from_generators(2, [(1, 0), (1, 1)]), c2
    )
    assert only_origin == make_cell(2, vertices=[(0, 0)])
    seg1 = make_cell(1, vertices=[(0,), (2,)])
    seg2 = make_cell(1, vertices=[(1,), (3,)])
    assert intersect_cells(seg1, seg2) == make_cell(1, vertices=[(1,), (2,)])
    # cutting the line along (1, 1) by x = 2y uses a pivot with a.l < 0
    lines = [make_cell(2, vertices=[(0, 0)], lineality=[l]) for l in ((1, 1), (2, 1))]
    assert intersect_cells(*lines) == make_cell(2, vertices=[(0, 0)])
    shifted = make_cell(2, vertices=[(1, 0)], lineality=[(2, 1)])
    assert intersect_cells(lines[0], shifted) == make_cell(2, vertices=[(-1, -1)])


def test_membership_against_generators():
    rng = random.Random(424242)
    for _ in range(25):
        cell = random_cell(rng)
        if cell.is_empty:
            continue
        # every generator certificate satisfies the derived H-representation
        for g in cell.hom_gens():
            assert all(vec_dot(f, g) >= 0 for f in cell.hom_facets)
            assert all(vec_dot(e, g) == 0 for e in cell.hom_eqs)
        for l in cell.hom_lin():
            assert all(vec_dot(f, l) == 0 for f in cell.hom_facets)
            assert all(vec_dot(e, l) == 0 for e in cell.hom_eqs)
        # canonical V-representation is idempotent
        again = make_cell(cell.ambient_dim, cell.vertices, cell.rays, cell.lineality)
        assert again is cell
        # dimension equals the rank of the direction lattice
        assert cell.dim == len(cell.direction_lattice())
        p = cell.relint_point()
        assert cell.contains_point(p)
        assert cell.face_at(p) == cell
        # random convex/conic combinations of generators stay inside
        for _ in range(10):
            pt = [Fraction(0)] * cell.ambient_dim
            coeffs = [F(rng.randint(0, 5), rng.randint(1, 3)) for _ in cell.vertices]
            if not sum(coeffs):
                coeffs[0] = Fraction(1)
            total = sum(coeffs)
            for v, c in zip(cell.vertices, coeffs):
                for i, x in enumerate(v):
                    pt[i] += x * c / total
            for r in cell.rays:
                c = F(rng.randint(0, 4), rng.randint(1, 2))
                for i, x in enumerate(r):
                    pt[i] += c * x
            for l in cell.lineality:
                c = F(rng.randint(-4, 4), rng.randint(1, 2))
                for i, x in enumerate(l):
                    pt[i] += c * x
            assert cell.contains_point(pt)


def test_intersection_pointwise_oracle():
    rng = random.Random(777)
    for _ in range(20):
        a = random_cell(rng)
        b = random_cell(rng)
        if a.is_empty or b.is_empty:
            continue
        inter = intersect_cells(a, b)
        for p in sample_points(rng, 60):
            expected = a.contains_point(p) and b.contains_point(p)
            assert inter.contains_point(p) == expected
        if not inter.is_empty:
            q = inter.relint_point()
            assert a.contains_point(q) and b.contains_point(q)


def test_facets_of_square():
    sq = make_cell(2, vertices=[(0, 0), (1, 0), (0, 1), (1, 1)])
    fc = sq.facet_cells()
    assert len(fc) == 4
    for child, form in fc:
        assert child.dim == 1
        assert len(child.vertices) == 2
        # the form is tight on the child and valid on the parent
        for g in sq.hom_gens():
            assert vec_dot(form, g) >= 0


def test_is_face():
    sq = make_cell(2, vertices=[(0, 0), (1, 0), (0, 1), (1, 1)])
    edge = make_cell(2, vertices=[(0, 0), (1, 0)])
    corner = make_cell(2, vertices=[(1, 1)])
    diag = make_cell(2, vertices=[(0, 0), (1, 1)])
    sub = make_cell(2, vertices=[(0, 0), (F(1, 2), 0)])
    assert is_face(sq, edge)
    assert is_face(sq, corner)
    assert is_face(sq, sq)
    assert not is_face(sq, diag)
    assert not is_face(sq, sub)


def test_the_empty_cell_is_a_face_of_every_cell():
    empty = make_cell(2)
    sq = make_cell(2, vertices=[(0, 0), (1, 0), (0, 1), (1, 1)])
    corner = make_cell(2, vertices=[(1, 1)])
    assert empty.is_empty
    for cell in (sq, corner, empty):
        assert cell.contains_cell(empty)
        assert is_face(cell, empty)
    assert not empty.contains_cell(sq)
    assert not empty.contains_cell(corner)


def test_empty_cells_and_cycles_meet_and_cross_to_empty():
    empty = make_cell(2)
    sq = make_cell(2, vertices=[(0, 0), (1, 0), (0, 1), (1, 1)])
    assert intersect_cells(sq, empty) is empty
    assert intersect_cells(empty, sq) is empty
    line = make_cycle(1, 1, [(make_cell(1, vertices=[(0,), (1,)]), 2)])
    for x, y in ((line, empty_cycle(2)), (empty_cycle(2), line)):
        got = cross(x, y)
        assert got.is_empty and got.ambient_dim == 3


def test_lattice_normals():
    quad = cone_from_generators(2, [(1, 0), (0, 1)])
    xaxis = cone_from_generators(2, [(1, 0)])
    for child, form in quad.facet_cells():
        if child == xaxis:
            assert lattice_normal(quad, xaxis, form) == (0, 1)
    skew = cone_from_generators(2, [(2, 1), (1, 1)])
    diag = cone_from_generators(2, [(1, 1)])
    for child, form in skew.facet_cells():
        if child == diag:
            u = lattice_normal(skew, diag, form)
            # u and (1, 1) generate Z^2 and u points into the cone
            assert abs(u[0] * 1 - u[1] * 1) == 1
            assert u[0] - u[1] > 0
    ray = cone_from_generators(2, [(3, 6)])
    origin = make_cell(2, vertices=[(0, 0)])
    for child, form in ray.facet_cells():
        assert child == origin
        assert lattice_normal(ray, origin, form) == (1, 2)


def test_balancing():
    l21 = make_cycle(
        2,
        1,
        [
            (cone_from_generators(2, [(-1, 0)]), 1),
            (cone_from_generators(2, [(0, -1)]), 1),
            (cone_from_generators(2, [(1, 1)]), 1),
        ],
    )
    assert is_balanced(l21)
    bad = make_cycle(
        2,
        1,
        [
            (cone_from_generators(2, [(-1, 0)]), 1),
            (cone_from_generators(2, [(0, -1)]), 2),
            (cone_from_generators(2, [(1, 1)]), 1),
        ],
    )
    assert not is_balanced(bad)
    # weights 2 with a kink of index 2 balance against weight 1 directions
    kink = make_cycle(
        2,
        1,
        [
            (cone_from_generators(2, [(1, 0)]), 1),
            (cone_from_generators(2, [(0, 1)]), 1),
            (cone_from_generators(2, [(-1, -1)]), 1),
        ],
    )
    assert is_balanced(kink)


def test_assemble_overlapping_segments():
    seg = lambda a, b: make_cell(1, vertices=[(a,), (b,)])
    x = make_cycle(1, 1, [(seg(0, 2), 1)])
    y = make_cycle(1, 1, [(seg(1, 3), 2)])
    s = add_cycles(x, y)
    assert s.cells == (
        (seg(0, 1), 1),
        (seg(1, 2), 3),
        (seg(2, 3), 2),
    )
    z = add_cycles(s, scale_cycle(s, -1))
    assert z.is_empty
    assert cycles_equal(s, s)


def test_cycles_equal_across_subdivisions():
    seg = lambda a, b: make_cell(1, vertices=[(a,), (b,)])
    one = make_cycle(1, 1, [(seg(0, 2), 3)])
    two = make_cycle(1, 1, [(seg(0, 1), 3), (seg(1, 2), 3)])
    assert cycles_equal(one, two)
    assert not cycles_equal(one, make_cycle(1, 1, [(seg(0, 2), 2)]))
    assert not cycles_equal(one, make_cycle(1, 1, [(seg(0, 3), 3)]))
    assert cycles_equal(empty_cycle(1), empty_cycle(1))
    assert not cycles_equal(one, empty_cycle(1))


def cross_by_make_cell(a, b):
    """The product cell from the concatenated generators."""
    n = a.ambient_dim + b.ambient_dim
    if a.is_empty or b.is_empty:
        return make_cell(n)
    za, zb = (0,) * a.ambient_dim, (0,) * b.ambient_dim
    return make_cell(
        n,
        [va + vb for va in a.vertices for vb in b.vertices],
        [r + zb for r in a.rays] + [za + r for r in b.rays],
        [l + zb for l in a.lineality] + [za + l for l in b.lineality],
    )


def test_cross_product_cycle():
    seg = make_cycle(1, 1, [(make_cell(1, vertices=[(0,), (1,)]), 2)])
    sq = cross(seg, seg)
    assert sq.ambient_dim == 2 and sq.dim == 2
    assert len(sq.cells) == 1
    cell, w = sq.cells[0]
    assert w == 4
    assert cell == make_cell(2, vertices=[(0, 0), (1, 0), (0, 1), (1, 1)])
    # cross_cells builds from homogeneous generators: the very cell, under
    # the same build memo key, that make_cell builds from the concatenated
    # vertices, rays and lineality
    rng = random.Random(31)
    cells = [random_cell(rng, rng.choice((1, 2))) for _ in range(30)]
    cells += [
        make_cell(1),
        make_cell(2),
        make_cell(2, vertices=[(F(1, 3), F(-2, 5))], rays=[(1, 2)], lineality=[(1, -1)]),
        make_cell(1, vertices=[(F(-7, 4),), (F(5, 6),)]),
    ]
    for a in cells:
        for b in rng.sample(cells, 3) + [make_cell(2)]:
            got = cross_cells(a, b)
            memo_size = len(_BUILD_MEMO)
            assert got is cross_by_make_cell(a, b)
            assert len(_BUILD_MEMO) == memo_size
            assert got.is_empty == (a.is_empty or b.is_empty)
            assert got.is_empty or got.dim == a.dim + b.dim


def test_star_and_hidden_lineality():
    seg = make_cell(2, vertices=[(0, 0), (2, 0)])
    x = make_cycle(2, 1, [(seg, 1)])
    mid = (F(1), F(0))
    st = star(x, seg, mid)
    assert len(st.cells) == 1
    cell, w = st.cells[0]
    assert w == 1 and cell.lineality == ((1, 0),) and cell.is_cone
    end = star(x, make_cell(2, vertices=[(0, 0)]), (0, 0))
    assert end.cells[0][0] == cone_from_generators(2, [(1, 0)])
    with pytest.raises(TropicalGeometryError):
        star(x, seg, (0, 0))  # not in the relative interior


def test_star_of_fan_at_origin_is_itself():
    cones = [
        cone_from_generators(2, [(-1, 0)]),
        cone_from_generators(2, [(0, -1)]),
        cone_from_generators(2, [(1, 1)]),
    ]
    x = make_cycle(2, 1, [(c, 1) for c in cones])
    origin = make_cell(2, vertices=[(0, 0)])
    assert star(x, origin, (0, 0)) == x
    # the star of a point is the origin, with the point's weight
    p = make_cell(2, vertices=[(3, 1)])
    at_p = star(make_cycle(2, 0, [(p, 2)]), p, (3, 1))
    assert at_p == make_cycle(2, 0, [(origin, 2)])


def test_stellar_subdivision():
    quad = make_cycle(2, 2, [(cone_from_generators(2, [(1, 0), (0, 1)]), 3)])
    sub = stellar_subdivide(quad, (2, 2))
    assert len(sub.cells) == 2
    assert cycles_equal(quad, sub)
    assert {c.rays for c, _ in sub.cells} == {
        ((1, 0), (1, 1)),
        ((0, 1), (1, 1)),
    }
    # subdividing along an existing ray is the identity
    again = stellar_subdivide(sub, (1, 1))
    assert again == sub
    with pytest.raises(TropicalGeometryError):
        stellar_subdivide(quad, (-1, 0))
    # a ray in the lineality leaves the cone whole; one off it subdivides
    wedge = cone_from_generators(3, [(1, 0, 0), (0, 1, 0)], [(0, 0, 1)])
    prism = make_cycle(3, 3, [(wedge, 1)])
    assert stellar_subdivide(prism, (0, 0, -2)) == prism
    split = stellar_subdivide(prism, (1, 1, 5))
    assert len(split.cells) == 2 and cycles_equal(split, prism)


def test_common_refinement_and_cover():
    line = make_cycle(2, 1, [(make_cell(2, vertices=[(0, 0)], lineality=[(1, 0)]), 2)])
    halves = Complex(
        2,
        [
            make_cell(2, vertices=[(0, 0)], rays=[(1, 0), (0, 1), (0, -1)], lineality=[(0, 1)]),
            make_cell(2, vertices=[(0, 0)], rays=[(-1, 0)], lineality=[(0, 1)]),
        ],
    )
    refined = common_refinement(line, halves)
    assert len(refined.cells) == 2
    assert cycles_equal(line, refined)
    assert all(w == 2 for _, w in refined.cells)
    hole = Complex(2, [make_cell(2, vertices=[(0, 0)], rays=[(1, 0)], lineality=[(0, 1)])])
    with pytest.raises(TropicalGeometryError):
        common_refinement(line, hole)
    # along the regions of a random plane arrangement, the refinement is
    # the full-dimensional part of every cell met with every region
    rng = random.Random(99)
    space = make_cell(3, vertices=[(0, 0, 0)], lineality=[(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    for _ in range(6):
        planes = [tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(3)]
        planes = [h for h in planes if any(h[:3])]
        regions = []
        for signs in itertools.product((1, -1), repeat=len(planes)):
            forms = [tuple(s * v for v in h) for s, h in zip(signs, planes)]
            region = cut_cell_by_hom_forms(space, forms)
            if not region.is_empty and region.dim == 3:
                regions.append(region)
        for dim in (1, 2):
            cells = [c for c in (random_cell(rng) for _ in range(30)) if c.dim == dim]
            x = make_cycle(3, dim, [(c, 1) for c in cells[:3]])
            pieces = [
                (p, w)
                for sigma, w in x.cells
                for p in {intersect_cells(sigma, r) for r in regions}
                if not p.is_empty and p.dim == dim
            ]
            assert common_refinement(x, Complex(3, regions)) == make_cycle(3, dim, pieces)
    # a carrier cell the sign test skips never meets the cell in full
    # dimension; over random cells some are skipped and some full meetings kept
    rng = random.Random(4242)
    skipped = full = 0
    for _ in range(30):
        carrier = Complex(2, [random_cell(rng, 2) for _ in range(5)])
        forms, needs = carrier._side_needs()
        # each sparse form, expanded, is one distinct carrier hyperplane
        expanded = []
        for form in forms:
            dense = [0, 0, 0]
            for i, v in form:
                assert v
                dense[i] = v
            expanded.append(tuple(dense))
        assert len(set(expanded)) == len(forms)
        assert set(expanded) == {
            _hyperplane_key(f) for c in carrier.maximal for f in c.hom_facets + c.hom_eqs
        }
        for _ in range(4):
            sigma = random_cell(rng, 2)
            if sigma.is_empty:
                continue
            missed = _missed_sides(sigma, forms)
            for c, need in zip(carrier.maximal, needs):
                piece = intersect_cells(sigma, c)
                meets = not piece.is_empty and piece.dim == sigma.dim
                if not missed.isdisjoint(need):
                    skipped += 1
                    assert not meets
                full += meets
    assert skipped and full


def containment_cover_check(sigma, pieces):
    """The cover check that scans facet cells: a facet met by a single
    piece must lie in a facet cell of sigma."""
    if not pieces:
        raise TropicalGeometryError("carrier does not cover cycle")
    if len(pieces) == 1 and pieces[0] == sigma:
        return
    census = {}
    for p in pieces:
        for child, _ in p.facet_cells():
            census[child] = census.get(child, 0) + 1
    boundary = [fc for fc, _ in sigma.facet_cells()]
    for child, count in census.items():
        if count == 2:
            continue
        if count > 2:
            raise VerificationError("refinement pieces overlap")
        if not any(fc.contains_cell(child) for fc in boundary):
            raise TropicalGeometryError("carrier does not cover cycle")


def cover_verdict(check, sigma, pieces):
    try:
        check(sigma, pieces)
    except (TropicalGeometryError, VerificationError) as exc:
        return type(exc)
    return None


def test_check_cover_matches_containment_oracle():
    """check_cover tells boundary facets by their facet forms; the facet-cell
    containment scan gives the same verdict on tilings, holes and overlaps."""
    rng = random.Random(2718)
    cells = [random_cell(rng, 2) for _ in range(40)]
    cells += [random_cell(rng, 3) for _ in range(20)]
    # 2-cells of R^3 (nonempty equations), Fraction vertices, lineality
    cells += [
        make_cell(3, vertices=[(0, 0, F(1, 2)), (2, 0, F(5, 2)), (0, 3, F(1, 2))]),
        make_cell(3, vertices=[(F(1, 3), 0, 0)], rays=[(1, 1, 0)], lineality=[(0, 0, 1)]),
        make_cell(3, vertices=[(0, 0, 0), (1, 2, 3)], lineality=[(1, -1, 0)]),
        make_cell(2, vertices=[(F(-1, 2), 0), (F(3, 2), 1)], lineality=[(1, 1)]),
    ]
    seen = {"tilings": 0, "holes": 0, "overlaps": 0, "dims": set()}
    for sigma in cells:
        if sigma.is_empty or sigma.dim < 1:
            continue
        n = sigma.ambient_dim
        tiles = {sigma}
        for _ in range(rng.randint(1, 3)):
            a = tuple(rng.randint(-2, 2) for _ in range(n))
            if not any(a):
                continue
            b = -math.floor(vec_dot(a, sigma.relint_point())) + rng.randint(-1, 1)
            h = a + (b,)
            tiles = {
                q
                for t in tiles
                for q in (
                    cut_cell_by_hom_forms(t, [h]),
                    cut_cell_by_hom_forms(t, [tuple(-v for v in h)]),
                )
                if not q.is_empty and q.dim == sigma.dim
            }
        tiles = sorted(tiles, key=lambda c: c.key())
        seen["tilings"] += len(tiles) > 1
        seen["dims"].add((n, sigma.dim, bool(sigma.hom_eqs)))
        assert cover_verdict(check_cover, sigma, tiles) is None
        assert cover_verdict(containment_cover_check, sigma, tiles) is None
        for i in range(len(tiles)):
            hole = tiles[:i] + tiles[i + 1 :]
            overlap = tiles[: i + 1] + tiles[i:]
            for pieces, kind in ((hole, "holes"), (overlap, "overlaps")):
                got = cover_verdict(check_cover, sigma, pieces)
                assert got is cover_verdict(containment_cover_check, sigma, pieces)
                if len(tiles) > 1:
                    want = TropicalGeometryError if kind == "holes" else VerificationError
                    assert got is want
                    seen[kind] += 1
    assert seen["tilings"] >= 40 and seen["holes"] and seen["overlaps"]
    assert {(2, 2, False), (3, 2, True), (3, 3, False)} <= seen["dims"]


def test_complex_validation():
    good = Complex(
        2,
        [
            cone_from_generators(2, [(1, 0), (0, 1)]),
            cone_from_generators(2, [(0, 1), (-1, 0)]),
        ],
    )
    good.validate()
    bad = Complex(
        2,
        [
            cone_from_generators(2, [(1, 0), (0, 1)]),
            cone_from_generators(2, [(1, 1), (-1, 1)]),
        ],
    )
    with pytest.raises(TropicalGeometryError):
        bad.validate()
    assert good.is_simplicial_fan()


def test_complex_closure():
    quad = cone_from_generators(2, [(1, 0), (0, 1)])
    cx = Complex(2, [quad])
    cells = cx.all_cells()
    # cone, two rays and the origin
    assert len(cells) == 4
    assert sorted(c.dim for c in cells) == [0, 1, 1, 2]


def test_pushforward():
    line = make_cycle(2, 1, [(make_cell(2, vertices=[(0, 0)], lineality=[(1, 1)]), 1)])
    image = pushforward_cycle(((1, 1),), line)
    assert image.cells == ((make_cell(1, vertices=[(0,)], lineality=[(1,)]), 2),)
    dropped = pushforward_cycle(((1, -1),), line)
    assert dropped.is_empty
    # translation moves vertices but not rays
    seg = make_cycle(2, 1, [(make_cell(2, vertices=[(0, 0), (1, 1)]), 1)])
    moved = pushforward_cycle(((1, 0), (0, 1)), seg, translation=(5, 0))
    assert moved.cells[0][0] == make_cell(2, vertices=[(5, 0), (6, 1)])


def test_map_cell_affine():
    sq = make_cell(2, vertices=[(0, 0), (1, 0), (0, 1), (1, 1)])
    img = map_cell(sq, ((1, 2),), translation=(10,))
    assert img == make_cell(1, vertices=[(10,), (13,)])


def test_degree_and_zero_cycles():
    pts = make_cycle(
        2,
        0,
        [
            (make_cell(2, vertices=[(1, 1)]), 2),
            (make_cell(2, vertices=[(0, 0)]), -1),
        ],
    )
    assert degree(pts) == 1
    summary = ZeroCycleSummary(pts)
    assert summary.degree == 1
    assert set(zip(summary.points, summary.weights)) == {
        ((F(0), F(0)), -1),
        ((F(1), F(1)), 2),
    }
    assert degree(empty_cycle(2)) == 0
    with pytest.raises(TropicalGeometryError):
        degree(make_cycle(1, 1, [(make_cell(1, vertices=[(0,), (1,)]), 1)]))


def test_make_cycle_merging_and_purity():
    c = cone_from_generators(2, [(1, 0)])
    merged = make_cycle(2, 1, [(c, 2), (c, 3)])
    assert merged.cells == ((c, 5),)
    assert make_cycle(2, 1, [(c, 2), (c, -2)]).is_empty
    with pytest.raises(TropicalGeometryError):
        make_cycle(
            2,
            1,
            [(c, 1), (make_cell(2, vertices=[(0, 0)]), 1)],
        )


def test_facet_data_pairing():
    seg = lambda a, b: make_cell(1, vertices=[(a,), (b,)])
    cells = [seg(0, 1), seg(1, 2)]
    data = facet_data(cells)
    shared = make_cell(1, vertices=[(1,)])
    assert {i for i, _ in data[shared]} == {0, 1}


def test_star_cell_translation():
    sq = make_cell(2, vertices=[(1, 1), (2, 1), (1, 2), (2, 2)])
    st = star_cell(sq, (F(1), F(1)))
    assert st == cone_from_generators(2, [(1, 0), (0, 1)])


def test_cells_are_unique():
    """Equal cells are one object, however they are reached, also after
    clear_caches(); a cell that nothing holds leaves the pool."""
    corners = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0)]
    square = make_cell(3, corners)
    # permuted and redundant generators
    assert make_cell(3, corners[::-1] + [(1, 1, 0), (2, 1, 0), (0, 0, 0)]) is square
    # a cut by x + 5 >= 0, which keeps the cell
    assert cut_cell_by_hom_forms(square, ((1, 0, 0, 5),)) is square
    # a face of the cube [0, 2]^3
    cube = make_cell(3, corners + [v[:2] + (2,) for v in corners])
    assert cube.face_at((1, 1, 0)) is square
    assert sum(face is square for face, _ in cube.facet_cells()) == 1
    # products with the point of R^0
    origin = make_cell(0, [()])
    assert cross_cells(square, origin) is square and cross_cells(origin, square) is square
    x = make_cycle(3, 2, [(square, 3)])
    assert cross(x, rn_cycle(0)).cells[0][0] is square
    assert cross(rn_cycle(0), x).cells[0][0] is square
    # a document round trip
    assert parse_document(serialize(x)).cells[0][0] is square
    # the pool is not a cache: a live cell is rebuilt as the same object
    clear_caches()
    assert make_cell(3, corners) is square and polyhedra._CELL_POOL[square.key()] is square
    # and a cell nothing holds leaves it
    triangle = make_cell(3, [(0, 0, 0), (7919, 0, 0), (0, 7919, 0)])
    key = triangle.key()
    assert polyhedra._CELL_POOL[key] is triangle
    del triangle
    clear_caches()
    gc.collect()
    assert key not in polyhedra._CELL_POOL


# -- facets by incidence against the dual double description --------------


def fresh(build):
    """The `cell_data` of build() run against an empty build memo and an
    empty cell pool, so that the cell is computed and not looked up; both
    are put back afterwards.  A fresh build is a second object by design,
    so callers compare its data, not the cell."""
    saved, pool = dict(_BUILD_MEMO), polyhedra._CELL_POOL
    _BUILD_MEMO.clear()
    polyhedra._CELL_POOL = weakref.WeakValueDictionary()
    try:
        return cell_data(build())
    finally:
        polyhedra._CELL_POOL = pool
        _BUILD_MEMO.clear()
        _BUILD_MEMO.update(saved)


def cell_data(cell):
    return cell.key(), cell.dim, cell.hom_facets, cell.hom_eqs


def facets_by_rank(hgens, hlin):
    """Reference for the facet pick of a build from bare generators: a
    generator d of the dual cone spans an extreme ray, so defines a facet,
    iff the generators tight on d, with the lineality, have rank one less
    than the cone.  Each facet form is reduced modulo the span equations."""
    hgens = tuple(g for g in hgens if any(g))
    hlin = tuple(l for l in hlin if any(l))
    n1 = len(hgens[0])
    eqs = integer_kernel(hgens + hlin, n1)
    rank = n1 - len(eqs)
    drays = polyhedra._cut((), _unit_rows(n1), (), hlin, hgens)[0]
    facets = set()
    for d in drays:
        tight = [g for g in hgens if vec_dot(g, d) == 0] + list(hlin)
        if frac_rank(tight) == rank - 1:
            facets.add(_reduce_mod(d, eqs))
    facets.discard(None)
    return tuple(sorted(facets))


def extremes_by_rank(hgens, facets, plin):
    """Reference for the vertices and rays of a build: g spans an extreme
    ray iff the facets tight on it, with the span equations, have rank one
    less than all of them."""
    n1 = len(hgens[0])
    eqs = integer_kernel(tuple(hgens) + tuple(plin), n1)
    primal_rank = n1 - len(plin)
    out = set()
    for g in hgens:
        tight = [f for f in facets if vec_dot(f, g) == 0] + list(eqs)
        if frac_rank(tight) == primal_rank - 1:
            out.add(_reduce_mod(g, plin))
    return out


def checked_bare_build(ambient_dim, hgens, hlin):
    """The build without candidates, its facets checked against the rank
    test on the dual cone's generators and its vertices and rays against
    the rank test on the given generators."""
    cell = _build_from_hom(ambient_dim, hgens, hlin)
    if not cell.is_empty:
        assert cell.hom_facets == facets_by_rank(hgens, hlin)
        assert set(cell.hom_gens()) == extremes_by_rank(
            hgens, cell.hom_facets, cell.hom_lin()
        )
    return cell


def both_ways(ambient_dim, hgens, hlin, forms):
    """The cell built from candidate facets, and the one the dual pass
    builds from the same generators (checked against the rank tests); a
    rejected build reads as its error."""
    out = []
    for build in (
        lambda: _build_from_hom(ambient_dim, hgens, hlin, lambda: forms),
        lambda: checked_bare_build(ambient_dim, hgens, hlin),
    ):
        try:
            out.append(fresh(build))
        except VerificationError as exc:
            out.append(type(exc))
    return out


@pytest.fixture
def extremes_checked(monkeypatch):
    """Compare the vertices and rays of every build with the rank test on
    its generators.  Returns the list of generator counts of the checked
    builds."""
    build = polyhedra._build_from_hom
    checked = []

    def checking(ambient_dim, hgens, hlin, candidates=None, **known):
        cell = build(ambient_dim, hgens, hlin, candidates, **known)
        if not cell.is_empty:
            want = extremes_by_rank(hgens, cell.hom_facets, cell.hom_lin())
            assert set(cell.hom_gens()) == want
            checked.append(len(hgens))
        return cell

    monkeypatch.setattr(polyhedra, "_build_from_hom", checking)
    return checked


@pytest.fixture
def dual_checked(monkeypatch, extremes_checked):
    """Compare every build that is given candidate facets with the dual
    double description of the same generators, the facets of every build
    without candidates with the rank test on the dual cone's generators,
    and the vertices and rays of every build with the rank test.  Returns
    the list of generator counts of the builds given candidate facets."""
    build = polyhedra._build_from_hom
    builds = []
    bare = []

    def checking(ambient_dim, hgens, hlin, candidates=None, **known):
        cell = build(ambient_dim, hgens, hlin, candidates, **known)
        if candidates is None:
            bare.append(len(hgens))
            if not cell.is_empty:
                assert cell.hom_facets == facets_by_rank(hgens, hlin)
        else:
            got, want = both_ways(ambient_dim, hgens, hlin, tuple(candidates()))
            assert got == want
            builds.append(len(hgens))
        return cell

    monkeypatch.setattr(polyhedra, "_build_from_hom", checking)
    yield builds
    assert len(extremes_checked) >= len(builds)
    assert bare


def test_faces_by_incidence_match_the_dual_pass(dual_checked):
    rng = random.Random(8080)
    faces = {2: 0, 3: 0, 4: 0}
    for n in faces:
        for _ in range(12):
            cell = random_cell(rng, n)
            if cell.is_empty:
                continue
            for face in Complex(n, [cell]).all_cells():
                assert cell.face_at(face.relint_point()) == face
                faces[n] += 1
    assert all(count >= 30 for count in faces.values())
    assert len(dual_checked) >= 100


def test_cuts_by_incidence_match_the_dual_pass(dual_checked):
    rng = random.Random(6161)
    kinds = {"meets": 0, "cuts": 0, "hyperplanes": 0, "sums": 0}
    for n in (2, 3):
        for _ in range(15):
            a, b = random_cell(rng, n), random_cell(rng, n)
            if a.is_empty or b.is_empty:
                continue
            kinds["meets"] += not intersect_cells(a, b).is_empty
            h = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(h):
                h += (-math.floor(vec_dot(h, a.relint_point())) + rng.randint(-1, 1),)
                for side in (h, vec_neg(h)):
                    kinds["cuts"] += not cut_cell_by_hom_forms(a, [side]).is_empty
                kinds["hyperplanes"] += not cut_cell_by_hom_forms(b, [], [h]).is_empty
            if a.dim == b.dim:
                add_cycles(make_cycle(n, a.dim, [(a, 1)]), make_cycle(n, b.dim, [(b, 2)]))
                kinds["sums"] += 1
    assert all(kinds.values())
    assert len(dual_checked) >= 100


def full_recession(cell):
    """True iff the recession cone has the dimension of the cell."""
    return frac_rank(cell.rays + cell.lineality) == cell.dim


def has_t_facet(cell):
    t = (0,) * cell.ambient_dim + (1,)
    return _reduce_mod(t, cell.hom_eqs) in cell.hom_facets


def test_products_by_incidence_match_the_dual_pass(dual_checked):
    rng = random.Random(5151)
    point = make_cell(1, vertices=[(F(2, 3),)])
    cones = [
        cone_from_generators(2, [(1, 0), (1, 2)]),
        cone_from_generators(2, [(-1, 1)]),
        cone_from_generators(1, [(1,)]),
    ]
    polytopes = [
        make_cell(2, vertices=[(0, 0), (2, 1), (F(1, 2), 3)]),
        make_cell(1, vertices=[(F(-1, 2),), (4,)]),
    ]
    unbounded = [
        make_cell(2, vertices=[(0, 0), (1, 0)], rays=[(0, 1)]),
        make_cell(1, vertices=[(3,)], rays=[(-1,)]),
    ]
    with_lineality = [
        make_cell(2, vertices=[(1, 1)], lineality=[(1, -1)]),
        make_cell(2, vertices=[(0, 0)], rays=[(1, 0)], lineality=[(0, 1)]),
        make_cell(2, vertices=[(0, 0), (2, 0)], lineality=[(1, 1)]),
    ]
    pairs = [(point, c) for c in cones] + [(c, point) for c in cones]
    pairs += [(p, u) for p in polytopes for u in unbounded]
    pairs += [(u, p) for p in polytopes for u in unbounded]
    pairs += [(l, c) for l in with_lineality for c in with_lineality + cones + [point]]
    seeded = [random_cell(rng, rng.choice((1, 2))) for _ in range(12)]
    pairs += [(a, b) for a in seeded for b in rng.sample(seeded, 2)]
    seen = set()
    for a, b in pairs:
        if a.is_empty or b.is_empty:
            continue
        c = cross_cells(a, b)
        assert c.dim == a.dim + b.dim
        for x in (a, b, c):
            assert has_t_facet(x) == full_recession(x)
        assert has_t_facet(c) == (full_recession(a) and full_recession(b))
        seen.add(has_t_facet(c))
    assert seen == {True, False}
    assert len(dual_checked) >= 40


def test_one_generator_cells_have_the_lineality_face_as_facet(dual_checked):
    space = make_cell(3, vertices=[(0, 0, 0)], lineality=_unit_rows(3))
    seg = make_cell(3, vertices=[(0, 0, 0), (1, F(1, 2), 2)])
    lines = [make_cell(2, vertices=[(0, 0)], lineality=[l]) for l in ((1, 1), (1, -2))]
    built = [child for child, _ in seg.facet_cells()]
    built += [intersect_cells(*lines), seg.face_at((0, 0, 0))]
    built += [
        cut_cell_by_hom_forms(space, [], [(1, 2, 0, -1)]),
        cut_cell_by_hom_forms(space, [], [(1, 2, 0, -1), (0, 0, 1, 3)]),
        cut_cell_by_hom_forms(lines[0], [(1, 0, 0)], [(1, 0, 0)]),
    ]
    for cell in built:
        assert len(cell.hom_gens()) == 1
        assert len(cell.hom_facets) == 1
        assert cell.facet_cells() == ()
    assert {c.dim for c in built} == {0, 1, 2}
    assert len(dual_checked) == len(built)


def test_candidate_sets_with_equalities_and_parallel_forms():
    rng = random.Random(4040)
    tried = 0
    for n in (2, 3, 4):
        for _ in range(10):
            cell = random_cell(rng, n)
            if cell.is_empty:
                continue
            gens, lin = cell.hom_gens(), cell.hom_lin()
            # implicit equalities: the span equations, both signs, and
            # forms that vanish on the whole cell
            forms = list(cell.hom_eqs) + [vec_neg(e) for e in cell.hom_eqs]
            # duplicate and parallel forms of every facet: scaled, and moved
            # along the span equations
            for f in cell.hom_facets:
                forms += [f, f, tuple(3 * v for v in f)]
                for e in cell.hom_eqs:
                    k = rng.randint(-2, 2)
                    forms.append(tuple(2 * x + k * y for x, y in zip(f, e)))
            rng.shuffle(forms)
            got, want = both_ways(n, gens, lin, forms)
            assert got == want == cell_data(cell)
            # a candidate that cuts the cell is refused
            cutting = vec_neg(cell.hom_facets[0])
            assert both_ways(n, gens, lin, forms + [cutting])[0] is VerificationError
            # a dropped candidate that defines a facet fails the comparison
            for f in cell.hom_facets:
                rest = [g for g in cell.hom_facets if g != f]
                assert both_ways(n, gens, lin, rest)[0] != want
            tried += 1
    assert tried >= 25


def test_builds_from_known_cells_run_no_dual_pass(monkeypatch):
    clear_caches()
    rng = random.Random(3030)
    cells = {n: [random_cell(rng, n) for _ in range(8)] for n in (2, 3)}
    calls = []
    cut = polyhedra._cut

    def counting(rays, *args):
        if not rays:  # the dual pass cuts the whole space
            calls.append(args)
        return cut(rays, *args)

    monkeypatch.setattr(polyhedra, "_cut", counting)
    memo_size = len(_BUILD_MEMO)
    for n, found in cells.items():
        found = [c for c in found if not c.is_empty]
        for a, b in zip(found, found[1:]):
            for face in Complex(n, [a]).all_cells():
                a.face_at(face.relint_point())
            intersect_cells(a, b)
            h = tuple(rng.randint(-2, 2) for _ in range(n)) + (1,)
            cut_cell_by_hom_forms(a, [h])
            cut_cell_by_hom_forms(b, [], [h])
            cross_cells(a, b)
            if a.dim == b.dim:
                add_cycles(make_cycle(n, a.dim, [(a, 1)]), make_cycle(n, b.dim, [(b, 1)]))
    assert len(_BUILD_MEMO) > memo_size + 50
    assert calls == []
    # the same count sees the dual pass of a cell from bare generators
    make_cell(2, vertices=[(0, 0), (5, 0), (0, 7)])
    assert len(calls) == 1


def test_cube_facets_match_the_rank_test():
    """The 4- and 5-cubes from their vertices, and the 4-cube again with
    its centre or its 32 edge midpoints as redundant generators: the dual
    pass gives the 2n facets and the primal pass the 2^n vertices."""
    for n in (4, 5):
        corners = list(itertools.product((0, 1), repeat=n))
        cube = make_cell(n, corners)
        assert fresh(lambda: make_cell(n, corners)) == cell_data(cube)
        assert len(cube.hom_facets) == 2 * n and len(cube.vertices) == 2 ** n
        assert cube.hom_facets == facets_by_rank(cube.hom_gens(), ())
    corners = list(itertools.product((0, 1), repeat=4))
    cube = make_cell(4, corners)
    midpoints = [
        c[:i] + (F(1, 2),) + c[i + 1:] for c in corners for i in range(4) if not c[i]
    ]
    assert len(midpoints) == 32
    assert fresh(lambda: make_cell(4, corners + midpoints)) == cell_data(cube)
    for extra in ([(F(1, 2),) * 4], midpoints):
        hgens = cube.hom_gens() + tuple(
            primitive_vector(clear_denominators(tuple(p) + (1,))[0]) for p in extra
        )
        assert fresh(lambda: checked_bare_build(4, hgens, ())) == cell_data(cube)


# -- vertices and rays of bare builds against the rank test ---------------


def cell_with_lineality(rng, n):
    """A seeded cell in R^n with one or two lineality directions and
    rational vertices."""
    lin = []
    while len(lin) < rng.randint(1, 2):
        l = tuple(rng.randint(-2, 2) for _ in range(n))
        if any(l):
            lin.append(l)
    verts = [
        tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n))
        for _ in range(rng.randint(1, 3))
    ]
    rays = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, 2))]
    return make_cell(n, verts, rays, lin)


def messy_generators(rng, cell):
    """Generators of the cell's homogenization with duplicates, positive
    multiples, shifts along the lineality, sums of two generators and
    generators that lie in the lineality."""
    gens, lin = list(cell.hom_gens()), list(cell.hom_lin())
    extra = []
    for g in gens:
        extra += [g, tuple(3 * x for x in g)]
        for l in lin:
            k = rng.randint(-2, 2)
            extra.append(tuple(x + k * y for x, y in zip(g, l)))
    for g, h in zip(gens, gens[1:]):
        extra.append(tuple(x + y for x, y in zip(g, h)))
    for l in lin:
        extra += [l, vec_neg(l), tuple(2 * x for x in l)]
    out = gens + extra
    rng.shuffle(out)
    return tuple(out)


def test_extreme_generators_by_incidence_match_the_rank_test():
    rng = random.Random(7272)
    tried = {2: 0, 3: 0, 4: 0}
    for n in tried:
        for _ in range(20):
            cell = cell_with_lineality(rng, n)
            if cell.is_empty:
                continue
            lin, want = cell.hom_lin(), set(cell.hom_gens())
            assert lin
            for hgens in (cell.hom_gens(), messy_generators(rng, cell)):
                assert extremes_by_rank(hgens, cell.hom_facets, lin) == want
                # the build from those generators keeps the cell
                assert fresh(lambda: checked_bare_build(n, hgens, lin)) == cell_data(cell)
            built = fresh(
                lambda: _build_from_hom(n, cell.hom_gens(), lin, lambda: cell.hom_facets)
            )
            assert built == cell_data(cell)
            tried[n] += 1
    assert all(count >= 15 for count in tried.values())


def test_extreme_generators_skip_the_lineality(extremes_checked):
    # every generator of a line but one lies in its lineality
    line = make_cell(2, vertices=[(F(1, 2), 0)], lineality=[(1, 1)])
    (vertex,) = line.hom_gens()
    lin = line.hom_lin()
    hgens = (vertex, lin[0], vec_neg(lin[0]), (2, 2, 0))
    assert fresh(lambda: polyhedra._build_from_hom(2, hgens, lin)) == cell_data(line)
    # a generator of the lineality sits in the smallest face of every other
    plane = make_cell(3, vertices=[(0, 0, 1)], rays=[(1, 0, 0)], lineality=[(0, 1, 0)])
    hgens = plane.hom_gens() + ((0, 1, 0, 0), (0, -3, 0, 0), (1, 1, 0, 0), (0, 2, 2, 2))
    built = fresh(lambda: polyhedra._build_from_hom(3, hgens, plane.hom_lin()))
    assert built == cell_data(plane)
    # the two cells from make_cell, then the two builds above
    assert len(extremes_checked) == 4


# -- direction lattices from span equations -------------------------------


def saturated_span_of_generators(cell):
    """Reference for Cell.direction_lattice: the lattice of integer points
    in the span of the vertex differences, rays and lineality, as the
    kernel of its integer kernel."""
    n = cell.ambient_dim
    v0 = cell.vertices[0]
    dirs = [
        clear_denominators(tuple(a - b for a, b in zip(v, v0)))[0]
        for v in cell.vertices[1:]
    ]
    dirs = [d for d in dirs + list(cell.rays + cell.lineality) if any(d)]
    if not dirs:
        return ()
    ker = integer_kernel(dirs, n)
    return integer_kernel(ker, n) if ker else _unit_rows(n)


def test_direction_lattice_is_the_saturated_span_of_the_generators():
    rng = random.Random(9191)
    tried = 0
    for n in (1, 2, 3, 4):
        for _ in range(12):
            for cell in (random_cell(rng, n), cell_with_lineality(rng, n)):
                if cell.is_empty:
                    continue
                for face in Complex(n, [cell]).all_cells():
                    got = face.direction_lattice()
                    assert got == saturated_span_of_generators(face)
                    assert len(got) == face.dim
                    tried += 1
    assert tried >= 250


# -- vertex coordinates: ints where integral, Fractions elsewhere (every
# cell a test builds is checked by the conftest fixture) ------------------


def test_make_cell_interns_integral_fractions_as_ints():
    a = make_cell(2, vertices=[(F(2), F(6, 3))], rays=[(1, F(1))])
    b = make_cell(2, vertices=[(2, 2)], rays=[(1, 1)])
    assert a is b
    assert all(type(x) is int for x in a.vertices[0])
    half = make_cell(1, vertices=[(F(1, 2),), (F(4, 2),)])
    assert [type(v[0]) for v in half.vertices] == [Fraction, int]
    assert make_cell(1, vertices=[("1/2",), ("2",)]) is half


# -- rational directions are scaled, never truncated ----------------------


def test_rational_directions_are_scaled_to_primitive_vectors():
    origin = [(0, 0)]
    assert make_cell(2, origin, rays=[(F(1, 2), F(1, 3))]).rays == ((3, 2),)
    assert make_cell(2, origin, rays=[(F(1, 2), 1)]).rays == ((1, 2),)
    assert make_cell(2, origin, rays=[(F(-4, 2), 0)]).rays == ((-1, 0),)
    assert make_cell(2, origin, lineality=[(F(1, 2), F(1, 3))]) == make_cell(
        2, origin, lineality=[(3, 2)]
    )
    assert cone_from_generators(2, [(F(1, 2), 1)]) is cone_from_generators(2, [(1, 2)])
    assert cone_from_generators(2, [(F(1, 3), F(1, 3))], [(F(1, 2), 0)]) is (
        cone_from_generators(2, [(0, 1)], [(1, 0)])
    )
    quad = make_cycle(2, 2, [(cone_from_generators(2, [(1, 0), (0, 1)]), 1)])
    assert stellar_subdivide(quad, (F(1, 2), F(1, 3))) == stellar_subdivide(quad, (3, 2))
    assert len(stellar_subdivide(quad, (F(1, 2), 1)).cells) == 2
    with pytest.raises(TropicalGeometryError):
        stellar_subdivide(quad, (0, F(0)))


# -- balancing by span equations against span membership ------------------


def balanced_by_span_membership(x):
    """The balancing test through span membership of the lattice normals'
    sum in tau's direction lattice."""
    cells = [c for c, _ in x.cells]
    for tau, around in facet_data(cells).items():
        total = [0] * x.ambient_dim
        for idx, form in around:
            u = lattice_normal(cells[idx], tau, form)
            for i in range(x.ambient_dim):
                total[i] += x.cells[idx][1] * u[i]
        dirs = tau.direction_lattice()
        if frac_rank(dirs + (tuple(total),)) != frac_rank(dirs):
            return False
    return True


def seeded_curve(rng, n=2):
    """A balanced curve in R^n: rays from a rational vertex whose weighted
    primitive directions sum to zero."""
    vertex = tuple(F(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(n))
    rays = {}
    while len(rays) < 2:
        r = tuple(rng.randint(-2, 2) for _ in range(n))
        if any(r):
            rays.setdefault(primitive_vector(r), rng.randint(1, 2))
    rest = tuple(-sum(w * r[i] for r, w in rays.items()) for i in range(n))
    if not any(rest):
        return seeded_curve(rng, n)
    last = primitive_vector(rest)
    rays[last] = rays.get(last, 0) + math.gcd(*rest)
    return make_cycle(
        n, 1, [(make_cell(n, [vertex], [r]), w) for r, w in rays.items()]
    )


def test_balancing_by_span_equations_matches_span_membership():
    rng = random.Random(9191)
    line = make_cycle(1, 1, [(make_cell(1, [(F(1, 3),)], lineality=[(1,)]), 1)])
    verdicts = set()
    with_lineality = 0
    for _ in range(12):
        curve = seeded_curve(rng)
        for x in (curve, cross(curve, line), cross(line, seeded_curve(rng)), cross(curve, curve)):
            # the cycle itself, then one cell dropped, then one weight changed
            cells = list(x.cells)
            i = rng.randrange(len(cells))
            changed = cells[:]
            changed[i] = (cells[i][0], cells[i][1] + rng.choice((-1, 1, 2)))
            variants = [x, make_cycle(x.ambient_dim, x.dim, cells[:i] + cells[i + 1:])]
            variants.append(make_cycle(x.ambient_dim, x.dim, changed))
            cov = tuple(rng.randint(-2, 2) for _ in range(x.ambient_dim))
            phi = affine_function(x.ambient_dim, cov)
            for y in variants:
                if y.is_empty:
                    continue
                want = balanced_by_span_membership(y)
                assert is_balanced(y) == want
                try:
                    divisor(phi, y)
                except UnbalancedCycleError:
                    assert not want
                else:
                    assert want
                verdicts.add(want)
                with_lineality += any(c.lineality for c, _ in y.cells)
    assert verdicts == {True, False}
    assert with_lineality >= 40


# -- a refinement cuts each piece once -------------------------------------


def _reference_refine(x, carrier):
    """The refinement that meets every cell with every carrier cell the
    sign test keeps, with no reuse of the pieces found."""
    origin = {}
    for sigma, _ in x.cells:
        host = next((c for c in carrier.maximal if c.contains_cell(sigma)), None)
        if host is None:
            break
        origin[sigma] = host
    else:
        return x, origin
    origin = {}
    items = []
    forms, needs = carrier._side_needs()
    for sigma, w in x.cells:
        missed = _missed_sides(sigma, forms)
        pieces = {}
        for c, need in zip(carrier.maximal, needs):
            if not missed.isdisjoint(need):
                continue
            piece = intersect_cells(sigma, c)
            if not piece.is_empty and piece.dim == sigma.dim:
                pieces.setdefault(piece, c)
        check_cover(sigma, list(pieces))
        origin.update(pieces)
        items.extend((piece, w) for piece in pieces)
    return make_cycle(x.ambient_dim, x.dim, items), origin


def _refinements_of(run):
    """The (cycle, carrier) pairs that the divisors of `run()` refine."""
    calls = []
    real = functions._refine
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functions, "_refine", lambda x, c: calls.append((x, c)) or real(x, c))
        run()
    return calls


def _refinement_cases():
    """Operations, by name, whose refinements cover every kind of carrier."""
    rng = random.Random(15)
    l32, l43 = linear_space_context(3, 2), linear_space_context(4, 3)
    fan, affine, fan2 = _seeded_curve(rng), _seeded_affine_curve(rng), _seeded_curve(rng)
    l42 = build_lnk(4, 2)
    star = star_context(3, 2, cone_from_generators(3, [(1, 1, 1)]))
    line = make_cycle(
        3, 1, [(cone_from_generators(3, [s]), 1) for s in ((1, 1, 1), (-1, -1, -1))]
    )
    l21 = linear_space_context(2, 1)
    square = product_context(l21, l21)
    left = cross(make_cycle(2, 0, [(make_cell(2, [(-1, 0)]), 1)]), build_lnk(2, 1))
    right = cross(build_lnk(2, 1), make_cycle(2, 0, [(make_cell(2, [(0, -2)]), 1)]))
    p2 = projection_morphism((2, 2), 1)
    point = make_cycle(2, 0, [(make_cell(2, [(3, 3)]), 2)])
    # max(0, z - 1) lives on L^3_2 cut along z = 1, which is not a fan
    halves = Complex(
        3,
        [
            make_cell(3, [(0, 0, 1)], [(0, 0, 1)], _unit_rows(2, 3)),
            make_cell(3, [(0, 0, 1)], [(0, 0, -1)], _unit_rows(2, 3)),
        ],
    )
    cut = common_refinement(l32_cycle(), halves)
    phi = max_poly_function(cut, [((0, 0, 0), 0), ((0, 0, 1), -1)])
    return {
        "[C x D] along F^3_3": lambda: intersect_cycles(fan, affine, l32),
        "two fan curves along F^3_3": lambda: intersect_cycles(fan2, fan, l32),
        "[L^4_2 x L^4_2] along F^4_4": lambda: intersect_cycles(l42, l42, l43),
        "star at (1, 1, 1)": lambda: intersect_cycles(line, star.ambient, star),
        "product L^2_1 x L^2_1": lambda: intersect_cycles(left, right, square),
        "pulled-back graph of p2": lambda: pullback_cycle(p2, point, square, l21),
        "max(0, z - 1) on cut L^3_2": lambda: divisor(phi, fan),
    }


def test_refine_matches_the_reference_loop(monkeypatch):
    """Same cycle and same origins (hosts in the same order) as the loop
    that cuts every kept carrier cell, from empty caches.  Refined again,
    the memo answers: the same cells and origin, with no side test."""
    sides = []
    real = polyhedra._missed_sides
    monkeypatch.setattr(
        polyhedra, "_missed_sides", lambda *args: sides.append(1) or real(*args)
    )
    for name, run in _refinement_cases().items():
        refinements = _refinements_of(run)
        assert refinements, name
        for x, carrier in refinements:
            clear_caches()
            want, want_origin = _reference_refine(x, carrier)
            clear_caches()
            got, got_origin = _refine(x, carrier)
            assert got.cells == want.cells, name
            assert list(got_origin.items()) == list(want_origin.items()), name
            del sides[:]
            again, again_origin = _refine(x, carrier)
            assert not sides, name
            assert again.cells == got.cells, name
            assert list(again_origin.items()) == list(got_origin.items()), name


def test_refine_keeps_cycles_that_lie_in_their_carrier():
    """A cycle whose cells lie in carrier cells is its own refinement, and
    each cell is hosted by the first carrier cell, in `carrier.maximal`
    order, that contains it."""
    cases = [
        (build_lnk(3, 1), build_lnk(3, 2).complex()),
        (build_lnk(4, 2), build_lnk(4, 3).complex()),
        (fnk_cycle(3, 1), build_fnk(3, 3)),
        (fnk_cycle(3, 2), build_fnk(3, 3)),
    ]
    for x, carrier in cases:
        refined, origin = _refine(x, carrier)
        assert refined == x
        assert list(origin) == [sigma for sigma, _ in x.cells]
        for sigma, host in origin.items():
            assert host == next(c for c in carrier.maximal if c.contains_cell(sigma))


def _cuts_per_piece(x, carrier, refine=_refine):
    """The pieces of x along the carrier, and how often `refine` cut out
    each, from empty caches."""
    clear_caches()
    made = collections.Counter()
    real = polyhedra.cut_cell_by_hom_forms

    def cut(cell, ineqs, eqs=()):
        out = real(cell, ineqs, eqs)
        if not out.is_empty and out.dim == cell.dim:
            made[out] += 1
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyhedra, "cut_cell_by_hom_forms", cut)
        refined, _ = refine(x, carrier)
    return {c for c, _ in refined.cells}, made


def test_refinement_cuts_each_piece_once():
    """[C x D] for seeded curves of L^3_2 refined along F^3_3: a piece
    that lies in several carrier cells is cut for the first only.  The
    L^3_2 product itself refines [C x D] along the 78 cones of F^3_2."""
    rng = random.Random(15)
    ctx = linear_space_context(3, 2)
    fan, affine = _seeded_curve(rng), _seeded_affine_curve(rng)
    calls = _refinements_of(lambda: intersect_cycles(fan, affine, ctx))
    [used] = [c for x, c in calls if x == cross(fan, affine)]
    assert set(used.maximal) == set(build_fnk(3, 2).maximal) and len(used.maximal) == 78
    x, carrier = cross(fan, affine), build_fnk(3, 3)
    assert len(carrier.maximal) == 80
    pieces, made = _cuts_per_piece(x, carrier)
    assert set(made) == pieces and set(made.values()) == {1}
    # the reference loop cuts a piece once per carrier cell holding it
    _, again = _cuts_per_piece(x, carrier, _reference_refine)
    assert set(again) == pieces and max(again.values()) > 1


def hom_gens_by_vertices(cell):
    """The homogeneous generators re-derived from the vertices and rays:
    (w, t) primitive with w / t a vertex, in vertex order, then (r, 0)."""
    gens = tuple(
        primitive_vector(clear_denominators(tuple(v) + (1,))[0]) for v in cell.vertices
    )
    return gens + tuple(tuple(r) + (0,) for r in cell.rays)


def test_cells_keep_the_generators_their_vertices_give():
    """Every cell built in a seeded L^3_2 product, in F^3_3, by make_cell
    from redundant generators, and as faces and cuts of those keeps the
    homogeneous generators that its vertices, rays and lineality give, and
    its interior point lies in no proper face."""
    rng = random.Random(16)
    clear_caches()
    ctx = linear_space_context(3, 2)
    assert not intersect_cycles(_seeded_curve(rng), _seeded_affine_curve(rng), ctx).is_empty
    fan = build_fnk(3, 3)
    built = []
    for _ in range(20):
        n = rng.randint(2, 4)
        cell = cell_with_lineality(rng, n)
        built.append(_build_from_hom(n, messy_generators(rng, cell), cell.hom_lin()))
        built.append(random_cell(rng))
    for cell in fan.maximal + tuple(built):
        for child, _ in cell.facet_cells():
            if not child.is_empty:
                built.append(child.face_at(child.vertices[0]))
        a = (1,) + tuple(rng.randint(-2, 2) for _ in range(cell.ambient_dim - 1))
        h = a + (-math.floor(vec_dot(a, cell.relint_point())),)
        built.append(cut_cell_by_hom_forms(cell, (h,)))
    cells = [c for c in polyhedra._CELL_POOL.values() if not c.is_empty]
    assert set(fan.maximal) <= set(cells) and len(cells) > 500
    for cell in cells:
        assert cell.hom_gens() == hom_gens_by_vertices(cell), cell
        assert cell.hom_lin() == tuple(tuple(l) + (0,) for l in cell.lineality), cell
        assert cell.face_at(cell.relint_point()) == cell, cell


def test_facets_and_equations_are_primitive():
    """_hyperplane_key only orients a form, so every facet and span equation
    must be primitive: those of cells from make_cell, of cuts by forms that
    are not, of their faces and products, and of the lifted preimages of a
    pull-back along a coordinate projection with a rational shift."""
    rng = random.Random(19)
    clear_caches()
    cells = [random_cell(rng, rng.randint(2, 4)) for _ in range(40)]
    for cell in list(cells):
        a = (1,) + tuple(rng.randint(-2, 2) for _ in range(cell.ambient_dim - 1))
        h = a + (-math.floor(vec_dot(a, cell.relint_point())),)
        cells.append(cut_cell_by_hom_forms(cell, (tuple(2 * x for x in h),)))
    cells += [child for cell in cells for child, _ in cell.facet_cells()]
    cells += [cross_cells(rng.choice(cells), rng.choice(cells)) for _ in range(40)]
    rays = ((1, 1), (-1, 0), (0, -1))
    plane = Complex(2, [cone_from_generators(2, [rays[i], rays[i - 1]]) for i in range(3)])
    phi = functions.ray_function(plane, {(1, 1): 2, (-1, 0): -1})
    lifted = functions.pullback_function(
        ((0, 0, 1, 0), (0, 0, 0, 1)), (F(1, 2), 3), phi
    )
    cells += lifted.cells
    assert len(cells) > 200
    for cell in cells:
        for form in cell.hom_facets + cell.hom_eqs:
            assert math.gcd(*form) == 1, (cell, form)
            assert _hyperplane_key(form) in (form, vec_neg(form))

