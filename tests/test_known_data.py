"""Cells built from a known cell take its span equations, lineality and
direction lattice instead of recomputing them, and a cell of dimension at
most one reads its lattice off a generator.  Every such build and lattice
is checked here against the integer kernels it stands for."""

import random
from collections import Counter
from fractions import Fraction as F

import pytest

from tropint import polyhedra
from tropint.exactmath import integer_kernel, vec_dot
from tropint.functions import divisor, max_poly_function, ray_function
from tropint.intersect import (
    intersect_cycles,
    linear_space_context,
    product_context,
    projection_morphism,
    pullback_cycle,
    star_context,
)
from tropint.linspace import build_lnk, rn_cycle
from tropint.polyhedra import (
    Complex,
    common_refinement,
    cone_from_generators,
    cross,
    cross_cells,
    cut_cell_by_hom_forms,
    cycles_equal,
    intersect_cells,
    is_balanced,
    make_cell,
    make_cycle,
    stellar_subdivide,
)

L32_RAYS = ((1, 1, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1))


def lattice_kernel(cell):
    return integer_kernel([e[:-1] for e in cell.hom_eqs], cell.ambient_dim)


@pytest.fixture
def known_checked(monkeypatch):
    """Recompute the kernels for every build given `eqs`, `plin` or
    `lattice` (a callable, called here) and assert they are equal; check
    every lattice read off one generator too.  Returns a Counter of the
    builds checked, by what they were given."""
    build, read = polyhedra._build_from_hom, polyhedra.Cell.direction_lattice
    checked = Counter()

    def checking_build(
        ambient_dim, hgens, hlin, candidates=None, *, eqs=None, plin=None, lattice=None
    ):
        cell = build(
            ambient_dim, hgens, hlin, candidates, eqs=eqs, plin=plin, lattice=lattice
        )
        if not cell.is_empty:
            n1 = ambient_dim + 1
            if eqs is not None:
                spanning = [g for g in tuple(hgens) + tuple(hlin) if any(g)]
                assert eqs == integer_kernel(spanning, n1)
                checked["eqs"] += 1
            if plin is not None:
                assert plin == integer_kernel(cell.hom_facets + cell.hom_eqs, n1)
                checked["plin"] += 1
            if lattice is not None:
                assert lattice() == cell._dirlat == lattice_kernel(cell)
                checked["lattice"] += 1
        return cell

    def checking_lattice(cell):
        known = cell._dirlat
        got = read(cell)
        if known is None and 0 <= cell.dim <= 1:
            assert got == lattice_kernel(cell)
        return got

    monkeypatch.setattr(polyhedra, "_build_from_hom", checking_build)
    monkeypatch.setattr(polyhedra.Cell, "direction_lattice", checking_lattice)
    return checked


def fan_curve(rng):
    """The divisor of a seeded ray function on L^3_2 subdivided along the
    sum of two of its rays."""
    a, b = rng.sample(L32_RAYS, 2)
    x = stellar_subdivide(build_lnk(3, 2), tuple(p + q for p, q in zip(a, b)))
    rays = sorted({r for c, _ in x.cells for r in c.rays})
    while True:
        c = divisor(ray_function(x, {r: rng.randint(-2, 2) for r in rays}), x)
        if not c.is_empty:
            return c


def affine_curve(rng):
    """The divisor of max(0, a.x + c) on L^3_2 refined along a.x = -c."""
    while True:
        a = tuple(rng.randint(-1, 1) for _ in range(3))
        if not any(a):
            continue
        c = rng.choice((-2, -1, 1, 2))
        p = tuple(F(-c * v, sum(v * v for v in a)) for v in a)
        lin = integer_kernel([a], 3)
        halves = [
            make_cell(3, [p], [a], lin),
            make_cell(3, [p], [tuple(-v for v in a)], lin),
        ]
        x = common_refinement(build_lnk(3, 2), Complex(3, halves))
        curve = divisor(max_poly_function(x, [((0, 0, 0), 0), (a, c)]), x)
        if not curve.is_empty:
            return curve


def test_l32_curve_products_keep_known_data(known_checked):
    rng = random.Random(1717)
    curves = [fan_curve(rng) for _ in range(3)] + [affine_curve(rng) for _ in range(3)]
    ctx = linear_space_context(3, 2)
    for c in curves:
        for d in curves:
            z = intersect_cycles(c, d, ctx)
            assert (z.is_empty or z.dim == 0) and is_balanced(z)
    assert min(known_checked[k] for k in ("eqs", "plin", "lattice")) >= 20


def test_l42_product_along_f44_keeps_known_data(known_checked):
    ctx = linear_space_context(4, 3)
    carriers = {phi.carrier for st in ctx.stages for _, fs in st.terms for phi in fs}
    (carrier,) = {c.maximal: c for c in carriers}.values()
    l42 = build_lnk(4, 2)
    x = cross(l42, l42)
    polyhedra.clear_caches()  # the cuts are counted, so no memo may answer
    before = Counter(known_checked)
    refined, origin = polyhedra._refine(x, carrier)
    assert len(refined.cells) == 190 and set(origin) == {c for c, _ in refined.cells}
    assert known_checked["eqs"] - before["eqs"] >= 190
    assert known_checked["plin"] > before["plin"]
    # the pieces are cuts of products of 2-dimensional cells
    for c, _ in refined.cells:
        assert len(c.direction_lattice()) == c.dim
    assert known_checked["lattice"] - before["lattice"] >= 190


def test_star_and_product_contexts_keep_known_data(known_checked):
    star = star_context(3, 2, cone_from_generators(3, [(1, 1, 1)]))
    line = make_cycle(
        3,
        1,
        [(cone_from_generators(3, [r]), 2) for r in ((1, 1, 1), (-1, -1, -1))],
    )
    assert cycles_equal(intersect_cycles(star.ambient, line, star), line)
    l21 = linear_space_context(2, 1)
    square = product_context(l21, l21)
    plane = build_lnk(2, 1)
    p = make_cycle(2, 0, [(make_cell(2, [(-2, 0)]), 3)])
    got = intersect_cycles(cross(plane, p), cross(p, plane), square)
    assert cycles_equal(got, cross(p, p))
    assert known_checked["eqs"] and known_checked["plin"]


def test_pullback_along_p2_keeps_known_data(known_checked):
    l21 = linear_space_context(2, 1)
    p2 = projection_morphism([2, 2], 1)
    curve = build_lnk(2, 1)
    for c in (make_cycle(2, 0, [(make_cell(2, [(0, -3)]), 2)]), curve):
        got = pullback_cycle(p2, c, product_context(l21, l21), l21)
        assert cycles_equal(got, cross(curve, c))
    assert known_checked["eqs"] and known_checked["plin"]


def test_cut_facts_say_what_the_cut_keeps(known_checked):
    """`_cut` reports a kept span exactly when the cut cell has the cell's
    dimension, and returns a shorter lineality basis exactly when a
    nonempty cut loses lineality; cuts by equalities, by halfspaces
    crossing the lineality and by forms that vanish on the cell cover
    every combination."""
    rng = random.Random(2929)
    seen = Counter()
    for n in (2, 3, 4):
        for _ in range(40):
            verts = [tuple(F(rng.randint(-4, 4), 2) for _ in range(n))]
            rays = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, 3))]
            lin = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, 2))]
            cell = make_cell(n, verts, rays, lin)
            forms = [tuple(rng.randint(-2, 2) for _ in range(n + 1)) for _ in range(2)]
            forms += list(cell.hom_eqs[:1]) + [
                tuple(-x for x in f) for f in cell.hom_facets[:1]
            ]
            for _ in range(4):
                k = rng.randint(1, 3)
                cut = rng.sample(forms, k)
                split = rng.randint(0, k)
                eqs, ineqs = cut[:split], cut[split:]
                _, lin, kept = polyhedra._cut(
                    cell.hom_gens(), cell.hom_lin(), cell.hom_facets, eqs, ineqs
                )
                out = cut_cell_by_hom_forms(cell, ineqs, eqs)
                assert kept == (out.dim == cell.dim)
                pivoted = len(lin) < len(cell.lineality)
                if not out.is_empty:
                    assert pivoted == (len(out.lineality) < len(cell.lineality))
                lattice = out.direction_lattice()
                if kept:
                    assert lattice == cell.direction_lattice()
                seen[kept, pivoted, bool(eqs)] += 1
    assert len(seen) == 8
    assert min(known_checked[k] for k in ("eqs", "plin", "lattice")) >= 50


def test_kept_span_includes_forms_that_vanish_on_the_cell(known_checked):
    """An inequality that vanishes on the whole cell, like one of its span
    equations, keeps the span although no generator lies strictly on its
    positive side; an equality that cuts the cell does not."""
    seg = make_cell(3, [(0, 0, 0), (2, 1, 0)])
    (e,) = [e for e in seg.hom_eqs if vec_dot(e, (0, 0, 1, 0))]
    assert cut_cell_by_hom_forms(seg, [e, (1, 0, 0, 0)]) is seg
    half = cut_cell_by_hom_forms(seg, [(-1, 0, 0, 1)])
    assert half.dim == 1 and half.direction_lattice() == seg.direction_lattice()
    assert known_checked == {"eqs": 2, "plin": 2, "lattice": 2}
    point = intersect_cells(seg, make_cell(3, [(2, 1, 0)], [], [(1, 0, 0)]))
    assert point == make_cell(3, [(2, 1, 0)])
    assert known_checked == {"eqs": 2, "plin": 3, "lattice": 2}


def test_products_take_the_block_of_their_factors_lattices(known_checked):
    a = make_cell(2, [(0, 0)], [(2, 1), (0, 1)])
    b = make_cell(3, [(F(1, 2), 0, 0)], [(1, 1, 0)], [(0, 1, 3)])
    c = cross_cells(a, b)
    assert c.dim == 4
    la, lb = a.direction_lattice(), b.direction_lattice()
    assert c.direction_lattice() == tuple(l + (0, 0, 0) for l in la) + tuple(
        (0, 0) + l for l in lb
    )
    assert known_checked["lattice"] == 1


def test_products_with_the_point_r0_keep_the_other_factors_lattice(known_checked):
    """A product with the point of R^0 is a build memo hit on the other
    factor's cell, whose lattice may still be unknown: it takes the block
    of the factors' lattices, that cell's own."""
    polyhedra.clear_caches()
    l32 = build_lnk(3, 2)
    for x in (cross(l32, rn_cycle(0)), cross(rn_cycle(0), l32)):
        assert is_balanced(x) and cycles_equal(x, l32)
    assert known_checked["lattice"] >= 2 * len(l32.cells)


def test_a_build_memo_hit_reads_no_lattice(monkeypatch):
    """Products and kept cuts hand `_build_from_hom` their lattice as a
    callable: a memo hit on a cell that knows its lattice never runs it."""
    a = make_cell(2, [(0, 0)], [(2, 1), (0, 1)])
    b = make_cell(1, [(F(1, 2),)], [(1,)])
    form = ((-1, 0, 1),)  # x <= 1 keeps the span of a
    first = cross_cells(a, b), cut_cell_by_hom_forms(a, form)
    for cell in first:
        cell.direction_lattice()
    build, asked = polyhedra._build_from_hom, []

    def spying(*args, lattice=None, **kwargs):
        def counted():
            asked.append(args)
            return lattice()

        return build(*args, lattice=None if lattice is None else counted, **kwargs)

    monkeypatch.setattr(polyhedra, "_build_from_hom", spying)
    assert (cross_cells(a, b), cut_cell_by_hom_forms(a, form)) == first
    assert not asked
    polyhedra.clear_caches()
    assert (cross_cells(a, b), cut_cell_by_hom_forms(a, form)) == first
