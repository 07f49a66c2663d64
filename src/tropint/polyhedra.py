"""Rational polyhedral cells, complexes and weighted balanced cycles.

Cells are kept in a canonical V-representation (vertices, primitive rays,
HNF lineality basis, everything reduced modulo lineality), and canonical
cells are unique objects: every build goes through a pool of the live
cells keyed by that representation, so two cells are equal iff they are
identical, and dicts and sets hash them by identity.  The pool is weak,
so it keeps no cell alive and needs no bound, and it is never cleared,
since that would split a live cell into two objects.  The H-representation
(facet inequalities and span equations of the homogenization) is derived
once per cell and kept with it.  Every cell picks its facets by incidence
from candidate inequalities: they are the candidates whose sets of tight
generators are maximal among the proper ones.  There is one double
description step, `_cut`: it combines two generators across a form only
when they are adjacent, so it returns exactly the extreme generators.  A
cell cut out of inequalities already at hand (a face, an intersection, a
cut or a product) takes them as candidates and comes with its extreme
generators; a cell from bare generators (`make_cell`) takes the
generators of its dual cone, from a cut of the whole space, and its
vertices and rays from a cut of the halfspace t >= 0 by its facets.  No
rank is computed anywhere, and an integral vertex coordinate is stored as
an int (a Fraction only where it is not integral).  The direction lattice
of a cell is the integer kernel of its span equations.  Intersections and
cuts by hyperplanes and halfspaces share the cut of the homogeneous
generators (equations first, then inequalities).

A cell keeps the homogeneous generators it was built from: the primitive
(w, t) of each vertex w/t, the (r, 0) of each ray and the HNF lineality
basis, as the build reduced them modulo the lineality.  Their sum lies
in the relative interior of the homogenization; dehomogenized, it is the
point `relint_point` returns and the point a refinement signs.  Containment of points, directions and cells is one test of
homogeneous integer vectors against the H-representation; a contained
cell is tested through its generators.  Refining a cycle along a
carrier complex reports, for each piece, the carrier cell it came from
(the containing cell, or the cell it was intersected with), so divisors
read covectors without locating points.  A refinement signs each cell
against the carrier's distinct hyperplanes once, summing over their
nonzero entries only, and intersects it only with the carrier cells whose
facet and equation sides it can meet in full dimension, so cells that
meet in a lower-dimensional face are never cut.  Each piece is cut once:
since the carrier is a complex, a carrier cell that holds a relative
interior point of a piece already found meets the cell in exactly that
piece, so it takes the piece without a cut, tested by its facets and
equations at that point.  The cover check that follows works
on facet forms: a facet of a single piece is on the boundary iff its
inequality is one of the cell's own.  This refinement is the one answer
to "does this lie in that?": `add_functions` asks it directly, and
products, pull-backs and relation checks ask it through `support_covers`.
A cell keeps the hosts of its pieces along the last carrier it was
refined along, so a cell refined again along the same carrier is cut
only by those hosts, with no side test and no cover check.

Products of cells are built from the factors' homogeneous generators, so
a product found in the build memo costs no Fraction arithmetic.  A cell
built from a known cell is given the span equations, lineality basis and
direction lattice it shares with it (`_build_from_hom`), so the integer
kernels run only for bare generators, for faces' span equations, for cuts
that change the span or the lineality, and for the lattices of cells of
dimension two or more that are neither such cuts nor products.
Balancing around a codimension-one cell tau is tested with integer dot
products: a sum of lattice normals lies in the span of tau iff every span
equation of tau vanishes on it.  That sum of weighted lattice normals is
written once (`_normal_sums`); divisors read it split by carrier cell.

What is learnt about one cell is kept on that cell, never in a module
memo keyed by cells: its facets, direction lattice, one lattice normal
per facet and one tuple of refinement hosts, all freed with the cell
when it leaves the weak pool.  The module caches (`_CACHES`) are keyed
by values: the build memo and the caches of linear spaces, rewrites and
contexts.

Conventions:
  * a cell with no vertices is the empty cell;
  * a cone is a cell whose single vertex is the origin;
  * all weights are (possibly negative) nonzero ints.
"""

from fractions import Fraction
from math import gcd
from weakref import WeakValueDictionary

from .exactmath import (
    _pivot_col,
    _unit_rows,
    clear_denominators,
    integer_kernel,
    is_zero,
    lattice_index,
    primitive_vector,
    solve_integer,
    vec_dot,
    vec_int,
    vec_neg,
)


class TropicalGeometryError(ValueError):
    """Input violates a precondition of a geometric operation."""


class VerificationError(RuntimeError):
    """An internal exactness or consistency re-check failed."""


def _integers(values, what):
    """The values as a tuple of ints; a value that is not an integer raises
    TropicalGeometryError naming `what`, where int() would truncate it."""
    try:
        return vec_int(values)
    except (TypeError, ValueError, ArithmeticError) as err:
        raise TropicalGeometryError("%s must be integers: %s" % (what, err)) from None


def _rationals(values, what):
    """The values as a tuple of ints and Fractions (`_rational`); a value
    that is not a number raises TropicalGeometryError naming `what`."""
    try:
        return _rational(values)
    except (TypeError, ValueError, ArithmeticError) as err:
        raise TropicalGeometryError(
            "%s must be rational numbers: %s" % (what, err)
        ) from None


# ---------------------------------------------------------------------------
# double description primitives (generator form)


def _onto(a, v, pivot):
    """(a.pivot) v - (a.v) pivot made primitive, or None when it is zero.

    The result lies on a = 0; for a.pivot > 0 it is a positive multiple of
    v plus a multiple of pivot, and v itself when v is primitive and
    already on a = 0 (every generator `_cut` holds is primitive).
    """
    d = vec_dot(a, v)
    if d == 0:
        return v
    pa = vec_dot(a, pivot)
    w = tuple(pa * x - d * y for x, y in zip(v, pivot))
    return None if is_zero(w) else primitive_vector(w)


def _cut(rays, lin, facets, eqs, ineqs):
    """Generators of cone(rays) + span(lin) cut by {e.x == 0 for e in eqs}
    and then by {f.x >= 0 for f in ineqs}, one form at a time.

    `rays` spans the extreme rays of the cone modulo span(lin), one
    generator each, and `facets` holds inequalities defining the cone,
    every facet among them; the returned rays span the extreme rays of
    the cut cone in the same way.  This is the double description method
    (Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda and Prodon 1996):
    every ray keeps the bitmask of the forms it is tight on, the facets
    first and then each form cut by, and a ray on the positive side of a
    form is combined with one on the negative side only when they are
    adjacent, that is when no third ray is tight on every form that is
    tight on both.  A facet missing from `facets` would make that test
    too strict and drop extreme rays.

    Returns (rays, lin, kept).  A form crossing the lineality drops one
    vector from `lin`, so `lin` is returned as given, and spans the
    lineality of the cut cone too, iff it keeps its length.  `kept` is
    true when the cut cone has the span of the given one: every
    inequality crossed the lineality, had a ray strictly on its positive
    side or vanished on the cone, and every equality vanished on the
    cone.
    """
    gens = {
        r: sum(1 << j for j, f in enumerate(facets) if vec_dot(f, r) == 0) for r in rays
    }
    kept = True
    bit = 1 << len(facets)
    for k, a in enumerate(tuple(eqs) + tuple(ineqs)):
        equality = k < len(eqs)
        pivot = next((l for l in lin if vec_dot(a, l) != 0), None)
        if pivot is not None:
            # slide every generator onto a = 0 along a lineality direction
            # crossing it; for a halfspace that direction becomes a ray,
            # tight on every earlier form since they vanish on the lineality
            kept = kept and not equality
            if vec_dot(a, pivot) < 0:
                pivot = vec_neg(pivot)
            new = {_onto(a, r, pivot): mask | bit for r, mask in gens.items()}
            lin = tuple(w for w in (_onto(a, l, pivot) for l in lin) if w is not None)
            if not equality:
                new[pivot] = bit - 1
        else:
            new, pos, neg = {}, [], []
            for r, mask in gens.items():
                d = vec_dot(a, r)
                if d == 0:
                    new[r] = mask | bit
                elif d < 0:
                    neg.append((r, mask))
                else:
                    pos.append((r, mask))
                    if not equality:
                        new[r] = mask
            kept = kept and not (pos or neg if equality else neg and not pos)
            masks = gens.values()
            for p, pmask in pos:
                for m, mmask in neg:
                    both = pmask & mmask
                    if sum(mask & both == both for mask in masks) == 2:
                        new[_onto(a, m, p)] = both | bit
        gens = new
        bit <<= 1
    return tuple(gens), lin, kept


def _reduce_mod(v, basis):
    """Canonical representative of v modulo span(basis rows), primitivized.

    v is an integer vector and the basis rows an echelon (HNF) integer
    basis with positive pivots.  Returns None when v lies in the span.
    """
    for row in basis:
        p = _pivot_col(row)
        c = v[p]
        if c:
            v = tuple(row[p] * a - c * b for a, b in zip(v, row))
    return None if is_zero(v) else primitive_vector(v)


# ---------------------------------------------------------------------------
# cells

_CACHES = []  # every module cache of tropint
_CACHE_LIMIT = 2048  # entries per module cache
_MISSING = object()


class _LRUCache(dict):
    """A dict that keeps at most _CACHE_LIMIT entries and evicts the least
    recently used one beyond that.  `get` and assignment mark an entry as
    used: the dict keeps its entries in order of last use, oldest first."""

    __slots__ = ()

    def get(self, key, default=None):
        value = self.pop(key, _MISSING)
        if value is _MISSING:
            return default
        dict.__setitem__(self, key, value)
        return value

    def __setitem__(self, key, value):
        self.pop(key, None)
        dict.__setitem__(self, key, value)
        while len(self) > _CACHE_LIMIT:
            del self[next(iter(self))]


def _module_cache():
    _CACHES.append(_LRUCache())
    return _CACHES[-1]


_CELL_POOL = WeakValueDictionary()  # Cell.key() -> the live cell; not a cache
_BUILD_MEMO = _module_cache()


def clear_caches():
    """Empty every module cache (the build memo, spaces, rewrites and
    contexts) and forget the refinement hosts every live cell keeps, so a
    refinement after it starts cold.  The pool of live cells is not a
    cache and stays: a live cell is rebuilt as the same object, and keeps
    its direction lattice, facets and lattice normals; a cell nothing
    holds any more leaves the pool."""
    for cache in _CACHES:
        cache.clear()
    for cell in list(_CELL_POOL.values()):
        cell._hosts = None


class Cell:
    """A rational polyhedron in canonical V-representation."""

    __slots__ = (
        "ambient_dim",
        "vertices",
        "rays",
        "lineality",
        "dim",
        "hom_facets",
        "hom_eqs",
        "_hom_gens",
        "_hom_lin",
        "_facet_cells",
        "_dirlat",
        "_normals",
        "_hosts",
        "__weakref__",
    )

    def __init__(
        self, ambient_dim, vertices, rays, lineality, dim, hom_facets, hom_eqs,
        hom_gens, hom_lin,
    ):
        self.ambient_dim = ambient_dim
        self.vertices = vertices
        self.rays = rays
        self.lineality = lineality
        self.dim = dim
        self.hom_facets = hom_facets
        self.hom_eqs = hom_eqs
        self._hom_gens = hom_gens
        self._hom_lin = hom_lin
        self._facet_cells = None
        self._dirlat = None
        self._normals = None  # facet cell -> lattice_normal, made lazily
        self._hosts = None  # (carrier cells, hosts) of the last _refine

    @property
    def is_empty(self):
        return not self.vertices

    @property
    def is_cone(self):
        return len(self.vertices) == 1 and all(x == 0 for x in self.vertices[0])

    def key(self):
        return (self.ambient_dim, self.vertices, self.rays, self.lineality)

    def __repr__(self):
        if self.is_empty:
            return "Cell(empty, ambient=%d)" % self.ambient_dim
        return "Cell(dim=%d, V=%s, R=%s, L=%s)" % (
            self.dim,
            [tuple(map(str, v)) for v in self.vertices],
            list(self.rays),
            list(self.lineality),
        )

    # -- derived data -------------------------------------------------

    def hom_gens(self):
        """The primitive homogeneous generators (w, t) the cell was built
        from: one per vertex w/t, in vertex order, then (r, 0) per ray."""
        return self._hom_gens

    def hom_lin(self):
        """The lineality basis as homogeneous directions (l, 0)."""
        return self._hom_lin

    def _holds(self, w):
        # w is a homogeneous integer vector: (point, 1) scaled, or (direction, 0)
        return all(vec_dot(e, w) == 0 for e in self.hom_eqs) and all(
            vec_dot(f, w) >= 0 for f in self.hom_facets
        )

    def contains_point(self, p):
        return not self.is_empty and self._holds(clear_denominators(tuple(p) + (1,))[0])

    def contains_direction(self, r):
        return not self.is_empty and self._holds(tuple(r) + (0,))

    def spans_direction(self, r):
        """True iff r lies in the linear span of the directions along the
        cell, that is iff every span equation vanishes on (r, 0)."""
        return not any(vec_dot(e, r) for e in self.hom_eqs)

    def contains_cell(self, other):
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        return all(self._holds(g) for g in other.hom_gens()) and all(
            self._holds(l) and self._holds(vec_neg(l)) for l in other.hom_lin()
        )

    def relint_point(self):
        """A rational point in the relative interior: the sum of the
        homogeneous generators (`_interior`), dehomogenized."""
        if self.is_empty:
            raise TropicalGeometryError("empty cell has no relative interior")
        w = _interior(self)
        return tuple(Fraction(x, w[-1]) for x in w[:-1])

    def direction_lattice(self):
        """HNF basis of the saturated lattice of directions along the cell:
        the integer kernel of the span equations with t dropped, since r
        is a direction along the cell iff (r, 0) lies in the span of the
        homogenization.

        A cell built with a known lattice (`_build_from_hom`) keeps it, and
        a cell of dimension at most one needs no kernel: one primitive
        direction, led by a positive entry, is the HNF basis of its
        lattice."""
        lat = self._dirlat
        if lat is not None:
            return lat
        if 0 <= self.dim <= 1:
            gens = self.hom_lin() + self.hom_gens()
            d = next((g[:-1] for g in gens if not g[-1]), None)
            if d is None and self.dim == 1:  # a segment between two vertices
                (g, h) = gens
                d = tuple(g[-1] * y - h[-1] * x for x, y in zip(g[:-1], h[:-1]))
            if d is None:
                lat = ()
            else:
                d = primitive_vector(d)
                lat = (d if next(x for x in d if x) > 0 else vec_neg(d),)
        else:
            lat = integer_kernel([e[:-1] for e in self.hom_eqs], self.ambient_dim)
        self._dirlat = lat
        return lat

    def facet_cells(self):
        """List of (facet cell, homogeneous facet inequality) pairs."""
        if self._facet_cells is None:
            out = []
            for f in self.hom_facets:
                gens = tuple(g for g in self.hom_gens() if vec_dot(f, g) == 0)
                if not any(g[-1] for g in gens):
                    continue  # face at infinity of the homogenization
                out.append((self._face(gens), f))
            self._facet_cells = tuple(out)
        return self._facet_cells

    def face_at(self, p):
        """The unique face containing p in its relative interior."""
        if not self.contains_point(p):
            raise TropicalGeometryError("point not in cell")
        w, _ = clear_denominators(tuple(p) + (1,))
        tight = [f for f in self.hom_facets if vec_dot(f, w) == 0]
        return self._face(
            tuple(g for g in self.hom_gens() if all(vec_dot(f, g) == 0 for f in tight))
        )

    def _face(self, gens):
        """The face spanned by some of the homogeneous generators; the
        cell's facets contain those of the face, and its lineality is the
        face's."""
        lin = self.hom_lin()
        return _build_from_hom(
            self.ambient_dim, gens, lin, lambda: self.hom_facets, plin=lin
        )


def _intern(cell):
    """The live cell with the key of `cell`, or `cell` itself, now pooled,
    when there is none: every cell is built through here, so equal cells
    are one object."""
    return _CELL_POOL.setdefault(cell.key(), cell)


def _empty_cell(ambient_dim):
    return _intern(Cell(ambient_dim, (), (), (), -1, (), (), (), ()))


def _interior(cell):
    """The sum of the cell's homogeneous generators.  It is a positive
    combination of all of them, so it lies in the relative interior of the
    homogenization: (p, t) with p / t in the relative interior of the cell."""
    return [sum(col) for col in zip(*cell.hom_gens())]


def _facets_by_incidence(hgens, eqs, candidates):
    """Facet forms of the cone of the generators (plus a lineality space
    the candidates vanish on), reduced modulo span(eqs) and sorted, picked
    from valid inequalities that include one defining each facet.

    A candidate defines the face spanned by the generators it vanishes on,
    and faces are ordered by those sets: the facets are the candidates
    whose sets are maximal among the proper ones.  A candidate vanishing
    on every generator is an implicit equality and defines no facet.
    """
    full = (1 << len(hgens)) - 1
    faces = {}
    for f in set(candidates):
        mask = 0
        for i, g in enumerate(hgens):
            d = vec_dot(f, g)
            if d == 0:
                mask |= 1 << i
            elif d < 0:
                raise VerificationError("candidate inequality cuts the cell")
        if mask != full:
            faces.setdefault(mask, f)
    maximal = []
    for mask in sorted(faces, key=int.bit_count, reverse=True):
        if all(mask & m != mask for m in maximal):
            maximal.append(mask)
    return tuple(sorted(_reduce_mod(faces[m], eqs) for m in maximal))


def _build_from_hom(
    ambient_dim, hgens, hlin, candidates=None, *, eqs=None, plin=None, lattice=None
):
    """Canonical cell from homogeneous generators (last coordinate is t).

    The facets are picked by incidence (`_facets_by_incidence`) from
    candidate forms that are nonnegative on every generator, vanish on
    the lineality and include an inequality defining every facet of
    cone(hgens) + span(hlin).  `candidates` is a callable, run only when
    the cell is not in the build memo, returning such forms.  Every facet
    of a polyhedron cut out by an inequality system is defined by one of
    them, so a cell cut from known inequalities has such a set: the
    parent's facets for `Cell.facet_cells` and `Cell.face_at`, the facets
    of both cells for `intersect_cells`, the cell's facets and the cut
    forms for `cut_cell_by_hom_forms` (and the cuts of `assemble_cycle`),
    and the zero-padded facets of the factors for `cross_cells`.  Those
    cells come with their extreme generators, one per extreme ray modulo
    the lineality (a face keeps the parent's generators on it, `_cut`
    returns only extreme ones, and a product pairs its factors'), so they
    are only reduced modulo the lineality.

    `eqs` and `plin`, when given, are the HNF bases of the span equations
    and the lineality of the cell, and `lattice` a callable returning the
    HNF basis of its direction lattice, run only when the cell built or
    found has none.  The build otherwise computes the first two as the
    integer kernels of hgens + hlin and of facets + eqs, and
    `Cell.direction_lattice` the third on first use.  The
    bases are canonical, so a cell with the span or the lineality of a
    known cell takes that cell's.  `cut_cell_by_hom_forms` passes the
    cell's equations and lattice when `_cut` reports that the span was
    kept, and its lineality when no form crossed the lineality;
    `Cell._face` passes the parent's lineality, which every face shares,
    but not its equations: the parent's equations and a facet form need
    not span a saturated lattice, as (2, 1) and (0, 1) span one without
    (1, 0).  `cross_cells` passes the blocks of both factors' lineality
    bases and lattices: the directions of a product are the pairs of its
    factors' directions.

    A cell from bare generators (`make_cell`, hence `map_cell`,
    `cone_from_generators`, `star_cell` and parsing) passes no candidates
    and may repeat generators or list redundant ones.  Its facets are the
    extreme rays of the dual cone, from one `_cut` of the whole space by
    the generators; its vertices and rays are the extreme rays of a
    second `_cut`, of the halfspace t >= 0 by those facets and the span
    equations.  This is the one place that makes canonical vertices: an
    integral coordinate is stored as an int and any other as a Fraction.
    """
    n1 = ambient_dim + 1
    hgens = tuple(g for g in hgens if not is_zero(g))
    hlin = tuple(l for l in hlin if not is_zero(l))
    if not any(g[-1] > 0 for g in hgens):
        return _empty_cell(ambient_dim)
    memo_key = (ambient_dim, frozenset(hgens), frozenset(hlin))
    got = _BUILD_MEMO.get(memo_key)
    if got is not None:
        if got._dirlat is None and lattice is not None:
            got._dirlat = lattice()
        return got
    if eqs is None:
        eqs = integer_kernel(hgens + hlin, n1)
    if candidates is None:
        forms = _cut((), _unit_rows(n1), (), hlin, hgens)[0]
    else:
        forms = candidates()
    facets = _facets_by_incidence(hgens, eqs, forms)
    if plin is None:
        plin = integer_kernel(facets + eqs, n1)
        if any(l[-1] for l in plin):
            raise VerificationError("lineality escaped the homogenization slice")
    if candidates is None:
        t = _unit_rows(1, n1, ambient_dim)
        hgens = _cut(t, _unit_rows(ambient_dim, n1), t, eqs, facets)[0]
    verts = {}  # vertex -> its primitive homogeneous generator
    rays = set()
    for g in hgens:
        gg = _reduce_mod(g, plin)
        if gg is None:
            raise VerificationError("a generator lies in the lineality of the facets")
        t = gg[-1]
        if t > 0:
            verts[tuple(x // t if x % t == 0 else Fraction(x, t) for x in gg[:-1])] = gg
        else:
            rays.add(gg)
    vs, rays = tuple(sorted(verts)), tuple(sorted(rays))
    cell = Cell(
        ambient_dim,
        vs,
        tuple(r[:-1] for r in rays),
        tuple(l[:-1] for l in plin),
        n1 - len(eqs) - 1,
        facets,
        eqs,
        tuple(verts[v] for v in vs) + rays,
        plin,
    )
    cell = _intern(cell)
    if cell._dirlat is None and lattice is not None:
        cell._dirlat = lattice()
    _BUILD_MEMO[memo_key] = cell
    return cell


def _rational(v):
    """The entries of v as ints or Fractions, so that nothing is truncated."""
    return tuple(x if type(x) is int else Fraction(x) for x in v)


def _primitive_direction(r):
    """The primitive integer vector on the ray through a rational
    direction, or None for the zero vector."""
    w, _ = clear_denominators(_rational(r))
    return None if is_zero(w) else primitive_vector(w)


def make_cell(ambient_dim, vertices=(), rays=(), lineality=()):
    """Canonical cell from arbitrary generators.

    An input without vertices but with rays or lineality is taken to be a
    cone at the origin.  Coordinates may be ints, Fractions or anything
    Fraction accepts; a rational ray or lineality direction is scaled
    exactly to its primitive integer vector.
    """
    vertices = tuple(map(_rational, vertices))
    if not vertices:
        if not rays and not lineality:
            return _empty_cell(ambient_dim)
        vertices = ((0,) * ambient_dim,)
    hgens = [primitive_vector(clear_denominators(v + (1,))[0]) for v in vertices]
    hgens += [r + (0,) for r in map(_primitive_direction, rays) if r is not None]
    hlin = [l + (0,) for l in map(_primitive_direction, lineality) if l is not None]
    return _build_from_hom(ambient_dim, tuple(hgens), tuple(hlin))


def _space_cell(n):
    """The whole of R^n as a cell: the origin plus full lineality."""
    return make_cell(n, vertices=[(0,) * n], lineality=_unit_rows(n))


def cone_from_generators(ambient_dim, rays, lineality=()):
    """Canonical cone spanned by the given ray and lineality generators.

    No generators at all yields the trivial cone, the origin.
    """
    if not rays and not lineality:
        return make_cell(ambient_dim, ((0,) * ambient_dim,))
    return make_cell(ambient_dim, (), rays, lineality)


def intersect_cells(a, b):
    """Exact intersection of two cells in the same ambient space: a cut
    by the facets and equations of b.  Nothing is remembered here; a
    refinement remembers the hosts of its pieces (`_refine`), and cells
    are unique, so cutting again gives the same cell object."""
    if a.ambient_dim != b.ambient_dim:
        raise TropicalGeometryError("ambient dimension mismatch")
    if a.is_empty or b.is_empty:
        return _empty_cell(a.ambient_dim)
    return cut_cell_by_hom_forms(a, b.hom_facets, b.hom_eqs)


def cut_cell_by_hom_forms(cell, ineqs, eqs=()):
    """cell intersected with homogeneous halfspaces and hyperplanes.

    A cut that keeps the cell's span keeps its span equations and
    direction lattice, and one whose forms all vanish on the lineality
    keeps its lineality basis (`_cut` tells both)."""
    ineqs = tuple(ineqs)
    cell_lin = cell.hom_lin()
    rays, lin, kept = _cut(cell.hom_gens(), cell_lin, cell.hom_facets, eqs, ineqs)
    return _build_from_hom(
        cell.ambient_dim,
        rays,
        lin,
        lambda: cell.hom_facets + ineqs,
        eqs=cell.hom_eqs if kept else None,
        plin=lin if len(lin) == len(cell_lin) else None,
        lattice=cell.direction_lattice if kept else None,
    )


def cross_cells(a, b):
    """Product cell inside the concatenated ambient space.

    Built from the factors' homogeneous generators: the vertices (w_a, t_a)
    and (w_b, t_b) give the vertex (t_b w_a, t_a w_b, t_a t_b), made
    primitive, and rays and lineality are padded with zeros.  These are the
    generators make_cell forms from the concatenated vertices, rays and
    lineality, so the memo key and the cell are the same.  The product's
    homogenization is the set where both factors' facet inequalities hold,
    so its facets are among theirs, zero-padded around the shared t.
    """
    if a.is_empty or b.is_empty:
        return _empty_cell(a.ambient_dim + b.ambient_dim)
    za = (0,) * a.ambient_dim
    zb = (0,) * (b.ambient_dim + 1)
    ga, gb = a.hom_gens(), b.hom_gens()
    hgens = [
        primitive_vector(
            tuple(u[-1] * x for x in g[:-1]) + tuple(g[-1] * x for x in u[:-1])
            + (g[-1] * u[-1],)
        )
        for g in ga
        if g[-1]
        for u in gb
        if u[-1]
    ]
    hgens += [g[:-1] + zb for g in ga if not g[-1]]
    hgens += [za + u for u in gb if not u[-1]]
    # the block of two HNF bases is the HNF basis of the product lineality
    hlin = tuple(l[:-1] + zb for l in a.hom_lin()) + tuple(za + l for l in b.hom_lin())
    pad = (0,) * b.ambient_dim

    def candidates():
        return [f[:-1] + pad + f[-1:] for f in a.hom_facets] + [
            za + f for f in b.hom_facets
        ]

    def lattice():
        return tuple(l + pad for l in a.direction_lattice()) + tuple(
            za + l for l in b.direction_lattice()
        )

    dim = a.ambient_dim + b.ambient_dim
    return _build_from_hom(
        dim, tuple(hgens), hlin, candidates, plin=hlin, lattice=lattice
    )


def is_face(cell, face):
    """True iff `face` is a face of `cell` (the empty cell counts)."""
    if face.is_empty:
        return True
    if not cell.contains_cell(face):
        return False
    return cell.face_at(face.relint_point()) == face


def map_cell(cell, matrix, translation=None):
    """Image of a cell under an integer-affine map."""
    m = len(matrix)
    if translation is None:
        translation = (0,) * m
    verts = [
        tuple(vec_dot(row, v) + t for row, t in zip(matrix, translation))
        for v in cell.vertices
    ]
    rays = [tuple(vec_dot(row, r) for row in matrix) for r in cell.rays]
    lin = [tuple(vec_dot(row, l) for row in matrix) for l in cell.lineality]
    return make_cell(m, verts, rays, lin)


def lattice_normal(sigma, tau, facet_form):
    """Primitive lattice normal vector of sigma modulo its facet tau.

    Returns an integer vector u generating the direction lattice of sigma
    over that of tau and pointing from tau into sigma.  `facet_form` is the
    homogeneous inequality of sigma that is tight on tau.  The directions
    of tau are those of sigma on which the form vanishes, so u is any
    combination of sigma's direction lattice basis on which the form takes
    the gcd g of its values on that basis.

    The normal depends on sigma and tau alone, so sigma keeps it, keyed by
    tau: at most one per facet, freed with sigma.
    """
    normals = sigma._normals
    if normals is None:
        normals = sigma._normals = {}
    got = normals.get(tau)
    if got is not None:
        return got
    bs = sigma.direction_lattice()
    values = tuple(vec_dot(facet_form, b + (0,)) for b in bs)
    g = gcd(*values)
    if g == 0 or tau.dim != sigma.dim - 1:
        raise VerificationError("facet is not of codimension one")
    y = solve_integer((values,), (g,))
    u = tuple(sum(c * b[j] for c, b in zip(y, bs)) for j in range(sigma.ambient_dim))
    normals[tau] = u
    return u


# ---------------------------------------------------------------------------
# complexes


class Complex:
    """A polyhedral complex given by its maximal cells."""

    __slots__ = ("ambient_dim", "maximal", "_closure", "_sides")

    def __init__(self, ambient_dim, maximal):
        cells = tuple(sorted({c for c in maximal if not c.is_empty}, key=Cell.key))
        self.ambient_dim = ambient_dim
        self.maximal = cells
        self._closure = None
        self._sides = None
        for c in cells:
            if c.ambient_dim != ambient_dim:
                raise TropicalGeometryError("mixed ambient dimensions in complex")

    def all_cells(self):
        """Every cell of the complex, closed under taking faces."""
        if self._closure is None:
            seen = set(self.maximal)
            frontier = list(self.maximal)
            while frontier:
                cell = frontier.pop()
                for child, _ in cell.facet_cells():
                    if child not in seen:
                        seen.add(child)
                        frontier.append(child)
            self._closure = tuple(sorted(seen, key=Cell.key))
        return self._closure

    def _side_needs(self):
        """The distinct hyperplanes of the maximal cells, and the sides of
        them that each maximal cell lies on.

        Returns (forms, needs).  forms[h] is the h-th distinct hyperplane
        (a `_hyperplane_key`) given sparsely, as the (index, value) pairs of
        its nonzero entries.  needs[i] codes the facets and equations of
        the i-th maximal cell: 3h for forms[h] >= 0, 3h + 1 for
        forms[h] <= 0 and 3h + 2 for forms[h] == 0.
        """
        if self._sides is None:
            ids = {}
            needs = []
            for c in self.maximal:
                need = set()
                for f in c.hom_facets:
                    h = ids.setdefault(_hyperplane_key(f), len(ids))
                    need.add(3 * h + (f[_pivot_col(f)] < 0))
                for e in c.hom_eqs:
                    need.add(3 * ids.setdefault(_hyperplane_key(e), len(ids)) + 2)
                needs.append(frozenset(need))
            forms = tuple(tuple((i, v) for i, v in enumerate(h) if v) for h in ids)
            self._sides = (forms, tuple(needs))
        return self._sides

    def find_cell_containing(self, p):
        for c in self.maximal:
            if c.contains_point(p):
                return c
        return None

    def validate(self):
        """Check the pairwise face condition exactly; raise on violation."""
        cells = self.maximal
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                inter = intersect_cells(cells[i], cells[j])
                if inter.is_empty:
                    continue
                if not is_face(cells[i], inter) or not is_face(cells[j], inter):
                    raise TropicalGeometryError(
                        "cells intersect in a non-face: %r vs %r" % (cells[i], cells[j])
                    )
        return True

    def is_simplicial_fan(self):
        for c in self.maximal:
            if not c.is_cone or c.lineality or len(c.rays) != c.dim:
                return False
        return True


def facet_data(cells):
    """Facet adjacency of a family of equal-dimensional cells.

    Returns a dict mapping each facet cell to a list of (cell index,
    homogeneous facet inequality) pairs for the cells it bounds.
    """
    out = {}
    for i, cell in enumerate(cells):
        for child, form in cell.facet_cells():
            out.setdefault(child, []).append((i, form))
    return out


def star_cell(cell, x):
    """Cone of directions from x into the cell."""
    rays = list(cell.rays)
    for v in cell.vertices:
        w, _ = clear_denominators(tuple(a - b for a, b in zip(v, x)))
        if not is_zero(w):
            rays.append(primitive_vector(w))
    return cone_from_generators(cell.ambient_dim, rays, cell.lineality)


# ---------------------------------------------------------------------------
# tropical cycles


class TropicalCycle:
    """A weighted pure-dimensional polyhedral complex."""

    __slots__ = ("ambient_dim", "dim", "cells", "_complex")

    def __init__(self, ambient_dim, dim, cells):
        self.ambient_dim = ambient_dim
        self.dim = dim
        self.cells = cells
        self._complex = None

    @property
    def is_empty(self):
        return not self.cells

    def complex(self):
        if self._complex is None:
            self._complex = Complex(self.ambient_dim, [c for c, _ in self.cells])
        return self._complex

    def __eq__(self, other):
        if not isinstance(other, TropicalCycle):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim:
            return False
        if self.is_empty and other.is_empty:
            return True
        return self.dim == other.dim and self.cells == other.cells

    def __hash__(self):
        return hash((self.ambient_dim, self.dim if self.cells else -1, self.cells))

    def __repr__(self):
        if self.is_empty:
            return "TropicalCycle(empty, ambient=%d)" % self.ambient_dim
        return "TropicalCycle(ambient=%d, dim=%d, %d cells)" % (
            self.ambient_dim,
            self.dim,
            len(self.cells),
        )


def make_cycle(ambient_dim, dim, items):
    """Canonical cycle from (cell, weight) pairs; merges and prunes."""
    acc = {}
    for cell, w in items:
        if w == 0 or cell.is_empty:
            continue
        acc[cell] = acc.get(cell, 0) + w
    cells = []
    for cell in sorted(acc, key=Cell.key):
        w = acc[cell]
        if w == 0:
            continue
        if cell.ambient_dim != ambient_dim:
            raise TropicalGeometryError("cell ambient dimension mismatch")
        if cell.dim != dim:
            raise TropicalGeometryError(
                "cycle is not pure: cell of dim %d in a dim %d cycle" % (cell.dim, dim)
            )
        cells.append((cell, w))
    if not cells:
        return empty_cycle(ambient_dim)
    return TropicalCycle(ambient_dim, dim, tuple(cells))


def empty_cycle(ambient_dim, dim=-1):
    return TropicalCycle(ambient_dim, dim, ())


def scale_cycle(x, c):
    if c == 0 or x.is_empty:
        return empty_cycle(x.ambient_dim, x.dim)
    return TropicalCycle(x.ambient_dim, x.dim, tuple((cell, c * w) for cell, w in x.cells))


def cross(x, y):
    """Cartesian product cycle in the concatenated ambient space."""
    amb = x.ambient_dim + y.ambient_dim
    if x.is_empty or y.is_empty:
        return empty_cycle(amb)
    items = [
        (cross_cells(cx, cy), wx * wy)
        for cx, wx in x.cells
        for cy, wy in y.cells
    ]
    return make_cycle(amb, x.dim + y.dim, items)


def _hyperplane_key(form):
    """The hyperplane of a primitive form (every facet and span equation
    is one), oriented to lead with a positive entry."""
    for entry in form:
        if entry != 0:
            return form if entry > 0 else vec_neg(form)
    raise ValueError("zero form")


def assemble_cycle(ambient_dim, dim, contributions):
    """Sum of weighted cells as a face-to-face cycle.

    The cells may overlap arbitrarily; they are split along the facet and
    span hyperplanes of every contributing cell, the pieces of a common
    hyperplane arrangement are matched up and their weights added.
    """
    contributions = [(c, w) for c, w in contributions if w != 0 and not c.is_empty]
    if not contributions:
        return empty_cycle(ambient_dim, dim)
    hyperplanes = set()
    for cell, _ in contributions:
        for f in cell.hom_facets:
            hyperplanes.add(_hyperplane_key(f))
        for e in cell.hom_eqs:
            hyperplanes.add(_hyperplane_key(e))
    hyperplanes = sorted(hyperplanes)
    acc = {}
    for cell, w in contributions:
        pieces = [cell]
        for h in hyperplanes:
            nxt = []
            for p in pieces:
                lin_hit = any(vec_dot(h, l) != 0 for l in p.hom_lin())
                if not lin_hit:
                    signs = [vec_dot(h, g) for g in p.hom_gens()]
                    if all(s >= 0 for s in signs):
                        nxt.append(p)
                        continue
                    if all(s <= 0 for s in signs):
                        nxt.append(p)
                        continue
                for hh in (h, vec_neg(h)):
                    q = cut_cell_by_hom_forms(p, (hh,))
                    if not q.is_empty and q.dim == dim:
                        nxt.append(q)
            pieces = nxt
        for p in pieces:
            acc[p] = acc.get(p, 0) + w
    return make_cycle(ambient_dim, dim, acc.items())


def add_cycles(x, y):
    if x.ambient_dim != y.ambient_dim:
        raise TropicalGeometryError("ambient dimension mismatch")
    if x.is_empty:
        return y
    if y.is_empty:
        return x
    if x.dim != y.dim:
        raise TropicalGeometryError("cannot add cycles of different dimensions")
    return assemble_cycle(
        x.ambient_dim, x.dim, list(x.cells) + list(y.cells)
    )


def cycles_equal(x, y):
    """True iff the cycles agree cellwise on a common refinement."""
    if x.ambient_dim != y.ambient_dim:
        raise TropicalGeometryError("ambient dimension mismatch")
    if x == y:  # canonical cells: equal cell lists need no refinement
        return True
    if x.is_empty or y.is_empty:
        return x.is_empty and y.is_empty
    if x.dim != y.dim:
        return False
    return add_cycles(x, scale_cycle(y, -1)).is_empty


def degree(x):
    """Total weight of a zero-dimensional cycle."""
    if x.is_empty:
        return 0
    if x.dim != 0:
        raise TropicalGeometryError("degree requires a zero-dimensional cycle")
    return sum(w for _, w in x.cells)


class ZeroCycleSummary:
    """Points and weights of a zero-dimensional cycle."""

    __slots__ = ("points", "weights")

    def __init__(self, cycle):
        if not cycle.is_empty and cycle.dim != 0:
            raise TropicalGeometryError("not a zero-dimensional cycle")
        self.points = tuple(c.vertices[0] for c, _ in cycle.cells)
        self.weights = tuple(w for _, w in cycle.cells)

    @property
    def degree(self):
        return sum(self.weights)


def _missed_sides(sigma, forms):
    """The sides of the sparse hyperplanes `forms`, given and coded as in
    Complex._side_needs, that meet sigma in less than its dimension.

    Each sign is a sum over the nonzero entries of the form only."""
    gens, lin = sigma.hom_gens(), sigma.hom_lin()
    missed = set()
    for h, form in enumerate(forms):
        dots = [sum([g[i] * v for i, v in form]) for g in gens]
        lo, hi = min(dots), max(dots)
        if lo < 0 < hi or any(sum([l[i] * v for i, v in form]) for l in lin):
            missed.add(3 * h + 2)
        elif hi > 0:
            missed.update((3 * h + 1, 3 * h + 2))
        elif lo < 0:
            missed.update((3 * h, 3 * h + 2))
    return missed


def _refine(x, carrier):
    """Refine the cycle x along a complex covering it, remembering carriers.

    Returns (cycle, origin) where origin maps every cell of the cycle to a
    maximal carrier cell containing it, the first one for a cell of x that
    lies in a carrier cell.  Each cell keeps, for the last carrier it was
    refined along, the carrier cells and the host of each of its pieces in
    the order the pieces were found (`_pieces`): one host tuple per cell,
    freed with the cell.  When the carrier cells match, a single host
    means the cell is its own piece, and several are each cut again: a
    piece is the cell cut by its first host, and cells are unique, so the
    cut gives the same object.  A hit runs no side test, no scan of the
    carrier and no `check_cover`; the cover was checked when the hosts
    were stored.
    """
    origin = {}
    items = []
    for sigma, w in x.cells:
        memo = sigma._hosts
        if memo is None or memo[0] != carrier.maximal:
            pieces = _pieces(sigma, carrier)
            sigma._hosts = (carrier.maximal, tuple(pieces.values()))
        elif len(memo[1]) == 1:
            pieces = {sigma: memo[1][0]}
        else:
            pieces = {intersect_cells(sigma, c): c for c in memo[1]}
        origin.update(pieces)
        items.extend((piece, w) for piece in pieces)
    return make_cycle(x.ambient_dim, x.dim, items), origin


def _pieces(sigma, carrier):
    """The pieces of the cell sigma along a complex covering it, each
    mapped to its first host in `carrier.maximal` order, checked to tile
    sigma.  Every carrier cell is met except those that lie on a side of
    one of their hyperplanes which sigma meets in less than its dimension.

    Each piece is cut once, since the carrier is a complex.  Let
    p = sigma & c' be a piece already found, of sigma's dimension, and r a
    point of its relative interior.  If a carrier cell c holds r, then so
    does the face c & c' of c', which therefore holds all of p.  And
    sigma & c = p: for q in sigma & c, the segment from q through r goes on
    inside p, because p has sigma's dimension, so r lies inside a segment
    of c; the face c & c' of c holds r, hence the whole segment and q, and
    q is in sigma & c' = p.  So c is first tested against the pieces found
    (`c._holds(r)`, with r the sum of the piece's homogeneous generators),
    and one that holds a piece meets sigma in it and is not cut.
    """
    forms, needs = carrier._side_needs()
    missed = _missed_sides(sigma, forms)
    pieces = {}
    inner = {}
    for c, need in zip(carrier.maximal, needs):
        if not missed.isdisjoint(need):
            continue
        for p in pieces:
            if p not in inner:
                inner[p] = _interior(p)
            if c._holds(inner[p]):
                piece = p
                break
        else:
            piece = intersect_cells(sigma, c)
        if not piece.is_empty and piece.dim == sigma.dim:
            pieces.setdefault(piece, c)
    check_cover(sigma, list(pieces))
    return pieces


def common_refinement(x, carrier):
    """Refine the cycle x along the cells of a complex covering it.

    `carrier` may be a Complex or a TropicalCycle (its complex is used).
    Raises if the carrier does not cover the support of x.
    """
    if isinstance(carrier, TropicalCycle):
        carrier = carrier.complex()
    return _refine(x, carrier)[0]


def check_cover(sigma, pieces):
    """Verify that pieces of sigma tile all of it.

    Precondition: the pieces lie in sigma, have sigma's dimension and are
    mutually face-to-face.  An interior facet of the union belongs to
    exactly two pieces.  A facet of a single piece lies on the boundary of
    sigma iff its facet inequality is one of sigma's: pieces of sigma's
    dimension share its span equations, and facet inequalities are
    canonical modulo those.  Any other facet of a single piece witnesses a
    hole.
    """
    if not pieces:
        raise TropicalGeometryError("carrier does not cover cycle")
    if len(pieces) == 1 and pieces[0] == sigma:
        return
    boundary = set(sigma.hom_facets)
    for around in facet_data(pieces).values():
        if len(around) == 2:
            continue
        if len(around) > 2:
            raise VerificationError("refinement pieces overlap")
        if around[0][1] not in boundary:
            raise TropicalGeometryError("carrier does not cover cycle")


def _normal_sums(x, group):
    """The weighted lattice normals around each codimension-one cell of
    the cycle x, summed per group of cells.

    `group[i]` is the group of the i-th cell of x.  Yields (tau, first,
    sums) for each codimension-one cell tau: the group of the first cell
    around tau, and a dict from the group of each cell sigma around tau
    to the sum of w(sigma) u_sigma/tau over the cells of that group.  The
    sum over all groups is the balancing sum at tau, and also the normal
    that the divisor formula evaluates phi_tau on.
    """
    for tau, around in facet_data([c for c, _ in x.cells]).items():
        sums = {}
        for idx, form in around:
            cell, w = x.cells[idx]
            u = lattice_normal(cell, tau, form)
            acc = sums.get(group[idx])
            if acc is None:
                sums[group[idx]] = [w * a for a in u]
            else:
                sums[group[idx]] = [s + w * a for s, a in zip(acc, u)]
        yield tau, group[around[0][0]], sums


def is_balanced(x):
    """Exact balancing check around every codimension-one cell."""
    if x.is_empty or x.dim == 0:
        return True
    return all(
        tau.spans_direction(sums[0])
        for tau, _, sums in _normal_sums(x, (0,) * len(x.cells))
    )


def star(x, tau, point):
    """Star fan of the cycle x at a point in the relative interior of tau."""
    point = tuple(Fraction(v) for v in point)
    if tau.is_empty:
        raise TropicalGeometryError("cannot take the star at the empty cell")
    if not tau.contains_point(point) or tau.face_at(point) != tau:
        raise TropicalGeometryError("point is not in the relative interior of the cell")
    found = False
    items = []
    for sigma, w in x.cells:
        if sigma.contains_cell(tau):
            if is_face(sigma, tau):
                found = True
            items.append((star_cell(sigma, point), w))
    if not found:
        raise TropicalGeometryError("cell does not belong to the cycle")
    return make_cycle(x.ambient_dim, x.dim, items)


def stellar_subdivide(x, ray):
    """Subdivide a fan cycle along the ray through `ray`.

    Every cone containing the ray is replaced by the cones spanned by the
    ray together with its facets not containing it; weights, support and
    balancing are unchanged.
    """
    ray = _primitive_direction(ray)
    if ray is None:
        raise TropicalGeometryError("stellar subdivision needs a nonzero ray")
    if any(not c.is_cone for c, _ in x.cells):
        raise TropicalGeometryError("stellar subdivision requires a fan cycle")
    if not any(c.contains_direction(ray) for c, _ in x.cells):
        raise TropicalGeometryError("ray does not lie in the support")
    items = []
    for sigma, w in x.cells:
        in_lineality = _reduce_mod(ray, sigma.lineality) is None
        if in_lineality or not sigma.contains_direction(ray):
            items.append((sigma, w))
            continue
        for child, _ in sigma.facet_cells():
            if child.contains_direction(ray):
                continue
            piece = make_cell(
                x.ambient_dim, (), child.rays + (ray,), sigma.lineality
            )
            items.append((piece, w))
    return make_cycle(x.ambient_dim, x.dim, items)


def pushforward_cycle(matrix, x, translation=None, target_dim=None):
    """Push a cycle forward along an integer-affine map.

    Cells whose image drops dimension are discarded; the remaining images
    are refined to a common complex and weighted with lattice indices.
    """
    m = len(matrix) if matrix else target_dim
    if x.is_empty:
        return empty_cycle(m)
    contributions = []
    for sigma, w in x.cells:
        image = map_cell(sigma, matrix, translation)
        if image.dim < sigma.dim:
            continue
        fsub = [
            tuple(vec_dot(row, b) for row in matrix) for b in sigma.direction_lattice()
        ]
        idx = lattice_index(fsub, image.direction_lattice())
        contributions.append((image, w * idx))
    return assemble_cycle(m, x.dim, contributions)


def diagonal_cycle(x):
    """The image of x under v -> (v, v), weights preserved."""
    rows = _unit_rows(x.ambient_dim)
    return pushforward_cycle(rows + rows, x, target_dim=2 * x.ambient_dim)


def support_covers(x, carrier):
    """True iff the support of x lies inside the support of the carrier."""
    try:
        common_refinement(x, carrier)
        return True
    except TropicalGeometryError:
        return False
