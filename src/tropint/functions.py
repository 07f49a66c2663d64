"""Piecewise linear functions on polyhedral carriers and their divisors.

A PLFunction stores one integer covector and one rational offset per
maximal carrier cell.  Functions are only ever evaluated on their carrier;
off the support of a cell the stored covector is an arbitrary extension,
so two representations agreeing on every cell describe the same function.
"""

from fractions import Fraction

from .exactmath import (
    _unit_rows,
    clear_denominators,
    solve_integer,
    vec_dot,
    vec_sub,
)
from .polyhedra import (
    Complex,
    TropicalGeometryError,
    VerificationError,
    _build_from_hom,
    _integers,
    _normal_sums,
    _refine,
    _space_cell,
    add_cycles,
    cut_cell_by_hom_forms,
    empty_cycle,
    intersect_cells,
    make_cycle,
    scale_cycle,
)


class UnbalancedCycleError(TropicalGeometryError):
    """A divisor was taken on a cycle that fails the balancing condition."""


class PLFunction:
    """A piecewise integer-affine function on a polyhedral carrier."""

    __slots__ = ("carrier", "cells", "forms", "_by_cell")

    def __init__(self, cells, forms):
        if len(cells) != len(forms):
            raise TropicalGeometryError("one form per carrier cell required")
        if not cells:
            raise TropicalGeometryError("carrier must have at least one cell")
        order = sorted(range(len(cells)), key=lambda i: cells[i].key())
        self.cells = tuple(cells[i] for i in order)
        self.forms = tuple(
            (_integers(forms[i][0], "covector entries"), Fraction(forms[i][1]))
            for i in order
        )
        self.carrier = Complex(self.cells[0].ambient_dim, self.cells)
        if len(self.carrier.maximal) != len(self.cells):
            raise TropicalGeometryError("carrier cells must be distinct")
        self._by_cell = {c: f for c, f in zip(self.cells, self.forms)}

    @property
    def ambient_dim(self):
        return self.carrier.ambient_dim

    def form_on(self, cell):
        return self._by_cell[cell]

    def form_at(self, point):
        cell = self.carrier.find_cell_containing(point)
        if cell is None:
            raise TropicalGeometryError("point lies outside the carrier")
        return self._by_cell[cell]

    def value(self, point):
        cov, off = self.form_at(point)
        return sum(c * Fraction(x) for c, x in zip(cov, point)) + off

    def validate(self):
        """Check that the cellwise forms glue to a continuous function."""
        cells = self.cells
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                inter = intersect_cells(cells[i], cells[j])
                if inter.is_empty:
                    continue
                if any(_difference_values(self.forms[i], self.forms[j], inter)):
                    raise VerificationError("forms disagree on a shared face")
        return True

    def __repr__(self):
        return "PLFunction(ambient=%d, %d cells)" % (self.ambient_dim, len(self.cells))


def _difference_values(form, other, cell):
    """The values of h = (cov - cov', off - off'), the homogeneous form of
    the difference of two affine forms (cov, off), on the generators of the
    cell's homogenization: its homogeneous generators, then each lineality
    direction and its negative.  At a vertex generator (w, t), t > 0, h
    takes t times the difference at w / t, so the difference is >= 0 (or 0)
    on the cell iff every value is."""
    h = vec_sub(form[0], other[0]) + (form[1] - other[1],)
    at_lin = [vec_dot(h, l) for l in cell.hom_lin()]
    return [vec_dot(h, g) for g in cell.hom_gens()] + at_lin + [-x for x in at_lin]


def affine_function(ambient_dim, covector, offset=0):
    """The globally affine function x -> covector.x + offset."""
    return PLFunction((_space_cell(ambient_dim),), ((covector, offset),))


def ray_function(fan, values):
    """The function linear on each cone of a pointed simplicial fan taking
    prescribed integer values on its rays (zero where unspecified).  A
    value given on a vector that is not a primitive ray of the fan raises
    TropicalGeometryError."""
    if hasattr(fan, "cells"):  # a cycle: use its complex
        fan = fan.complex()
    if not fan.is_simplicial_fan():
        raise TropicalGeometryError("carrier is not a pointed simplicial fan")
    values = dict(zip(map(tuple, values), _integers(values.values(), "ray values")))
    cells = fan.maximal
    rays = {r for cone in cells for r in cone.rays}
    for r in values:
        if r not in rays:
            raise TropicalGeometryError("%s is not a ray of the fan" % (r,))
    forms = []
    for cone in cells:
        rhs = tuple(values.get(r, 0) for r in cone.rays)
        cov = solve_integer(cone.rays, rhs) if cone.rays else (0,) * fan.ambient_dim
        if cov is None:
            raise TropicalGeometryError(
                "no integer linear form takes these ray values on %r" % (cone,)
            )
        forms.append((cov, 0))
    return PLFunction(cells, forms)


def max_poly_function(carrier, forms):
    """The pointwise maximum of affine forms, on a carrier it is linear on.

    `forms` is a list of (integer covector, rational offset) pairs.  On
    each maximal carrier cell one of the forms must dominate all others;
    otherwise the carrier does not refine the corner locus and an error is
    raised.
    """
    if hasattr(carrier, "cells"):
        carrier = carrier.complex()
    forms = [(_integers(cov, "covector entries"), Fraction(off)) for cov, off in forms]
    if not forms:
        raise TropicalGeometryError("empty maximum")
    cells = carrier.maximal
    chosen = []
    for cell in cells:
        for form in forms:
            if all(x >= 0 for o in forms for x in _difference_values(form, o, cell)):
                chosen.append(form)
                break
        else:
            raise TropicalGeometryError("function is not linear on a carrier cell")
    return PLFunction(cells, chosen)


def add_functions(f, g):
    """Pointwise sum, carried by the common refinement of both carriers.

    Each summand's cells are refined along the other's carrier, which
    checks that either carrier covers the other (else
    TropicalGeometryError) and gives each piece its host in that carrier.
    Both refinements have the same pieces, the full-dimensional
    intersections of an f cell with a g cell, so every piece gets an
    f-host and a g-host.
    """
    if f.ambient_dim != g.ambient_dim:
        raise TropicalGeometryError("ambient dimension mismatch")
    if f.cells == g.cells:
        cells, pairs = f.cells, zip(f.forms, g.forms)
    else:
        refined, in_g = _refine(_cell_cycle(f), g.carrier)
        in_f = _refine(_cell_cycle(g), f.carrier)[1]
        cells = [piece for piece, _ in refined.cells]
        pairs = [(f.form_on(in_f[p]), g.form_on(in_g[p])) for p in cells]
    return PLFunction(
        cells,
        [(tuple(map(sum, zip(cf[0], cg[0]))), cf[1] + cg[1]) for cf, cg in pairs],
    )


def _cell_cycle(f):
    """The carrier cells of f as a cycle of weight one."""
    return make_cycle(f.ambient_dim, f.cells[0].dim, [(c, 1) for c in f.cells])


def scale_function(f, c):
    c = _integers((c,), "scale factors")[0]
    return PLFunction(
        f.cells,
        tuple((tuple(c * a for a in cov), c * off) for cov, off in f.forms),
    )


def _unit_columns(matrix):
    """The column of the entry 1 in each row when the rows are distinct
    unit vectors, so that x -> matrix.x reads off coordinates; else None."""
    columns = []
    for row in matrix:
        support = [j for j, a in enumerate(row) if a]
        if len(support) != 1 or row[support[0]] != 1:
            return None
        columns.append(support[0])
    return columns if len(set(columns)) == len(columns) else None


def pullback_function(matrix, translation, phi):
    """Pull a PL function back along x -> matrix.x + translation.

    The carrier is the preimage of the carrier of phi: the non-empty
    preimages of its cells that lie in no larger one.  A divisor reads its
    function only on the cycle's support, so the preimage need not be the
    whole domain, nor pure; applying the pulled function refines the
    cycle along it, which checks that it covers the cycle.  A map that
    misses the carrier raises TropicalGeometryError.  When the rows of the
    matrix are distinct unit vectors (a coordinate projection, maybe
    permuted, as in the projections of a product and in f x id for such
    an f), a preimage is the carrier cell lifted along the free
    coordinates, with the pulled-back facets as its candidate facets.
    Any other matrix cuts the whole domain by each cell's pulled-back
    facets and equations.
    """
    n = len(matrix[0]) if matrix else 0
    m = len(matrix)
    if translation is None:
        translation = (0,) * m
    if phi.ambient_dim != m:
        raise TropicalGeometryError("function carrier does not match the target")
    space = _space_cell(n)
    columns = _unit_columns(matrix)

    def pull(a):
        return tuple(sum(a[i] * matrix[i][j] for i in range(m)) for j in range(n))

    def pull_form(form):
        a = form[:-1]
        return clear_denominators(pull(a) + (vec_dot(a, translation) + form[-1],))[0]

    if columns is not None:
        # the preimage of a cell is the cell placed in the selected
        # coordinates and shifted by -t, times R^(free coordinates): the
        # generator (w, s) goes to (d w - s d t, s d) with d the common
        # denominator of t (the build makes it primitive), and the
        # lineality gains e_j for every free column j.  A generator
        # extreme in the cell stays extreme modulo that lineality, and
        # the pulled-back facets define every facet of the preimage.
        shift, d = clear_denominators(translation)
        picked = set(columns)
        free = tuple(e + (0,) for j, e in enumerate(_unit_rows(n)) if j not in picked)

        def place(w):
            out = [0] * (n + 1)
            for j, x in zip(columns, w):
                out[j] = x
            out[n] = w[-1]
            return tuple(out)

        def lift(w):
            s = w[-1]
            return place([d * x - s * y for x, y in zip(w, shift)] + [s * d])

        def preimage(cell):
            return _build_from_hom(
                n,
                tuple(lift(g) for g in cell.hom_gens()),
                tuple(place(l) for l in cell.hom_lin()) + free,
                lambda: [pull_form(f) for f in cell.hom_facets],
            )

    else:

        def preimage(cell):
            ineqs = [pull_form(f) for f in cell.hom_facets]
            eqs = [pull_form(e) for e in cell.hom_eqs]
            return cut_cell_by_hom_forms(space, ineqs, eqs)

    # a non-injective map can give two target cells the same preimage; the
    # function is continuous, so their pulled-back forms agree
    pieces = {}
    for target_cell, (cov, off) in zip(phi.cells, phi.forms):
        piece = preimage(target_cell)
        if not piece.is_empty and piece not in pieces:
            pieces[piece] = (pull(cov), vec_dot(cov, translation) + off)
    if not pieces:
        raise TropicalGeometryError("map misses the carrier of the function")
    # the preimage need not be pure: keep the pieces that lie in no larger one
    top = max(piece.dim for piece in pieces)
    cells = [
        p
        for p in pieces
        if p.dim == top or not any(q.dim > p.dim and q.contains_cell(p) for q in pieces)
    ]
    return PLFunction(cells, [pieces[piece] for piece in cells])


class _Faces:
    """The codimension-one faces of a cycle refined along one carrier, with
    the forms that give each face its weight in a divisor.

    The cycle's cells come with their hosts, the carrier cells containing
    them; without given hosts the cycle is refined along the carrier.  The
    weight of a face tau in a divisor (see `divisor`) is linear in the
    covectors of the function on the hosts of the cells around tau: the
    weighted lattice normals are summed per host once, and `divisor`
    evaluates any function on the carrier from those sums.  A face whose
    cells all lie in one host gets weight zero from every function.  The
    balancing of the cycle is checked on construction.  This is the
    geometric twin of `linspace._SymbolFan.faces`.
    """

    __slots__ = ("hosts", "faces")

    def __init__(self, x, carrier, hosts=None):
        if hosts is None:
            x, hosts = _refine(x, carrier)
        index = {}
        at = [index.setdefault(hosts[c], len(index)) for c, _ in x.cells]
        self.hosts = tuple(index)
        self.faces = faces = []
        # sums: host index -> weighted lattice normals in that host
        for tau, first, sums in _normal_sums(x, at):
            total = [sum(col) for col in zip(*sums.values())]
            if not tau.spans_direction(total):
                raise UnbalancedCycleError(
                    "cycle is not balanced around a codimension-one cell"
                )
            if len(sums) == 1:
                continue
            sums[first] = [s - t for s, t in zip(sums[first], total)]
            forms = tuple((h, v) for h, v in sums.items() if any(v))
            if forms:
                faces.append((tau, first, forms))

    def divisor(self, phi):
        """The cells and weights of the divisor of phi, a function on the
        carrier, and the host of each cell (the host of a cell around it)."""
        covs = [phi.form_on(h)[0] for h in self.hosts]
        items = []
        hosts = {}
        for tau, first, forms in self.faces:
            weight = sum(vec_dot(covs[h], v) for h, v in forms)
            if weight:
                items.append((tau, weight))
                hosts[tau] = self.hosts[first]
        return items, hosts


def divisor(phi, x):
    """The divisor cycle phi . x supported on the codimension-one cells.

    The cycle is refined along the carrier of phi; each codimension-one
    cell tau of the refinement receives the weight
        sum_sigma w(sigma) phi_sigma(u_sigma/tau) - phi_tau(sum_sigma w(sigma) u_sigma/tau)
    and cells of weight zero are dropped.  Raises UnbalancedCycleError when
    the weighted normal vectors around some tau do not sum into its span.
    """
    return CartierExpression(((1, (phi,)),)).apply(x)


def _merge(pairs):
    """sum c phi over the (c, phi) pairs, one function per carrier; a lone
    phi with coefficient one is kept as it is."""
    groups = {}
    for c, phi in pairs:
        groups.setdefault(phi.cells, []).append((c, phi))
    out = []
    for (c, phi), *rest in groups.values():
        total = phi if c == 1 and not rest else scale_function(phi, c)
        for c, psi in rest:
            total = add_functions(total, scale_function(psi, c))
        out.append(total)
    return tuple(out)


def _plan(terms, merge, depth=0):
    """The factor tree of (coefficient, factors) terms from factor `depth`
    on, as (scalar, leaves, groups): the summed coefficient of the terms
    with no factor left, the leaves `merge` makes of the (coefficient,
    factor) pairs of the terms with one factor left (a divisor is linear
    in its function), and (factor, subtree) for the terms with more, by
    their next factor (a PLFunction equals only itself).  The fan check
    `linspace._SymbolFan.apply` plans with it too."""
    scalar = 0
    last = []
    groups = {}
    for coeff, factors in terms:
        if len(factors) == depth:
            scalar += coeff
        elif len(factors) == depth + 1:
            last.append((coeff, factors[depth]))
        else:
            groups.setdefault(factors[depth], []).append((coeff, factors))
    return (
        scalar,
        merge(last) if last else (),
        tuple((f, _plan(group, merge, depth + 1)) for f, group in groups.items()),
    )


class CartierExpression:
    """An integer combination of products of PL functions.

    Terms are (coefficient, factors) pairs; applying the expression to a
    cycle applies each factor of a term in turn as a divisor, scales by
    the coefficient, and sums the results.  The terms are applied as a
    factor tree (`_plan` with `_merge`, built on first use): terms sharing
    a first factor share its divisor, and the last factors of sibling
    terms on one carrier are merged into one function.  A cycle is refined
    along each carrier once, its faces and lattice normals are computed
    once for all the functions on that carrier (`_Faces`), and a divisor
    keeps the hosts of its cells, so the next factor on the same carrier
    needs no refinement.
    """

    __slots__ = ("terms", "_tree")

    def __init__(self, terms):
        self.terms = tuple(
            (_integers((c,), "coefficients")[0], tuple(factors))
            for c, factors in terms
        )
        self._tree = None

    def __len__(self):
        return len(self.terms)

    def degree(self):
        """Number of divisor applications each term performs."""
        degrees = {len(factors) for _, factors in self.terms}
        if len(degrees) != 1:
            raise TropicalGeometryError("mixed-degree expression")
        return degrees.pop()

    def apply(self, x):
        if self._tree is None:
            self._tree = _plan(self.terms, _merge)
        parts = []
        _walk(self._tree, x, None, None, parts)
        result = empty_cycle(x.ambient_dim)
        for y in parts:
            result = add_cycles(result, y)
        return result


def _walk(node, x, hosts, cells, parts):
    """Append the cycles that sum to node . x to parts; hosts, when given,
    maps the cells of x into the carrier cells `cells`."""
    scalar, leaves, groups = node
    if scalar:
        parts.append(scale_cycle(x, scalar))
    if x.is_empty or x.dim == 0:
        return
    faces = {}

    def divide(phi):
        got = faces.get(phi.cells)
        if got is None:
            if phi.ambient_dim != x.ambient_dim:
                raise TropicalGeometryError(
                    "function and cycle live in different spaces"
                )
            given = hosts if phi.cells == cells else None
            got = faces[phi.cells] = _Faces(x, phi.carrier, given)
        items, out_hosts = got.divisor(phi)
        return make_cycle(x.ambient_dim, x.dim - 1, items), out_hosts

    for phi in leaves:
        parts.append(divide(phi)[0])
    for phi, child in groups:
        y, y_hosts = divide(phi)
        if not y.is_empty:
            _walk(child, y, y_hosts, phi.cells, parts)


def apply_expression(expr, x):
    return expr.apply(x)
