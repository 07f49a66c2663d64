"""Intersection products, push-forwards and pull-backs of tropical cycles.

The product of two cycles inside an ambient linear space (or star, or
product of such) is computed by crossing them, applying a verified
diagonal representation, and pushing forward along the first projection.
An AmbientContext bundles the ambient cycle with its representation.
Linear spaces and stars take the fan check of their representation, and
keep one stage set: its ray functions on F^n_m, the fan that
[L^n_m x L^n_m] lies in (or its star), which intersections, product
contexts and pull-backs all read.
Product contexts pull the factor representations back along the
coordinate projections and are verified by their factors, through the
product formula pi^*phi . (A x B) = (phi . A) x B (Allermann-Rau); any
other context is checked geometrically when it is first used.

A pull-back along f : X -> Y uses the target's representation alone:
f^*c = pi_X*((f x id)^*Delta_Y . (X x c)), since (f x id)^*Delta_Y is the
graph of f in X x Y.  The source context is read only for its ambient X.
"""

from .exactmath import _unit_rows
from .functions import CartierExpression, pullback_function
from .linspace import rewrite_diagonal, star_diagonal
from .polyhedra import (
    TropicalGeometryError,
    VerificationError,
    _integers,
    _module_cache,
    _rationals,
    cross,
    cycles_equal,
    diagonal_cycle,
    empty_cycle,
    make_cycle,
    map_cell,
    pushforward_cycle,
    support_covers,
    vec_dot,
)

_CONTEXT_CACHE = _module_cache()


class Morphism:
    """An integer-affine map between ambient spaces of cycles."""

    __slots__ = ("matrix", "translation", "source_dim", "target_dim")

    def __init__(self, matrix, translation=None, source_dim=None):
        self.matrix = tuple(_integers(row, "matrix entries") for row in matrix)
        if self.matrix:
            widths = {len(row) for row in self.matrix}
            if len(widths) != 1:
                raise TropicalGeometryError("matrix rows have unequal length")
            source_dim = widths.pop()
        elif source_dim is None:
            raise TropicalGeometryError("empty matrix needs an explicit source_dim")
        self.source_dim = source_dim
        self.target_dim = len(self.matrix)
        if translation is None:
            translation = (0,) * self.target_dim
        self.translation = _rationals(translation, "translation entries")
        if len(self.translation) != self.target_dim:
            raise TropicalGeometryError("translation length must match target")

    def apply(self, point):
        return tuple(
            vec_dot(row, point) + t for row, t in zip(self.matrix, self.translation)
        )

    def __repr__(self):
        return "Morphism(%r, %r)" % (self.matrix, self.translation)


def identity_morphism(n):
    return Morphism(_unit_rows(n))


def projection_morphism(dims, index):
    """Projection of R^{d_0} x ... x R^{d_r} onto its index-th factor."""
    return Morphism(_unit_rows(dims[index], sum(dims), sum(dims[:index])))


def diagonal_morphism(n):
    rows = _unit_rows(n)
    return Morphism(rows + rows)


def pushforward(f, x, source=None, target=None):
    """Push the cycle x forward along the morphism f.

    Cells mapping to lower dimension are discarded; surviving images carry
    their lattice index as multiplicity.  Optional source/target cycles
    restrict where x and its image may live; each one given is checked,
    the target on the images of all cells of x, discarded ones included.
    """
    if not x.is_empty and x.ambient_dim != f.source_dim:
        raise TropicalGeometryError("cycle does not live in the source of the map")
    if source is not None and not support_covers(x, source):
        raise TropicalGeometryError("cycle leaves the declared source support")
    if target is not None and not _maps_into(f, x, target):
        raise TropicalGeometryError("image leaves the declared target support")
    return pushforward_cycle(
        f.matrix, x, translation=f.translation, target_dim=f.target_dim
    )


def _maps_into(f, x, y):
    """True iff f maps the support of x into the support of y: the images
    of the cells of x, one cycle per dimension, lie in y, whatever
    dimension they lose."""
    images = {}
    for sigma, _ in x.cells:
        image = map_cell(sigma, f.matrix, f.translation)
        images.setdefault(image.dim, []).append((image, 1))
    return all(
        support_covers(make_cycle(f.target_dim, d, z), y) for d, z in images.items()
    )


def graph(f, x):
    """The graph of f over the cycle x, inside R^{source} x R^{target}."""
    n = f.source_dim
    translation = (0,) * n + f.translation
    return pushforward_cycle(_unit_rows(n) + f.matrix, x, translation=translation)


def _pull_expression(expr, matrix, translation=None):
    """The expression with every factor pulled back; a function that fills
    several factor slots is pulled back once."""
    pulled = {}

    def pull(phi):
        got = pulled.get(id(phi))
        if got is None:
            got = pulled[id(phi)] = pullback_function(matrix, translation, phi)
        return got

    return CartierExpression(
        (coeff, [pull(phi) for phi in factors]) for coeff, factors in expr.terms
    )


def _apply_stages(stages, z):
    for stage in stages:
        z = stage.apply(z)
        if z.is_empty:
            break
    return z


class AmbientContext:
    """An ambient cycle together with a diagonal representation.

    `stages` is a sequence of Cartier expressions; applying them in order
    to [ambient x ambient] cuts out the diagonal.  Their functions need
    only cover a fan that [ambient x ambient] lies in: a divisor reads its
    function only on the cycle's support, and the cells of a product are
    tested and cut against the cones of that fan alone.  Intersections
    apply them, and product contexts and pull-backs pull them back.
    Splitting the representation into stages keeps products of contexts
    small: the sum over one factor's tuples is collapsed before the next
    factor's tuples are applied.  The constructor takes them as a sequence
    or a function of no arguments returning it, called when they are
    first read.  It checks nothing: `verified` is set from the fan check
    or the product formula (see product_context), or by `verify`, the
    geometric check run by intersect_cycles and by the CLI's --verify.
    """

    __slots__ = ("ambient", "_stages", "label", "verified")

    def __init__(self, ambient, stages, label=None):
        self.ambient = ambient
        self._stages = stages if callable(stages) else tuple(stages)
        self.label = label
        self.verified = False

    @property
    def stages(self):
        if callable(self._stages):
            self._stages = tuple(self._stages())
        return self._stages

    def verify(self):
        got = self.apply_diagonal(cross(self.ambient, self.ambient))
        if not cycles_equal(got, diagonal_cycle(self.ambient)):
            raise VerificationError(
                "ambient context failed its diagonal identity"
            )
        self.verified = True
        return True

    def apply_diagonal(self, z):
        return _apply_stages(self.stages, z)


def _representation_context(key, build):
    """The context of a representation: its expression on the fan that
    [space x space] lies in (F^n_m, or its star) as the one stage, not
    built before it is read."""
    got = _CONTEXT_CACHE.get(key)
    if got is None:
        rep = build()
        got = AmbientContext(rep.space, lambda: (rep.expression,), label=key)
        got.verified = rep.verified  # the representation was verified on build
        _CONTEXT_CACHE[key] = got
    return got


def linear_space_context(n, m):
    """Context for the linear space L^n_m inside R^n (cached)."""
    return _representation_context(("lnk", n, m), lambda: rewrite_diagonal(n, n - m))


def star_context(n, m, tau):
    """Context for the star of L^n_m at one of its cells."""
    key = ("star", n, m, tau.key())
    return _representation_context(key, lambda: star_diagonal(n, m, tau))


def product_context(cx, cy):
    """Context for the product of two ambient cycles.

    Each factor's stages are pulled back along the corresponding pair of
    coordinate projections of (X x Y) x (X x Y); their concatenation
    represents the diagonal of the product: by the product formula
    pi^*phi . (A x B) = (phi . A) x B they cut out Delta_X x Delta_Y.  So
    the product is verified when both factors are.  The stages are pulled
    back when they are first read: a pull-back reads only the ambient.
    """
    key = None
    if cx.label is not None and cy.label is not None:
        key = ("product", cx.label, cy.label)
        got = _CONTEXT_CACHE.get(key)
        if got is not None:
            return got
    ax = cx.ambient.ambient_dim
    ay = cy.ambient.ambient_dim
    total = 2 * (ax + ay)
    # (u, v, u', v') -> (u, u') and -> (v, v')
    px = _unit_rows(ax, total) + _unit_rows(ax, total, ax + ay)
    py = _unit_rows(ay, total, ax) + _unit_rows(ay, total, 2 * ax + ay)

    def stages():
        return [_pull_expression(stage, px) for stage in cx.stages] + [
            _pull_expression(stage, py) for stage in cy.stages
        ]

    out = AmbientContext(cross(cx.ambient, cy.ambient), stages, label=key)
    out.verified = cx.verified and cy.verified
    if key is not None:
        _CONTEXT_CACHE[key] = out
    return out


def _project_product(apply, a, b, expected):
    """apply(a x b), a diagonal applied to a product, pushed forward along
    the projection to the first factor, which must leave the expected
    dimension."""
    n = a.ambient_dim
    z = apply(cross(a, b))
    out = pushforward_cycle(_unit_rows(n, n + b.ambient_dim), z, target_dim=n)
    if not out.is_empty and out.dim != expected:
        raise VerificationError("intersection product has unexpected dimension")
    return out


def intersect_cycles(d1, d2, ctx):
    """The stable intersection of d1 and d2 inside the context's ambient.

    Crosses the cycles, applies the diagonal representation, and pushes
    forward along the first projection.  The result is empty whenever the
    expected dimension dim d1 + dim d2 - dim ambient is negative.  An
    unverified context is first checked geometrically (VerificationError).
    """
    n = ctx.ambient.ambient_dim
    if d1.is_empty or d2.is_empty:
        return empty_cycle(n)
    if d1.ambient_dim != n or d2.ambient_dim != n:
        raise TropicalGeometryError("cycles do not live in the ambient space")
    if not (support_covers(d1, ctx.ambient) and support_covers(d2, ctx.ambient)):
        raise TropicalGeometryError("cycle support leaves the ambient space")
    expected = d1.dim + d2.dim - ctx.ambient.dim
    if expected < 0:
        return empty_cycle(n)
    if not ctx.verified:
        ctx.verify()
    return _project_product(ctx.apply_diagonal, d1, d2, expected)


def pullback_cycle(f, c, ctx_source, ctx_target):
    """Pull the cycle c back along f : X -> Y.

    f^*c = pi_X*(F^*Delta_Y . (X x c)), where F(u, v) = (f(u), v) maps
    X x Y to Y x Y and so pulls the diagonal of Y back to the graph of f
    (Allermann-Rau).  The stages of ctx_target, the representation of
    Delta_Y, are pulled back along F and applied to X x c; ctx_source is
    read only for its ambient X.  f must map X into Y: the images of X's
    cells, one cycle per dimension, must lie in the support of Y, whatever
    dimension they lose.  The result is empty whenever the expected
    dimension dim X + dim c - dim Y is negative.  An unverified target
    context is first checked geometrically (VerificationError).
    """
    x = ctx_source.ambient
    y = ctx_target.ambient
    n = x.ambient_dim
    m = y.ambient_dim
    if f.source_dim != n or f.target_dim != m:
        raise TropicalGeometryError("morphism does not match the contexts")
    if not _maps_into(f, x, y):
        raise TropicalGeometryError("morphism does not map source into target")
    if not c.is_empty and c.ambient_dim != m:
        raise TropicalGeometryError("cycle does not live in the target space")
    if not c.is_empty and not support_covers(c, y):
        raise TropicalGeometryError("cycle support leaves the target space")
    if x.is_empty or c.is_empty:
        return empty_cycle(n)
    expected = x.dim + c.dim - y.dim
    if expected < 0:
        return empty_cycle(n)
    if not ctx_target.verified:
        ctx_target.verify()
    matrix = tuple(row + (0,) * m for row in f.matrix) + _unit_rows(m, n + m, n)
    translation = f.translation + (0,) * m
    graph_stages = [
        _pull_expression(stage, matrix, translation) for stage in ctx_target.stages
    ]
    return _project_product(lambda z: _apply_stages(graph_stages, z), x, c, expected)
