"""Tropical linear spaces, their diagonal refinements and rewritings.

L^n_k is the k-dimensional fan on the rays -e_0, ..., -e_n (with
e_0 = -e_1 - ... - e_n), all weights one.  F^n_k refines L^n_k x L^n_k so
that the diagonal becomes a subfan; its rays are named by symbols

    T_i = (-e_i | 0)    A = T_0
    B_i = (0 | -e_i)    B = B_0
    D_i = (-e_i | -e_i) D = D_0

and every cone is the span of a set of symbol rays.  The rewriting
procedure expresses the diagonal of L^n_m as a sum of products of m ray
function combinations applied to [L^n_m x L^n_m].  Every diagonal
representation, stars included, is verified exactly on the fan F^n_n:
[L^n_m x L^n_m] refined along F^n_n is the weight-one subfan F^n_m, every
factor is a ray function on F^n_n, and F^n_n is unimodular, so the
divisors are computed with integers alone, on cones given as bitmasks of
their symbols.  The normal sum at each face is solved for the face's
rays one index i = 0..n at a time, in the homogeneous coordinates of the
symbol rays, with no elimination.  The tuples are applied along the
factor tree of the geometric chain (`functions._plan`): shared prefixes
are divided once, and sibling last factors are summed by linearity.  The
star at a cell tau = cone{-e_i : i in I} is the star of that subfan at
the cone {D_i : i in I}, since divisors commute with taking stars.
Applying the PL functions geometrically, as intersection contexts do
(`AmbientContext.verify`), is the test oracle for this check.

Intersection contexts apply the tuples as ray functions on F^n_m itself
(on its star at (x, x) for a star), the restrictions of the functions on
F^n_n to the fan that [L^n_m x L^n_m] lies in: a divisor reads its
function only on the cycle's support, and [C x D] is then cut along the
cones of F^n_m alone.  Pull-backs and product contexts take the
functions on F^n_n, whose pull-backs must cover the whole domain.  Stars
are cut cone by cone with `star_cell`, as `star` cuts a cycle.  Rewriting,
the fan check, serialization and parsing build no cell: a representation
carries its tuples, and its space is derived when read.
"""

from itertools import combinations
from math import comb
from operator import mul

from .functions import CartierExpression, PLFunction, _plan, ray_function
from .polyhedra import (
    Complex,
    TropicalGeometryError,
    VerificationError,
    _module_cache,
    _space_cell,
    cone_from_generators,
    cross,
    make_cycle,
    star,
    star_cell,
    support_covers,
)

_LNK_CACHE = _module_cache()
_FNK_CACHE = _module_cache()
_REWRITE_CACHE = _module_cache()


def neg_e(n, i):
    """-e_i in R^n, where e_0 = -e_1 - ... - e_n, for i in 0..n."""
    if not 0 <= i <= n:
        raise TropicalGeometryError("no ray -e_%d in R^%d" % (i, n))
    if i == 0:
        return (1,) * n
    return tuple(-1 if j == i - 1 else 0 for j in range(n))


def symbol_ray(n, sym):
    """The ray of R^{2n} a symbol stands for."""
    kind, i = sym
    if kind not in ("T", "B", "D") or not 0 <= i <= n:
        raise TropicalGeometryError("unknown symbol %r for n = %d" % (sym, n))
    zero = (0,) * n
    if kind == "T":
        return neg_e(n, i) + zero
    if kind == "B":
        return zero + neg_e(n, i)
    return neg_e(n, i) + neg_e(n, i)


def symbol_name(sym):
    kind, i = sym
    if sym == ("T", 0):
        return "A"
    if sym == ("B", 0):
        return "B"
    if sym == ("D", 0):
        return "D"
    return "%s%d" % (kind, i)


def parse_symbol(name):
    if name == "A":
        return ("T", 0)
    if name == "B":
        return ("B", 0)
    if name == "D":
        return ("D", 0)
    if name[:1] in ("T", "B", "D") and name[1:].isdigit():
        return (name[0], int(name[1:]))
    raise TropicalGeometryError("unknown symbol name %r" % (name,))


def _display_rank(sym):
    kind, i = sym
    if kind == "T" and i > 0:
        return (0, i)
    if sym == ("B", 0):
        return (1, 0)
    if kind == "B":
        return (2, i)
    if sym == ("T", 0):
        return (3, 0)
    return (4, i)


def combination_name(combo):
    """Readable form of an integer combination of symbols."""
    parts = []
    for sym in sorted(combo, key=_display_rank):
        c = combo[sym]
        if c == 0:
            continue
        name = symbol_name(sym)
        if c == 1:
            parts.append("+" + name)
        elif c == -1:
            parts.append("-" + name)
        else:
            parts.append("%+d%s" % (c, name))
    if not parts:
        return "0"
    out = "".join(parts)
    return out[1:] if out.startswith("+") else out


def rn_cycle(n):
    """[R^n] with weight one."""
    return make_cycle(n, n, [(_space_cell(n), 1)])


def build_lnk(n, k):
    """The tropical linear space L^n_k as a weight-one fan cycle."""
    if not 0 <= k <= n:
        raise TropicalGeometryError("need 0 <= k <= n")
    got = _LNK_CACHE.get((n, k))
    if got is not None:
        return got
    rays = [neg_e(n, i) for i in range(n + 1)]
    cells = [
        (cone_from_generators(n, [rays[i] for i in subset]), 1)
        for subset in combinations(range(n + 1), k)
    ]
    out = make_cycle(n, k, cells)
    _LNK_CACHE[(n, k)] = out
    return out


def _symbols(n):
    """The symbols T_0..T_n, B_0..B_n, D_0..D_n; a symbol's position in
    this list is its bit in a cone mask."""
    return [(kind, i) for kind in ("T", "B", "D") for i in range(n + 1)]


def _symbol_cones(n, k):
    """The maximal cones of F^n_k, as bitmasks over `_symbols(n)`.

    Each pair of k-subsets I, J of {0, ..., n} gives the cone on
    {T_i : i in I} and {B_j : j in J}; cones containing both T_i and B_i
    for some i are recursively split along D_i.
    """
    m = n + 1
    low = (1 << m) - 1
    final = set()
    for isub in combinations(range(m), k):
        ts = sum(1 << i for i in isub)
        for jsub in combinations(range(m), k):
            stack = [ts | sum(1 << (m + j) for j in jsub)]
            while stack:
                s = stack.pop()
                pairs = s & (s >> m) & low
                if not pairs:
                    final.add(s)
                else:
                    t = pairs & -pairs  # T_i for the lowest such i
                    d = t << 2 * m
                    stack.append(s ^ t | d)
                    stack.append(s ^ t << m | d)
    return final


def build_fnk(n, k):
    """The refinement F^n_k of L^n_k x L^n_k, as a complex of symbol cones.

    The result is simplicial and unimodular with the diagonal as a subfan.
    """
    if not 0 <= k <= n:
        raise TropicalGeometryError("need 0 <= k <= n")
    got = _FNK_CACHE.get((n, k))
    if got is not None:
        return got
    rays = [symbol_ray(n, sym) for sym in _symbols(n)]
    cones = [
        cone_from_generators(
            2 * n, [r for j, r in enumerate(rays) if mask >> j & 1]
        )
        for mask in _symbol_cones(n, k)
    ]
    out = Complex(2 * n, cones)
    _FNK_CACHE[(n, k)] = out
    return out


def fnk_cycle(n, k):
    """F^n_k with weight one on every maximal cone."""
    return make_cycle(
        2 * n, 2 * k, [(c, 1) for c in build_fnk(n, k).maximal]
    )


def symbol_function(n, combo, k=None):
    """Integer combination of symbol ray functions on F^n_n, or on its
    subfan F^n_k.

    On F^n_k it is the restriction of the function on F^n_n: the values
    on symbols that are not rays of F^n_k (all of them for k = 0) are
    dropped.
    """
    fan = build_fnk(n, n if k is None else k)
    rays = {r for cone in fan.maximal for r in cone.rays}
    values = {symbol_ray(n, sym): c for sym, c in combo.items()}
    return ray_function(fan, {r: c for r, c in values.items() if r in rays})


def diagonal_product_form(n, k):
    """The unverified representation (T_1+B) ... (T_n+B) (A+D)^k of the
    diagonal of L^n_{n-k} over the complete base [R^n x R^n]."""
    combos = [{("T", i): 1, ("B", 0): 1} for i in range(1, n + 1)]
    combos += [{("T", 0): 1, ("D", 0): 1}] * k
    return DiagonalRepresentation(n, n - k, ((1, tuple(combos)),), complete=True)


def diagonal_divisors_rn(n, k):
    """The product (T_1+B) ... (T_n+B) (A+D)^k on F^n_n.

    Applied to [F^n_n] it yields the diagonal of L^n_{n-k}.
    """
    return diagonal_product_form(n, k).expression


def _symbol_expression(n, tuples, point=None, k=None):
    """The Cartier expression of rewriting tuples, one symbol function per
    distinct factor combination, on F^n_n or on its subfan F^n_k.

    With a point, each function is restricted to the star of that fan
    there, cone by cone (`star_cell`).
    """
    if point is not None:
        pairs = [
            (star_cell(cone, point), cone)
            for cone in build_fnk(n, n if k is None else k).maximal
            if cone.contains_point(point)
        ]
    functions = {}

    def function(combo):
        key = frozenset((sym, c) for sym, c in combo.items() if c)
        if key not in functions:
            phi = symbol_function(n, combo, k)
            if point is not None:
                phi = PLFunction(
                    [cell for cell, _ in pairs],
                    [(phi.form_on(orig)[0], 0) for _, orig in pairs],
                )
            functions[key] = phi
        return functions[key]

    return CartierExpression(
        [(alpha, [function(f) for f in factors]) for alpha, factors in tuples]
    )


class _SymbolFan:
    """Divisors of ray functions on weighted subfans of F^n_n, with integers.

    Ray j is the symbol `symbols[j]` (T_0..T_n, B_0..B_n, D_0..D_n), a cone
    is the int bitmask of its rays, and a weighted subfan maps cones to
    integer weights.  A ray function is given by its list of values on the
    rays.  F^n_n is unimodular, so the lattice normal of sigma over its
    facet tau = sigma ^ (1 << s) is the ray of s, and the divisor of phi
    gives tau the weight

        sum_sigma w_sigma phi(s) - sum_rho a_rho phi(rho),

    where sum_sigma w_sigma r_s = sum_rho a_rho r_rho over the rays rho of
    tau.  That weight is linear in phi, so `faces` turns a subfan into one
    integer form on the ray values per face, and `divisor` evaluates the
    forms for any phi.

    The normal sum is solved for directly, one index at a time.  Written
    as (U | V) in Z^{n+1} x Z^{n+1}, modulo the all-ones vector in each
    half, T_i = (-e_i | 0), B_i = (0 | -e_i) and D_i = (-e_i | -e_i), so
    the coefficients of tau's rays satisfy t_i + d_i = lambda - U_i and
    b_i + d_i = mu - V_i for some integers lambda and mu, with t_i, b_i
    and d_i zero where tau lacks that ray.  At the least index x (y) where
    tau has no T (B) ray and no D ray the left side vanishes, so
    lambda = U_x and mu = V_y.  Every other index then fixes its
    coefficients: d_i is the B side with T_i, else the T side, and the
    rest goes to T_i and B_i.  A coefficient left on a ray that tau lacks
    means the subfan is not balanced.  A cone of F^n_n has such x and y
    and no index with both T_i and B_i.  Indices where U and V equal
    lambda and mu take no ray, so only those the normals reach are
    visited when both are zero.

    On the star of a subfan at a cone, whose span is then lineality, only
    the facets containing that cone count.
    """

    __slots__ = ("n", "symbols", "index")

    def __init__(self, n):
        self.n = n
        self.symbols = _symbols(n)
        self.index = {sym: j for j, sym in enumerate(self.symbols)}

    def mask(self, symbols):
        """The cone on the rays of some symbols."""
        return sum(1 << self.index[sym] for sym in set(symbols))

    def values(self, combo):
        """The values on the rays of the ray function of a combination."""
        out = [0] * len(self.symbols)
        for sym, c in combo.items():
            if sym not in self.index:
                raise TropicalGeometryError(
                    "unknown symbol %r for n = %d" % (sym, self.n)
                )
            out[self.index[sym]] += c
        return tuple(out)

    def faces(self, cones, fixed=0):
        """The faces tau of a weighted subfan with their divisor forms.

        Returns (tau, rays, coefficients) triples: the weight of tau in the
        divisor of phi is the sum of coefficient * phi(ray).  Only facets
        containing the cone `fixed`, which every cone contains, count.
        Raises TropicalGeometryError when a face is no cone of F^n_n, and
        otherwise VerificationError when the subfan is not balanced: an
        unbalanced face is refused only after every face has been checked,
        so the error does not depend on the order of the faces.
        """
        m = self.n + 1
        low = (1 << m) - 1
        around = {}  # tau -> (s, w_sigma, s', w_sigma', ...), flat
        for sigma, w in cones.items():
            free = sigma & ~fixed
            while free:
                bit = free & -free
                free ^= bit
                tau = sigma ^ bit
                around[tau] = around.get(tau, ()) + (bit.bit_length() - 1, w)
        out = []
        unbalanced = []  # refused once every face is known to be a cone
        for tau, normals in around.items():
            ts, bs, ds = tau & low, tau >> m & low, tau >> 2 * m
            x = ~(ts | ds) & low
            y = ~(bs | ds) & low
            if ts & bs or not (x and y):
                raise TropicalGeometryError("not a cone of F^%d_%d" % (self.n, self.n))
            rhos, coeffs = list(normals[::2]), list(normals[1::2])
            u, v = {}, {}  # the sum as (U | V), sparse
            for s, w in zip(rhos, coeffs):
                kind, i = divmod(s, m)
                if kind != 1:
                    u[i] = u.get(i, 0) - w
                if kind:
                    v[i] = v.get(i, 0) - w
            lam = u.get((x & -x).bit_length() - 1, 0)
            mu = v.get((y & -y).bit_length() - 1, 0)
            for i in range(m) if lam or mu else u.keys() | v.keys():
                p, q = lam - u.get(i, 0), mu - v.get(i, 0)
                if ds >> i & 1:
                    d = q if ts >> i & 1 else p
                    if d:
                        rhos.append(2 * m + i)
                        coeffs.append(-d)
                        p -= d
                        q -= d
                if p and not ts >> i & 1 or q and not bs >> i & 1:
                    unbalanced.append(tau)
                    break
                if p:
                    rhos.append(i)
                    coeffs.append(-p)
                if q:
                    rhos.append(m + i)
                    coeffs.append(-q)
            out.append((tau, tuple(rhos), tuple(coeffs)))
        if unbalanced:
            names = sorted(
                sym for j, sym in enumerate(self.symbols) if unbalanced[0] >> j & 1
            )
            raise VerificationError(
                "weighted subfan of F^%d_%d is not balanced around {%s}"
                % (self.n, self.n, ", ".join(map(symbol_name, names)))
            )
        return out

    @staticmethod
    def divisor(faces, values):
        """The weighted subfan that `faces` gives the function `values`."""
        at = values.__getitem__
        out = {}
        for tau, rays, coeffs in faces:
            w = sum(map(mul, coeffs, map(at, rays)))
            if w:
                out[tau] = w
        return out

    def apply(self, tuples, cones, fixed=0):
        """The weighted subfan sum alpha phi_1 ... phi_m . cones over the
        tuples (alpha, (phi_1, ..., phi_m)) of symbol combinations.

        Each combination is first read as its value tuple, and the tuples
        are evaluated along the factor tree of `functions._plan`: tuples
        sharing a prefix share its divisors, each distinct subfan's faces
        are computed once for all of its children, and the last factors of
        sibling tuples are summed into one value vector, which takes one
        divisor (even when it is zero, so an unbalanced subfan is never
        skipped).
        """
        got = {}

        def add(subfan, alpha):
            for tau, w in subfan.items():
                got[tau] = got.get(tau, 0) + alpha * w

        def walk(cones, node):
            scalar, leaves, groups = node
            if scalar:
                add(cones, scalar)
            if not (leaves or groups):
                return
            faces = self.faces(cones, fixed)
            for values in leaves:
                add(self.divisor(faces, values), 1)
            for values, child in groups:
                subfan = self.divisor(faces, values)
                if subfan:
                    walk(subfan, child)

        terms = [(alpha, tuple(map(self.values, combos))) for alpha, combos in tuples]
        walk(cones, _plan(terms, _sum_values))
        return {tau: w for tau, w in got.items() if w}


def _sum_values(pairs):
    """sum alpha values over (alpha, values) pairs, as the one leaf."""
    total = [0] * len(pairs[0][1])
    for alpha, values in pairs:
        for j, x in enumerate(values):
            total[j] += alpha * x
    return (total,)


def _star_indices(n, c, tau):
    """The set I with tau = cone{-e_i : i in I}, or None when tau is no
    cell of L^n_c.  Any c <= n of the rays -e_i are independent, so the
    cells are the pointed cones whose rays are at most c of them."""
    if tau.ambient_dim != n or not tau.is_cone or tau.lineality:
        return None
    rays = {neg_e(n, i): i for i in range(n + 1)}
    indices = {rays.get(r) for r in tau.rays}
    if None in indices or len(indices) > c:
        return None
    return indices


def _fan_identity(n, c, tuples, complete, fixed=()):
    """True iff the tuples, applied to the base subfan of F^n_n, give the
    diagonal of L^n_c, both taken as stars at the cone `fixed` = {D_i : i
    in I} (the star of L^n_c at cone{-e_i : i in I}).

    The base [L^n_c x L^n_c] refined along F^n_n is F^n_c with weight one;
    the complete base [R^n x R^n] is F^n_n.  The diagonal is the subfan on
    the cones {D_i : i in S}, |S| = c, with weight one.  Their stars keep
    the cones containing `fixed`.  The tuples are applied along the factor
    tree of `functions._plan` (`_SymbolFan.apply`).
    """
    fan = _SymbolFan(n)
    fixed = fan.mask(fixed)
    base = {
        sigma: 1
        for sigma in _symbol_cones(n, n if complete else c)
        if sigma & fixed == fixed
    }
    diagonal = (
        fan.mask(("D", i) for i in subset)
        for subset in combinations(range(n + 1), c)
    )
    want = {cone: 1 for cone in diagonal if cone & fixed == fixed}
    return fan.apply(tuples, base, fixed) == want


class DiagonalRepresentation:
    """A representation of a diagonal as sums of divisor products.

    `tuples` is a sequence of (coefficient, factor combinations) where each
    factor combination maps symbols to integers.  The space is L^n_c, c =
    `space_dim`, or its star at the cell `tau`, derived when read; the
    constructor checks c and tau and builds no cell.  The base is
    [space x space], or the complete fan [R^n x R^n] when `complete` is
    set (the full product form); it lies in F^n_c, or in F^n_n when
    complete.  `expression` carries the tuples' symbol functions on F^n_n,
    and `base_expression` the same functions on the fan the base lies in,
    where they are its restrictions; for a star both are restricted to
    the star of their fan at (x, x), x in the relative interior of tau.
    Each is built when first asked for.  Applying either to the base
    reproduces the diagonal of the space exactly; `base_expression` cuts
    a cycle in the base only along the cones of the base's fan.  `verify`
    checks that identity on the fan F^n_n with the tuples' integer
    combinations.
    """

    __slots__ = (
        "n", "space_dim", "tuples", "complete", "tau", "verified", "_expressions",
    )

    def __init__(self, n, space_dim, tuples, complete=False, tau=None):
        if not 0 <= space_dim <= n:
            raise TropicalGeometryError("need 0 <= space_dim <= n")
        if tau is not None and _star_indices(n, space_dim, tau) is None:
            raise TropicalGeometryError("tau is not a cell of the linear space")
        self.n = n
        self.space_dim = space_dim
        self.tuples = tuples
        self.complete = complete
        self.tau = tau
        self.verified = False
        self._expressions = {}  # k -> the expression on F^n_k

    @property
    def space(self):
        """L^n_c, or its star at tau, built when read."""
        space = build_lnk(self.n, self.space_dim)
        if self.tau is not None:
            space = star(space, self.tau, self.tau.relint_point())
        return space

    def _expression_on(self, k):
        got = self._expressions.get(k)
        if got is None:
            point = None
            if self.tau is not None:
                x = self.tau.relint_point()
                point = x + x
            got = _symbol_expression(self.n, self.tuples, point, k)
            self._expressions[k] = got
        return got

    @property
    def expression(self):
        return self._expression_on(self.n)

    @property
    def base_expression(self):
        return self._expression_on(self.n if self.complete else self.space_dim)

    def verify(self):
        fixed = ()
        if self.tau is not None:
            fixed = [("D", i) for i in _star_indices(self.n, self.space_dim, self.tau)]
        if not _fan_identity(self.n, self.space_dim, self.tuples, self.complete, fixed):
            raise VerificationError(
                "diagonal representation failed its defining identity"
            )
        self.verified = True
        return True

    def describe(self):
        lines = []
        for coeff, factors in self.tuples:
            names = " * ".join("(%s)" % combination_name(f) for f in factors) or "1"
            lines.append("%+d %s" % (coeff, names))
        return lines


def rewrite_diagonal(n, k):
    """Rewrite the diagonal of L^n_{n-k} over [L^n_{n-k} x L^n_{n-k}].

    Expands (T_1+B)...(T_n+B)(A+D)^k, deletes monomials that vanish by the
    relations between the symbol divisors, and factors (B+D)^k out of each
    surviving monomial, emitting correction terms in increasing (A+D)
    degree.  Emits tuples of n-k factor combinations whose weighted sum
    applied to [L^n_{n-k} x L^n_{n-k}] is the diagonal; the identity is
    verified exactly on the fan F^n_n before the representation is
    returned.
    """
    if not 0 <= k <= n:
        raise TropicalGeometryError("need 0 <= k <= n")
    got = _REWRITE_CACHE.get((n, k))
    if got is not None:
        return got
    c = n - k
    # Emitting alpha T_S B^s (A+D)^{t+k}, |S| + s + t = n, as the tuple
    # T_S B^{s-k} (A+D)^t adds -alpha C(k, p) to T_S B^{s-p} (A+D)^{t+p+k},
    # p = 1..k.  From T_S B^{n-|S|} (A+D)^k with coefficient one, the
    # coefficient at t is that of x^t in (1+x)^-k, (-1)^t C(k+t-1, t), never
    # zero.  Monomials with s < k (more than c distinct T/D factors) vanish
    # by the relations; k = 0 makes no corrections.
    emitted = []
    for t in range(c + 1 if k else 1):
        alpha = (-1) ** t * comb(k + t - 1, t) if t else 1
        subsets = sorted(
            s_set
            for size in range(c - t + 1)
            for s_set in combinations(range(1, n + 1), size)
        )
        for s_set in subsets:
            factors = (
                [{("T", i): 1} for i in s_set]
                + [{("B", 0): 1}] * (c - t - len(s_set))
                + [{("T", 0): 1, ("D", 0): 1}] * t
            )
            emitted.append((alpha, tuple(factors)))
    if c == 1:
        merged = {}
        for alpha, factors in emitted:
            for sym, coeff in factors[0].items():
                merged[sym] = merged.get(sym, 0) + alpha * coeff
        merged = {sym: coeff for sym, coeff in merged.items() if coeff}
        tuples = ((1, (merged,)),)
    else:
        tuples = tuple(
            (alpha, tuple(dict(f) for f in factors)) for alpha, factors in emitted
        )
    rep = DiagonalRepresentation(n, c, tuples)
    rep.verify()
    _REWRITE_CACHE[(n, k)] = rep
    return rep


def relations_check(n, m, c_cycle, which, vs=(), s=0):
    """Check one of the vanishing relations on C x [R^n], C inside L^n_m.

    which = 'a': A . B . (C x R^n)
    which = 'b': v_1 ... v_{m+r} . (C x R^n), r > 0 distinct v's from
                 {T_1, ..., T_n, D}
    which = 'c': B . D^s . v_1 ... v_{m-s+r} . (C x R^n), r, s > 0
    Returns True iff the product is the empty cycle.  Parameters outside
    these cases, and a cycle C whose support leaves L^n_m, raise
    TropicalGeometryError, also when C is empty.
    """
    if not 0 <= m <= n:
        raise TropicalGeometryError("need 0 <= m <= n")
    vs = tuple(tuple(v) for v in vs)
    allowed = {("T", i) for i in range(1, n + 1)} | {("D", 0)}
    if which in ("b", "c"):
        if len(set(vs)) != len(vs) or not set(vs) <= allowed:
            raise TropicalGeometryError("v's must be distinct T_1..T_n or D")
    if which == "a":
        factors = [{("T", 0): 1}, {("B", 0): 1}]
    elif which == "b":
        if len(vs) <= m:
            raise TropicalGeometryError("relation (b) needs more than m factors")
        factors = [{v: 1} for v in vs]
    elif which == "c":
        if s < 1:
            raise TropicalGeometryError("relation (c) needs s > 0")
        if len(vs) <= m - s:
            raise TropicalGeometryError("relation (c) needs more than m-s v factors")
        factors = [{("B", 0): 1}] + [{("D", 0): 1}] * s + [{v: 1} for v in vs]
    else:
        raise TropicalGeometryError("relation must be one of 'a', 'b', 'c'")
    if c_cycle.is_empty:
        return True
    if not support_covers(c_cycle, build_lnk(n, m)):
        raise TropicalGeometryError("cycle does not lie in L^%d_%d" % (n, m))
    expr = _symbol_expression(n, ((1, factors),))
    return expr.apply(cross(c_cycle, rn_cycle(n))).is_empty


def star_diagonal(n, k, tau):
    """Diagonal representation for the star of L^n_k at a cell tau.

    The rewriting tuples for the diagonal of L^n_k cut out the diagonal of
    the star: each factor keeps its covectors on the cones of F^n_n
    around (x, x) for a relative interior point x of tau.  The identity is
    verified on the star of the symbol fan at {D_i : -e_i a ray of tau}
    before returning; at the origin that star is the whole fan.
    """
    base = rewrite_diagonal(n, n - k)
    rep = DiagonalRepresentation(n, k, base.tuples, tau=tau)
    rep.verify()
    return rep
