import random
from itertools import combinations
from operator import mul

import pytest

from test_exactmath import frac_det
from tropint.exactmath import hnf
from tropint.functions import UnbalancedCycleError, _merge, _plan, divisor
from tropint.intersect import AmbientContext
from tropint.linspace import (
    _SymbolFan,
    _fan_identity,
    _sum_values,
    _symbol_cones,
    _symbol_expression,
    _symbols,
    build_fnk,
    build_lnk,
    combination_name,
    diagonal_divisors_rn,
    fnk_cycle,
    neg_e,
    parse_symbol,
    relations_check,
    rewrite_diagonal,
    rn_cycle,
    star_diagonal,
    symbol_function,
    symbol_name,
    symbol_ray,
    DiagonalRepresentation,
)
from tropint.polyhedra import (
    TropicalGeometryError,
    VerificationError,
    common_refinement,
    cone_from_generators,
    cross,
    cycles_equal,
    diagonal_cycle,
    empty_cycle,
    is_balanced,
    is_face,
    make_cell,
    make_cycle,
)


def test_symbol_table():
    assert symbol_ray(2, ("T", 1)) == (-1, 0, 0, 0)
    assert symbol_ray(2, ("T", 0)) == (1, 1, 0, 0)
    assert symbol_ray(2, ("B", 0)) == (0, 0, 1, 1)
    assert symbol_ray(2, ("B", 2)) == (0, 0, 0, -1)
    assert symbol_ray(2, ("D", 0)) == (1, 1, 1, 1)
    assert symbol_ray(3, ("D", 2)) == (0, -1, 0, 0, -1, 0)
    for name in ["A", "B", "D", "T1", "B2", "D3"]:
        assert symbol_name(parse_symbol(name)) == name
    assert combination_name({("T", 1): 1, ("B", 0): 1, ("T", 0): -2}) == "T1+B-2A"
    assert combination_name({}) == "0"


def test_symbols_outside_the_table_are_refused():
    # an index outside 0..n or an unknown kind names no ray: both the
    # geometric and the fan engine refuse it instead of reading zero
    for sym in [("T", 5), ("B", -1), ("D", 3), ("X", 1)]:
        with pytest.raises(TropicalGeometryError):
            symbol_ray(2, sym)
        with pytest.raises(TropicalGeometryError):
            symbol_function(2, {sym: 1, ("B", 0): 1})
        with pytest.raises(TropicalGeometryError):
            _symbol_expression(2, ((1, ({("T", 1): 1}, {sym: 1})),))
        with pytest.raises(TropicalGeometryError):
            _SymbolFan(2).values({sym: 1})
    for i in (-1, 3):
        with pytest.raises(TropicalGeometryError):
            neg_e(2, i)


def test_lnk_shape():
    l32 = build_lnk(3, 2)
    assert l32.dim == 2 and l32.ambient_dim == 3
    assert len(l32.cells) == 6
    closure = l32.complex().all_cells()
    assert len(closure) == 11  # 6 facets + 4 rays + origin
    rays = [c for c in closure if c.dim == 1]
    assert len(rays) == 4
    assert {r.rays[0] for r in rays} == {(1, 1, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)}

    origin = build_lnk(3, 0)
    assert origin.cells == ((make_cell(3, [(0, 0, 0)]), 1),)

    l22 = build_lnk(2, 2)
    for p in [(5, 7), (-3, 2), (0, -9), (-1, -1)]:
        assert l22.complex().find_cell_containing(p) is not None


def test_lnk_balanced():
    for n in range(1, 4):
        for k in range(n + 1):
            assert is_balanced(build_lnk(n, k))


def test_fnk_counts_and_refinement():
    assert len(build_fnk(1, 1).maximal) == 6
    assert len(build_fnk(2, 2).maximal) == 24
    assert len(build_fnk(3, 3).maximal) == 80
    for (n, k) in [(1, 1), (2, 1), (2, 2)]:
        fan = build_fnk(n, k)
        assert fan.is_simplicial_fan()
        assert all(c.dim == 2 * k for c in fan.maximal)
        lnk = build_lnk(n, k)
        assert cycles_equal(fnk_cycle(n, k), cross(lnk, lnk))


def test_fnn_unimodular():
    for n in range(1, 4):
        for cone in build_fnk(n, n).maximal:
            assert abs(frac_det(cone.rays)) == 1


def test_fnn_never_mixes_top_rays():
    # no cone may see both (-e_0 | 0) and (0 | -e_0)
    for n in range(1, 4):
        a = symbol_ray(n, ("T", 0))
        b = symbol_ray(n, ("B", 0))
        for cone in build_fnk(n, n).maximal:
            assert not (cone.contains_direction(a) and cone.contains_direction(b))


def test_diagonal_is_subfan():
    from itertools import combinations

    for (n, k) in [(2, 1), (2, 2), (3, 2)]:
        closure = build_fnk(n, k).all_cells()
        for size in range(k + 1):
            for subset in combinations(range(n + 1), size):
                dcone = cone_from_generators(
                    2 * n, [symbol_ray(n, ("D", mu)) for mu in subset]
                )
                assert dcone in closure


def _cone_symbols(n, cone):
    """The symbols of the rays of a cone mask."""
    return [sym for j, sym in enumerate(_symbols(n)) if cone >> j & 1]


def _subfan_cycle(n, cones):
    """The cycle of a weighted subfan of F^n_n given by cone masks."""
    if not cones:
        return empty_cycle(2 * n)
    return make_cycle(
        2 * n,
        next(iter(cones)).bit_count(),
        [
            (
                cone_from_generators(
                    2 * n, [symbol_ray(n, s) for s in _cone_symbols(n, sigma)]
                ),
                w,
            )
            for sigma, w in cones.items()
        ],
    )


def _fan_divisor(fan, combo, cones, fixed=0):
    """The divisor of a symbol combination on a weighted subfan."""
    return fan.divisor(fan.faces(cones, fixed), fan.values(combo))


def _flat_apply(fan, tuples, cones, fixed=0):
    """The tuples applied term by term, each divisor chain from scratch:
    the reference for the factor tree of `_SymbolFan.apply`."""
    got = {}
    for alpha, combos in tuples:
        cur = cones
        for combo in combos:
            cur = _fan_divisor(fan, combo, cur, fixed)
            if not cur:
                break
        for cone, w in cur.items():
            got[cone] = got.get(cone, 0) + alpha * w
    return {cone: w for cone, w in got.items() if w}


def _cells_containing(cycle, rays):
    """The cells of a fan cycle having every one of `rays` as a ray."""
    return {cell: w for cell, w in cycle.cells if set(rays) <= set(cell.rays)}


def test_space_base_refines_to_symbol_cones():
    # [L^n_c x L^n_c] refined along F^n_n is F^n_c with weight one, so the
    # fan check starts from the symbol sets of F^n_c
    for n in (1, 2, 3):
        for c in range(1, n + 1):
            lnc = build_lnk(n, c)
            got = common_refinement(cross(lnc, lnc), build_fnk(n, n))
            want = _subfan_cycle(n, dict.fromkeys(_symbol_cones(n, c), 1))
            assert got == want, (n, c)
            assert cycles_equal(got, want)


def test_fan_divisor_matches_geometric_divisor():
    rng = random.Random(2009)
    for n, c in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]:
        fan = _SymbolFan(n)
        for _ in range(3):
            cones = dict.fromkeys(_symbol_cones(n, c), 1)
            for _ in range(2):
                combo = {
                    sym: rng.randint(-2, 2) for sym in rng.sample(sorted(fan.symbols), 3)
                }
                x = _subfan_cycle(n, cones)
                cones = _fan_divisor(fan, combo, cones)
                want = divisor(symbol_function(n, combo), x)
                assert _subfan_cycle(n, cones) == want, (n, c, combo)
                if not cones:
                    break


def test_fan_divisor_at_stars_matches_geometric_divisor():
    # on the star at a fixed cone F the divisor keeps the faces containing F
    # of the divisor on the whole subfan
    rng = random.Random(1953)
    for n, c in [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]:
        fan = _SymbolFan(n)
        for _ in range(3):
            fixed_syms = [("D", i) for i in rng.sample(range(n + 1), rng.randint(1, c))]
            fixed = fan.mask(fixed_syms)
            fixed_rays = [symbol_ray(n, sym) for sym in fixed_syms]
            cones = dict.fromkeys(_symbol_cones(n, c), 1)
            for _ in range(2):
                combo = {
                    sym: rng.randint(-2, 2)
                    for sym in rng.sample(sorted(fan.symbols), 3)
                }
                x = _subfan_cycle(n, cones)
                local = {s: w for s, w in cones.items() if s & fixed == fixed}
                got = _fan_divisor(fan, combo, local, fixed)
                cones = _fan_divisor(fan, combo, cones)
                want = divisor(symbol_function(n, combo), x)
                assert dict(_subfan_cycle(n, got).cells) == _cells_containing(
                    want, fixed_rays
                ), (n, c, fixed_syms, combo)
                assert all(s & fixed == fixed for s in got)
                if not cones:
                    break


def test_fan_divisor_rejects_unbalanced_subfans():
    fan = _SymbolFan(2)
    combo = {("T", 1): 1, ("D", 0): -1}
    cones = dict.fromkeys(_symbol_cones(2, 2), 1)
    lone = min(cones, key=lambda sigma: sorted(_cone_symbols(2, sigma)))
    with pytest.raises(VerificationError):
        _fan_divisor(fan, combo, {lone: 1})
    with pytest.raises(UnbalancedCycleError):
        divisor(symbol_function(2, combo), _subfan_cycle(2, {lone: 1}))
    cones[lone] = 2
    with pytest.raises(VerificationError):
        _fan_divisor(fan, combo, cones)

    # at a star: a lone cone is unbalanced around each of its rays, and a
    # doubled weight is seen at every ray of the doubled cone
    for sym in _cone_symbols(2, lone):
        fixed = fan.mask([sym])
        with pytest.raises(VerificationError):
            _fan_divisor(fan, combo, {lone: 1}, fixed)
        local = {s: w for s, w in cones.items() if s & fixed == fixed}
        with pytest.raises(VerificationError):
            _fan_divisor(fan, combo, local, fixed)
    # the whole cone fixed: no facet counts, and the star is a point
    assert _fan_divisor(fan, combo, {lone: 1}, lone) == {}
    # a facet holding both T_1 and B_1 is no cone of F^2_2, wherever it comes
    # among the facets: last, the solve has already found {B_1, B_2}
    # unbalanced
    for syms in ([("T", 0), ("T", 1), ("B", 1)], [("T", 1), ("B", 1), ("B", 2)]):
        with pytest.raises(TropicalGeometryError):
            fan.faces({fan.mask(syms): 1})


def _hnf_expansions(fan, host):
    """Every ray expanded in the basis of the cone `host` through one
    unimodular integer inverse: the reference for `_SymbolFan.faces`."""
    rays = [symbol_ray(fan.n, sym) for sym in fan.symbols]
    js = [j for j in range(len(rays)) if host >> j & 1]
    _, u = hnf([rays[j] for j in js])
    cols = list(zip(*u))
    return [
        tuple(
            (j, a)
            for j, a in zip(js, [sum(map(mul, col, r)) for col in cols])
            if a
        )
        for r in rays
    ]


def _faces(cones):
    """Every face of the cones, as bitmasks."""
    out = set()
    for sigma in cones:
        tau = sigma
        while True:
            out.add(tau)
            if not tau:
                break
            tau = (tau - 1) & sigma
    return out


def test_face_solve_matches_the_integer_inverse():
    # on every face tau of F^n_n for n <= 4: seeded normals off a maximal
    # cone holding tau, plus rays of that cone off tau that cancel the
    # sum's coordinates there, so the sum lies in span tau; its coefficients
    # are those of the integer inverse of that cone
    rng = random.Random(26)
    for n in range(1, 5):
        fan = _SymbolFan(n)
        hosts = sorted(_symbol_cones(n, n))
        inverses = {}
        for tau in sorted(_faces(hosts)):
            host = next(h for h in hosts if h & tau == tau)
            if host not in inverses:
                inverses[host] = _hnf_expansions(fan, host)
            basis = inverses[host]
            outside = [s for s in range(len(basis)) if not host >> s & 1]
            normals = {s: rng.choice((-2, -1, 1, 2, 3)) for s in rng.sample(outside, 3)}
            total = {}
            for s, w in normals.items():
                for j, a in basis[s]:
                    total[j] = total.get(j, 0) + w * a
            for j, a in total.items():
                if a and not tau >> j & 1:
                    normals[j] = -a
            want = dict(normals)
            want.update((j, -a) for j, a in total.items() if a and tau >> j & 1)
            cones = {tau | 1 << s: w for s, w in normals.items()}
            ((got_tau, rays, coeffs),) = fan.faces(cones, tau)
            assert got_tau == tau and dict(zip(rays, coeffs)) == want, (n, tau)
            assert len(rays) == len(want)

            # a sum leaving span tau: one more ray of the host, around tau
            # alone or around every facet of a lone cone
            off = host & ~tau
            if off:
                h = off & -off
                cones[tau | h] = cones.get(tau | h, 0) + 1
                with pytest.raises(VerificationError):
                    fan.faces(cones, tau)
                with pytest.raises(VerificationError):
                    fan.faces({tau | h: 1})


def _random_tuples(rng, fan, depth):
    """Seeded tuples with shared prefixes, repeated combinations, a
    zero-length tuple and sibling terms whose last factors cancel."""
    pool = [
        {sym: rng.randint(-2, 2) for sym in rng.sample(fan.symbols, rng.randint(1, 3))}
        for _ in range(4)
    ]

    def draw(count):
        return tuple(rng.choice(pool) for _ in range(count))

    prefixes = [draw(rng.randint(0, depth - 1)) for _ in range(3)]
    tuples = [(rng.randint(-3, 3) or 1, ())]
    for _ in range(10):
        prefix = rng.choice(prefixes)
        rest = draw(rng.randint(0, depth - len(prefix)))
        tuples.append((rng.randint(-3, 3) or 1, prefix + rest))
    last = prefixes[0] + (pool[0],)
    tuples += [(2, last), (-1, last), (-1, last)]
    tuples.append((1, (pool[1], pool[1])[:depth]))
    rng.shuffle(tuples)
    return tuple(tuples)


def test_factor_tree_matches_term_by_term():
    rng = random.Random(904)
    for n in (1, 2, 3):
        fan = _SymbolFan(n)
        for c in range(1, n + 1):
            for complete in (False, True):
                cones = _symbol_cones(n, n if complete else c)
                for fixed_syms in ([], [("D", rng.randrange(n + 1))]):
                    fixed = fan.mask(fixed_syms)
                    base = {s: 1 for s in cones if s & fixed == fixed}
                    for _ in range(3):
                        tuples = _random_tuples(rng, fan, c + complete)
                        got = fan.apply(tuples, base, fixed)
                        assert got == _flat_apply(fan, tuples, base, fixed), (
                            n, c, complete, fixed_syms, tuples,
                        )
    # the rewrite tuples on their base, whole and at stars
    for n, k in [(2, 0), (3, 0), (3, 1), (4, 1), (4, 2)]:
        fan = _SymbolFan(n)
        tuples = rewrite_diagonal(n, k).tuples
        for fixed_syms in ([], [("D", 0)], [("D", 1), ("D", 2)]):
            fixed = fan.mask(fixed_syms)
            base = {s: 1 for s in _symbol_cones(n, n - k) if s & fixed == fixed}
            got = fan.apply(tuples, base, fixed)
            assert got == _flat_apply(fan, tuples, base, fixed), (n, k, fixed_syms)
            assert _fan_identity(n, n - k, tuples, False, fixed_syms)


def test_factor_tree_merged_zero_leaf_still_checks_balance():
    fan = _SymbolFan(2)
    combo = {("T", 1): 1, ("D", 0): -1}
    lone = min(_symbol_cones(2, 2), key=lambda sigma: sorted(_cone_symbols(2, sigma)))
    # 2 phi - phi - phi = 0, and the lone cone is unbalanced
    tuples = ((2, (combo,)), (-1, (combo,)), (-1, (combo,)))
    with pytest.raises(VerificationError):
        fan.apply(tuples, {lone: 1})
    with pytest.raises(VerificationError):
        _flat_apply(fan, tuples, {lone: 1})
    # after a shared prefix, on a balanced base: nothing, and no error
    base = dict.fromkeys(_symbol_cones(2, 2), 1)
    ad = {("T", 0): 1, ("D", 0): 1}
    tuples = ((1, (ad, combo)), (-1, (ad, combo)))
    assert fan.apply(tuples, base) == {} == _flat_apply(fan, tuples, base)
    # the zero-length tuple alone is the base itself, never divided
    assert fan.apply(((3, ()),), {lone: 1}) == {lone: 3}


def test_fan_apply_reads_every_combination_first():
    # an unknown symbol raises even where its prefix divides to nothing
    fan = _SymbolFan(2)
    tuples = ((1, ({("T", 1): 1}, {("Q", 0): 1})),)
    with pytest.raises(TropicalGeometryError, match="unknown symbol"):
        fan.apply(tuples, {})


def _tree_shape(node):
    """A factor tree's scalar, number of leaves and subtree shapes."""
    scalar, leaves, groups = node
    return scalar, len(leaves), tuple(_tree_shape(child) for _, child in groups)


def test_both_engines_plan_the_same_factor_tree():
    """The fan check plans value tuples and the geometric chain plans
    symbol functions, with one planner: the trees have the same shape."""
    reps = [rewrite_diagonal(n, k) for n, k in [(3, 1), (4, 1), (4, 2), (5, 2)]]
    reps.append(star_diagonal(4, 3, cone_from_generators(4, [(1, 1, 1, 1)])))
    for rep in reps:
        fan = _SymbolFan(rep.n)
        values = [(a, tuple(map(fan.values, combos))) for a, combos in rep.tuples]
        want = _tree_shape(_plan(values, _sum_values))
        assert _tree_shape(_plan(rep.expression.terms, _merge)) == want, rep.n
        assert len(want[2]) > 1


def test_diagonal_divisor_product_small():
    for (n, k) in [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]:
        expr = diagonal_divisors_rn(n, k)
        assert expr.degree() == n + k
        got = expr.apply(fnk_cycle(n, n))
        assert cycles_equal(got, diagonal_cycle(build_lnk(n, n - k)))
        # (A+D) is built once and repeated
        assert len({id(phi) for phi in expr.terms[0][1]}) == n + min(k, 1)


def _combo_set(rep):
    return [
        (alpha, tuple(tuple(sorted(f.items())) for f in factors))
        for alpha, factors in rep.tuples
    ]


def test_rewrite_single_function_cases():
    r10 = rewrite_diagonal(1, 0)
    assert r10.tuples == ((1, ({("T", 1): 1, ("B", 0): 1},)),)
    assert r10.verified

    r21 = rewrite_diagonal(2, 1)
    assert r21.tuples == (
        (1, ({("T", 1): 1, ("T", 2): 1, ("B", 0): 1, ("T", 0): -1, ("D", 0): -1},)),
    )

    r32 = rewrite_diagonal(3, 2)
    (coeff, (combo,)) = r32.tuples[0]
    assert coeff == 1
    assert combo == {
        ("T", 1): 1,
        ("T", 2): 1,
        ("T", 3): 1,
        ("B", 0): 1,
        ("T", 0): -2,
        ("D", 0): -2,
    }
    assert r32.describe() == ["+1 (T1+T2+T3+B-2A-2D)"]


def test_rewrite_trivial_and_expanded_cases():
    assert rewrite_diagonal(2, 2).tuples == ((1, ()),)
    r20 = rewrite_diagonal(2, 0)
    assert _combo_set(r20) == [
        (1, ((( ("B", 0), 1),), ((("B", 0), 1),))),
        (1, ((( ("T", 1), 1),), ((("B", 0), 1),))),
        (1, ((( ("T", 1), 1),), ((("T", 2), 1),))),
        (1, ((( ("T", 2), 1),), ((("B", 0), 1),))),
    ]


def test_rewrite_two_step_case():
    r31 = rewrite_diagonal(3, 1)
    assert len(r31.tuples) == 12
    combos = _combo_set(r31)
    b = ((("B", 0), 1),)
    ad = ((("D", 0), 1), (("T", 0), 1))
    assert (1, (b, b)) in combos
    assert (-1, (b, ad)) in combos
    assert (1, (ad, ad)) in combos
    assert sum(alpha for alpha, _ in combos) == 1 + 3 + 3 - 1 - 3 + 1
    # one function per distinct combination: T1, T2, T3, B and A+D
    functions = {id(phi) for _, phis in r31.expression.terms for phi in phis}
    assert len(functions) == 5


def test_rewrite_frontier():
    rep = rewrite_diagonal(4, 1)
    assert len(rep.tuples) == 32
    assert rep.verified


def test_fan_check_agrees_with_geometric_identity():
    cases = [(n, k) for n in (1, 2, 3) for k in range(n + 1)] + [(4, 2), (4, 3)]
    for n, k in cases:
        rep = rewrite_diagonal(n, k)
        assert rep.verified and rep.verify()
        space = rep.space
        got = rep.expression.apply(cross(space, space))
        assert cycles_equal(got, diagonal_cycle(space)), (n, k)


def _oracle_holds(rep):
    """The geometric identity: the expression applied to [space x space]
    is the diagonal of the space."""
    try:
        AmbientContext(rep.space, (rep.expression,)).verify()
    except VerificationError:
        return False
    return True


def _mutations(tuples):
    """The tuples with one coefficient flipped, or with one term dropped."""
    for i, (alpha, factors) in enumerate(tuples):
        yield tuples[:i] + ((-alpha, factors),) + tuples[i + 1:]
        yield tuples[:i] + tuples[i + 1:]


def _star_cases(n3_dims):
    """Every cell of L^2_k, and the ray (1, 1, 1) of L^3_k for k in n3_dims."""
    for k in range(3):
        for tau in build_lnk(2, k).complex().all_cells():
            yield 2, k, tau
    ray = cone_from_generators(3, [(1, 1, 1)])
    for k in n3_dims:
        yield 3, k, ray


def test_rewrite_verification_is_hard_error():
    # a wrong expression fails the geometric identity, and wrong tuples
    # fail the fan check
    base = rewrite_diagonal(1, 0)
    with pytest.raises(VerificationError):
        # wrong degree on purpose: A+D only
        AmbientContext(base.space, (diagonal_divisors_rn(1, 1),)).verify()
    wrong = DiagonalRepresentation(1, 1, ((1, ({("B", 0): 2},)),))
    with pytest.raises(VerificationError):
        wrong.verify()
    assert not _oracle_holds(wrong)

    # a flipped coefficient and a dropped term both break the identity,
    # on the fan and geometrically
    r31 = rewrite_diagonal(3, 1)
    for tuples in list(_mutations(r31.tuples))[:2]:
        bad = DiagonalRepresentation(3, 2, tuples)
        with pytest.raises(VerificationError):
            bad.verify()
        assert not bad.verified
        assert not _oracle_holds(bad)

    # at a star the check is local, so some mutations keep the identity;
    # the fan check and the geometric identity agree on every one
    failed = 0
    for n, k, tau in _star_cases((1,)):
        for tuples in _mutations(rewrite_diagonal(n, n - k).tuples):
            bad = DiagonalRepresentation(n, k, tuples, tau=tau)
            try:
                holds = bad.verify()
            except VerificationError:
                holds = False
            assert holds == _oracle_holds(bad), (n, k, tau, tuples)
            failed += not holds
    assert failed > 0

    # a symbol beyond n is no ray of F^n_n
    with pytest.raises(TropicalGeometryError):
        DiagonalRepresentation(2, 1, ((1, ({("T", 3): 1},)),)).verify()


def test_fan_check_rejects_every_mutation():
    # on the fan alone: every flipped coefficient and every dropped term of
    # the (4, 2) and (4, 1) rewrites breaks the identity
    for k in (2, 1):
        tuples = rewrite_diagonal(4, k).tuples
        count = 0
        for bad_tuples in _mutations(tuples):
            bad = DiagonalRepresentation(4, 4 - k, bad_tuples)
            with pytest.raises(VerificationError):
                bad.verify()
            assert not bad.verified
            count += 1
        assert count == 2 * len(tuples)


def test_relations_examples():
    l31 = build_lnk(3, 1)
    assert relations_check(3, 1, l31, "a")
    assert relations_check(3, 1, l31, "b", vs=[("T", 1), ("D", 0)])
    assert relations_check(3, 1, l31, "b", vs=[("T", 2), ("T", 3)])
    assert relations_check(3, 1, l31, "c", vs=[("T", 1)], s=1)
    l22 = build_lnk(2, 2)
    assert relations_check(2, 2, l22, "a")
    assert relations_check(2, 2, l22, "b", vs=[("T", 1), ("T", 2), ("D", 0)])


def test_relations_parameter_validation():
    l31 = build_lnk(3, 1)
    with pytest.raises(TropicalGeometryError):
        relations_check(3, 1, l31, "b", vs=[("T", 1), ("T", 1)])
    with pytest.raises(TropicalGeometryError):
        relations_check(3, 1, l31, "b", vs=[("T", 1)])  # r would be 0
    with pytest.raises(TropicalGeometryError):
        relations_check(3, 1, l31, "c", vs=[("T", 1)], s=0)
    with pytest.raises(TropicalGeometryError):
        relations_check(3, 1, l31, "d")
    with pytest.raises(TropicalGeometryError):
        relations_check(3, 1, l31, "b", vs=[("B", 1), ("T", 1)])


def test_relations_validate_parameters_before_the_empty_cycle():
    empty = empty_cycle(3)
    with pytest.raises(TropicalGeometryError):
        relations_check(3, 7, empty, "a")
    with pytest.raises(TropicalGeometryError):
        relations_check(3, 1, empty, "q")
    with pytest.raises(TropicalGeometryError):
        relations_check(3, 1, empty, "c", vs=[("T", 1)], s=0)
    assert relations_check(3, 1, empty, "a")


def test_star_diagonal_origin_matches_base():
    origin = make_cell(2, [(0, 0)])
    rep = star_diagonal(2, 1, origin)
    assert rep.tuples == rewrite_diagonal(2, 1).tuples
    assert rep.space == rewrite_diagonal(2, 1).space
    assert rep.verified
    assert star_diagonal(3, 3, make_cell(3, [(0, 0, 0)])).verified


def test_star_diagonal_at_ray_and_maximal():
    ray = cone_from_generators(2, [(-1, 0)])
    rep = star_diagonal(2, 1, ray)
    assert rep.verified
    ((cell, w),) = rep.space.cells
    assert w == 1 and cell.lineality == ((1, 0),)

    quad = cone_from_generators(2, [(-1, 0), (0, -1)])
    full = star_diagonal(2, 2, quad)
    assert full.verified
    ((cell, w),) = full.space.cells
    assert cell.dim == 2 and len(cell.lineality) == 2

    # the fan check at a star against the geometric identity
    for n, k, tau in _star_cases((1, 2, 3)):
        rep = star_diagonal(n, k, tau)
        assert rep.verified and _oracle_holds(rep), (n, k, tau)
    assert star_diagonal(4, 3, cone_from_generators(4, [(1, 1, 1, 1)])).verified


def test_star_diagonal_rejects_non_cells():
    with pytest.raises(TropicalGeometryError):
        star_diagonal(2, 1, cone_from_generators(2, [(1, 0)]))


def test_dimensions_outside_zero_to_n_are_refused():
    for k in (-1, 3, 5):
        for build in (build_lnk, build_fnk, rewrite_diagonal):
            with pytest.raises(TropicalGeometryError):
                build(2, k)
        # the symbol fan has no cones of that size, so the fan check of such
        # a representation would pass vacuously
        with pytest.raises(TropicalGeometryError):
            DiagonalRepresentation(2, k, ((1, ()),))


def test_star_representations_check_tau_once():
    # every star representation, hand-built or not, checks that tau is a
    # cell of L^n_c, without building one; is_face on the cells of L^n_c
    # is the oracle
    for n in (1, 2, 3):
        rays = [neg_e(n, i) for i in range(n + 1)]
        rays.append(tuple(-x for x in rays[1]))  # e_1, no ray of L^n_c
        taus = [
            cone_from_generators(n, sub)
            for size in range(len(rays) + 1)
            for sub in combinations(rays, size)
        ]
        taus.append(make_cell(n, vertices=[(1,) * n]))
        for c in range(n + 1):
            cells = build_lnk(n, c).cells
            for tau in taus:
                try:
                    rep = DiagonalRepresentation(n, c, (), tau=tau)
                except TropicalGeometryError as err:
                    assert "not a cell" in str(err)
                    rep = None
                want = any(is_face(sigma, tau) for sigma, _ in cells)
                assert (rep is not None) == want, (n, c, tau)
    tuples = rewrite_diagonal(2, 1).tuples
    for tau in (make_cell(2), make_cell(3, vertices=[(0, 0, 0)])):
        with pytest.raises(TropicalGeometryError, match="not a cell"):
            DiagonalRepresentation(2, 1, tuples, tau=tau)
    rep = DiagonalRepresentation(2, 1, tuples, tau=cone_from_generators(2, [(1, 1)]))
    assert rep.verify()
    ((cell, w),) = rep.space.cells
    assert w == 1 and cell.lineality == ((1, 1),)


def test_rn_cycle_balanced_and_full():
    for n in (1, 2, 3):
        c = rn_cycle(n)
        assert is_balanced(c)
        assert c.dim == n and len(c.cells) == 1


def test_partial_products_over_f22():
    # A and D carry -e_0 in the first block, so (A+D) is max(0, x_1, x_2)
    # in the first factor and cuts it down to L^2_1; the mirror pair (B+D)
    # does the same to the second factor.  Applying both gives L^2_1 x L^2_1.
    from tropint.functions import CartierExpression
    from tropint.linspace import fnk_cycle, symbol_function

    bd = symbol_function(2, {("B", 0): 1, ("D", 0): 1})
    ad = symbol_function(2, {("T", 0): 1, ("D", 0): 1})
    l21 = build_lnk(2, 1)
    first = CartierExpression([(1, [ad])]).apply(fnk_cycle(2, 2))
    assert cycles_equal(first, cross(l21, rn_cycle(2)))
    mirror = CartierExpression([(1, [bd])]).apply(fnk_cycle(2, 2))
    assert cycles_equal(mirror, cross(rn_cycle(2), l21))
    second = CartierExpression([(1, [bd, ad])]).apply(fnk_cycle(2, 2))
    assert cycles_equal(second, cross(l21, l21))


def _diagonal_of_subcycle(n, k, c):
    from tropint.functions import CartierExpression
    from tropint.linspace import symbol_function

    rep = rewrite_diagonal(n, k)
    bd = symbol_function(n, {("B", 0): 1, ("D", 0): 1})
    expr = CartierExpression(
        [(alpha, list(phis) + [bd] * k) for alpha, phis in rep.expression.terms]
    )
    return expr.apply(cross(c, rn_cycle(n)))


def test_diagonal_of_subcycles():
    # the h-tuples against (B+D)^k recover the diagonal of any subcycle
    from tropint.polyhedra import make_cycle, scale_cycle

    line = make_cycle(3, 1, [
        (cone_from_generators(3, [(1, 1, 0)]), 1),
        (cone_from_generators(3, [(-1, -1, 0)]), 1),
    ])
    curve = make_cycle(3, 1, [
        (cone_from_generators(3, [(-2, -3, 0)]), 1),
        (cone_from_generators(3, [(2, 2, -1)]), 1),
        (cone_from_generators(3, [(0, 1, 1)]), 1),
    ])
    for c in [line, curve, build_lnk(3, 2)]:
        assert cycles_equal(_diagonal_of_subcycle(3, 1, c), diagonal_cycle(c))
    doubled = scale_cycle(build_lnk(3, 1), 2)
    assert cycles_equal(_diagonal_of_subcycle(3, 2, doubled), diagonal_cycle(doubled))
