"""Seeded input generator for the benchmark.

Runs in its own process, before and apart from the timed worker, so that
building the inputs with the library does not fill the memo caches the
timed queries would then hit.  It writes one JSON file holding canonical
interchange documents (tropint.formats) and the query stream as indices
into them; the worker only parses the documents.

    python3 perfbench/gen.py --workload intersect --seed 7 --out inputs.json

The same seed always gives byte-identical output.
"""

import argparse
import json
import random
import sys
from fractions import Fraction

# intersect: curve pool size; every fan curve has FAN_CELLS rays and every
# affine curve AFFINE_CELLS cells.  Both, and a pool large enough that the
# first 100 products meet most of its curves, keep the cost of a product
# from varying much from seed to seed
POOL_CURVES = 96
FAN_CELLS = 4
AFFINE_CELLS = 3
# pullback: distinct point supports, weights, and the 8-op block layout
POINT_SUPPORTS = 3
WEIGHTS = (1, 2, 3)
POINTS_PER_BLOCK = 7
PULLBACK_BLOCKS = 300

L32_RAYS = ((1, 1, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1))
L21_RAYS = ((1, 1), (-1, 0), (0, -1))


def _fan_curve(t, rng):
    """Divisor of a seeded ray function on L^3_2 subdivided along a+b.

    a and b span a 2-cone of L^3_2, so both new cones stay unimodular and
    ray_function has an integer form on every cone.
    """
    a, b = rng.sample(L32_RAYS, 2)
    r = tuple(p + q for p, q in zip(a, b))
    x = t.stellar_subdivide(t.build_lnk(3, 2), r)
    while True:
        values = {ray: rng.randint(-1, 1) for ray in L32_RAYS + (r,)}
        c = t.divisor(t.ray_function(x, values), x)
        if len(c.cells) == FAN_CELLS:
            return c


def _affine_curve(t, rng):
    """Divisor of max(0, a.x + c) on L^3_2 refined along a.x = -c."""
    from tropint.exactmath import integer_kernel
    from tropint.polyhedra import Complex

    while True:
        a = tuple(rng.randint(-1, 1) for _ in range(3))
        if not any(a):
            continue
        c = rng.choice((-2, -1, 1, 2))
        norm = sum(v * v for v in a)
        p = tuple(Fraction(-c * v, norm) for v in a)
        lin = integer_kernel([a], 3)
        halves = [
            t.make_cell(3, [p], [a], lin),
            t.make_cell(3, [p], [tuple(-v for v in a)], lin),
        ]
        x = t.common_refinement(t.build_lnk(3, 2), Complex(3, halves))
        phi = t.max_poly_function(x, [((0, 0, 0), 0), (a, c)])
        curve = t.divisor(phi, x)
        if len(curve.cells) == AFFINE_CELLS:
            return curve


def intersect_inputs(t, rng):
    """A pool of fan and affine curves in L^3_2 and a stream of pairs.

    Even pool indices are fan curves, odd ones affine curves.  The stream
    holds every ordered pair of distinct pool curves once, in blocks of
    four (fan.fan, fan.affine, affine.fan, affine.affine, shuffled within
    the block) so that each stretch of the stream has the same mix.  Two
    extra curves outside the pool make the warm-up pair.
    """
    curves = [
        _fan_curve(t, rng) if i % 2 == 0 else _affine_curve(t, rng)
        for i in range(POOL_CURVES + 2)
    ]
    by_kind = {}
    for i in range(POOL_CURVES):
        for j in range(POOL_CURVES):
            if i != j:
                by_kind.setdefault((i % 2, j % 2), []).append([i, j])
    for pairs in by_kind.values():
        rng.shuffle(pairs)
    blocks = [list(block) for block in zip(*by_kind.values())]
    for block in blocks:
        rng.shuffle(block)
    return {
        "docs": [t.serialize(c) for c in curves],
        "warmup": [[POOL_CURVES, POOL_CURVES + 1]],
        "stream": [pair for block in blocks for pair in block],
    }


def pullback_inputs(t, rng):
    """Weighted points on the rays of L^2_1 and multiples of L^2_1.

    Docs 0 .. POINT_SUPPORTS*len(WEIGHTS)-1 are points (support-major),
    the last len(WEIGHTS) docs are w*L^2_1.  Each 8-op block of the
    stream has seven points and one curve.  The warm-up pulls back the
    first point support and L^2_1 itself.
    """
    spots = [(0, 0)]
    while len(spots) < POINT_SUPPORTS:
        d = rng.choice(L21_RAYS)
        s = rng.randint(1, 4)
        spot = (s * d[0], s * d[1])
        if spot not in spots:
            spots.append(spot)
    l21 = t.build_lnk(2, 1)
    docs = []
    for spot in spots:
        for w in WEIGHTS:
            cell = t.make_cell(2, [spot])
            docs.append(t.serialize(t.make_cycle(2, 0, [(cell, w)])))
    first_curve = len(docs)
    for w in WEIGHTS:
        docs.append(t.serialize(t.scale_cycle(l21, w)))
    stream = []
    for _ in range(PULLBACK_BLOCKS):
        block = [rng.randrange(first_curve) for _ in range(POINTS_PER_BLOCK)]
        block.append(first_curve + rng.randrange(len(WEIGHTS)))
        rng.shuffle(block)
        stream.extend(block)
    return {"docs": docs, "warmup": [0, first_curve], "stream": stream}


GENERATORS = {"intersect": intersect_inputs, "pullback": pullback_inputs}


def generate(workload, seed):
    import tropint

    rng = random.Random("%s:%d" % (workload, seed))
    out = GENERATORS[workload](tropint, rng)
    out.update(workload=workload, seed=seed)
    return json.dumps(out, sort_keys=True) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    text = generate(args.workload, args.seed)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
