"""Batch command line front end.

Reads interchange documents, runs constructions and products, and writes
canonical result documents to stdout (or --output).  Progress and
verification reports go to stderr and are silenced by --quiet, so stdout
carries nothing but the byte-stable result.

Exit status: 0 on success (including query commands answering yes),
1 on validation failure or a negative query answer, 2 when an internal
verification of a diagonal identity fails.
"""

import argparse
import functools
import sys

from . import formats
from .functions import PLFunction, divisor
from .intersect import (
    Morphism,
    intersect_cycles,
    linear_space_context,
    product_context,
    pullback_cycle,
    pushforward,
)
from .linspace import (
    build_lnk,
    diagonal_product_form,
    fnk_cycle,
    rewrite_diagonal,
)
from .polyhedra import (
    TropicalCycle,
    TropicalGeometryError,
    VerificationError,
    common_refinement,
    cycles_equal,
    degree,
    is_balanced,
)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with status 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _emit(args, text):
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(args, line):
    if not args.quiet:
        print(line, file=sys.stderr)


def _describe(x):
    if x.is_empty:
        return "empty cycle in R^%d" % x.ambient_dim
    return "%d cells of dimension %d in R^%d" % (len(x.cells), x.dim, x.ambient_dim)


def _load(path, want, what):
    obj = formats.load_path(path)
    if not isinstance(obj, want):
        raise formats.FormatError("%s: expected a %s document" % (path, what))
    return obj


def _split_factors(body):
    """Split on top-level semicolons, leaving parenthesized groups intact;
    None when the parentheses do not balance."""
    depth = 0
    parts = [[]]
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return None
        if ch == ";" and depth == 0:
            parts.append([])
        else:
            parts[-1].append(ch)
    return None if depth else ["".join(p) for p in parts]


def _ints(text, count, what):
    parts = text.split(",")
    try:
        if len(parts) == count:
            return [int(p, 10) for p in parts]
    except ValueError:
        pass
    raise formats.FormatError(
        "bad ambient %r: expected %d comma-separated integers" % (what, count)
    )


def ambient_context(text):
    """Resolve an ambient shorthand: lnk:n,k, rn:n, or product:A;B."""
    t = text.strip()
    while t.startswith("(") and t.endswith(")") and _split_factors(t[1:-1]):
        t = t[1:-1].strip()
    if t.startswith("lnk:"):
        n, k = _ints(t[4:], 2, t)
        return linear_space_context(n, k)
    if t.startswith("rn:"):
        (n,) = _ints(t[3:], 1, t)
        return linear_space_context(n, n)
    if t.startswith("product:"):
        parts = _split_factors(t[len("product:"):])
        if parts is None:
            raise formats.FormatError("unbalanced parentheses in ambient")
        if len(parts) != 2:
            raise formats.FormatError(
                "bad ambient %r: product takes exactly two factors" % t
            )
        return product_context(ambient_context(parts[0]), ambient_context(parts[1]))
    raise formats.FormatError(
        "unknown ambient %r (use lnk:n,k, rn:n, or product:A;B)" % text
    )


def _context(args, text):
    ctx = ambient_context(text)
    if args.verify:
        ctx.verify()
        _report(args, "re-verified diagonal representation for %s" % text)
    return ctx


def _cmd_lnk(args):
    x = build_lnk(args.n, args.k)
    _emit(args, formats.serialize(x))
    _report(args, "L^%d_%d: %s" % (args.n, args.k, _describe(x)))


def _cmd_fnk(args):
    x = fnk_cycle(args.n, args.k)
    _emit(args, formats.serialize(x))
    _report(args, "F^%d_%d: %s" % (args.n, args.k, _describe(x)))


def _cmd_check_balanced(args):
    x = _load(args.cycle, TropicalCycle, "cycle")
    ok = is_balanced(x)
    _emit(args, formats.canonical_json({"kind": "report", "balanced": ok}))
    _report(args, "balanced" if ok else "not balanced")
    return 0 if ok else 1


def _cmd_divisor(args):
    phi = _load(args.function, PLFunction, "function")
    x = _load(args.cycle, TropicalCycle, "cycle")
    y = divisor(phi, x)
    _emit(args, formats.serialize(y))
    _report(args, "divisor: %s" % _describe(y))


def _cmd_diagonal_form(args):
    rep = diagonal_product_form(args.n, args.k)
    rep.verify()
    _emit(args, formats.serialize(rep))
    for line in rep.describe():
        _report(args, line)
    _report(args, "verified: product applied to [F^%d_%d] is the diagonal" % (args.n, args.n))


def _cmd_diagonal_rewrite(args):
    rep = rewrite_diagonal(args.n, args.k)
    if args.verify:
        rep.verify()
    _emit(args, formats.serialize(rep))
    for line in rep.describe():
        _report(args, line)
    _report(
        args,
        "verified: sum applied to [L^%d_%d x L^%d_%d] is the diagonal"
        % (args.n, args.n - args.k, args.n, args.n - args.k),
    )


def _cmd_intersect(args):
    d1 = _load(args.first, TropicalCycle, "cycle")
    d2 = _load(args.second, TropicalCycle, "cycle")
    ctx = _context(args, args.ambient)
    z = intersect_cycles(d1, d2, ctx)
    _emit(args, formats.serialize(z))
    note = _describe(z)
    if z.dim == 0 or z.is_empty:
        note += ", degree %d" % degree(z)
    _report(args, "intersection: %s" % note)


def _cmd_pushforward(args):
    f = _load(args.map, Morphism, "morphism")
    x = _load(args.cycle, TropicalCycle, "cycle")
    y = pushforward(f, x)
    _emit(args, formats.serialize(y))
    _report(args, "pushforward: %s" % _describe(y))


def _cmd_pullback(args):
    f = _load(args.map, Morphism, "morphism")
    c = _load(args.cycle, TropicalCycle, "cycle")
    source = _context(args, args.source)
    target = _context(args, args.target)
    y = pullback_cycle(f, c, source, target)
    _emit(args, formats.serialize(y))
    _report(args, "pullback: %s" % _describe(y))


def _cmd_refine(args):
    x = _load(args.cycle, TropicalCycle, "cycle")
    carrier = _load(args.carrier, TropicalCycle, "cycle")
    y = common_refinement(x, carrier)
    _emit(args, formats.serialize(y))
    _report(args, "refined: %s" % _describe(y))


def _cmd_degree(args):
    x = _load(args.cycle, TropicalCycle, "cycle")
    d = degree(x)
    _emit(args, formats.canonical_json({"kind": "report", "degree": str(d)}))
    _report(args, "degree %d" % d)


def _cmd_equal(args):
    a = _load(args.first, TropicalCycle, "cycle")
    b = _load(args.second, TropicalCycle, "cycle")
    same = cycles_equal(a, b)
    _emit(args, formats.canonical_json({"kind": "report", "equal": same}))
    _report(args, "equal" if same else "different")
    return 0 if same else 1


@functools.cache
def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "-o", "--output", metavar="FILE", help="write the result document to FILE"
    )
    common.add_argument(
        "--quiet", action="store_true", help="suppress report lines on stderr"
    )
    common.add_argument(
        "--verify",
        action="store_true",
        help="force re-verification of cached diagonal representations",
    )
    parser = _Parser(
        prog="tropint",
        description="Exact tropical cycles, divisors, and intersection products.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, func, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("lnk", _cmd_lnk, "emit the linear space L^n_k")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("fnk", _cmd_fnk, "emit the refined product fan F^n_k")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("check-balanced", _cmd_check_balanced, "test the balancing condition")
    p.add_argument("cycle")

    p = add("divisor", _cmd_divisor, "apply a function to a cycle")
    p.add_argument("function")
    p.add_argument("cycle")

    p = add("diagonal-form", _cmd_diagonal_form, "emit the diagonal product form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add(
        "diagonal-rewrite",
        _cmd_diagonal_rewrite,
        "emit the rewritten diagonal tuple bundle",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("intersect", _cmd_intersect, "stable intersection in an ambient cycle")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--ambient", required=True, help="lnk:n,k, rn:n, or product:A;B")

    p = add("pushforward", _cmd_pushforward, "push a cycle along an affine map")
    p.add_argument("map")
    p.add_argument("cycle")

    p = add("pullback", _cmd_pullback, "pull a cycle back along a morphism")
    p.add_argument("map")
    p.add_argument("cycle")
    p.add_argument("--source", required=True, help="ambient of the source")
    p.add_argument("--target", required=True, help="ambient of the target")

    p = add("refine", _cmd_refine, "re-cell a cycle along a covering carrier")
    p.add_argument("cycle")
    p.add_argument("carrier")

    p = add("degree", _cmd_degree, "total weight of a zero-dimensional cycle")
    p.add_argument("cycle")

    p = add("equal", _cmd_equal, "test two cycles for equality")
    p.add_argument("first")
    p.add_argument("second")

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except VerificationError as err:
        print("verification failure: %s" % err, file=sys.stderr)
        return 2
    except TropicalGeometryError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    except OSError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    return 0 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
