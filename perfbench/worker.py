"""The timed worker: one fresh process, one caller, a closed loop.

    python3 perfbench/worker.py --workload W --inputs FILE --result FILE
        [--seconds S] [--min-ops N] [--max-ops N] [--setup-only]
        [--spans FILE]

It imports tropint, parses the generated documents, builds and verifies
the contexts and runs one warm-up query of each kind (this is set-up);
then it runs timed queries until --seconds have passed and --min-ops are
done, or --max-ops are done.  A SpeedProbe samples the machine's speed
throughout, so that run.py can scale the timings.  Outputs are checked
exactly after the timed phase, and everything is written as JSON to
--result.  With --spans the layers are traced (see tracer.py) and the
per-layer figures are added.

Cold state comes from the fresh process, not from
tropint.polyhedra.clear_caches(): that function clears only the four
polyhedra caches and leaves linspace's _LNK_CACHE, _FNK_CACHE,
_REWRITE_CACHE and intersect's _CONTEXT_CACHE filled.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

# diagonal: the fixed list of CLI documents, run in this order
DIAGONAL_COMMANDS = (
    ("diagonal-rewrite", 3, 1),
    ("diagonal-rewrite", 4, 3),
    ("diagonal-rewrite", 4, 2),
    ("diagonal-form", 3, 1),
    ("diagonal-form", 3, 2),
)
# intersect: every COMMUTE_EVERY-th product is also checked as (b, a)
COMMUTE_EVERY = 20
# the query phase never runs longer than this, whatever --min-ops says
QUERY_CAP_S = 60.0
# the speed probe times one chunk this often, from an interval timer
PROBE_EVERY_S = 0.5


def _chunk():
    d = {}
    for i in range(3000):
        t = (Fraction(i, 7), i % 13, (i * 31) % 97)
        d[t] = d.get(t, 0) + 1
    return len(d)


class SpeedProbe:
    """Times a fixed chunk of pure-Python work (Fraction, tuple and dict
    traffic, as in tropint's inner loops) every PROBE_EVERY_S, from a
    SIGALRM handler, so that it samples the machine's speed during long
    operations too.

    On a shared machine the speed drifts by up to 1.7x over minutes; the
    chunk slows down with it, so run.py can scale each timing to a fixed
    reference speed.  `spent` is the time the chunks took, which the
    timings subtract.
    """

    def __init__(self):
        self.samples = []  # (perf_counter at the chunk's start, its seconds)
        self.spent = 0.0

    def sample(self, *_signal_args):
        t0 = time.perf_counter()
        _chunk()
        dt = time.perf_counter() - t0
        self.samples.append((t0, dt))
        self.spent += dt

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def digest(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def load_golden():
    with open(os.path.join(HERE, "golden.json"), encoding="ascii") as fh:
        return json.load(fh)


class Diagonal:
    """Cold CLI runs of diagonal-rewrite and diagonal-form."""

    def __init__(self, inputs):
        from tropint import cli, formats

        self.cli = cli
        self.formats = formats
        self.golden = load_golden()["diagonal"]
        self.count = len(DIAGONAL_COMMANDS)

    def op(self, k):
        command, n, kk = DIAGONAL_COMMANDS[k % self.count]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main([command, "--n", str(n), "--k", str(kk), "--quiet"])
        if code != 0:
            raise RuntimeError("%s exited with %r" % (command, code))
        return buf.getvalue()

    def valid(self, k, text):
        """The document says it was verified, and its bytes are golden."""
        command, n, kk = DIAGONAL_COMMANDS[k % self.count]
        rep = self.formats.parse_document(text)
        return rep.verified and digest(text) == self.golden["%s %d %d" % (command, n, kk)]


class Intersect:
    """intersect_cycles on seeded curve pairs inside L^3_2."""

    def __init__(self, inputs):
        import tropint.intersect as intersect
        from tropint import formats, polyhedra

        self.intersect = intersect
        self.formats = formats
        self.polyhedra = polyhedra
        self.curves = [formats.parse_document(d) for d in inputs["docs"]]
        self.stream = inputs["stream"]
        self.ctx = intersect.linear_space_context(3, 2)
        for i, j in inputs["warmup"]:
            intersect.intersect_cycles(self.curves[i], self.curves[j], self.ctx)

    def product(self, i, j):
        return self.intersect.intersect_cycles(self.curves[i], self.curves[j], self.ctx)

    def op(self, k):
        i, j = self.stream[k % len(self.stream)]
        return self.formats.serialize(self.product(i, j))

    def valid(self, k, text):
        """Expected dimension, balancing, support in L^3_2, and
        commutativity on every COMMUTE_EVERY-th product."""
        z = self.formats.parse_document(text)
        ok = (z.is_empty or z.dim == 0) and self.polyhedra.is_balanced(z)
        ok = ok and self.polyhedra.support_covers(z, self.ctx.ambient)
        if ok and k % COMMUTE_EVERY == 0:
            i, j = self.stream[k % len(self.stream)]
            ok = self.polyhedra.cycles_equal(z, self.product(j, i))
        return ok


class Pullback:
    """pullback_cycle along p2 : L^2_1 x L^2_1 -> L^2_1."""

    def __init__(self, inputs):
        import tropint.intersect as intersect
        from tropint import formats, linspace

        self.intersect = intersect
        self.formats = formats
        self.cycles = [formats.parse_document(d) for d in inputs["docs"]]
        self.stream = inputs["stream"]
        self.target = intersect.linear_space_context(2, 1)
        self.source = intersect.product_context(self.target, self.target)
        self.p2 = intersect.projection_morphism((2, 2), 1)
        self.l21 = linspace.build_lnk(2, 1)
        self.verdicts = {}
        for i in inputs["warmup"]:
            self.pull(i)

    def pull(self, i):
        return self.intersect.pullback_cycle(
            self.p2, self.cycles[i], self.source, self.target
        )

    def op(self, k):
        return self.formats.serialize(self.pull(self.stream[k % len(self.stream)]))

    def valid(self, k, text):
        """p2^*(c) == L^2_1 x c, the identity of criterion 8; each distinct
        (input, output) pair is decided once."""
        from tropint import polyhedra

        i = self.stream[k % len(self.stream)]
        key = (i, text)
        if key not in self.verdicts:
            got = self.formats.parse_document(text)
            self.verdicts[key] = polyhedra.cycles_equal(
                got, polyhedra.cross(self.l21, self.cycles[i])
            )
        return self.verdicts[key]


WORKLOADS = {"diagonal": Diagonal, "intersect": Intersect, "pullback": Pullback}


def layer_metrics(tracer, caches):
    """The per-layer figures from the spans, counters and cache sizes."""
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def own(name):
        return totals.get(name, (0, 0.0))[1]

    def layer(prefix, what):
        return sum(v[what] for k, v in totals.items() if k.startswith(prefix + "."))

    ic_calls = calls("polyhedra.intersect_cells")
    return {
        "polyhedra.find_cell_containing.calls": calls("polyhedra.find_cell_containing"),
        "polyhedra.find_cell_containing.self_s": own("polyhedra.find_cell_containing"),
        "polyhedra.intersect_cells.calls": ic_calls,
        "polyhedra.intersect_cells.hit_ratio": (
            tracer.counters["intersect_cells.hits"] / ic_calls if ic_calls else 0.0
        ),
        "polyhedra.common_refinement.self_s": own("polyhedra.common_refinement"),
        "polyhedra.assemble_cycle.self_s": own("polyhedra.assemble_cycle"),
        "polyhedra.self_s": layer("polyhedra", 1),
        "polyhedra.cells_interned": caches["polyhedra._CELL_POOL"],
        "polyhedra.dd_builds": caches["polyhedra._BUILD_MEMO"],
        "polyhedra.cache_entries": sum(
            v for k, v in caches.items() if k.startswith("polyhedra.")
        ),
        "linspace.cache_entries": sum(
            v for k, v in caches.items() if k.startswith("linspace.")
        ),
        "intersect.cache_entries": sum(
            v for k, v in caches.items() if k.startswith("intersect.")
        ),
        "functions.divisor.calls": calls("functions.divisor"),
        "functions.divisor.cells_in": tracer.counters["divisor.cells_in"],
        "functions.divisor.cells_out": tracer.counters["divisor.cells_out"],
        "functions.self_s": layer("functions", 1),
        "functions.pullback_function.self_s": own("functions.pullback_function"),
        "exactmath.calls": layer("exactmath", 0),
        "exactmath.self_s": layer("exactmath", 1),
        "linspace.symbol_function.calls": calls("linspace.symbol_function"),
        "linspace.verify_s": tracer.inclusive("linspace.verify"),
        "linspace.self_s": layer("linspace", 1),
        "intersect.verify_s": tracer.inclusive("intersect.verify"),
        "intersect.apply_diagonal.self_s": own("intersect.apply_diagonal"),
        "intersect.self_s": layer("intersect", 1),
        "formats.self_s": layer("formats", 1),
        "cli.self_s": layer("cli", 1),
    }


def run(args):
    probe = SpeedProbe()
    probe.sample()  # short set-ups get a sample on each side
    probe.start()

    import tropint.cli  # noqa: F401  (loads every layer module)

    tracer = None
    if args.spans:
        sys.path.insert(0, HERE)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    inputs = {}
    if args.inputs:
        with open(args.inputs, encoding="ascii") as fh:
            inputs = json.load(fh)
    work = WORKLOADS[args.workload](inputs)
    probe.sample()
    result = {"ready": time.monotonic(), "setup_probe_s": probe.spent}
    result["setup_speed"] = sorted(dt for _, dt in probe.samples)[len(probe.samples) // 2]
    if args.setup_only:
        probe.stop()
        return result

    latencies = []
    op_times = []
    outputs = {}
    errors = {}
    clock = time.perf_counter
    start = clock()
    while True:
        k = len(latencies)
        spent = probe.spent
        t0 = clock()
        try:
            outputs[k] = work.op(k)
        except Exception as err:  # counted as a failed operation
            errors[k] = "%s: %s" % (type(err).__name__, err)
        t1 = clock()
        latencies.append(t1 - t0 - (probe.spent - spent))
        op_times.append((t0, t1))
        elapsed = t1 - start
        if args.max_ops and len(latencies) >= args.max_ops:
            break
        if elapsed >= args.seconds and len(latencies) >= args.min_ops:
            break
        if elapsed >= QUERY_CAP_S:
            break
    probe.sample()
    probe.stop()
    result["query_s"] = clock() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        from tracer import cache_sizes

        result["layers"] = layer_metrics(tracer, cache_sizes())
        tracer.write(args.spans)

    for k, text in outputs.items():
        try:
            ok = work.valid(k, text)
        except Exception as err:  # a check that cannot run fails the op
            ok = False
            errors[k] = "check raised %s: %s" % (type(err).__name__, err)
        if not ok:
            errors.setdefault(k, "output failed its check")
    result.update(
        latencies=latencies,
        op_times=op_times,
        probe=probe.samples,
        digests=[digest(outputs[k]) if k in outputs else None for k in range(len(latencies))],
        errors={str(k): v for k, v in sorted(errors.items())},
    )
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description="benchmark worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs")
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--max-ops", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="trace the layers and write spans here")
    args = parser.parse_args(argv)
    result = run(args)
    with open(args.result, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
