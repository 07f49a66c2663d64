"""Benchmark of tropint: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout (it needs src/tropint).  Workloads:

  diagonal   cold CLI runs of diagonal-rewrite (3,1) (4,3) (4,2) and
             diagonal-form (3,1) (3,2); fixed inputs, the seed is unused
  intersect  intersect_cycles on seeded curve pairs inside L^3_2
  pullback   pullback_cycle along p2 of seeded cycles in L^2_1

Every process the benchmark starts is fresh and runs alone: the input
generator, then the timed worker(s), then extra set-up-only workers so
that set-up is measured several times.  See README.md for the metrics.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced worker that
repeats the untraced worker's operations, plus trace.overhead_s.  A
human-readable report goes to stderr.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# setup_samples: set-ups measured per run; batch: the fixed first
# operations that solve_s times and the golden digests cover; min_ops:
# the query phase runs at least this many so that ten lie beyond p90
WORKLOADS = {
    "diagonal": {"setup_samples": 5, "batch": 5, "min_ops": 5},
    "intersect": {"setup_samples": 3, "batch": 100, "min_ops": 100},
    "pullback": {"setup_samples": 2, "batch": 100, "min_ops": 100},
}
PYTHONHASHSEED = "0"
# every timing is scaled to a machine on which one speed-probe chunk
# (worker.SpeedProbe) takes CAL_REF_S, using the chunks timed within
# PROBE_WINDOW_S of it; README.md, "Machine speed", says why
CAL_REF_S = 0.010
PROBE_WINDOW_S = 1.0
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _load_json(path):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


class Runner:
    """Starts the generator and workers, one at a time, in a work directory."""

    def __init__(self, root, workload, seed, workdir):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=src + (os.pathsep + path if path else ""),
            PYTHONHASHSEED=PYTHONHASHSEED,
        )
        self.inputs = None
        self.count = 0

    def _call(self, script, args):
        cmd = [sys.executable, os.path.join(HERE, script)] + args
        try:
            proc = subprocess.run(
                cmd,
                cwd=self.root,
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise BenchError("%s timed out after %d s" % (script, WORKER_TIMEOUT_S))
        if proc.returncode != 0:
            tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-5:]
            raise BenchError("%s failed:\n%s" % (script, "\n".join(tail)))

    def generate(self):
        if self.workload == "diagonal":
            return
        self.inputs = os.path.join(self.workdir, "inputs.json")
        self._call(
            "gen.py",
            ["--workload", self.workload, "--seed", str(self.seed), "--out", self.inputs],
        )

    def worker(self, *extra):
        """Run one worker; its set-up time counts from just before the spawn."""
        self.count += 1
        result_path = os.path.join(self.workdir, "result-%d.json" % self.count)
        args = ["--workload", self.workload, "--result", result_path]
        if self.inputs:
            args += ["--inputs", self.inputs]
        spawn = time.monotonic()
        self._call("worker.py", args + [str(x) for x in extra])
        result = _load_json(result_path)
        result["setup_s"] = result["ready"] - spawn - result["setup_probe_s"]
        return result


def run_untraced(runner, seconds):
    """The timed workers.  diagonal starts another cold solve only while
    the solves so far plus one more fit in --seconds."""
    spec = WORKLOADS[runner.workload]
    if runner.workload != "diagonal":
        return [runner.worker("--seconds", seconds, "--min-ops", spec["min_ops"])]
    solve = ("--min-ops", spec["batch"], "--max-ops", spec["batch"])
    solves = [runner.worker(*solve)]
    while sum(r["query_s"] for r in solves) + solves[-1]["query_s"] <= seconds:
        solves.append(runner.worker(*solve))
    return solves


def failures(runner, mains, golden):
    """Indices (worker, op) of operations that raised or failed a check.

    For the recorded seed, the first `batch` outputs must also match
    their golden digests, and the inputs theirs.
    """
    bad = set()
    for w, r in enumerate(mains):
        bad.update((w, int(k)) for k in r["errors"])
    want = golden["seeded"].get(runner.workload)
    if want is not None and runner.seed == golden["recorded_seed"]:
        inputs_ok = runner.inputs is None or (
            _digest_file(runner.inputs) == want["inputs"]
        )
        for w, r in enumerate(mains):
            for k, d in enumerate(r["digests"][: len(want["batch"])]):
                if not inputs_ok or d is None or d[:16] != want["batch"][k]:
                    bad.add((w, k))
    return bad


def _digest_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def scaled_latencies(r):
    """Each operation's latency at the reference speed, by the median of
    the probe chunks timed during it or within PROBE_WINDOW_S of it."""
    out = []
    for (t0, t1), x in zip(r["op_times"], r["latencies"]):
        near = [
            dt for t, dt in r["probe"] if t0 - PROBE_WINDOW_S <= t <= t1 + PROBE_WINDOW_S
        ]
        out.append(x * CAL_REF_S / statistics.median(near or [dt for _, dt in r["probe"]]))
    return out


def scaled_setup(r):
    return r["setup_s"] * CAL_REF_S / r["setup_speed"]


def _scaled_wall(r):
    return scaled_setup(r) + sum(scaled_latencies(r))


def end_to_end(runner, mains, extra_setups):
    spec = WORKLOADS[runner.workload]
    per_worker = [scaled_latencies(r) for r in mains]
    lat = [x for xs in per_worker for x in xs]
    if runner.workload == "diagonal":
        solve = statistics.median(sum(xs) for xs in per_worker)
    else:
        solve = sum(per_worker[0][: spec["batch"]])
    return {
        "setup_s": (statistics.median(scaled_setup(r) for r in mains + extra_setups), "s"),
        "solve_s": (solve, "s"),
        "query_p50_ms": (statistics.median(lat) * 1000.0, "ms"),
        "query_p90_ms": (_p90(lat) * 1000.0, "ms"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in mains), "MB"),
    }


LAYER_UNITS = {"calls": "count", "hit_ratio": "ratio"}


def _layer_unit(name):
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    return LAYER_UNITS.get(last, "count")


def measure(root, workload, seed, seconds, trace):
    spec = WORKLOADS[workload]
    workdir = os.path.join(
        root, ".bench_build", "perfbench", "%s-seed%d-trace%d" % (workload, seed, trace)
    )
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = Runner(root, workload, seed, workdir)
    runner.generate()
    mains = run_untraced(runner, seconds)
    golden = _load_json(os.path.join(HERE, "golden.json"))
    bad = failures(runner, mains, golden)
    attempted = sum(len(r["latencies"]) for r in mains)
    notes = []
    if not trace:
        extra = [
            runner.worker("--setup-only")
            for _ in range(spec["setup_samples"] - len(mains))
        ]
        metrics = end_to_end(runner, mains, extra)
        notes.append(
            "error_rate %.6f (%d failed of %d attempted)"
            % (len(bad) / attempted, len(bad), attempted)
        )
    else:
        untraced = mains[0]
        ops = len(untraced["latencies"])
        traced = runner.worker(
            "--min-ops", ops, "--max-ops", ops, "--spans", os.path.join(workdir, "spans.bin")
        )
        attempted += ops
        bad.update((-1, int(k)) for k in traced["errors"])
        mismatched = sum(
            a != b for a, b in zip(untraced["digests"], traced["digests"])
        )
        if mismatched:
            notes.append("traced outputs differ from untraced ones on %d ops" % mismatched)
            bad.update((-1, k) for k in range(ops))
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = _scaled_wall(traced) - _scaled_wall(untraced)
        metrics = {name: (v, _layer_unit(name)) for name, v in layers.items()}
    cal = statistics.median(dt for r in mains for _, dt in r["probe"])
    notes.append(
        "machine speed: probe chunk %.2f ms (reference %.2f ms); raw timings"
        " are in %s" % (cal * 1000.0, CAL_REF_S * 1000.0, workdir)
    )
    for w, r in enumerate(mains):
        for k, why in sorted(r["errors"].items(), key=lambda kv: int(kv[0]))[:5]:
            notes.append("worker %d op %s: %s" % (w, k, why))
    return {
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tropint", "__init__.py")):
        print("run.py: no src/tropint here; run from the repository root", file=sys.stderr)
        return 2
    print(
        "env: python %s, nproc %d, seed %d, PYTHONHASHSEED=%s, workload %s"
        % (platform.python_version(), os.cpu_count() or 0, args.seed, PYTHONHASHSEED, args.workload),
        file=sys.stderr,
    )
    try:
        result, notes = measure(root, args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print("run.py: %s" % err, file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print("%-40s %14.6f %s" % (name, m["value"], m["unit"]), file=sys.stderr)
    for line in notes:
        print(line, file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
