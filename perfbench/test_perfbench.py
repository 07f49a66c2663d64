"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED=run.PYTHONHASHSEED)


def _script(name, *args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, name)] + [str(a) for a in args],
        cwd=cwd,
        env=ENV,
        capture_output=True,
        timeout=170,
    )


def _generate(tmp_path, workload, seed, name="inputs.json"):
    out = tmp_path / name
    proc = _script("gen.py", "--workload", workload, "--seed", seed, "--out", out)
    assert proc.returncode == 0, proc.stderr
    return out


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", ["intersect", "pullback"])
def test_generator_is_deterministic(tmp_path, workload):
    a = _generate(tmp_path, workload, 5, "a.json").read_bytes()
    b = _generate(tmp_path, workload, 5, "b.json").read_bytes()
    c = _generate(tmp_path, workload, 6, "c.json").read_bytes()
    assert a == b
    assert a != c


def test_recorded_seed_inputs_match_golden(tmp_path):
    golden = worker.load_golden()
    for workload, want in golden["seeded"].items():
        path = _generate(tmp_path, workload, golden["recorded_seed"], workload + ".json")
        assert run._digest_file(str(path)) == want["inputs"]


def _all_functions():
    """Every function reachable as an attribute of a tropint namespace,
    or as a method of one of its classes."""
    import tropint.cli  # noqa: F401

    seen = {}
    for key, mod in sorted(sys.modules.items()):
        if mod is None or not (key == "tropint" or key.startswith("tropint.")):
            continue
        for attr, obj in vars(mod).items():
            if callable(obj):
                seen[(key, attr)] = obj
            if isinstance(obj, type) and obj.__module__.startswith("tropint"):
                for meth, fn in vars(obj).items():
                    seen[(key, attr, meth)] = fn
    return seen


def test_wrappers_restore_every_original():
    import tropint.functions
    import tropint.polyhedra

    before = _all_functions()
    t = tracer.Tracer()
    t.install()
    try:
        assert tropint.polyhedra.intersect_cells.perfbench_span == "polyhedra.intersect_cells"
        # the name imported into another module is wrapped as well
        assert tropint.functions.intersect_cells is tropint.polyhedra.intersect_cells
        assert hasattr(tropint.polyhedra.Complex.find_cell_containing, "perfbench_span")
        # vector helpers stay unwrapped
        assert not hasattr(tropint.exactmath.vec_dot, "perfbench_span")
        assert len(t._patched) > 100
    finally:
        t.uninstall()
    after = _all_functions()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(fn, "perfbench_span") for fn in after.values())


def test_self_time_subtracts_children():
    t = tracer.Tracer()
    clock = iter([0.0, 1.0, 3.0, 10.0]).__next__
    tracer.time.perf_counter, saved = clock, tracer.time.perf_counter
    try:
        inner = t._wrap("x.inner", lambda: None)
        outer = t._wrap("x.outer", lambda: inner())
        outer()
    finally:
        tracer.time.perf_counter = saved
    totals = t.totals()
    assert totals["x.outer"] == (1, 8.0)
    assert totals["x.inner"] == (1, 2.0)
    assert t.inclusive("x.outer") == 10.0


def test_timings_scale_with_the_probe_chunks():
    ref = run.CAL_REF_S
    r = {
        "latencies": [1.0, 2.0],
        "op_times": [(10.0, 11.0), (20.0, 22.0)],
        "probe": [(10.5, ref), (11.5, 3 * ref), (12.5, 3 * ref), (21.0, 2 * ref)],
        "setup_s": 5.0,
        "setup_speed": 2 * ref,
    }
    # op 0 sees the chunks at 10.5, 11.5 (12.5 is too far); op 1 only 21.0
    assert run.scaled_latencies(r) == pytest.approx([0.5, 1.0])
    assert run.scaled_setup(r) == pytest.approx(2.5)


def _worker(tmp_path, name, inputs, *extra):
    result = tmp_path / (name + ".json")
    proc = _script(
        "worker.py", "--workload", "intersect", "--inputs", inputs,
        "--result", result, "--min-ops", 3, "--max-ops", 3, *extra,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())


def test_command_fixes_the_hash_seed():
    assert "PYTHONHASHSEED=" + run.PYTHONHASHSEED in _benchmark_json()["command"]


def test_traced_and_untraced_outputs_agree(tmp_path):
    golden = worker.load_golden()
    inputs = _generate(tmp_path, "intersect", golden["recorded_seed"])
    plain = _worker(tmp_path, "plain", inputs)
    traced = _worker(tmp_path, "traced", inputs, "--spans", tmp_path / "spans.bin")
    assert plain["errors"] == {} and traced["errors"] == {}
    assert plain["digests"] == traced["digests"]
    want = golden["seeded"]["intersect"]["batch"][:3]
    assert [d[:16] for d in plain["digests"]] == want
    assert traced["layers"]["polyhedra.intersect_cells.calls"] > 0
    header = (tmp_path / "spans.bin").read_bytes().split(b"\n", 1)[0]
    assert json.loads(header)["count"] > 0

    # every metric the benchmark prints is declared in BENCHMARK.json
    spec = _benchmark_json()
    plain["setup_s"] = 1.0
    runner = run.Runner(ROOT, "intersect", 1, str(tmp_path))
    e2e = run.end_to_end(runner, [plain], [])
    assert sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(e2e[m["name"]][1] == m["unit"] for m in spec["end_to_end"])
    layers = dict(traced["layers"], **{"trace.overhead_s": 0.0})
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])
    assert all(run._layer_unit(m["name"]) == m["unit"] for m in spec["per_layer"])


def test_refuses_to_run_without_the_library(tmp_path):
    proc = _script(
        "run.py", "--workload", "intersect", "--seed", 1, "--seconds", 1, "--trace", 0,
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
