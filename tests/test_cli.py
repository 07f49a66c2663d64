import json
import os
import subprocess
import sys

import pytest

from tropint import cli
from tropint.formats import FormatError, parse_document, serialize
from tropint.functions import divisor, ray_function
from tropint.intersect import (
    AmbientContext,
    Morphism,
    intersect_cycles,
    linear_space_context,
    product_context,
    projection_morphism,
    pullback_cycle,
)
from tropint.linspace import (
    build_lnk,
    diagonal_product_form,
    rewrite_diagonal,
    rn_cycle,
)
from tropint.polyhedra import (
    VerificationError,
    clear_caches,
    cone_from_generators,
    cross,
    cycles_equal,
    make_cell,
    make_cycle,
)


def curve(gens, n=3):
    return make_cycle(n, 1, [(cone_from_generators(n, [g]), 1) for g in gens])


def write(path, obj):
    path.write_text(serialize(obj))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lnk_emits_rays_and_cones(capsys):
    code, out, err = run(capsys, "lnk", "--n", "3", "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rays"]) == 4
    assert len(doc["cells"]) == 6
    assert all(c["weight"] == "1" for c in doc["cells"])
    assert "L^3_2" in err


def test_output_flag_and_quiet(tmp_path, capsys):
    target = tmp_path / "out.cycle"
    code, out, err = run(capsys, "fnk", "--n", "2", "--k", "2", "--quiet", "-o", str(target))
    assert code == 0 and out == "" and err == ""
    doc = json.loads(target.read_text())
    assert len(doc["cells"]) == 24


def test_stdout_is_byte_identical_across_runs(capsys):
    _, first, _ = run(capsys, "diagonal-rewrite", "--n", "2", "--k", "1", "--quiet")
    _, second, _ = run(capsys, "diagonal-rewrite", "--n", "2", "--k", "1", "--quiet")
    assert first == second
    assert parse_document(first).tuples == rewrite_diagonal(2, 1).tuples


def test_check_balanced_exit_codes(tmp_path, capsys):
    good = write(tmp_path / "good.cycle", build_lnk(2, 1))
    bad = write(
        tmp_path / "bad.cycle",
        make_cycle(2, 1, [(cone_from_generators(2, [(1, 0)]), 1)]),
    )
    code, out, _ = run(capsys, "check-balanced", good)
    assert code == 0 and json.loads(out)["balanced"] is True
    code, out, _ = run(capsys, "check-balanced", bad, "--quiet")
    assert code == 1 and json.loads(out)["balanced"] is False


def test_divisor_matches_library(tmp_path, capsys):
    l32 = build_lnk(3, 2)
    phi = ray_function(l32, {(1, 1, 1): 2, (-1, 0, 0): 1})
    fn = write(tmp_path / "phi.fn", phi)
    cy = write(tmp_path / "l32.cycle", l32)
    code, out, _ = run(capsys, "divisor", fn, cy, "--quiet")
    assert code == 0
    assert cycles_equal(parse_document(out), divisor(phi, l32))


def test_intersect_closing_example(tmp_path, capsys):
    c = write(tmp_path / "C.cycle", curve([(1, 1, 0), (-1, -1, 0)]))
    d = write(
        tmp_path / "D.cycle", curve([(-2, -3, 0), (2, 2, -1), (0, 1, 1)])
    )
    code, out, err = run(capsys, "intersect", c, d, "--ambient", "lnk:3,2")
    assert code == 0
    got = parse_document(out)
    assert got.dim == 0
    assert got.cells[0][1] == -1
    assert "degree -1" in err


def test_degree_and_equal(tmp_path, capsys):
    pt = write(tmp_path / "pt.cycle", make_cycle(2, 0, [(make_cell(2, [(1, 2)]), -5)]))
    code, out, _ = run(capsys, "degree", pt)
    assert code == 0 and json.loads(out)["degree"] == "-5"
    a = write(tmp_path / "a.cycle", build_lnk(2, 1))
    b = write(tmp_path / "b.cycle", build_lnk(2, 1))
    c = write(tmp_path / "c.cycle", rn_cycle(2))
    code, out, _ = run(capsys, "equal", a, b)
    assert code == 0 and json.loads(out)["equal"] is True
    code, out, _ = run(capsys, "equal", a, c, "--quiet")
    assert code == 1 and json.loads(out)["equal"] is False
    line = write(tmp_path / "line.cycle", build_lnk(2, 1))
    code, _, _ = run(capsys, "degree", line)
    assert code == 1  # not zero-dimensional


def test_pushforward_and_pullback(tmp_path, capsys):
    r1 = rn_cycle(1)
    p = projection_morphism((1, 1), 0)
    pmap = write(tmp_path / "p.map", p)
    e = make_cycle(1, 0, [(make_cell(1, [(3,)]), 2)])
    ecy = write(tmp_path / "e.cycle", e)
    from tropint.polyhedra import diagonal_cycle

    diag = write(tmp_path / "diag.cycle", diagonal_cycle(r1))
    code, out, _ = run(capsys, "pushforward", pmap, diag, "--quiet")
    assert code == 0
    assert cycles_equal(parse_document(out), r1)
    code, out, _ = run(
        capsys,
        "pullback",
        pmap,
        ecy,
        "--source",
        "product:rn:1;rn:1",
        "--target",
        "rn:1",
        "--quiet",
    )
    assert code == 0
    r1ctx = linear_space_context(1, 1)
    expect = pullback_cycle(p, e, product_context(r1ctx, r1ctx), r1ctx)
    assert cycles_equal(parse_document(out), expect)
    assert cycles_equal(parse_document(out), cross(e, r1))


def test_refine_keeps_cycle(tmp_path, capsys):
    c = write(tmp_path / "C.cycle", curve([(1, 1, 0), (-1, -1, 0)]))
    car = write(tmp_path / "l32.cycle", build_lnk(3, 2))
    code, out, _ = run(capsys, "refine", c, car, "--quiet")
    assert code == 0
    assert cycles_equal(parse_document(out), curve([(1, 1, 0), (-1, -1, 0)]))


def test_diagonal_form_verifies_over_complete_fan(capsys):
    code, out, err = run(capsys, "diagonal-form", "--n", "2", "--k", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["base"] == "complete" and doc["verified"] is True
    assert len(doc["terms"][0]["factors"]) == 3
    assert "(T1+B) * (T2+B) * (A+D)" in err
    rep = parse_document(out)
    rep.verify()
    # the fan check against the geometric identity on [R^n x R^n]
    from tropint.polyhedra import diagonal_cycle

    for n in (1, 2, 3):
        for k in range(n + 1):
            rep = diagonal_product_form(n, k)
            assert rep.verify()
            assert rep.complete
            got = rep.expression.apply(cross(rn_cycle(n), rn_cycle(n)))
            assert cycles_equal(got, diagonal_cycle(rep.space)), (n, k)


def test_ambient_shorthand():
    assert cli.ambient_context("lnk:2,1").ambient == build_lnk(2, 1)
    assert cycles_equal(cli.ambient_context("rn:2").ambient, rn_cycle(2))
    prod = cli.ambient_context("product:lnk:2,1;rn:1")
    assert cycles_equal(prod.ambient, cross(build_lnk(2, 1), rn_cycle(1)))
    nested = cli.ambient_context("product:(product:rn:1;rn:1);(lnk:2,1)")
    assert nested.ambient.ambient_dim == 4
    for bad in ["foo:1", "lnk:2", "product:rn:1", "product:rn:1;rn:1;rn:1"]:
        with pytest.raises(FormatError):
            cli.ambient_context(bad)


def test_product_ambients_are_verified_without_the_geometric_check(
    tmp_path, capsys, monkeypatch
):
    # product ambients are verified by their factors' fan checks; only
    # --verify runs the geometric check
    def boom(self):
        raise VerificationError("geometric check ran")

    clear_caches()
    monkeypatch.setattr(AmbientContext, "verify", boom)
    assert cli.ambient_context("product:lnk:2,1;lnk:2,1").verified
    assert cli.ambient_context("product:lnk:3,2;lnk:2,1").verified
    a = write(tmp_path / "a.cycle", build_lnk(2, 1))
    amb = "product:rn:1;rn:1"
    code, _, err = run(capsys, "intersect", a, a, "--ambient", amb, "--verify")
    assert code == 2 and "geometric check ran" in err


def test_validation_failures_exit_one(tmp_path, capsys):
    code, _, err = run(capsys, "degree", str(tmp_path / "missing.cycle"))
    assert code == 1 and "error:" in err
    bad = tmp_path / "bad.cycle"
    bad.write_text("{not json\n")
    code, _, err = run(capsys, "check-balanced", str(bad))
    assert code == 1 and "line 1" in err
    # a function document where a cycle is expected
    phi = write(
        tmp_path / "phi.fn", ray_function(build_lnk(2, 1), {(1, 1): 1})
    )
    code, _, err = run(capsys, "degree", phi)
    assert code == 1 and "expected a cycle" in err
    # a point of R^1 pulled back into the product of two L^2_1
    pmap = write(tmp_path / "p2.map", projection_morphism((2, 2), 1))
    e = write(tmp_path / "e.cycle", make_cycle(1, 0, [(make_cell(1, [(3,)]), 1)]))
    amb = "product:lnk:2,1;lnk:2,1"
    code, out, err = run(
        capsys, "pullback", pmap, e, "--source", amb, "--target", "lnk:2,1"
    )
    assert code == 1 and out == "" and "does not live in the target space" in err


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["lnk", "--n", "3"])
    assert info.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command"])
    assert info.value.code == 1
    capsys.readouterr()


def test_one_parser_serves_every_call_in_a_process(capsys):
    """A usage error, then two different commands, run in this process
    give the exit codes and stdout bytes of separate processes."""
    calls = [
        ["lnk", "--n", "3"],
        ["lnk", "--n", "3", "--k", "2", "--quiet"],
        ["diagonal-rewrite", "--n", "2", "--k", "1", "--quiet"],
    ]
    here = []
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exit:
            code = exit.code
        here.append((code, capsys.readouterr().out.encode("ascii")))
    assert cli._build_parser() is cli._build_parser()
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    apart = []
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "tropint.cli", *argv], capture_output=True, env=env
        )
        apart.append((proc.returncode, proc.stdout))
    assert here == apart
    assert [code for code, _ in here] == [1, 0, 0] and all(out for _, out in here[1:])


def test_internal_verification_failure_exits_two(tmp_path, capsys, monkeypatch):
    a = write(tmp_path / "a.cycle", build_lnk(2, 1))

    def boom(*args, **kwargs):
        raise VerificationError("intersection product lost a dimension")

    monkeypatch.setattr(cli, "intersect_cycles", boom)
    code, _, err = run(capsys, "intersect", a, a, "--ambient", "lnk:2,1")
    assert code == 2 and "verification failure" in err


def test_parenthesized_ambients_give_the_same_bytes(tmp_path, capsys):
    line = write(tmp_path / "line.cycle", build_lnk(3, 1))
    plane = write(tmp_path / "plane.cycle", cross(rn_cycle(1), build_lnk(2, 1)))
    point = make_cycle(1, 0, [(make_cell(1, [(2,)]), 1)])
    curve_ = write(tmp_path / "curve.cycle", cross(point, build_lnk(2, 1)))
    for a, b, ambients in [
        (line, line, ["lnk:3,2", "(lnk:3,2)", " ((lnk:3,2)) "]),
        (plane, curve_, ["product:rn:1;lnk:2,1", "product:(rn:1);(lnk:2,1)"]),
    ]:
        outs = set()
        for amb in ambients:
            code, out, _ = run(capsys, "intersect", a, b, "--ambient", amb, "--quiet")
            assert code == 0 and out
            outs.add(out)
        assert len(outs) == 1, ambients


def test_products_with_the_point_r0_give_the_same_bytes(tmp_path, capsys):
    plane = write(tmp_path / "plane.cycle", build_lnk(3, 2))
    clear_caches()
    outs = set()
    for amb in ("product:lnk:3,2;lnk:0,0", "product:lnk:0,0;lnk:3,2", "lnk:3,2"):
        code, out, _ = run(capsys, "intersect", plane, plane, "--ambient", amb, "--quiet")
        assert code == 0 and out, amb
        outs.add(out)
    assert len(outs) == 1


def test_bad_ambients_exit_one(tmp_path, capsys):
    line = write(tmp_path / "line.cycle", build_lnk(2, 1))
    for amb, message in [
        ("product:(rn:1;rn:1", "unbalanced parentheses"),
        ("product:rn:1);(rn:1", "unbalanced parentheses"),
        ("(rn:1);(rn:1)", "unknown ambient"),
        ("lnk:a,2", "expected 2 comma-separated integers"),
    ]:
        code, out, err = run(capsys, "intersect", line, line, "--ambient", amb)
        assert code == 1 and out == "" and message in err, amb


def test_diagonal_rewrite_verify_gives_the_same_bytes(capsys):
    argv = ("diagonal-rewrite", "--n", "3", "--k", "1", "--quiet")
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    code, verified, _ = run(capsys, *argv, "--verify")
    assert code == 0 and verified == plain


def test_pullback_of_a_point_off_the_target_exits_one(tmp_path, capsys):
    # (1, 2) lies in R^2 but not in L^2_1
    pmap = write(tmp_path / "p2.map", projection_morphism((2, 2), 1))
    pt = write(tmp_path / "pt.cycle", make_cycle(2, 0, [(make_cell(2, [(1, 2)]), 1)]))
    amb = "product:lnk:2,1;lnk:2,1"
    code, out, err = run(
        capsys, "pullback", pmap, pt, "--source", amb, "--target", "lnk:2,1"
    )
    assert code == 1 and out == "" and "support leaves the target space" in err


def test_pullback_along_a_map_that_leaves_the_target_exits_one(tmp_path, capsys):
    # p2 shifted by (5, 0) maps L^2_1 x L^2_1 onto L^2_1 + (5, 0)
    shifted = Morphism([(0, 0, 1, 0), (0, 0, 0, 1)], translation=(5, 0))
    pmap = write(tmp_path / "shifted.map", shifted)
    pt = write(tmp_path / "pt.cycle", make_cycle(2, 0, [(make_cell(2, [(0, 0)]), 1)]))
    amb = "product:lnk:2,1;lnk:2,1"
    code, out, err = run(
        capsys, "pullback", pmap, pt, "--source", amb, "--target", "lnk:2,1"
    )
    assert code == 1 and out == "" and "does not map source into target" in err
