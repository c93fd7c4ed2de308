"""Command line driver: exit codes, output determinism, file formats.

Everything runs in-process through main(argv) so capsys sees the
output; one case goes through a real subprocess to pin down that the
installed entry point emits byte-identical text.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bowlab import cli
from bowlab.cli import build_parser, main
from bowlab.diagrams import diagram_from_json_dict, parse_bow_diagram, serialize
from bowlab.total_space import moment_residual, point_from_json_dict

CANONICAL = "bow {\n  wavy s [1, 1, 1];\n}\n"
EMPTY_252 = "bow { wavy a [2]; wavy b [5, 2]; edge a -> b; }"
DEMO_DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


@pytest.fixture
def diagram_file(tmp_path):
    path = tmp_path / "chain.bow"
    path.write_text(CANONICAL, encoding="utf-8")
    return str(path)


@pytest.fixture
def empty_file(tmp_path):
    path = tmp_path / "empty.bow"
    path.write_text(EMPTY_252, encoding="utf-8")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# --- parse ---------------------------------------------------------------------


def test_parse_prints_canonical_dsl(capsys, tmp_path):
    scruffy = tmp_path / "scruffy.bow"
    scruffy.write_text("bow{wavy s[1,1,1];}", encoding="utf-8")
    code, out, _ = run_cli(capsys, ["parse", str(scruffy), "--dsl"])
    assert code == 0
    assert out == CANONICAL


def test_parse_json_round_trips(capsys, diagram_file):
    code, out, _ = run_cli(capsys, ["parse", diagram_file])
    assert code == 0
    d = diagram_from_json_dict(json.loads(out))
    assert serialize(d) == CANONICAL


def test_parse_rejects_bad_syntax(capsys, tmp_path):
    bad = tmp_path / "bad.bow"
    bad.write_text("bow { wavy s [1, 1] }", encoding="utf-8")
    code, _, err = run_cli(capsys, ["parse", str(bad)])
    assert code == 1
    assert "error:" in err


def test_missing_file_is_an_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["parse", str(tmp_path / "absent.bow")])
    assert code == 1
    assert "error:" in err


# --- solve ----------------------------------------------------------------------


def test_solve_outputs_are_byte_identical(capsys, diagram_file):
    argv = ["solve", diagram_file, "--lambda", "0.9", "--seed", "3", "--starts", "8"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2

    proc = subprocess.run([sys.executable, "-m", "bowlab.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == out1


def test_solve_report_contents(capsys, diagram_file):
    code, out, _ = run_cli(capsys, ["solve", diagram_file, "--lambda", "1.0+0.5j",
                                    "--seed", "1", "--starts", "8"])
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "solved"
    assert data["open_conditions_ok"] is True
    assert data["seed"] == 1
    assert data["residual_norm"] < 1e-10
    d = parse_bow_diagram(CANONICAL)
    p = point_from_json_dict(d, data["point"])
    from bowlab.diagrams import embed_deformation

    nu = embed_deformation(d, {"s": 1.0 + 0.5j})
    assert np.linalg.norm(moment_residual(d, p, nu)) < 1e-9


def test_solve_failure_exits_one(capsys, empty_file):
    code, out, _ = run_cli(capsys, ["solve", empty_file, "--starts", "3"])
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "no-open-solution"
    assert data["note"] == "evidence, not proof"
    assert data["n_starts"] == 3 and len(data["starts"]) == 3


def test_solve_table_format(capsys, diagram_file):
    code, out, _ = run_cli(capsys, ["solve", diagram_file, "--lambda", "0.7",
                                    "--starts", "8", "--format", "table"])
    assert code == 0
    assert out.startswith("solved: residual ")


def test_solve_table_format_without_a_solution(capsys, empty_file):
    code, out, _ = run_cli(capsys, ["solve", empty_file, "--starts", "3", "--format", "table"])
    assert code == 1
    assert re.fullmatch(r"no open solution in 3 starts \(best residual \d\.\d{3}e[+-]\d\d; "
                        r"evidence, not proof\)\n", out), out


def test_lambda_count_mismatch_is_usage_error(capsys, diagram_file):
    for command in ("solve", "check-empty"):
        with pytest.raises(SystemExit) as exc:
            main([command, diagram_file, "--lambda", "1.0,2.0"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", (
    ["check-empty", "--lambda", "1,2,3"],
    ["solve", "--starts", "0"],
))
def test_usage_errors_print_the_subcommand_usage(capsys, diagram_file, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], diagram_file, *argv[1:]])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: bowlab {argv[0]} ")


@pytest.mark.parametrize("argv", (
    ["solve", "--starts", "0"],
    ["solve", "--starts", "-2", "--format", "table"],
    ["check-empty", "--starts", "-1"],
))
def test_bad_start_count_is_usage_error(capsys, diagram_file, argv):
    # solve needs a start to report on; check-empty takes 0 as "no solver"
    with pytest.raises(SystemExit) as exc:
        main([argv[0], diagram_file, *argv[1:]])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--starts must be at least" in out.err


@pytest.mark.parametrize("argv", (
    ["solve", "--lambda", "nan"],
    ["solve", "--lambda", "inf"],
    ["solve", "--lambda", "1e400"],
    ["check-empty", "--starts", "1", "--lambda", "nan"],
    ["check-empty", "--lambda", "nan"],
))
def test_non_finite_lambda_is_usage_error(capsys, diagram_file, argv):
    # a non-finite deformation has no fiber to search, and its evidence
    # would print a residual that is not valid JSON
    with pytest.raises(SystemExit) as exc:
        main([argv[0], diagram_file, *argv[1:]])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--lambda" in out.err and "not finite" in out.err


@pytest.mark.parametrize("argv", (
    ["solve", "--seed", "-1"],
    ["solve", "--seed", "-3", "--starts", "2"],
    ["check-empty", "--seed", "-1"],
    ["check-empty", "--seed", "-1", "--starts", "2"],
))
def test_negative_seed_is_usage_error(capsys, diagram_file, argv):
    # numpy refuses to seed from a negative number, and check-empty
    # without starts would accept one it never uses
    with pytest.raises(SystemExit) as exc:
        main([argv[0], diagram_file, *argv[1:]])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--seed must be non-negative" in out.err


@pytest.mark.parametrize("text, lam, what", (
    # the quiver route's framing moment -2e308 overflows before any start
    ("bow { wavy a [2, 2]; }", "1e308", "lam is too large"),
    # [C, D] is traceless, so every residual is at least sqrt(2) |lam|
    ("bow { wavy a [2]; edge a -> a; }", "1.5e308", "not JSON compliant"),
))
@pytest.mark.parametrize("command", ("solve", "check-empty"))
def test_an_overflow_is_a_domain_error_not_a_nan_or_infinity(capsys, tmp_path, text, lam,
                                                             what, command):
    path = tmp_path / "huge.bow"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, [command, str(path), "--lambda", lam, "--starts", "2"])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and what in err


def test_seed_defaults_to_zero(capsys, diagram_file):
    for seed, expected in (([], 0), (["--seed", "3"], 3)):
        code, out, _ = run_cli(capsys, ["solve", diagram_file, "--lambda", "0.4",
                                        "--starts", "8", *seed])
        assert code == 0
        assert json.loads(out)["seed"] == expected


# --- stability / dim / reduce pipeline ----------------------------------------------


def _solved_point_file(capsys, tmp_path, diagram_file, lam="0.8"):
    _, out, _ = run_cli(capsys, ["solve", diagram_file, "--lambda", lam,
                                 "--seed", "0", "--starts", "8"])
    path = tmp_path / "point.json"
    path.write_text(out, encoding="utf-8")
    return str(path)


def test_stability_accepts_solve_report(capsys, tmp_path, diagram_file):
    point = _solved_point_file(capsys, tmp_path, diagram_file)
    code, out, _ = run_cli(capsys, ["stability", diagram_file, point,
                                    "--theta", "1", "--mode", "exact01"])
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "semistable"
    assert data["clause"] is None and data["witness"] is None

    code, out, _ = run_cli(capsys, ["stability", diagram_file, point,
                                    "--theta", "1", "--mode", "exact01",
                                    "--format", "table"])
    assert code == 0
    assert "semistable check (exact01): semistable" in out


def test_zero_denominator_theta_is_usage_error(capsys, tmp_path, diagram_file):
    point = _solved_point_file(capsys, tmp_path, diagram_file)
    with pytest.raises(SystemExit) as exc:
        main(["stability", diagram_file, point, "--theta", "1/0"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--theta" in out.err


def test_stability_reports_witness(capsys, tmp_path):
    # unframed identity-A chain: the full space destabilizes at theta > 0
    d_path = tmp_path / "chain.bow"
    d_path.write_text(CANONICAL, encoding="utf-8")
    point = {
        "triangles": {"s": [
            {"v1": 1, "v2": 1,
             "A": [[[1.0, 0.0]]], "B1": [[[0.0, 0.0]]], "B2": [[[0.0, 0.0]]],
             "a": [[[0.0, 0.0]]], "b": [[[0.0, 0.0]]]}
            for _ in range(2)]},
        "edges": [],
    }
    p_path = tmp_path / "flat.json"
    p_path.write_text(json.dumps(point), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["stability", str(d_path), str(p_path),
                                    "--theta", "1", "--mode", "exact01"])
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "unstable" and data["clause"] == "kernel"
    assert set(data["witness"]) == {"s:0", "s:1", "s:2"}
    assert all(w["dim"] == 1 for w in data["witness"].values())


def test_exact01_above_dimension_one_names_the_first_segment(capsys, tmp_path):
    diagram = tmp_path / "a22.bow"
    diagram.write_text("bow { wavy a [2, 2]; }", encoding="utf-8")
    point = _solved_point_file(capsys, tmp_path, str(diagram), lam="0")
    code, out, err = run_cli(capsys, ["stability", str(diagram), point,
                                      "--theta", "1", "--mode", "exact01"])
    assert code == 1 and out == ""
    assert err == "error: exact01 requires every dimension <= 1; segment a:0 has dimension 2\n"


def test_reduce_on_a_diagram_that_is_not_cobalanced_names_the_condition(capsys, tmp_path):
    diagram = tmp_path / "a21.bow"
    diagram.write_text("bow { wavy a [2, 1]; }", encoding="utf-8")
    point = _solved_point_file(capsys, tmp_path, str(diagram), lam="0")
    code, out, err = run_cli(capsys, ["reduce", str(diagram), point])
    assert code == 1 and out == ""
    assert err == "error: diagram is not cobalanced: an x-point has unequal adjacent dims\n"
    assert "gauge_fix_H" not in err


def test_dim_prints_number(capsys, diagram_file, empty_file):
    code, out, _ = run_cli(capsys, ["dim", diagram_file])
    assert code == 0 and out == "2\n"
    code, out, _ = run_cli(capsys, ["dim", empty_file])
    assert code == 0 and out == "-10\n"


def test_reduce_pipeline(capsys, tmp_path, diagram_file):
    point = _solved_point_file(capsys, tmp_path, diagram_file, lam="1.1")
    code, out, _ = run_cli(capsys, ["reduce", diagram_file, point])
    assert code == 0
    data = json.loads(out)
    assert data["v"] == {"s": 1}
    assert data["w"] == {"s": 2}
    # framed moment of the image: IJ = lambda at the single vertex
    I = np.array([[complex(re, im) for re, im in row] for row in data["I"]["s"]])
    J = np.array([[complex(re, im) for re, im in row] for row in data["J"]["s"]])
    assert abs((I @ J)[0, 0] - 1.1) < 1e-9


def test_reduce_table_format(capsys, tmp_path, diagram_file):
    point = _solved_point_file(capsys, tmp_path, diagram_file, lam="1.1")
    code, out, _ = run_cli(capsys, ["reduce", diagram_file, point,
                                    "--format", "table"])
    assert code == 0
    assert out.startswith("vertex s: v=1, w=2, |I|=")
    assert "arrow" not in out  # no edges on the chain


def test_reduce_table_format_lists_the_arrows(capsys, tmp_path):
    diagram = tmp_path / "cycle.bow"
    diagram.write_text("bow { wavy a [2, 2]; wavy b [2, 2]; edge a -> b; edge b -> a; }",
                       encoding="utf-8")
    point = _solved_point_file(capsys, tmp_path, str(diagram), lam="0.5,-0.5")
    code, out, _ = run_cli(capsys, ["reduce", str(diagram), point, "--format", "table"])
    assert code == 0
    number = r"\d\.\d{3}e[+-]\d\d"
    lines = out.splitlines()
    assert [line[:len("vertex a: v=2, w=1,")] for line in lines[:2]] == [
        "vertex a: v=2, w=1,", "vertex b: v=2, w=1,"]
    assert re.fullmatch(f"arrow a -> b: \\|x\\|={number}, \\|y\\|={number}", lines[2]), lines
    assert re.fullmatch(f"arrow b -> a: \\|x\\|={number}, \\|y\\|={number}", lines[3]), lines
    assert len(lines) == 4


def test_reduce_rejects_off_level_points(capsys, tmp_path, diagram_file, empty_file):
    point = _solved_point_file(capsys, tmp_path, diagram_file)
    code, _, err = run_cli(capsys, ["reduce", empty_file, point])
    assert code == 1
    assert "error:" in err


def _demo_point_file(tmp_path, edit):
    """The demo S222 point with edit applied to its triangle 0, written out."""
    data = json.loads((DEMO_DATA / "s222_point.json").read_text(encoding="utf-8"))
    edit(data["point"]["triangles"]["s"][0])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", (["stability", "--theta", "1"], ["reduce"]))
def test_point_file_errors_name_the_file(capsys, tmp_path, command):
    point = _demo_point_file(tmp_path, lambda t: t.update(v1=3))
    code, _, err = run_cli(capsys, [command[0], str(DEMO_DATA / "s222.bow"), point,
                                    *command[1:]])
    assert code == 1
    assert point in err
    assert "triangle 0 of interval 's' has (v1, v2) = (3, 2)" in err


@pytest.mark.parametrize("bad, spelling", ((float("nan"), "NaN"), (float("inf"), "Infinity")))
def test_non_finite_point_file_entry_names_its_block(capsys, tmp_path, bad, spelling):
    def edit(t):
        t["A"][1][0] = [bad, 0.0]
    point = _demo_point_file(tmp_path, edit)
    assert spelling in Path(point).read_text(encoding="utf-8")   # what json writes and reads
    code, _, err = run_cli(capsys, ["stability", str(DEMO_DATA / "s222.bow"), point,
                                    "--theta", "1"])
    assert code == 1
    assert point in err
    assert "A of triangle 0 of interval 's': matrix has non-finite entries" in err


# --- check-empty -----------------------------------------------------------------


def test_check_empty_with_evidence(capsys, empty_file):
    code, out, _ = run_cli(capsys, ["check-empty", empty_file, "--starts", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["necessary_condition"] == "pass"
    assert data["violations"] == []
    ev = data["solver_evidence"]
    assert ev["found_solution"] is False
    assert ev["failed_starts"] == 3
    assert ev["note"] == "evidence, not proof"

    code, out, _ = run_cli(capsys, ["check-empty", empty_file, "--starts", "3",
                                    "--format", "table"])
    assert code == 0
    assert out == "necessary condition: pass; solver evidence: 3/3 starts failed\n"


def test_check_empty_reports_violations(capsys, tmp_path):
    path = tmp_path / "lop.bow"
    path.write_text("bow { wavy a [5, 1]; }", encoding="utf-8")
    code, out, _ = run_cli(capsys, ["check-empty", str(path)])
    assert code == 0
    data = json.loads(out)
    assert data["necessary_condition"] == "fail"
    assert len(data["violations"]) == 1
    v = data["violations"][0]
    assert v["interval"] == "a" and v["v0"] == 5 and v["v0"] > v["bound"]
    assert data["solver_evidence"] is None


def test_check_empty_finds_solutions_when_feasible(capsys, diagram_file):
    code, out, _ = run_cli(capsys, ["check-empty", diagram_file, "--starts", "3",
                                    "--lambda", "0.6"])
    assert code == 0
    assert json.loads(out)["solver_evidence"]["found_solution"] is True


def test_check_empty_table_format_with_a_solution(capsys, diagram_file):
    code, out, _ = run_cli(capsys, ["check-empty", diagram_file, "--starts", "3",
                                    "--lambda", "0.6", "--format", "table"])
    assert code == 0
    assert out == "necessary condition: pass; solver evidence: found a solution\n"

# --- the command list -------------------------------------------------------------


def test_readme_lists_the_subcommands():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    listed = [line.split()[1] for line in block.splitlines() if line.startswith("bowlab ")]
    choices = re.search(r"\{([^}]*)\}", build_parser().format_usage()).group(1)
    assert listed == choices.split(",")
    with pytest.raises(SystemExit) as exc:
        main(["selftest"])
    assert exc.value.code == 2


# --- the JSON writer ------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
README_DIAGRAM = "bow { wavy a [1, 1]; wavy b [1, 1]; edge a -> b; edge b -> a; }"


def _cli_workload_argvs(tmp_path, monkeypatch):
    """The cli benchmark workload's argvs, its inputs written under tmp_path."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # write nothing under benchmark/
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    import workloads
    monkeypatch.setattr(workloads, "WORK_DIR", tmp_path)
    return workloads.Cli(1, smoke=False).argvs


def _readme_argvs(capsys, tmp_path):
    """The README's commands on a two-interval diagram, and the CI's
    witness and no-solution cases."""
    diagram, loop, flat = tmp_path / "readme.bow", tmp_path / "loop.bow", tmp_path / "flat.bow"
    diagram.write_text(README_DIAGRAM, encoding="utf-8")
    loop.write_text("bow { wavy a [2]; edge a -> a; }", encoding="utf-8")
    flat.write_text("bow { wavy a [2, 2]; }", encoding="utf-8")
    point = _solved_point_file(capsys, tmp_path, str(diagram), lam="0.5,-0.5")
    loop_point = tmp_path / "loop_point.json"
    code, out, _ = run_cli(capsys, ["solve", str(loop), "--lambda", "0", "--seed", "0"])
    assert code == 0
    loop_point.write_text(out, encoding="utf-8")
    return [["parse", str(diagram)],
            ["solve", str(diagram), "--lambda", "0.5,-0.5", "--seed", "3", "--starts", "20"],
            ["stability", str(diagram), point, "--theta", "1,-1", "--mode", "exact01"],
            ["reduce", str(diagram), point],
            ["check-empty", str(diagram)],
            ["check-empty", str(diagram), "--starts", "2"],
            ["stability", str(loop), str(loop_point), "--theta", "1"],
            ["stability", str(loop), str(loop_point), "--theta", "-1"],
            ["solve", str(flat), "--lambda", "1", "--starts", "2", "--seed", "0"]]


def test_dump_writes_what_json_dumps_writes_for_every_printed_payload(capsys, tmp_path,
                                                                       monkeypatch):
    argvs = _cli_workload_argvs(tmp_path, monkeypatch) + _readme_argvs(capsys, tmp_path)
    dump, payloads = cli._dump, []

    def recording(data):
        payloads.append(data)
        return dump(data)

    monkeypatch.setattr(cli, "_dump", recording)
    for argv in argvs:
        assert main(argv) in (0, 1), argv
    capsys.readouterr()
    assert len(payloads) == sum(a[0] != "dim" and "--dsl" not in a for a in argvs) == 24
    for data in payloads:
        assert dump(data) == json.dumps(data, indent=2, allow_nan=False)


@pytest.mark.parametrize("data", (
    -0.0, 5e-324, 1.7976931348623157e308, 1e16, 0.1, 0, -7, 10 ** 30, True, False, None,
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], [[]], {}], (1.5, -0.0), ((), (2, [3.0])),
    [0.1, -0.0, 5e-324], [[0.5, -1e-300], [2.0, 3]], [1.5, "x", None, True],
    {"k": [1.0, 2.0], "m": {"n": [[-0.0, 1e16]], "o": "p"}, "q": (None, False)},
    "plain", "quote \" and backslash \\", "é and  ", "tab\tnew\nline\x00\x1f\x7f",
    {"é \"k\"\n": 1}, np.float64(0.1), [np.float64(-0.0), 1.5], [1.5, np.float64(2.5)]))
def test_dump_is_json_dumps_with_indent_two(data):
    assert cli._dump(data) == json.dumps(data, indent=2, allow_nan=False)


@pytest.mark.parametrize("bad", (float("nan"), float("inf"), float("-inf"), np.float64("nan")))
@pytest.mark.parametrize("where", (
    lambda x: x, lambda x: [x], lambda x: [1.0, x], lambda x: [x, 1.0], lambda x: [1, x],
    lambda x: {"a": x}, lambda x: {"a": [[0.5, 0.25], [0.0, x]]}, lambda x: (2.0, x),
    lambda x: [{"b": [None, x]}]))
def test_dump_refuses_a_non_finite_float_with_jsons_message(bad, where):
    with pytest.raises(ValueError) as expected:
        json.dumps(where(bad), indent=2, allow_nan=False)
    with pytest.raises(ValueError) as got:
        cli._dump(where(bad))
    assert str(got.value) == str(expected.value)


# --- point files beyond float range, and the reduction without the lift --------------


@pytest.mark.parametrize("command", (["stability", "--theta", "1"], ["reduce"]))
def test_a_point_file_integer_beyond_float_range_is_an_error_line(capsys, tmp_path,
                                                                   diagram_file, command):
    point = Path(_solved_point_file(capsys, tmp_path, diagram_file, lam="0.3"))
    data = json.loads(point.read_text(encoding="utf-8"))
    data["point"]["triangles"]["s"][0]["A"][0][0] = [10 ** 400, 0.0]
    point.write_text(json.dumps(data), encoding="utf-8")
    assert "1" + "0" * 400 + "," in point.read_text(encoding="utf-8")
    code, out, err = run_cli(capsys, [command[0], diagram_file, str(point), *command[1:]])
    assert (code, out) == (1, "")
    assert err.startswith("error: point file ")
    assert err.endswith("A of triangle 0 of interval 's': row 0, entry 0: "
                        "int too large to convert to float\n")


def test_reduce_prints_the_quiver_point_where_the_lift_would_overflow(capsys, tmp_path):
    # off condition (a): every A = id and B = 0, each a b = 1e308, so the
    # quiver point is finite and the lift's B at s:0 would be 2e308
    diagram = tmp_path / "s111.bow"
    diagram.write_text(CANONICAL, encoding="utf-8")
    big = [[[1e154, 0.0]]]
    triangle = {"v1": 1, "v2": 1, "A": [[[1.0, 0.0]]], "B1": [[[0.0, 0.0]]],
                "B2": [[[0.0, 0.0]]], "a": big, "b": big}
    point = tmp_path / "big.json"
    point.write_text(json.dumps({"triangles": {"s": [triangle, triangle]}, "edges": []}),
                     encoding="utf-8")
    code, out, err = run_cli(capsys, ["reduce", str(diagram), str(point)])
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["I"] == {"s": [[[1e154, 0.0], [1e154, 0.0]]]}
    assert data["J"] == {"s": [[[1e154, 0.0]], [[1e154, 0.0]]]}
