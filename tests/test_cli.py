import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ldp_hull.cli import _csv_rows, _fmt_float, main


@pytest.fixture()
def specs(tmp_path):
    paths = {}
    table = {
        "gauss_iso.json": {"type": "gaussian", "mean": [0, 0], "cov": [[1, 0], [0, 1]], "eps": 0},
        "gauss_drift.json": {"type": "gaussian", "mean": [1, 0], "cov": [[1, 0], [0, 1]], "eps": 0},
        "pm1graph.json": {
            "type": "graph1d",
            "mu1": 1,
            "y": {"type": "atoms1d", "points": [1, -1], "probs": [0.5, 0.5]},
            "eps": 0,
        },
    }
    for name, spec in table.items():
        p = tmp_path / name
        p.write_text(json.dumps(spec))
        paths[name] = str(p)
    return paths


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(args):
    # the child needs the checkout's src/ on its path when the package is not installed
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_cli(args):
    return run_python(["-m", "ldp_hull.cli", *args])


def test_cli_never_loads_scipy(specs, tmp_path):
    # numpy is the only runtime dependency; a lazy scipy import would bring
    # back the start-up cost, so a Gaussian and an atom law solve without it
    triangle = tmp_path / "triangle.json"
    triangle.write_text(json.dumps(
        {"type": "atoms", "points": [[1, 1], [1, -1], [-1, 0]], "probs": [1 / 3, 1 / 3, 1 / 3], "eps": 0}
    ))
    code, out, err = run_python(["-c", f"""
import sys
from ldp_hull import cli
for spec in {[specs["gauss_drift.json"], str(triangle)]!r}:
    assert cli.main(["rate", "--dist", spec, "--area", "0.2"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""])
    assert code == 0, err
    assert out.strip().splitlines()[-1] == "[]"


def test_rate_isotropic(specs, tmp_path):
    out = tmp_path / "rate.json"
    code = main(["rate", "--dist", specs["gauss_iso.json"], "--area", "1", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["rate"] == pytest.approx(math.pi, rel=1e-4)
    assert payload["config"]["subcommand"] == "rate"
    assert len(payload["candidates"]) == 2


def test_rate_out_of_range_exit_code(specs, capsys):
    code = main(["rate", "--dist", specs["pm1graph.json"], "--area", "0.3"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "out_of_range"
    assert err["error"]["a_max"] == pytest.approx(0.25, abs=0)


@pytest.mark.parametrize("eps", ["-1", "nan"])
def test_rate_rejects_bad_eps(specs, capsys, eps):
    code = main(["rate", "--dist", specs["gauss_iso.json"], "--area", "1", f"--eps={eps}"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: regularization strength")


def test_regularized_graph_spec_solves(tmp_path):
    # ray roots of this law sit between adjacent floats
    spec = tmp_path / "pm1eps.json"
    spec.write_text(json.dumps({"type": "graph1d", "mu1": 1, "eps": 0.01,
                                "y": {"type": "atoms1d", "points": [1, -1], "probs": [0.5, 0.5]}}))
    out = tmp_path / "rate.json"
    assert main(["rate", "--dist", str(spec), "--area", "0.2", "--output", str(out)]) == 0
    assert 0.0 < json.loads(out.read_text())["rate"] < 0.2925669542678975  # the graph rate
    assert main(["levelset", "--dist", str(spec), "--alpha", "1",
                 "--output", str(tmp_path / "level.csv")]) == 0


def test_missing_dist_file_is_io_error(tmp_path, capsys):
    code = main(["rate", "--dist", str(tmp_path / "nope.json"), "--area", "1"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_convexify_square_roundtrip(tmp_path):
    square = "x,y\n0,0\n1,0\n1,1\n0,1\n0,0\n"
    src = tmp_path / "square.csv"
    src.write_text(square)
    out = tmp_path / "out.csv"
    code = main(["convexify", "--input", str(src), "--output", str(out)])
    assert code == 0
    rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
    pts = np.array([[float(a), float(b)] for a, b in rows])
    np.testing.assert_array_equal(pts, [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]])


def test_levelset_polygon_and_arc(specs, tmp_path):
    poly = tmp_path / "poly.csv"
    code = main(
        ["levelset", "--dist", specs["gauss_iso.json"], "--alpha", "0.5", "--samples", "64",
         "--output", str(poly)]
    )
    assert code == 0
    rows = poly.read_text().strip().splitlines()
    assert rows[0] == "x,y" and len(rows) == 66  # 64 samples + repeated first vertex
    arc = tmp_path / "arc.csv"
    code = main(
        ["levelset", "--dist", specs["gauss_iso.json"], "--alpha", "0.5", "--samples", "32",
         "--arc", "--ell", "1,0", "--tau", "+", "--output", str(arc)]
    )
    assert code == 0
    header, first = arc.read_text().splitlines()[:2]
    assert header == "t,gx,gy,dgx,dgy"
    vals = [float(x) for x in first.split(",")]
    assert vals[:3] == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)


def test_trajectory_writes_candidate_csv(specs, tmp_path):
    out = tmp_path / "traj.json"
    csvdir = tmp_path / "curves"
    code = main(
        ["trajectory", "--dist", specs["gauss_drift.json"], "--area", "0.5",
         "--csv-dir", str(csvdir), "--output", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["trajectory_csv"]) == len(payload["candidates"]) == 4
    lines = (csvdir / "candidate_00.csv").read_text().splitlines()
    assert lines[0] == "t,h1,h2,dh1,dh2,I"
    assert len(lines) == 1026


def test_oracle_subcommand(specs, tmp_path):
    out = tmp_path / "oracle.json"
    code = main(
        ["oracle", "--dist", specs["gauss_iso.json"], "--area", "0.5", "--segments", "24",
         "--csv", str(tmp_path / "curve.csv"), "--output", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["feasibility"] <= 1e-6
    assert payload["energy"] == pytest.approx(0.5 * math.pi, rel=0.05)
    assert (tmp_path / "curve.csv").exists()


@pytest.mark.parametrize("flag", ["--feas-tol", "--stat-tol"])
@pytest.mark.parametrize("value", ["0", "-1e-6", "nan", "inf"])
def test_oracle_rejects_unreachable_tolerances(specs, capsys, flag, value):
    # a tolerance that can never be met is refused before any descent runs
    code = main(["oracle", "--dist", specs["gauss_iso.json"], "--area", "0.5",
                 "--segments", "16", f"{flag}={value}"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag[2:].replace("-", "_") in err


@pytest.mark.parametrize("mode", ["naive", "tilted"])
@pytest.mark.parametrize("steps", ["0", "-3"])
def test_simulate_without_steps_is_one_line_error(specs, capsys, mode, steps):
    code = main(["simulate", "--dist", specs["gauss_iso.json"], "--area", "0.1",
                 f"--steps={steps}", "--samples", "100", "--mode", mode])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "step" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("sub", ["rate", "trajectory", "oracle", "simulate-naive", "simulate-tilted"])
@pytest.mark.parametrize("area", ["0", "-1", "nan", "inf"])
def test_non_positive_or_non_finite_area_is_one_line_error(specs, capsys, tmp_path, sub, area):
    # every entry point refuses the area before any solve or walk runs
    args = {
        "rate": ["rate"],
        "trajectory": ["trajectory", "--csv-dir", str(tmp_path / "csv")],
        "oracle": ["oracle", "--segments", "16"],
        "simulate-naive": ["simulate", "--steps", "8", "--samples", "100", "--mode", "naive"],
        "simulate-tilted": ["simulate", "--steps", "8", "--samples", "100", "--mode", "tilted"],
    }[sub]
    assert main(args + ["--dist", specs["gauss_iso.json"], f"--area={area}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "area" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "args, flag",
    [(["--area", "abc"], "--area"), ([], "--area")],
    ids=["non-numeric-area", "missing-area"],
)
def test_argument_errors_are_one_line_exit_1(specs, capsys, args, flag):
    # parser errors take the documented exit 1, with no usage block
    assert main(["rate", "--dist", specs["gauss_iso.json"], *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err and len(err.splitlines()) == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rate", "--help"])
    assert exc.value.code == 0
    assert "--area" in capsys.readouterr().out


def test_simulate_byte_identical_across_runs_and_threads(specs):
    args = ["simulate", "--dist", specs["gauss_iso.json"], "--area", "0.1", "--steps", "10",
            "--samples", "2000", "--mode", "naive", "--seed", "4"]
    code1, out1, _ = run_cli(args + ["--threads", "1"])
    code2, out2, _ = run_cli(args + ["--threads", "1"])
    code3, out3, _ = run_cli(args + ["--threads", "3"])
    assert code1 == code2 == code3 == 0

    def strip_threads(s):
        return s.replace('"threads": 1', '"threads": T').replace('"threads": 3', '"threads": T')

    assert out1 == out2
    assert strip_threads(out1) == strip_threads(out3)
    payload = json.loads(out1)
    assert payload["rate_estimate"] is not None


@pytest.mark.parametrize("flag", ["0", "-2"])
def test_non_positive_threads_rejected(specs, capsys, flag):
    args = ["simulate", "--dist", specs["gauss_iso.json"], "--area", "0.1", "--steps", "8",
            "--samples", "500", "--seed", "1", "--threads", flag]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --threads must be positive")
    # the same rule holds for every subcommand
    assert main(["rate", "--dist", specs["gauss_iso.json"], "--area", "1", "--threads", flag]) == 1


def test_non_finite_law_parameter_is_an_input_error(tmp_path, capsys):
    # json reads NaN; the law is rejected before any solve, not reported as no_convergence
    spec = tmp_path / "nan_mean.json"
    spec.write_text('{"type": "gaussian", "mean": [NaN, 0], "cov": [[1, 0], [0, 1]], "eps": 0}')
    assert main(["rate", "--dist", str(spec), "--area", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: gaussian parameters must be finite") and len(err.splitlines()) == 1



@pytest.mark.parametrize(
    "spec",
    [
        {"type": "gaussian", "mean": [0, 0], "cov": [[1, 0], [0, 1]], "eps": None},
        {"type": "graph1d", "mu1": None, "y": {"type": "gaussian1d", "mean": 0, "var": 1}},
        {"type": "graph1d", "mu1": 1, "y": 5},
    ],
    ids=["null-eps", "null-mu1", "number-y"],
)
def test_wrong_typed_spec_field_is_one_line_error(tmp_path, capsys, spec):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert main(["rate", "--dist", str(path), "--area", "0.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and spec["type"] in err and len(err.splitlines()) == 1


EYE = [[1, 0], [0, 1]]


@pytest.mark.parametrize(
    "spec, named",
    [
        ({"type": "gaussian", "mean": [0, 0]}, "'cov'"),
        ({"type": "graph1d", "mu1": 1, "y": {"var": 1}}, "'y.type'"),
        ({"type": "graph1d", "mu1": True, "y": {"type": "gaussian1d", "var": 1}}, "boolean"),
        ({"type": "gaussian", "mean": [0, 0], "cov": EYE, "eps": True}, "boolean"),
        ({"type": "gaussian", "mean": [True, 0], "cov": EYE}, "boolean"),
    ],
    ids=["missing-cov", "missing-y-type", "true-mu1", "true-eps", "true-in-mean"],
)
def test_missing_or_boolean_spec_field_is_one_line_error(tmp_path, capsys, spec, named):
    # a missing field is named with the spec type; a JSON boolean is no number
    # (json.dumps writes True as true, which float() would read as 1)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert main(["rate", "--dist", str(path), "--area", "0.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec['type']!r} distribution spec") and named in err
    assert len(err.splitlines()) == 1

def test_json_floats_round_trip(specs, tmp_path):
    out = tmp_path / "rate.json"
    main(["rate", "--dist", specs["gauss_iso.json"], "--area", "0.7", "--output", str(out)])
    payload = json.loads(out.read_text())
    text = out.read_text()
    # 17 significant digits: re-parsing and re-formatting is the identity
    assert format(payload["rate"], ".17g") in text


def test_csv_rows_match_the_per_value_formatter():
    # the one-template writer gives the bytes of _fmt_float value by value,
    # at extreme exponents, signed zeros, subnormals and on non-finite rows
    rng = np.random.default_rng(3)
    block = rng.normal(size=(64, 3)) * 10.0 ** rng.integers(-300, 301, size=(64, 3))
    edge = [[-0.0, 0.0, 5e-324], [-2.2250738585072014e-308, 1e300, -1e-300],
            [math.nan, 1.0, -0.0], [math.inf, -math.inf, 1e-310], [0.1, 1.0 / 3.0, -7.0]]
    for rows in (block, np.vstack([block, edge]), np.array(edge), np.zeros((0, 2))):
        ref = "".join(",".join(_fmt_float(float(v)) for v in row) + "\n" for row in rows)
        assert _csv_rows(rows) == ref
