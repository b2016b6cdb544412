"""Command-line front end.

Subcommands: ``rate``, ``trajectory``, ``levelset``, ``convexify``,
``oracle``, ``simulate``.  JSON goes to stdout (or ``--output``); CSV
artifacts go to the paths given by flags.  Floats are written with 17
significant digits, so outputs are byte-identical across runs and thread
counts for the same configuration and seed, and round-trip exactly.

Exit codes: 0 on success; 2 on domain errors (a machine-readable JSON object
on stderr); 1 on argument, I/O or parse failures (one ``error:`` line).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import increments as inc
from . import legendre, levelset, montecarlo, oracle, polyline, solver
from .errors import DomainError

__all__ = ["main"]


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _to_json(obj, out: list) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _to_json(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _to_json(v, out)
        out.append("]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, np.ndarray):
        _to_json(obj.tolist(), out)
    else:
        out.append(json.dumps(obj))


def dumps(obj) -> str:
    parts: list = []
    _to_json(obj, parts)
    return "".join(parts)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _csv_rows(rows) -> str:
    """Rows of a 2-D float array as CSV lines, each value as :func:`_fmt_float`
    writes it: one ``%.17g`` template over a finite block (``%`` and ``format``
    give the same digits), :func:`_fmt_float` value by value otherwise."""
    rows = np.asarray(rows, dtype=float)
    if not np.isfinite(rows).all():
        return "".join(",".join(map(_fmt_float, row)) + "\n" for row in rows.tolist())
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return (line * len(rows)) % tuple(rows.ravel().tolist())


def _load_model(path: str) -> inc.IncrementModel:
    with open(path) as fh:
        return inc.from_spec(json.load(fh))


def _tau_arg(s: str) -> int:
    if s in ("+", "+1", "1"):
        return +1
    if s in ("-", "-1"):
        return -1
    raise argparse.ArgumentTypeError("tau must be '+' or '-'")


def _orientation_arg(s: str) -> str:
    table = {"cw": "clockwise", "ccw": "counterclockwise"}
    if s in table:
        return table[s]
    if s in table.values():
        return s
    raise argparse.ArgumentTypeError("orientation must be cw or ccw")


def _candidate_dict(c: solver.Candidate) -> dict:
    return {
        "alpha": c.alpha,
        "ell": None if c.ell is None else list(c.ell),
        "tau": c.tau,
        "energy": c.energy,
        "multiplier": c.multiplier,
        "endpoint": list(c.trajectory.endpoint),
    }


def _rate_payload(args, res: solver.RateResult, config: dict) -> dict:
    return {
        "config": config,
        "area": res.area,
        "rate": res.rate,
        "eps_applied": res.eps_applied,
        "candidates": [_candidate_dict(c) for c in res.candidates],
    }


def _resolved_config(args, keys) -> dict:
    cfg = {k: getattr(args, k) for k in keys}
    cfg["subcommand"] = args.subcommand
    return cfg


def _cmd_rate(args) -> int:
    model = _load_model(args.dist)
    res = solver.rate_of_area(
        model, args.area, eps=args.eps, directions=args.directions, samples=args.samples
    )
    cfg = _resolved_config(args, ["dist", "area", "eps", "directions", "samples", "threads"])
    _write_text(args.output, dumps(_rate_payload(args, res, cfg)) + "\n")
    return 0


def _trajectory_csv(res, c: solver.Candidate) -> str:
    traj = c.trajectory
    vals = legendre._dual_rates(traj.duals, traj.derivs, inc.cumulant(res.model, traj.duals))
    rows = np.column_stack([traj.times, traj.points, traj.derivs, vals])
    return _csv_rows(rows)


def _cmd_trajectory(args) -> int:
    model = _load_model(args.dist)
    res = solver.rate_of_area(
        model, args.area, eps=args.eps, directions=args.directions, samples=args.samples
    )
    cfg = _resolved_config(
        args, ["dist", "area", "eps", "directions", "samples", "csv_dir", "threads"]
    )
    payload = _rate_payload(args, res, cfg)
    os.makedirs(args.csv_dir, exist_ok=True)
    paths = []
    for i, c in enumerate(res.candidates):
        path = os.path.join(args.csv_dir, f"candidate_{i:02d}.csv")
        with open(path, "w") as fh:
            fh.write("t,h1,h2,dh1,dh2,I\n")
            fh.write(_trajectory_csv(res, c))
        paths.append(path)
    payload["trajectory_csv"] = paths
    _write_text(args.output, dumps(payload) + "\n")
    return 0


def _cmd_levelset(args) -> int:
    model = _load_model(args.dist)
    if args.arc:
        if args.ell is None:
            raise ValueError("--arc needs --ell X,Y")
        arc = levelset.arc_parametrization(
            model, args.alpha, args.ell, args.tau, n=args.samples
        )
        rows = np.column_stack([arc.times, arc.samples, arc.derivs])
        _write_text(args.output, "t,gx,gy,dgx,dgy\n" + _csv_rows(rows))
    else:
        poly = levelset.trace_level(model, args.alpha, m=args.samples)
        _write_text(args.output, "x,y\n" + _csv_rows(poly.vertices))
    return 0


def _read_polyline_csv(path: str | None) -> polyline.PolygonalLine:
    fh = sys.stdin if path is None or path == "-" else open(path)
    try:
        rows = []
        for line in fh:
            line = line.strip()
            if not line or line.lower().startswith("x"):
                continue
            a, b = line.split(",")
            rows.append((float(a), float(b)))
    finally:
        if fh is not sys.stdin:
            fh.close()
    return polyline.PolygonalLine(np.asarray(rows))


def _cmd_convexify(args) -> int:
    line = _read_polyline_csv(args.input)
    out = polyline.convexify(line, args.orientation)
    _write_text(args.output, "x,y\n" + _csv_rows(out.vertices))
    return 0


def _cmd_oracle(args) -> int:
    model = _load_model(args.dist)
    curve = oracle.minimize_discrete(
        model, args.area, args.segments, feas_tol=args.feas_tol, stat_tol=args.stat_tol
    )
    cfg = _resolved_config(
        args, ["dist", "area", "segments", "feas_tol", "stat_tol", "csv", "threads"]
    )
    payload = {
        "config": cfg,
        "energy": curve.energy,
        "signed_area": curve.area,
        "feasibility": abs(abs(curve.area) - args.area),
        "curve_csv": args.csv,
    }
    if args.csv:
        pts = oracle.curve_points(curve)
        rows = np.column_stack([np.linspace(0.0, 1.0, curve.n + 1), pts])
        with open(args.csv, "w") as fh:
            fh.write("t,h1,h2\n")
            fh.write(_csv_rows(rows))
    _write_text(args.output, dumps(payload) + "\n")
    return 0


def _cmd_simulate(args) -> int:
    model = _load_model(args.dist)
    est = montecarlo.estimate_ldp(
        model,
        args.area,
        args.steps,
        args.samples,
        mode=args.mode,
        seed=args.seed,
    )
    cfg = _resolved_config(
        args, ["dist", "area", "steps", "samples", "mode", "seed", "threads"]
    )
    payload = {
        "config": cfg,
        "rate_estimate": est.rate,
        "stderr": est.stderr,
        "hits": est.hits,
        "samples": est.samples,
        "zero_hits": est.zero_hits,
        "prob": est.prob,
    }
    _write_text(args.output, dumps(payload) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # to main's one-line exit 1; subparsers inherit the class
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="ldp-hull",
        description="Rate of convex-hull-area large deviations for planar random walks",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, dist=True):
        if dist:
            sp.add_argument("--dist", required=True, help="JSON distribution spec path")
        sp.add_argument("--output", default=None, help="output path (default: stdout)")
        sp.add_argument(
            "--threads",
            type=int,
            help="accepted and echoed in the config; sampling runs on one thread",
        )

    def solve_args(sp):
        common(sp)
        sp.add_argument("--area", type=float, required=True, help="target hull area")
        sp.add_argument("--eps", type=float, default=None, help="regularization strength")
        sp.add_argument("--directions", type=int, default=256, help="direction-scan resolution")
        sp.add_argument("--samples", type=int, default=1024, help="trajectory sample count")

    sp = sub.add_parser("rate", formatter_class=argparse.ArgumentDefaultsHelpFormatter, help="rate value and candidate trajectories for a target area")
    solve_args(sp)
    sp.set_defaults(fn=_cmd_rate)

    sp = sub.add_parser("trajectory", formatter_class=argparse.ArgumentDefaultsHelpFormatter, help="rate plus per-candidate trajectory CSVs")
    solve_args(sp)
    sp.add_argument("--csv-dir", default="trajectories", help="directory for candidate CSVs")
    sp.set_defaults(fn=_cmd_trajectory)

    sp = sub.add_parser("levelset", formatter_class=argparse.ArgumentDefaultsHelpFormatter, help="trace a cumulant level set (or one arc)")
    common(sp)
    sp.add_argument("--alpha", type=float, required=True, help="level value (> 0)")
    sp.add_argument("--samples", type=int, default=2048, help="trace/arc sample count")
    sp.add_argument("--arc", action="store_true", help="emit one arc instead of the polygon")
    sp.add_argument("--ell", type=lambda s: [float(v) for v in s.split(",")], default=None, help="cut direction X,Y for --arc")
    sp.add_argument("--tau", type=_tau_arg, default=+1, help="arc orientation: + or -")
    sp.set_defaults(fn=_cmd_levelset)

    sp = sub.add_parser("convexify", formatter_class=argparse.ArgumentDefaultsHelpFormatter, help="convexify a polyline given as x,y CSV rows")
    common(sp, dist=False)
    sp.add_argument("--input", default=None, help="input CSV (default: stdin)")
    sp.add_argument("--orientation", type=_orientation_arg, default="counterclockwise", help="angular sort direction (cw or ccw)")
    sp.set_defaults(fn=_cmd_convexify)

    sp = sub.add_parser("oracle", formatter_class=argparse.ArgumentDefaultsHelpFormatter, help="discretized variational minimizer")
    common(sp)
    sp.add_argument("--area", type=float, required=True, help="target |signed area|")
    sp.add_argument("--segments", type=int, default=64, help="velocity segment count")
    sp.add_argument("--feas-tol", type=float, default=1e-6, help="constraint tolerance")
    sp.add_argument("--stat-tol", type=float, default=1e-4, help="scaled stationarity tolerance")
    sp.add_argument("--csv", default=None, help="write the curve samples here")
    sp.set_defaults(fn=_cmd_oracle)

    sp = sub.add_parser("simulate", formatter_class=argparse.ArgumentDefaultsHelpFormatter, help="Monte Carlo decay-rate estimate")
    common(sp)
    sp.add_argument("--area", type=float, required=True, help="deviation threshold a in A_n >= a n^2")
    sp.add_argument("--steps", type=int, required=True, help="walk length n")
    sp.add_argument("--samples", type=int, default=10000, help="number of simulated walks")
    sp.add_argument("--mode", choices=["naive", "tilted"], default="naive", help="sampling scheme")
    sp.add_argument("--seed", type=int, default=0, help="base seed of the counter-based generator")
    sp.set_defaults(fn=_cmd_simulate)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.threads is not None and args.threads <= 0:
            raise ValueError(f"--threads must be positive, got {args.threads}")
        return args.fn(args)
    except DomainError as exc:
        sys.stderr.write(dumps({"error": exc.payload()}) + "\n")
        return 2
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
