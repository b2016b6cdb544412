"""Benchmark of the ``ldp-hull`` command line, run in-process.

    python3 perfbench/run.py --workload rate_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --quick          # every workload, reduced inputs, all checks

Each workload is a fixed round of ``ldp_hull.cli.main(argv)`` calls, repeated
while the next round still fits in ``--seconds``.  Every output is checked
(see ``workloads.py``).  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics of ``tracing.py`` with
``--trace 1``.  See README.md for what each metric means.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

# Single-threaded numerics: pin BLAS pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LDP_HULL_THREADS", None)

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 3


def _units(section: str) -> dict:
    """Metric name -> unit for one section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


# Span-derived keys whose metric name differs (self times of a layer).
RENAMED = {
    "solver.rate_of_area.self_s": "solver.self_s",
    "oracle.minimize_discrete.self_s": "oracle.self_s",
    "montecarlo.estimate_ldp.self_s": "montecarlo.self_s",
    "cli.main.self_s": "cli.self_s",
}


class Runner:
    """Runs operations through ``cli.main`` and checks their outputs."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None
        self.failures: list[str] = []
        self.correct = True

    def execute(self, op, argv=None):
        argv = list(op.argv if argv is None else argv)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if self.tracer is not None and self.tracer.enabled:
                    code = self.tracer.call("cli.main", self.cli.main, (argv,))
                else:
                    code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is an outcome of the operation, checked below
                code = -1
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - start
        return workloads.Result(op, code, seconds, err.getvalue())

    def round(self, ops) -> dict:
        """One pass over ``ops``; returns the timings of the pass."""
        ctx: dict = {}
        stats = {"wall": 0.0, "solve": [], "walks": 0, "sim_s": 0.0, "ops": 0, "failed": 0}
        for op in ops:
            if op.prepare:
                op.prepare()
            res = self.execute(op)
            stats["ops"] += 1
            stats["wall"] += res.seconds
            if op.kind in workloads.SOLVE_KINDS and op.expect_exit == 0:
                stats["solve"].append(res.seconds)
            if op.kind == "simulate":
                stats["walks"] += op.walks
                stats["sim_s"] += res.seconds
            problem = self.verify(res, ctx)
            if problem:
                stats["failed"] += 1
                if op.known_fault:
                    self.failures.append(f"{op.name} (known fault: {op.known_fault}): {problem}")
                else:
                    self.failures.append(f"{op.name}: {problem}")
                    self.correct = False
        return stats

    def verify(self, res, ctx) -> str | None:
        op = res.op
        if res.exit != op.expect_exit:
            return f"exit {res.exit}, expected {op.expect_exit}: {res.stderr.strip()[-400:]}"
        try:
            res.payload = workloads.load_payload(op, res.exit, res.stderr)
            ctx[op.name] = res.payload
            if op.check:
                op.check(res, ctx)
            if op.thread_check:
                self.check_threads(op)
        except reference.CheckFailed as exc:
            return str(exc)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {exc!r}"
        return None

    def check_threads(self, op) -> None:
        """``simulate`` output is byte-identical at --threads 1 and 2 (untimed)."""
        with open(op.output) as fh:
            one = fh.read()
        traced = self.tracer is not None and self.tracer.enabled
        if traced:
            self.tracer.enabled = False
        try:
            res = self.execute(op, self.threads_argv(op, 2, op.output + ".t2"))
        finally:
            if traced:
                self.tracer.enabled = True
        reference.require(res.exit == 0, f"--threads 2 run exited {res.exit}")
        with open(op.output + ".t2") as fh:
            two = fh.read()
        reference.require(
            one.replace('"threads": 1', '"threads": 2') == two,
            "simulate output differs between --threads 1 and --threads 2",
        )

    @staticmethod
    def threads_argv(op, threads, output):
        argv = list(op.argv)
        argv[argv.index("--threads") + 1] = str(threads)
        argv[argv.index("--output") + 1] = output
        return argv


def _setup(workload, seed, quick):
    """Import, input generation and warm-up: everything before the first timed call."""
    if not os.path.isfile(os.path.join(SRC, "ldp_hull", "__init__.py")):
        raise SystemExit(f"perfbench: no ldp_hull sources under {SRC}")
    sys.path.insert(0, SRC)
    from ldp_hull import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported ldp_hull from {cli.__file__}, not {SRC}")
    rundir = os.path.join(OUT, f"{workload}-s{seed}-p{os.getpid()}")
    ops = workloads.ROUNDS[workload](seed, rundir, quick)
    runner = Runner(cli)
    runner.round(workloads.warmup(rundir))
    if not runner.correct:
        raise SystemExit("perfbench: warm-up failed: " + "; ".join(runner.failures))
    return runner, ops, rundir


def _probe_setup(workload, seed) -> float:
    """Set-up time of a fresh interpreter, measured by the same code."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed: {proc.stderr.strip()[-400:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _rounds(runner, ops, seconds) -> list:
    """Whole rounds while the next one, as long as the last, still fits."""
    t0 = time.perf_counter()
    out = []
    while True:
        r0 = time.perf_counter()
        out.append(runner.round(ops))
        now = time.perf_counter()
        if (now - t0) + (now - r0) > seconds:
            return out


def _walks_per_s(stats) -> float:
    return stats["walks"] / stats["sim_s"] if stats["sim_s"] else 0.0


def _threads2_walks_per_s(runner, ops) -> float:
    stats = {"walks": 0, "sim_s": 0.0}
    for op in ops:
        if op.kind == "simulate":
            res = runner.execute(op, runner.threads_argv(op, 2, op.output + ".t2"))
            stats["walks"] += op.walks
            stats["sim_s"] += res.seconds
    return _walks_per_s(stats)


def _end_to_end(runner, ops, args, setup_first):
    rounds = _rounds(runner, ops, args.seconds)
    setups = [setup_first] + [_probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    solve = [t for r in rounds for t in r["solve"]]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall"] for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solve_p50_s": statistics.median(solve) if solve else 0.0,
        "walks_per_s": _walks_per_s({k: sum(r[k] for r in rounds) for k in ("walks", "sim_s")}),
    }
    print(f"# {args.workload} seed {args.seed}: {len(rounds)} round(s) of {len(ops)} ops; "
          f"solve_p50_s over {len(solve)} rate/trajectory calls; setup_s median of {len(setups)}")
    return rounds, values


def _traced(runner, ops, workload, seed):
    """One untraced round, then two traced rounds whose counts must agree."""
    plain = runner.round(ops)
    layer = {
        "montecarlo.walks_per_s.threads1": _walks_per_s(plain),
        "montecarlo.walks_per_s.threads2": _threads2_walks_per_s(runner, ops),
    }
    tracer = tracing.Tracer()
    runner.tracer = tracer
    tracer.install()
    rounds, spans, per_round = [], [], []
    try:
        for _ in range(2):
            tracer.enabled = True
            rounds.append(runner.round(ops))
            tracer.enabled = False
            spans.append(tracer.take())
            per_round.append(tracing.layer_metrics(spans[-1]))
    finally:
        tracer.enabled = False
        tracer.uninstall()
    os.makedirs(OUT, exist_ok=True)
    tracing.dump(os.path.join(OUT, f"spans-{workload}-s{seed}.json"), spans)
    (t1, c1), (t2, c2) = per_round
    if c1 != c2:
        diff = sorted(k for k in set(c1) | set(c2) if c1.get(k) != c2.get(k))
        runner.correct = False
        runner.failures.append(f"traced counts differ between two rounds: {diff}")
    for key in set(t1) | set(t2):
        layer[RENAMED.get(key, key)] = 0.5 * (t1.get(key, 0.0) + t2.get(key, 0.0))
    for key, val in c1.items():
        layer[key] = val
    layer["trace.overhead_s"] = statistics.median(r["wall"] for r in rounds) - plain["wall"]
    return [plain] + rounds, {k: layer.get(k, 0) for k in _units("per_layer")}


def _emit(correct, attempted, failed, values, units):
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def _quick() -> int:
    """Every workload on reduced inputs, with all checks and two traced rounds."""
    ok = True
    attempted = failed = 0
    values = {}
    for name in workloads.WORKLOADS:
        t0 = time.perf_counter()
        runner, ops, rundir = _setup(name, 0, quick=True)
        rounds, _layer = _traced(runner, ops, name, 0)
        shutil.rmtree(rundir, ignore_errors=True)
        attempted += sum(r["ops"] for r in rounds)
        failed += sum(r["failed"] for r in rounds)
        ok &= runner.correct
        values[f"{name}.wall_s"] = rounds[0]["wall"]
        print(f"# {name}: {'ok' if runner.correct else 'FAILED'} in {time.perf_counter() - t0:.1f} s")
        for f in runner.failures:
            print(f"#   {f}")
    _emit(ok, attempted, failed, values, {k: "s" for k in values})
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="every workload, reduced inputs, all checks")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.quick:
        return _quick()
    if args.workload is None:
        p.error("--workload is required")

    runner, ops, rundir = _setup(args.workload, args.seed, quick=False)
    setup_first = time.perf_counter() - T_START
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_first}))
            return 0
        if args.trace:
            rounds, values = _traced(runner, ops, args.workload, args.seed)
            units = _units("per_layer")
        else:
            rounds, values = _end_to_end(runner, ops, args, setup_first)
            units = _units("end_to_end")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for f in sorted(set(runner.failures)):
        print(f"# failed x{runner.failures.count(f)}: {f}", file=sys.stderr)
    _emit(
        runner.correct,
        sum(r["ops"] for r in rounds),
        sum(r["failed"] for r in rounds),
        values,
        units,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
