#!/usr/bin/env python3
"""Benchmark driver for plcvlc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see README.md for why each exists):

* ``figure4``: ``python -m plcvlc.cli figure 4 --trials 1000000 --workers 1``,
  one fresh process per operation;
* ``validate-w2``: ``python -m plcvlc.cli validate --trials 1000000
  --workers 2``, one fresh process per operation;
* ``analytic-grid``: ``grid.POINTS_PER_OP`` seeded operating points through
  the Python API per operation, in one load process.

``--trace 0`` measures the end-to-end metrics with nothing traced;
``--trace 1`` runs the operation in this process, alternating untraced and
traced repeats, and reports per-layer metrics.  Every operation's output goes
through the correctness gate (gate.py).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
End-to-end times are scaled to a reference host speed (calibrate.py), and
program processes are started through launch.py.  ``--smoke`` shrinks every operation (Monte Carlo at the program's
``MIN_TRIALS``, a 10-point grid) to check the harness itself.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import gate
import grid
import layers
from calibrate import calibrate, reference_scale
from launch import TIMEOUT_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("figure4", "validate-w2", "analytic-grid")
FULL_TRIALS = 1_000_000
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
BATCH_ROUNDS = 60
SMOKE_GRID_POINTS = 10

SETUP_SCRIPT = (
    "import plcvlc.cli\n"
    "from plcvlc.config import echo_lines, load_config\n"
    "print('\\n'.join(echo_lines(*load_config(None))))\n"
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "points_per_s": "1/s",
    "point_ms_p50": "ms",
    "point_ms_p90": "ms",
    "setup_s": "s",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_child(args: list[str]) -> Child:
    """Run ``python args`` from the checkout root, through launch.py."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    launcher = [sys.executable, "-S", str(BENCH / "launch.py")]
    # The launcher kills its child at TIMEOUT_S; this timeout only guards
    # against the launcher itself hanging.
    done = subprocess.run([*launcher, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=TIMEOUT_S + 30, check=False)
    if done.returncode != 0:
        raise SystemExit(f"launcher failed ({done.returncode}): {done.stderr[-2000:]}")
    return Child(**json.loads(done.stdout))


def cli_argv(workload: str, seed: int, trials: int) -> list[str]:
    if workload == "figure4":
        return ["figure", "4", "--trials", str(trials), "--workers", "1", "--seed", str(seed)]
    return ["validate", "--trials", str(trials), "--workers", "2", "--seed", str(seed)]


class Checker:
    """Checks operation outputs; identical outputs are checked once."""

    def __init__(self, workload: str, echo: dict, trials: int) -> None:
        self.workload = workload
        self.echo = echo
        self.trials = trials
        self.refs = gate.References()
        self._seen: dict[tuple, list[str]] = {}
        self.first_output = None

    def cli(self, returncode: int, stdout: str, stderr: str) -> list[str]:
        key = (returncode, stdout, stderr)
        if key not in self._seen:
            self._seen[key] = self._check_cli(returncode, stdout, stderr)
        problems = list(self._seen[key])
        if self.first_output is None:
            self.first_output = stdout
        elif stdout != self.first_output:
            problems.append("output differs from the first operation's (same inputs)")
        return problems

    def _check_cli(self, returncode: int, stdout: str, stderr: str) -> list[str]:
        if self.workload == "figure4":
            problems = gate.process_problems(returncode, stdout, stderr)
            return problems or gate.check_sweep_csv(stdout, self.refs)
        allowed = (0, 1) if gate.validate_exit_ok(returncode, stderr) else (0,)
        problems = gate.process_problems(returncode, stdout, stderr, allowed)
        return problems or gate.check_validation_table(stdout, self.echo, self.trials, self.refs)

    def grid(self, points: list[dict], results: list[list[float]]) -> list[str]:
        key = ("grid", json.dumps(results))
        if key not in self._seen:
            problems = []
            for index, (point, values) in enumerate(zip(points, results)):
                params = gate.grid_point_params(self.echo, point)
                problems += [f"point {index}: {p}"
                             for p in gate.check_grid_point(values, params, self.refs)]
            if len(results) != len(points):
                problems.append(f"{len(results)} results for {len(points)} points")
            self._seen[key] = problems
        problems = list(self._seen[key])
        if self.first_output is None:
            self.first_output = key[1]
        elif key[1] != self.first_output:
            problems.append("results differ from the first operation's (same inputs)")
        return problems


class Setup:
    """Set-up samples: fresh interpreters to ``plcvlc.cli`` imported and
    ``load_config(None)`` done.  Samples are spread over the run, so that one
    slow spell of the machine does not land on all of them."""

    def __init__(self, repeats: int, calibrations: list[float]) -> None:
        self.repeats = repeats
        self.calibrations = calibrations
        self.walls: list[float] = []
        self.echo: dict = {}

    def sample(self) -> None:
        child = run_child(["-c", SETUP_SCRIPT])
        if child.returncode != 0:
            raise SystemExit(f"set-up failed ({child.returncode}): {child.stderr.strip()}")
        self.walls.append(child.wall_s)
        self.calibrations.append(calibrate())
        self.echo = gate.parse_echo(child.stdout.splitlines())

    def sample_if_due(self, elapsed: float, seconds: float) -> None:
        if len(self.walls) < self.repeats and elapsed >= len(self.walls) * seconds / self.repeats:
            self.sample()

    def finish(self) -> None:
        while len(self.walls) < self.repeats:
            self.sample()


@dataclass
class Op:
    """One operation."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    points: int
    point_s: list[float]
    problems: list[str]


def output_points(workload: str, stdout: str) -> int:
    """Operating points a CLI operation delivered: CSV rows, or one validated point."""
    if workload != "figure4":
        return 1
    return max(sum(1 for line in stdout.splitlines() if line and not line.startswith("#")) - 1, 0)


def scaled(ops: list[Op], factor: float) -> list[Op]:
    """The operations with their times multiplied by ``factor``."""
    return [replace(op, wall_s=op.wall_s * factor, cpu_s=op.cpu_s * factor,
                    point_s=[s * factor for s in op.point_s]) for op in ops]


def cli_ops(workload: str, seed: int, seconds: float, trials: int, checker: Checker,
            setup: Setup, calibrations: list[float]) -> list[Op]:
    argv = ["-m", "plcvlc.cli", *cli_argv(workload, seed, trials)]
    log(f"argv: {' '.join(argv)}")
    ops: list[Op] = []
    busy = 0.0  # seconds spent in operations; set-up samples do not count
    while len(ops) < grid.MIN_OPS or grid.keep_going(busy, ops[-1].wall_s, seconds):
        setup.sample_if_due(busy, seconds)
        child = run_child(argv)
        calibrations.append(calibrate())
        busy += child.wall_s
        problems = checker.cli(child.returncode, child.stdout, child.stderr)
        points = output_points(workload, child.stdout)
        # Per-point latency is not visible from outside a CLI run: each
        # operation contributes its mean wall time per delivered point.
        ops.append(Op(child.wall_s, child.cpu_s, child.peak_rss_mb, points,
                      [child.wall_s / max(points, 1)], problems))
    return ops


def grid_ops(seed: int, seconds: float, n_points: int, checker: Checker,
             calibrations: list[float]) -> list[Op]:
    args = [str(BENCH / "grid.py"), "--seed", str(seed), "--seconds", str(seconds),
            "--points", str(n_points)]
    child = run_child(args)
    problems = gate.process_problems(child.returncode, "", child.stderr)
    if problems:
        return [Op(child.wall_s, child.cpu_s, child.peak_rss_mb, 0, [child.wall_s], problems)]
    report = json.loads(child.stdout)
    checker.echo = gate.parse_echo(report["echo"])
    calibrations += report["calibration_s"]
    points = grid.make_points(seed, n_points)
    return [Op(
        sum(chunk["wall_s"] for chunk in op["chunks"]),
        sum(chunk["cpu_s"] for chunk in op["chunks"]),
        child.peak_rss_mb,
        len(op["results"]),
        [s for chunk in op["chunks"] for s in chunk["point_s"]],
        checker.grid(points, op["results"]),
    ) for op in report["ops"]]


def percentile(values: list[float], fraction: float) -> float:
    if len(values) == 1:
        return values[0]
    cut = round(fraction * 100)
    return statistics.quantiles(values, n=100, method="inclusive")[cut - 1]


def end_to_end(ops: list[Op], setup_walls: list[float]) -> dict:
    latencies_ms = [s * 1e3 for op in ops for s in op.point_s]
    values = {
        "wall_s": statistics.median(op.wall_s for op in ops),
        "cpu_s": statistics.median(op.cpu_s for op in ops),
        "peak_rss_mb": statistics.median(op.peak_rss_mb for op in ops),
        "points_per_s": statistics.median(op.points / op.wall_s for op in ops),
        "point_ms_p50": statistics.median(latencies_ms),
        "point_ms_p90": percentile(latencies_ms, 0.9),
        "setup_s": statistics.median(setup_walls),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def measure(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    trials = smoke_trials() if smoke else FULL_TRIALS
    calibrations = [calibrate()]
    setup = Setup(1 if smoke else SETUP_REPEATS, calibrations)
    setup.sample()
    checker = Checker(workload, setup.echo, trials)
    if workload == "analytic-grid":
        # The grid's load process runs the whole measurement, so set-up is
        # sampled on both sides of it.
        while len(setup.walls) < (setup.repeats + 1) // 2:
            setup.sample()
        n_points = SMOKE_GRID_POINTS if smoke else grid.POINTS_PER_OP
        ops = grid_ops(seed, seconds, n_points, checker, calibrations)
    else:
        ops = cli_ops(workload, seed, seconds, trials, checker, setup, calibrations)
    setup.finish()
    log("raw setup_s: " + " ".join(f"{w:.4f}" for w in setup.walls))
    log("raw wall_s: " + " ".join(f"{op.wall_s:.4f}" for op in ops))
    log("calibration_s: " + " ".join(f"{c:.4f}" for c in calibrations))
    factor = reference_scale(calibrations)
    log(f"scale to reference speed: {factor:.4f}")
    return result(ops, end_to_end(scaled(ops, factor), [w * factor for w in setup.walls]))


def result(ops: list[Op], metrics: dict) -> dict:
    failed = [op for op in ops if op.problems]
    for op in failed[:3]:
        log("FAILED: " + "; ".join(op.problems[:5]))
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def import_program() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def smoke_trials() -> int:
    import_program()
    from plcvlc.montecarlo import MIN_TRIALS

    return MIN_TRIALS


def in_process_op(workload: str, seed: int, trials: int, points: list[dict]):
    """The workload's operation in this process: op() -> (output text, gate input)."""
    if workload == "analytic-grid":
        def op():
            results, _ = grid.run_op(points)
            return json.dumps(results), results
    else:
        from plcvlc import cli

        argv = cli_argv(workload, seed, trials)

        def op():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return out.getvalue(), (code, out.getvalue(), err.getvalue())
    return op


def first_point(workload: str, points: list[dict]):
    from plcvlc import config, sweeps

    system, _ = config.load_config(None)
    if workload == "analytic-grid":
        return grid.build_system(system, points[0])
    if workload == "figure4":
        spec = sweeps.FIGURE_PRESETS[4]
        system = sweeps.with_variable(system, spec.variable, spec.start)
        return sweeps.with_variable(system, spec.family_variable, spec.family_values[0])
    return system


def traced(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    import spans

    trials = smoke_trials() if smoke else FULL_TRIALS
    imports = []
    for _ in range(1 if smoke else IMPORT_REPEATS):
        child = run_child(["-X", "importtime", "-c", layers.IMPORT_PROBE])
        if child.returncode != 0:
            raise SystemExit(f"import probe failed: {child.stderr[-2000:]}")
        imports.append(layers.import_metrics(child.stdout, child.stderr))

    import_program()
    from plcvlc import config

    echo = gate.parse_echo(config.echo_lines(*config.load_config(None)))
    checker = Checker(workload, echo, trials)
    points = grid.make_points(seed, SMOKE_GRID_POINTS if smoke else grid.POINTS_PER_OP)
    op = in_process_op(workload, seed, trials, points)

    def check(payload) -> list[str]:
        if workload == "analytic-grid":
            return checker.grid(points, payload)
        return checker.cli(*payload)

    def delivered(output: str) -> int:
        return len(points) if workload == "analytic-grid" else output_points(workload, output)

    untraced_walls, traced_walls, per_op, ops = [], [], [], []
    started = time.perf_counter()
    while not traced_walls or grid.keep_going(time.perf_counter() - started,
                                         untraced_walls[-1] + traced_walls[-1], seconds):
        start = time.perf_counter()
        plain, payload = op()
        untraced_walls.append(time.perf_counter() - start)
        ops.append(Op(untraced_walls[-1], 0.0, 0.0, delivered(plain), [], check(payload)))

        with spans.Tracer() as tracer:
            tracer.install(layers.targets())
            start = time.perf_counter()
            output, payload = op()
            traced_walls.append(time.perf_counter() - start)
        per_op.append(layers.span_metrics(tracer.spans, delivered(output)))
        problems = check(payload)
        if output != plain:
            problems.append("traced output differs from untraced output")
        threaded = per_op[-1]["montecarlo.batches"] > per_op[-1]["montecarlo.estimate_calls"]
        if workload == "validate-w2" and threaded and per_op[-1]["trace.threads"] < 2:
            problems.append("no spans recorded on the Monte Carlo worker threads")
        ops.append(Op(traced_walls[-1], 0.0, 0.0, delivered(output), [], problems))

    values = layers.merge(per_op)
    for name, reason in layers.absent(values).items():
        log(f"{name}: absent, reported as 0 ({reason})")
    system = first_point(workload, points)
    _, mc = config.load_config(None)
    values.update(layers.batch_metrics(system, seed, mc.batch_size, 3 if smoke else BATCH_ROUNDS))
    values.update(layers.merge(imports))
    values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.UNITS.items()}
    return result(ops, metrics)


def main() -> int:
    parser = argparse.ArgumentParser(description="plcvlc benchmark driver")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny operations (MIN_TRIALS, 10 grid points) to test the harness")
    args = parser.parse_args()
    if not (SRC / "plcvlc" / "__init__.py").is_file():
        log(f"error: no plcvlc sources under {SRC}; run from the root of a checkout")
        return 2
    seed = args.seed % 2 ** 64
    run = traced if args.trace else measure
    print(json.dumps(run(args.workload, seed, args.seconds, args.smoke)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
