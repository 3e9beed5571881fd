"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's default test collection;
they run the program in subprocesses and take about a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import grid  # noqa: E402
import calibrate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from plcvlc import cli, config  # noqa: E402
from plcvlc.montecarlo import MIN_TRIALS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REDUCED_TRIALS = 200_000  # four batches, so two workers share the work


def _cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "plcvlc.cli", *argv], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120, check=False)


@lru_cache(maxsize=None)
def _reduced_figure4(workers: int) -> str:
    done = _cli("figure", "4", "--trials", str(REDUCED_TRIALS), "--workers", str(workers),
                "--seed", "5")
    assert done.returncode == 0, done.stderr
    return done.stdout


@lru_cache(maxsize=None)
def _smoke(workload: str, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "2",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1]), done.stderr


def test_workers_give_byte_identical_csv():
    assert _reduced_figure4(1) == _reduced_figure4(2)


def test_gate_passes_reduced_figure4():
    assert gate.check_sweep_csv(_reduced_figure4(1), gate.References()) == []


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    report, _ = _smoke(workload, trace)
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in report["metrics"].items()
    }
    for metric in report["metrics"].values():
        assert set(metric) == {"value", "unit"} and math.isfinite(metric["value"])


@pytest.mark.parametrize("workload", ["figure4", "validate-w2"])
def test_smoke_mode_runs_at_min_trials(workload):
    _, stderr = _smoke(workload, 0)
    argv = next(line for line in stderr.splitlines() if line.startswith("argv: ")).split()
    assert argv[argv.index("--trials") + 1] == str(MIN_TRIALS)


def test_benchmark_file_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                              "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figure4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def _replace_field(csv_text: str, column: str, transform) -> str:
    lines = csv_text.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    index = lines[header].split(",").index(column)
    fields = lines[header + 1].split(",")
    fields[index] = transform(fields[index])
    lines[header + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("column, transform, expected", [
    ("vlc_capacity_analytic", lambda x: repr(float(x) * (1 + 1e-4)), "mpmath reference"),
    ("plc_capacity_analytic", lambda x: repr(float(x) * (1 - 1e-4)), "mpmath reference"),
    ("e2e_outage_analytic", lambda x: repr(float(x) + 1e-6), "p1 + (1 - p1) * p2"),
    ("e2e_outage_mc", lambda x: repr(float(x) + 0.05), "SE"),
    ("e2e_capacity_mc", lambda x: "nan", "non-finite"),
])
def test_gate_rejects_corrupted_sweep(column, transform, expected):
    corrupted = _replace_field(_reduced_figure4(1), column, transform)
    problems = gate.process_problems(0, corrupted, "") or gate.check_sweep_csv(
        corrupted, gate.References())
    assert any(expected in problem for problem in problems), problems


def test_gate_uses_five_standard_errors_for_monte_carlo():
    assert gate._mc_problem("x", 1.0, 1.0 + 4.9e-3, 1e-3, 10**6, outage=False) == []
    assert gate._mc_problem("x", 1.0, 1.0 + 5.1e-3, 1e-3, 10**6, outage=False) != []


def test_gate_checks_grid_points():
    points = grid.make_points(1, 3)
    echo = gate.parse_echo(config.echo_lines(*config.load_config(None)))
    base, _ = config.load_config(None)
    refs = gate.References()
    for point in points:
        values = grid.evaluate(grid.build_system(base, point))
        params = gate.grid_point_params(echo, point)
        assert gate.check_grid_point(values, params, refs) == []
        bad_quad = list(values)
        bad_quad[gate.GRID_FIELDS.index("vlc_capacity_quad")] *= 1 + 1e-6
        assert gate.check_grid_point(bad_quad, params, refs)
        above_bound = list(values)
        above_bound[gate.GRID_FIELDS.index("e2e_capacity_numeric")] = 10.0
        assert gate.check_grid_point(above_bound, params, refs)


def test_grid_chunks_are_the_operation():
    points = grid.make_points(1, grid.CHUNK_POINTS + 3)
    chunks = []
    results, seconds = grid.run_op(points, chunks.append)
    assert [len(chunk) for chunk in chunks] == [grid.CHUNK_POINTS, 3]
    assert [s for chunk in chunks for s in chunk] == seconds
    assert grid.run_op(points)[0] == results


def test_worker_thread_spans_land_in_their_own_stacks(capsys):
    with spans.Tracer() as tracer:
        tracer.install(layers.targets())
        cli.main(["validate", "--trials", str(REDUCED_TRIALS), "--workers", "2", "--seed", "1"])
    capsys.readouterr()
    recorded = tracer.spans
    main_thread = next(s.thread for s in recorded if s.name == "cli.main")
    workers = {s.thread for s in recorded} - {main_thread}
    assert workers, "no spans from the Monte Carlo worker threads"
    for span in recorded:
        if span.parent is not None:
            assert recorded[span.parent].thread == span.thread
            assert recorded[span.parent].start <= span.start <= span.end <= recorded[span.parent].end
        if span.name.startswith("montecarlo.sample_"):
            assert span.thread in workers
    own = spans.self_times(recorded)
    root = next(i for i, s in enumerate(recorded) if s.name == "cli.main")
    on_main = [t for s, t in zip(recorded, own) if s.thread == main_thread]
    assert math.isclose(sum(on_main), recorded[root].duration, rel_tol=1e-9)


def test_child_peak_rss_is_the_childs_own():
    # Started straight from this large process, the child would inherit its
    # peak RSS; through the launcher it reads as a bare interpreter's.
    child = run.run_child(["-c", "pass"])
    assert child.returncode == 0
    assert child.peak_rss_mb < 40


def test_calibration_scales_to_reference_speed():
    slow = 2 * calibrate.REFERENCE_S
    assert calibrate.reference_scale([slow, slow, calibrate.REFERENCE_S]) == pytest.approx(0.5)
    assert 0 < calibrate.calibrate()
