import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plcvlc
from plcvlc import cli, plc_link, relay, vlc_link
from plcvlc.config import load_config
from plcvlc.errors import ParameterError
from plcvlc.montecarlo import McConfig
from plcvlc.plc_link import PlcLinkParams
from plcvlc.vlc_link import VlcLinkParams
from plcvlc.sweeps import (
    FIGURE_PRESETS,
    SWEEPABLE_VARIABLES,
    SweepSpec,
    evaluate_point,
    report_csv,
    run_sweep,
    run_validation,
    with_variable,
)

FAST = ["--trials", "2000", "--seed", "4"]


# ---------------------------------------------------------------------------
# SweepSpec / run_sweep
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ParameterError):
        SweepSpec("beam_width", 0.0, 1.0, 5)
    with pytest.raises(ParameterError):
        SweepSpec("relay_power", 1.0, 0.5, 5)
    with pytest.raises(ParameterError):
        SweepSpec("relay_power", 0.1, 0.5, 1)
    with pytest.raises(ParameterError):
        SweepSpec("relay_power", 0.1, 0.5, 5, family_variable="relay_power",
                  family_values=(0.1,))
    with pytest.raises(ParameterError):
        SweepSpec("relay_power", 0.1, 0.5, 5, family_variable="led_height")
    with pytest.raises(ParameterError):
        SweepSpec("relay_power", 0.1, 0.5, 5, family_values=(1.0,))
    # The first point was 0 + 0*inf = nan, and a 2e308 span overflowed the step.
    for start, stop in ((0.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf), (-1e308, 1e308)):
        with pytest.raises(ParameterError, match="'rate_threshold'"):
            SweepSpec("rate_threshold", start, stop, 3)


def test_grid_endpoints():
    spec = SweepSpec("relay_power", 0.1, 0.5, 5)
    grid = spec.grid()
    assert len(grid) == 5
    assert grid[0] == 0.1 and grid[-1] == 0.5


def test_with_variable_targets_each_level(default_system):
    assert with_variable(default_system, "relay_power", 0.3).vlc.tx_power_w == 0.3
    assert with_variable(default_system, "led_height", 2.6).vlc.height_m == 2.6
    assert with_variable(default_system, "cell_radius", 4.0).vlc.cell_radius_m == 4.0
    assert with_variable(default_system, "source_power", 0.2).plc.tx_power_w == 0.2
    assert with_variable(default_system, "plc_distance", 50.0).plc.distance_m == 50.0
    assert with_variable(default_system, "rate_threshold", 2.0).rate_threshold_bits == 2.0


def _with_variable_by_replace(system, name, value):
    """``with_variable`` through ``dataclasses.replace`` (reference)."""
    hop, field = SWEEPABLE_VARIABLES[name]
    try:
        if hop is None:
            return dataclasses.replace(system, **{field: value})
        hop_params = dataclasses.replace(getattr(system, hop), **{field: value})
        return dataclasses.replace(system, **{hop: hop_params})
    except ParameterError as exc:
        raise ParameterError(f"sweep variable {name!r} = {value!r}: {exc}") from exc


def _assert_same_system(got, want):
    assert got == want and hash(got) == hash(want)
    for params, ref in ((got, want), (got.plc, want.plc), (got.vlc, want.vlc)):
        assert type(params) is type(ref)
        assert list(vars(params)) == list(vars(ref))
        # repr tells every float bit apart, including -0.0 from 0.0.
        assert repr(vars(params)) == repr(vars(ref))
    assert repr(got.plc.law) == repr(want.plc.law) and repr(got.vlc.law) == repr(want.vlc.law)


_PARAMS_CLASSES = {None: relay.RelaySystemParams, "plc": PlcLinkParams, "vlc": VlcLinkParams}


def test_with_variable_copy_rests_on_plain_dataclasses():
    # The copy duplicates the instance dict and calls __post_init__, so every
    # table entry must be an init field (dataclasses.replace raised TypeError
    # on a typo), and no class may keep state outside its dict or take
    # __post_init__ arguments.
    for hop, field in SWEEPABLE_VARIABLES.values():
        assert field in {f.name for f in dataclasses.fields(_PARAMS_CLASSES[hop]) if f.init}
        if hop is not None:
            assert hop in {f.name for f in dataclasses.fields(relay.RelaySystemParams) if f.init}
    for cls in _PARAMS_CLASSES.values():
        assert not any("__slots__" in vars(k) for k in cls.__mro__)
        assert set(cls.__dataclass_fields__) == {f.name for f in dataclasses.fields(cls)}
        assert all(f.default_factory is dataclasses.MISSING for f in dataclasses.fields(cls))


@pytest.mark.parametrize("name", sorted(SWEEPABLE_VARIABLES))
@pytest.mark.parametrize("scale", [0.5, 1.0, 1.7])
def test_with_variable_matches_dataclasses_replace(default_system, name, scale):
    hop, field = SWEEPABLE_VARIABLES[name]
    value = scale * getattr(default_system if hop is None else getattr(default_system, hop), field)
    got = with_variable(default_system, name, value)
    _assert_same_system(got, _with_variable_by_replace(default_system, name, value))
    assert got is not default_system


def test_with_variable_matches_dataclasses_replace_along_the_grid_chain(default_system):
    # The analytic-grid chain of five variables, over its ranges.
    ranges = {
        "led_height": (2.15, 3.0),
        "cell_radius": (2.5, 4.5),
        "relay_power": (0.02, 0.5),
        "plc_distance": (5.0, 200.0),
        "rate_threshold": (0.4, 2.2),
    }
    rng = np.random.default_rng(18)
    for _ in range(40):
        got = want = default_system
        for name, (low, high) in ranges.items():
            value = float(rng.uniform(low, high))
            got = with_variable(got, name, value)
            want = _with_variable_by_replace(want, name, value)
            _assert_same_system(got, want)


@pytest.mark.parametrize("name, value", [
    *((name, value) for name in sorted(SWEEPABLE_VARIABLES) for value in (-1.0, math.nan)),
    ("relay_power", 0.0),
    ("relay_power", 1e308),
    ("led_height", math.inf),
    ("cell_radius", 1e-200),
    ("plc_distance", 300000.0),
    ("source_power", 1e-320),
    ("rate_threshold", 1e4),
])
def test_with_variable_refuses_as_dataclasses_replace(default_system, name, value):
    with pytest.raises(ParameterError) as want:
        _with_variable_by_replace(default_system, name, value)
    with pytest.raises(ParameterError) as got:
        with_variable(default_system, name, value)
    assert str(got.value) == str(want.value)
    assert type(got.value.__cause__) is type(want.value.__cause__)
    assert str(got.value.__cause__) == str(want.value.__cause__)


def test_minimal_sweep_record_count(default_system):
    mc = McConfig(trials=2000, seed=1)
    spec = SweepSpec("relay_power", 0.05, 0.1, 2, "led_height", (2.15, 2.5, 3.0))
    report = run_sweep(spec, default_system, mc)
    assert len(report.records) == 2 * 3
    no_family = run_sweep(SweepSpec("relay_power", 0.05, 0.1, 2), default_system, mc)
    assert len(no_family.records) == 2
    assert all(r.family_value is None for r in no_family.records)


def test_sweep_agreement_flags(default_system):
    mc = McConfig(trials=50_000, seed=2)
    spec = SweepSpec("rate_threshold", 0.5, 2.0, 3)
    report = run_sweep(spec, default_system, mc)
    assert report.all_agree


def test_sweep_outage_agrees_with_a_sample_without_hits(default_system):
    # At 0.01 bits the analytic outage is 9.7e-7 and none of the 100k trials
    # is a hit (probability 0.91), a sample whose standard error is 0.
    mc = McConfig(trials=100_000, seed=1)
    report = run_sweep(SweepSpec("rate_threshold", 0.01, 0.05, 3), default_system, mc)
    first = report.records[0]
    assert first.mc_e2e_outage.mean == first.mc_e2e_outage.std_error == 0.0 < first.e2e_outage
    assert report.all_agree


def test_csv_echoes_parameters_and_is_stable(default_system):
    mc = McConfig(trials=2000, seed=4)
    spec = SweepSpec("relay_power", 0.05, 0.1, 2, "led_height", (2.15, 3.0))
    first = report_csv(run_sweep(spec, default_system, mc), default_system, mc)
    second = report_csv(run_sweep(spec, default_system, mc), default_system, mc)
    assert first == second
    header = [line for line in first.splitlines() if line.startswith("#")]
    for key in ("plc.noise_variance", "vlc.semi_angle_rad", "mc.seed", "sweep.variable"):
        assert any(key in line for line in header)
    rows = [line for line in first.splitlines() if not line.startswith("#")]
    assert len(rows) == 1 + 4  # header row plus 2 grid points x 2 family values


def test_csv_identical_across_worker_counts(default_system):
    mc = McConfig(trials=4000, seed=9, batch_size=512)
    spec = SweepSpec("relay_power", 0.05, 0.1, 2, "led_height", (2.15, 3.0))
    serial = report_csv(run_sweep(spec, default_system, mc, workers=1), default_system, mc)
    threaded = report_csv(run_sweep(spec, default_system, mc, workers=3), default_system, mc)
    assert serial == threaded


# ---------------------------------------------------------------------------
# validation runs
# ---------------------------------------------------------------------------

def test_validation_passes_on_defaults(default_system):
    rows, ok = run_validation(default_system, McConfig(trials=20_000, seed=1))
    assert ok
    assert {r.name for r in rows} == {
        "plc_avg_capacity",
        "vlc_avg_capacity",
        "e2e_avg_capacity",
        "plc_outage",
        "vlc_outage",
        "e2e_outage",
        "vlc_capacity_closed_vs_quad",
    }


def test_validation_detects_corrupted_analytics(default_system, monkeypatch):
    # Emulate a sign error in the attenuation coefficient on the analytic
    # route only: a negated alpha turns the cable loss into a gain.
    original = plc_link.avg_capacity

    def corrupted(p):
        import dataclasses

        alpha = plc_link.attenuation_coeff(p)
        fake = dataclasses.replace(
            p, noise_variance=p.noise_variance * math.exp(-4.0 * alpha * p.distance_m)
        )
        return original(fake)

    monkeypatch.setattr(plc_link, "avg_capacity", corrupted)
    rows, ok = run_validation(default_system, McConfig(trials=20_000, seed=1))
    assert not ok
    failed = {r.name for r in rows if not r.agrees}
    assert "plc_avg_capacity" in failed


# ---------------------------------------------------------------------------
# one analytic evaluator
# ---------------------------------------------------------------------------

def test_every_front_end_reports_the_evaluator_values(default_system, capsys):
    point = evaluate_point(default_system)
    assert set(point) == {
        "snr_threshold", "plc_capacity", "vlc_capacity", "e2e_capacity_bound",
        "plc_outage", "vlc_outage", "e2e_outage",
    }

    assert cli.main(["eval", *FAST]) == 0
    printed = dict(
        line.split(" = ") for line in capsys.readouterr().out.splitlines()
        if not line.startswith("#")
    )
    eval_names = {"vlc_capacity_closed": "vlc_capacity"}
    for name, value in printed.items():
        key = eval_names.get(name, name)
        if key in point:
            assert float(value) == point[key], name
    assert {eval_names.get(name, name) for name in printed} >= set(point)

    rows, _ = run_validation(default_system, McConfig(trials=2000, seed=4))
    validation_names = {
        "plc_avg_capacity": "plc_capacity",
        "vlc_avg_capacity": "vlc_capacity",
        "plc_outage": "plc_outage",
        "vlc_outage": "vlc_outage",
        "e2e_outage": "e2e_outage",
        "vlc_capacity_closed_vs_quad": "vlc_capacity",
    }
    for row in rows:
        if row.name in validation_names:
            assert row.analytic == point[validation_names[row.name]], row.name

    # The first grid point of this sweep is the default system.
    spec = SweepSpec("relay_power", default_system.vlc.tx_power_w, 0.2, 2)
    record = run_sweep(spec, default_system, McConfig(trials=2000, seed=4)).records[0]
    for key, value in point.items():
        assert getattr(record, key) == value, key


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def test_eval_prints_report(capsys):
    assert cli.main(["eval", *FAST]) == 0
    out = capsys.readouterr().out
    for key in ("plc_capacity", "vlc_capacity_closed", "e2e_outage", "# plc.frequency_hz"):
        assert key in out


def test_eval_with_a_batch_larger_than_the_run(tmp_path, capsys):
    # The work arrays are as wide as the trials a batch reads, not as the
    # batch size: 5 x 1e11 floats used to end in a NumPy MemoryError.
    path = tmp_path / "big.cfg"
    path.write_text("batch_size = 100000000000\n")
    assert cli.main(["eval", "--trials", "1000", "--config", str(path)]) == 0
    big = capsys.readouterr().out.splitlines()
    assert cli.main(["eval", "--trials", "1000"]) == 0
    default = capsys.readouterr().out.splitlines()
    changed = [(x, y) for x, y in zip(big, default) if x != y]
    assert len(big) == len(default)
    assert changed == [("# mc.batch_size = 100000000000", "# mc.batch_size = 65536")]


def test_eval_honours_overrides(tmp_path):
    out_path = tmp_path / "eval.txt"
    code = cli.main(["eval", *FAST, "--duplex-factor", "1.0", "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert "# system.duplex_factor = 1.0" in text
    assert "# mc.trials = 2000" in text


def test_sweep_writes_csv(tmp_path):
    out_path = tmp_path / "sweep.csv"
    code = cli.main(
        ["sweep", "--var", "relay_power", "--from", "0.05", "--to", "0.1",
         "--steps", "2", "--family", "led_height=2.15,3.0", "--out", str(out_path), *FAST]
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    rows = [line for line in lines if not line.startswith("#")]
    assert rows[0].startswith("swept_variable,")
    assert len(rows) == 1 + 4


@pytest.mark.parametrize(
    "command,out",
    [
        (["eval"], "{tmp}/missing/x"),
        (["sweep", "--var", "relay_power", "--from", "0.05", "--to", "0.1", "--steps", "2"],
         "/dev/full"),
    ],
)
def test_unwritable_out_is_a_config_error(tmp_path, capsys, command, out):
    # Each used to end in an OSError traceback.
    out = out.format(tmp=tmp_path)
    assert cli.main([*command, *FAST, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out!r}") and err.count("\n") == 1


def test_sweep_byte_identical_across_runs_and_workers(tmp_path):
    args = ["sweep", "--var", "relay_power", "--from", "0.05", "--to", "0.1",
            "--steps", "2", *FAST]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert cli.main([*args, "--out", str(paths[0])]) == 0
    assert cli.main([*args, "--out", str(paths[1])]) == 0
    assert cli.main([*args, "--workers", "3", "--out", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_figure_presets_run(tmp_path):
    out_path = tmp_path / "fig.csv"
    assert cli.main(["figure", "2", *FAST, "--out", str(out_path)]) == 0
    text = out_path.read_text()
    assert "# sweep.family_variable = led_height" in text
    spec = FIGURE_PRESETS[2]
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    assert len(rows) == 1 + spec.steps * len(spec.family_values)


def test_validate_exit_zero(capsys):
    assert cli.main(["validate", "--trials", "20000", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "plc_avg_capacity" in out and "agree" in out


def test_validate_at_narrow_beam_and_wide_cell(tmp_path, capsys):
    # An adaptive end-to-end integral used to stop on roundoff here.
    path = tmp_path / "narrow.cfg"
    path.write_text("semi_angle_deg = 20\ncell_radius_m = 4.5\n")
    cli.main(["validate", "--config", str(path), "--trials", "20000", "--seed", "1"])
    captured = capsys.readouterr()
    assert "did not converge" not in captured.err
    assert "Traceback" not in captured.err
    row = [line for line in captured.out.splitlines() if line.startswith("e2e_avg_capacity ")]
    assert len(row) == 1
    assert math.isfinite(float(row[0].split()[1]))


def test_validate_at_huge_fading_spread(tmp_path, capsys):
    # The end-to-end mean used to overflow exponentiating splits below the cell
    # edge, and the sampled PLC capacity exp(y) overflowed to inf.
    path = tmp_path / "spread.cfg"
    path.write_text("fading_sigma_db = 1e4\n")
    system, _ = load_config(path)
    assert math.isfinite(relay.e2e_avg_capacity_numeric(system))
    assert cli.main(["validate", "--config", str(path), *FAST]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    rows = {line.split()[0]: line.split() for line in captured.out.splitlines()[1:]}
    for metric in ("plc_avg_capacity", "e2e_avg_capacity"):
        assert all(math.isfinite(float(value)) for value in rows[metric][1:4])


def test_cli_import_leaves_scipy_integrate_out():
    # No scipy module at all, after the import and after a full validate run.
    src = str(Path(plcvlc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    script = (
        "import sys, plcvlc.cli\n"
        "from plcvlc.montecarlo import MIN_TRIALS\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(scipy_modules())\n"
        "code = plcvlc.cli.main(['validate', '--trials', str(MIN_TRIALS)])\n"
        "print(code, scipy_modules())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True,
    )
    lines = done.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "0 []")


def test_cli_leaves_the_thread_pool_module_out_on_one_worker(tmp_path):
    # concurrent.futures (and the logging it imports) loads only for a pool.
    src = str(Path(plcvlc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    script = (
        "import sys, plcvlc.cli\n"
        "from plcvlc.montecarlo import MIN_TRIALS\n"
        "print('concurrent.futures' in sys.modules)\n"
        "args = ['--trials', str(MIN_TRIALS), '--workers', '1', '--out', sys.argv[1]]\n"
        "code = plcvlc.cli.main(['figure', '4', *args])\n"
        "print(code, 'concurrent.futures' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "figure4.csv")],
        capture_output=True, text=True, env=env, check=True,
    )
    lines = done.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "0 False")


def _task_count_after_cli_import(env_overrides):
    src = str(Path(plcvlc.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = (
        "import os, plcvlc.cli\n"
        "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**env, **env_overrides}, check=True)
    return done.stdout.split()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="needs /proc/self/task and at least 2 cores")
def test_cli_import_starts_no_blas_threads():
    # NumPy's OpenBLAS would start a busy-waiting thread per extra core; the
    # package loads it with one, and leaves the environment as it was.
    assert _task_count_after_cli_import({}) == ["1", "None"]
    # A thread count that the user set wins.
    assert _task_count_after_cli_import({"OPENBLAS_NUM_THREADS": "2"}) == ["2", "2"]


def _validate_rows(tmp_path, capsys, text):
    path = tmp_path / "point.cfg"
    path.write_text(text)
    code = cli.main(["validate", "--config", str(path), "--trials", "100000", "--seed", "1"])
    rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()[1:]}
    return code, rows


def test_validate_at_vanishing_relay_power(tmp_path, capsys):
    # log2(1 + snr) rounded every sampled capacity to 0 here: the reference
    # and its standard error were 0 and vlc_avg_capacity disagreed.
    code, rows = _validate_rows(tmp_path, capsys, "relay_power_w = 1e-20\n")
    assert code == 0
    assert float(rows["vlc_avg_capacity"][3]) > 0.0


# The gain law used to raise (r^2 + L^2) to -(m+3)/2 before squaring, which is
# subnormal here (semi-angle 3.6 degrees, 6.6 m cell): the closed form was
# 1.3e-5 off the quadrature.  A 10 nm cell is a point mass: the sampled and
# analytic values must be equal, std_error 0.  At 3 degrees and 4.5 m the
# amplitude Q*(m+1)*L**(m+1) overflows, and the cell was refused.
@pytest.mark.parametrize(
    "text",
    [
        "semi_angle_deg = 3.58672021461792\ncell_radius_m = 6.635910878994956\n"
        "led_height_m = 4.412270576089906\nrelay_power_w = 0.8466311169727182\n",
        "cell_radius_m = 1e-8\n",
        "semi_angle_deg = 3\nled_height_m = 4.5\n",
    ],
)
def test_validate_on_the_shared_gain_law(tmp_path, capsys, text):
    code, rows = _validate_rows(tmp_path, capsys, text)
    assert code == 0
    assert all(row[-1] == "agree" for row in rows.values())


def test_validate_at_high_transmit_snr(tmp_path, capsys):
    # The closed form used to cancel here and disagree with the quadrature.
    path = tmp_path / "bright.cfg"
    path.write_text("relay_power_w = 1e60\n")
    assert cli.main(["validate", "--config", str(path), *FAST]) == 0
    row = [line for line in capsys.readouterr().out.splitlines()
           if line.startswith("vlc_capacity_closed_vs_quad ")]
    assert len(row) == 1 and row[0].split()[-1] == "agree"


def test_validate_exit_one_on_disagreement(monkeypatch, capsys):
    monkeypatch.setattr(plc_link, "avg_capacity", lambda p: 99.0)
    assert cli.main(["validate", "--trials", "20000", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert "plc_avg_capacity" in err


def test_trials_floor_reported_as_config_error(capsys):
    assert cli.main(["validate", "--trials", "10"]) == 2
    assert "1,000" in capsys.readouterr().err.replace("1000", "1,000")


def test_missing_config_is_exit_two(tmp_path, capsys):
    assert cli.main(["eval", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_invalid_config_value_is_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("source_power_w = -1\n")
    assert cli.main(["eval", "--config", str(path)]) == 2
    assert "tx_power" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value",
    [
        ("fading_sigma_db", "inf"),
        ("semi_angle_deg", "1e-9"),
        ("atten_a0", "nan"),
        ("rate_threshold_bits", "nan"),
        # A value may carry further config lines.
        pytest.param(
            "plc_distance_m", "200000\nplc_noise_variance = 0.001",
            id="plc_distance_m-200000-pinned-noise",
        ),
        ("plc_distance_m", "200000"),
        ("frequency_hz", "1e300"),
        ("rate_threshold_bits", "2000"),
        ("duplex_factor", "1e-300"),
        ("fading_mu_db", "1e6"),
        ("plc_median_snr_db", "4000"),
        ("cell_radius_m", "1e-300"),
        ("vlc_noise_variance", "1e-320"),
        # Refused by a parameter class, whose message names the field of a key.
        ("source_power_w", "-1"),
        ("relay_power_w", "-1"),
        ("detector_area_m2", "0"),
        ("responsivity_a_per_w", "0"),
        ("led_height_m", "0"),
        ("plc_distance_m", "0"),
        ("vlc_noise_variance", "-1"),
        # The squared-gain support leaves the positive normal floats.
        ("semi_angle_deg", "2"),
        ("cell_radius_m", "1e60"),
        ("led_height_m", "1e-300"),
        ("detector_area_m2", "1e300"),
        ("detector_area_m2", "1e-300"),
        ("responsivity_a_per_w", "1e-300"),
        # The transmit SNR and the PLC SNR scale, refused by the parameter classes.
        ("relay_power_w", "1e308"),
        pytest.param(
            "source_power_w", "1e308\nplc_noise_variance = 1e-10", id="source_power_w-1e308"
        ),
        # The SNR scale the derived noise gives is subnormal.
        pytest.param(
            "plc_median_snr_db", "-1\nfading_mu_db = 1540", id="plc_median_snr_db-scale"
        ),
    ],
)
def test_bad_config_value_names_its_key(tmp_path, capsys, key, value):
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key} = {value}\n")
    assert cli.main(["eval", "--config", str(path), *FAST]) == 2
    captured = capsys.readouterr()
    assert key in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


# The first two used to get past every check: the first wrote nan and exited 0,
# the second ended in a "math domain error" traceback.
@pytest.mark.parametrize(
    "variable,args",
    [
        ("relay_power", ["--from", "1e300", "--to", "1e308"]),
        ("plc_distance", ["--from", "10", "--to", "300000"]),
        ("led_height", ["--from", "1", "--to", "1e300"]),
        ("rate_threshold", ["--from", "0", "--to", "1e4"]),
        ("source_power", ["--from", "-1", "--to", "1"]),
        ("relay_power", ["--from", "0.5", "--to", "0.1"]),
        ("cell_radius", ["--var", "relay_power", "--from", "0.1", "--to", "0.2",
                         "--family", "cell_radius=1e60"]),
    ],
)
def test_bad_sweep_value_names_its_variable(capsys, variable, args):
    if "--var" not in args:
        args = ["--var", variable, *args]
    assert cli.main(["sweep", *args, "--steps", "2", *FAST]) == 2
    captured = capsys.readouterr()
    assert f"'{variable}'" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


# The VLC closed form cancelled on narrow cells (4.6e-8 off at 1e-4 m, 7.4e-4
# at 1e-6 m), the sampled standard error came out 0 there, and the quadrature
# missed a boundary layer at narrow beams: each of these exited 1.  At 1e-7
# and 3e-8 m the standard error was below the rounding of the mean.  At zero
# fading spread the analytic PLC capacity was an ulp or two off the sampled
# point mass, and with the median SNR within an ulp of the outage threshold 3
# the analytic outage step fell on the other side of it.  With both hops point
# masses the end-to-end integral was 95 ulps off a sample with no spread.  On
# 1.4 km of cable every trial was an outage, a sample with standard error 0
# against an analytic 0.99999997.
@pytest.mark.parametrize(
    "line",
    ["cell_radius_m = 1e-4", "cell_radius_m = 1e-6", "cell_radius_m = 1e-7",
     "cell_radius_m = 3e-8", "semi_angle_deg = 3", "semi_angle_deg = 4", "semi_angle_deg = 5",
     "fading_sigma_db = 0",
     pytest.param(
         "fading_sigma_db = 0\nfading_mu_db = -4.495783679103389\n"
         "plc_median_snr_db = 4.771212547196625",
         id="fading_sigma_db = 0 at a median SNR of 3, mu < 0",
     ),
     pytest.param(
         "fading_sigma_db = 0\nfading_mu_db = 4.362266529186838\n"
         "plc_median_snr_db = 4.771212547196624",
         id="fading_sigma_db = 0 at a median SNR of 3, mu > 0",
     ),
     "fading_sigma_db = 0\ncell_radius_m = 1e-9",
     pytest.param(
         "plc_noise_variance = 0.007108359231342923\nplc_distance_m = 1366.6\n"
         "fading_sigma_db = 10.75\nfading_mu_db = -25.82",
         id="1.4 km of cable, every trial an outage",
     )],
)
def test_validate_at_narrow_cells_and_beams(tmp_path, capsys, line):
    path = tmp_path / "narrow.cfg"
    path.write_text(line + "\n")
    assert cli.main(["validate", "--config", str(path), "--trials", "100000", "--seed", "1"]) == 0


@pytest.mark.parametrize("radius", ["1e-7", "3e-8"])
def test_narrow_cell_still_detects_a_tiny_analytic_error(tmp_path, capsys, monkeypatch, radius):
    # The rounding floor of the standard error is a few ulps: an analytic value
    # 1e-12 relative off still disagrees.
    original = vlc_link.avg_capacity_closed
    monkeypatch.setattr(vlc_link, "avg_capacity_closed", lambda p: original(p) * (1.0 + 1e-12))
    code, rows = _validate_rows(tmp_path, capsys, f"cell_radius_m = {radius}\n")
    assert code == 1
    assert rows["vlc_avg_capacity"][-1] == "DISAGREE"


@pytest.mark.parametrize(
    "key,option", [("trials", ["--trials", "10"]), ("duplex_factor", ["--duplex-factor", "2"])]
)
def test_bad_override_names_its_key(capsys, key, option):
    assert cli.main(["eval", "--seed", "4", *option]) == 2
    captured = capsys.readouterr()
    assert f"key '{key}'" in captured.err
    assert captured.out == ""


def test_bad_family_argument_is_exit_two(capsys):
    code = cli.main(
        ["sweep", "--var", "relay_power", "--from", "0.1", "--to", "0.2",
         "--steps", "2", "--family", "led_height", *FAST]
    )
    assert code == 2


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "link.cfg"
    path.write_text("relay_power_w = 0.25\nrate_threshold_bits = 0.75\n")
    system, _ = load_config(path)
    assert system.vlc.tx_power_w == 0.25
    assert system.rate_threshold_bits == 0.75
    assert cli.main(["eval", "--config", str(path), *FAST, "--out",
                     str(tmp_path / "o.txt")]) == 0
    assert "# vlc.tx_power_w = 0.25" in (tmp_path / "o.txt").read_text()
