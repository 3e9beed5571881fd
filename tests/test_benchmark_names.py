"""The names the benchmark harness (perfbench/) binds in plcvlc still exist.

The harness resolves its traced attributes, runs the analytic-grid operation
and an import probe through the public API; a name deleted from ``src/``
would otherwise show only in perfbench/selftest.py.  perfbench/ is read here,
never edited.
"""

import importlib
import math
import pkgutil

import pytest

import plcvlc


@pytest.fixture
def gate(perfbench):
    return importlib.import_module("gate")


def test_every_traced_attribute_resolves(perfbench):
    layers, _ = perfbench
    missing = [
        f"{module.__name__}.{attribute}"
        for module, attribute, _, _ in layers.targets()
        if not hasattr(module, attribute)
    ]
    assert missing == []


def test_grid_operation_runs_on_seed_one(perfbench, gate):
    # Each result must also pass the benchmark's gate: mpmath references,
    # closed form vs quadrature, outage composition and the capacity bound.
    _, grid = perfbench
    points = grid.make_points(1)
    results, seconds = grid.run_op(points)
    assert len(results) == len(seconds) == 100
    echo, refs = gate.parse_echo(grid.base_echo()), gate.References()
    for point, row in zip(points, results):
        assert len(row) == 8 and all(math.isfinite(value) for value in row)
        assert gate.check_grid_point(row, gate.grid_point_params(echo, point), refs) == []


def test_import_probe_runs(perfbench, capsys):
    layers, _ = perfbench
    exec(layers.IMPORT_PROBE, {})
    assert float(capsys.readouterr().out.splitlines()[-1]) >= 0.0


def test_every_export_resolves():
    names = [info.name for info in pkgutil.iter_modules(plcvlc.__path__)]
    modules = [plcvlc, *(importlib.import_module(f"plcvlc.{name}") for name in names)]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 1 and missing == []
