import importlib
import sys
from pathlib import Path

import pytest

from plcvlc import load_config, plc_link, specfun

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="session")
def default_system():
    system, _ = load_config(None)
    return system


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark harness's ``layers`` and ``grid`` modules; perfbench/ is read, never edited."""
    # The harness modules import their siblings (spans, calibrate) by name.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # Leave no bytecode cache in perfbench/.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("layers"), importlib.import_module("grid")


def _record_sizes(monkeypatch, module, name):
    """Patch ``module.name``, a rule builder, to record the node count of every rule it builds."""
    sizes = []
    rule = getattr(module, name)

    def recording(*args):
        nodes, weights = rule(*args)
        sizes.append(nodes.size)
        return nodes, weights

    monkeypatch.setattr(module, name, recording)
    return sizes


@pytest.fixture
def z_rule_sizes(monkeypatch):
    """The node count of every rule ``plc_link._z_rule`` builds, in call order.

    A test doubles the nodes by patching ``plc_link.PANEL_ORDER``; the sizes
    show that the patched rule really has twice as many.
    """
    return _record_sizes(monkeypatch, plc_link, "_z_rule")


@pytest.fixture
def y_rule_sizes(monkeypatch):
    """The node count of every rule ``specfun.softplus_mean`` builds, in call order.

    A test doubles the nodes by patching ``specfun.PANEL_ORDER``.
    """
    return _record_sizes(monkeypatch, specfun, "gauss_legendre_panels")
