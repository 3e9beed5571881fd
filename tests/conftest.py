import importlib
import sys
from pathlib import Path

import pytest

from plcvlc import load_config, specfun

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


@pytest.fixture
def rule_sizes(monkeypatch):
    """The node count of every rule ``specfun.gauss_legendre_panels`` builds, in call order.

    Every analytic mean builds its rule there.  A test doubles the nodes by
    patching ``specfun.PANEL_ORDER``; the sizes show that the patched rules
    really have twice as many.
    """
    sizes = []
    rule = specfun.gauss_legendre_panels

    def recording(*args):
        nodes, weights = rule(*args)
        sizes.append(nodes.size)
        return nodes, weights

    monkeypatch.setattr(specfun, "gauss_legendre_panels", recording)
    return sizes
