"""No plcvlc module reads another plcvlc module's private names.

A name with a leading underscore is a module's own business: a caller that
needs it should get a public function instead (as the hops' ``log_snr_law``
serve the end-to-end mean).  The guard walks the syntax tree of every module
in ``src/plcvlc`` and flags both forms of such a read: an attribute
``plc_link._x`` on a module bound by ``from . import plc_link`` (or
``import plcvlc.plc_link as plc_link``), and ``from .plc_link import _x``.
Dunder names such as ``__version__`` are not private.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "plcvlc"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sibling(node: ast.ImportFrom) -> str | None:
    """The plcvlc module that ``from <module> import ...`` names, or None."""
    if node.level == 1:
        return node.module or ""  # "" is the package itself: ``from . import x``
    if node.level == 0 and node.module and node.module.split(".")[0] == "plcvlc":
        return node.module.partition(".")[2]
    return None


def private_reads(source: str, own: str) -> list[str]:
    """Every read of another plcvlc module's private name in ``source``, the module ``own``."""
    tree = ast.parse(source)
    aliases, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (module := _sibling(node)) is not None:
            for alias in node.names:
                if module == "":
                    aliases[alias.asname or alias.name] = alias.name
                elif module != own and _private(alias.name):
                    reads.append(f"from {module} import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "plcvlc" and module and alias.asname:
                    aliases[alias.asname] = module
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and aliases.get(node.value.id, own) != own
            and _private(node.attr)
        ):
            reads.append(f"{aliases[node.value.id]}.{node.attr}")
    return reads


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reads_another_modules_private_names(module):
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert private_reads(source, module) == []


def test_the_guard_sees_both_forms_of_a_private_read():
    source = (
        "from . import plc_link, vlc_link\n"
        "import plcvlc.specfun as sf\n"
        "from .montecarlo import _batch_rng, estimate\n"
        "from plcvlc.config import _KEYS\n"
        "x = plc_link._point_mass(vlc_link.log_snr_law) + sf._tiled_legendre_arrays\n"
        "y = plc_link.__name__ + self._own\n"
    )
    assert sorted(private_reads(source, "relay")) == [
        "from config import _KEYS",
        "from montecarlo import _batch_rng",
        "plc_link._point_mass",
        "specfun._tiled_legendre_arrays",
    ]
    # A module may read its own private names through any binding.
    assert private_reads("from . import relay\nrelay._LN2\n", "relay") == []
