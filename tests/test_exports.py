"""Every exported name has work to do.

A name in a ``plcvlc`` module's ``__all__`` must be referenced in ``src/`` or
``perfbench/`` somewhere besides its definition and the ``__all__`` lists:
in code, or in a string (the harness traces attributes by name).  Comments
do not count, and neither do the tests: a helper that only its own tests
call is dead code.
"""

import functools
import importlib
import io
import pkgutil
import re
import tokenize
from collections import Counter
from pathlib import Path

import pytest

import plcvlc

ROOT = Path(__file__).resolve().parents[1]
_ALL_LIST = re.compile(r"^__all__ = \[.*?\]", re.MULTILINE | re.DOTALL)
# Python 3.12 splits an f-string into tokens of its own.
_TEXT_TOKENS = {tokenize.NAME, tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}


@functools.cache
def _reference_counts() -> Counter:
    """Word counts over the code and strings of src/ and perfbench/, less the ``__all__`` lists."""
    counts = Counter()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]):
        text = _ALL_LIST.sub("", path.read_text(encoding="utf-8"))
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type in _TEXT_TOKENS:
                counts.update(re.findall(r"\w+", token.string))
    return counts


def _exports():
    modules = [plcvlc] + [
        importlib.import_module(f"plcvlc.{info.name}")
        for info in pkgutil.iter_modules(plcvlc.__path__)
    ]
    return [
        (module.__name__, name)
        for module in modules
        for name in getattr(module, "__all__", ())
        if name != "__version__"
    ]


@pytest.mark.parametrize("module,name", _exports())
def test_every_export_is_referenced_beyond_its_definition(module, name):
    # One occurrence is the definition (or, for a re-export, the import).
    assert _reference_counts()[name] >= 2, f"{module}.{name} is used nowhere"
