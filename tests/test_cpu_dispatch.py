"""The determinism contract across NumPy's CPU dispatch levels.

NumPy picks a SIMD kernel per ufunc at run time.  ``NPY_DISABLE_CPU_FEATURES``
turns the higher targets off, set here in each child process only.  At every
level the machine has, ``validate`` and ``figure 2`` must print the same
lines, flags and exit codes.  Their numbers must agree to within
``MAX_ULPS`` ulps.

Measured with NumPy 2.4 on an AVX-512 machine at 20000 trials: the levels
with AVX-512 on are byte-identical, and so are the two with it off.  Between
those two groups, ``validate`` is byte-identical.  In ``figure 2``, the Monte
Carlo means moved by at most 2 ulps and the VLC closed form by 3.  The
standard errors moved by up to 11 ulps (1.3e-15 relative), because the sum
of squares cancels.
"""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import plcvlc

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # NumPy 1.x
    from numpy.core import _multiarray_umath as _umath

MAX_ULPS = 32
# Dispatch targets, lowest first, that this machine's CPU has.
_TARGETS = [t for t in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(t)]
_CHILD = (
    "from plcvlc import cli; print(*[cli.main(args) for args in ("
    "['validate', '--trials', '20000'], ['figure', '2', '--trials', '20000'])])"
)
_SEPARATORS = re.compile(r"[,\s]+")


def _run_at_level(disabled: list[str]) -> str:
    env = dict(os.environ)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    src = str(Path(plcvlc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, capture_output=True, text=True, timeout=300
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


def _ulps(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def _differences(want: str, got: str) -> list[str]:
    """Lines whose tokens differ other than by at most ``MAX_ULPS`` in a number."""
    want_lines, got_lines = want.splitlines(), got.splitlines()
    if len(want_lines) != len(got_lines):
        return [f"{len(got_lines)} lines, expected {len(want_lines)}"]
    bad = []
    for want_line, got_line in zip(want_lines, got_lines):
        want_tokens, got_tokens = _SEPARATORS.split(want_line), _SEPARATORS.split(got_line)
        if len(want_tokens) != len(got_tokens) or any(
            a != b and not _numbers_within(a, b) for a, b in zip(want_tokens, got_tokens)
        ):
            bad.append(f"{got_line!r}, expected {want_line!r}")
    return bad


def _numbers_within(a: str, b: str) -> bool:
    try:
        return _ulps(float(a), float(b)) <= MAX_ULPS
    except ValueError:  # a flag or a name
        return False


def test_outputs_agree_at_every_cpu_dispatch_level():
    # Level k turns off every target above the k lowest, highest first.
    levels = [_TARGETS[k:][::-1] for k in range(len(_TARGETS), -1, -1)]
    outputs = [_run_at_level(disabled) for disabled in levels]
    assert "vlc_capacity_closed_vs_quad" in outputs[0] and "e2e_outage_agrees" in outputs[0]
    for disabled, output in zip(levels[1:], outputs[1:]):
        assert _differences(outputs[0], output) == [], disabled
