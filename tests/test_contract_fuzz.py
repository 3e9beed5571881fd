"""Contract fuzz of the command line over bounded configs and sweep ranges.

Whatever is set, ``eval``, ``sweep`` and ``validate`` exit 0, 1 or 2 without
a traceback; on exit 0 every number they print is finite, and an exit-2
message names a config key, option or sweep variable that was set.  Trials,
steps and workers stay small, so no example asks for a large allocation or
many threads.
"""

import contextlib
import io
import math
import os
import re
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from plcvlc import cli
from plcvlc.config import DEFAULTS
from plcvlc.sweeps import SWEEPABLE_VARIABLES

_HOSTILE = (
    -1e300, -1.0, 0.0, 5e-324, 1e-320, 1e-300, 1e-9, 0.5, 2.0, 89.9, 90.0, 1e6, 1e20, 1e60, 1e300,
)
_INT_VALUES = {
    "trials": st.integers(10, 2_000),
    "seed": st.integers(-1, 2 ** 64),
    "batch_size": st.integers(-1, 4_096),
    "quadrature_order": st.integers(-1, 210),
}
_FLOATS = st.one_of(
    st.sampled_from(_HOSTILE),
    st.floats(-1e300, 1e300, allow_nan=False),
    st.floats(1e-3, 1e3),
)


def _value(key: str):
    return _INT_VALUES.get(key, _FLOATS)


_CONFIGS = st.dictionaries(
    st.sampled_from(sorted(DEFAULTS)), st.just(None), max_size=3
).flatmap(
    lambda picked: st.fixed_dictionaries({key: _value(key) for key in picked})
)
_RUN = st.fixed_dictionaries({
    "config": _CONFIGS,
    "trials": st.integers(1_000, 2_000),
    "workers": st.integers(1, 2),
})
# Infinite bounds, and finite ones whose step overflows.
_BOUNDS = st.one_of(_FLOATS, st.sampled_from((-math.inf, math.inf, -1e308, 1e308)))
_SWEEP = st.fixed_dictionaries({
    "variable": st.sampled_from(sorted(SWEEPABLE_VARIABLES)),
    "start": _BOUNDS,
    "stop": _BOUNDS,
    "steps": st.integers(1, 3),
    "family": st.one_of(
        st.none(),
        st.tuples(
            st.sampled_from(sorted(SWEEPABLE_VARIABLES)), st.lists(_FLOATS, min_size=1, max_size=2)
        ),
    ),
})
_FUZZ = settings(max_examples=120, derandomize=True, deadline=None, database=None)


def _run(command: list[str], run: dict, names: set[str]) -> None:
    """Run the CLI on ``run``'s config and check the contract."""
    config = run["config"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.cfg")
        with open(path, "w") as handle:
            handle.writelines(f"{key} = {value!r}\n" for key, value in config.items())
        args = [*command, "--config", path, "--workers", str(run["workers"])]
        if "trials" not in config:
            args += ["--trials", str(run["trials"])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args)
    assert code in (0, 1, 2), (args, config, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        numbers = [float(token) for token in re.split(r"[\s,=]+", out.getvalue())
                   if re.fullmatch(r"[-+]?(\d|\.\d|inf|nan).*", token)]
        assert all(math.isfinite(x) for x in numbers), (config, out.getvalue())
    if code == 2:
        named = names | set(config) | {"trials"}
        message = err.getvalue()
        assert any(f"'{name}'" in message for name in named), (config, message)


@_FUZZ
@given(_RUN)
def test_eval_keeps_the_contract(run):
    _run(["eval"], run, set())


@_FUZZ
@given(_RUN)
def test_validate_keeps_the_contract(run):
    _run(["validate"], run, set())


@_FUZZ
@given(_RUN, _SWEEP)
def test_sweep_keeps_the_contract(run, sweep):
    # --from=X, so that argparse takes a negative X as a value, not an option.
    command = ["sweep", "--var", sweep["variable"], f"--from={sweep['start']!r}",
               f"--to={sweep['stop']!r}", "--steps", str(sweep["steps"])]
    names = {sweep["variable"]}
    if sweep["family"] is not None:
        family, values = sweep["family"]
        command += ["--family", f"{family}=" + ",".join(map(repr, values))]
        names.add(family)
    _run(command, run, names)
