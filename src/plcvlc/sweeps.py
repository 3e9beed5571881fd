"""Parameter sweeps, figure presets, validation runs and their CSV output.

``evaluate_point`` computes every analytic value any command reports for an
operating point; the ``eval`` lines, validation rows and sweep rows are views of
it beside the Monte Carlo estimates, and ``_agrees`` is their one 3-SE rule.

CSV files start with a comment block that echoes the full effective parameter
set; every number is written in shortest round-trip form, so a sweep with a
fixed config and seed is byte-identical across runs and worker counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import plc_link, relay, vlc_link
from .config import echo_lines
from .errors import ParameterError, is_integer, is_real
# `estimate` is unused here, but perfbench/layers.py traces sweeps.estimate by name.
from .montecarlo import Estimate, McConfig, estimate, estimate_many  # noqa: F401
from .relay import RelaySystemParams

__all__ = [
    "SWEEPABLE_VARIABLES",
    "FIGURE_PRESETS",
    "SweepSpec",
    "SweepRecord",
    "ValidationRow",
    "with_variable",
    "evaluate_point",
    "run_sweep",
    "report_csv",
    "run_validation",
    "validation_lines",
]

# Swept name -> (hop, params field); None targets the system level.
SWEEPABLE_VARIABLES: dict[str, tuple[str | None, str]] = {
    "relay_power": ("vlc", "tx_power_w"),
    "led_height": ("vlc", "height_m"),
    "cell_radius": ("vlc", "cell_radius_m"),
    "rate_threshold": (None, "rate_threshold_bits"),
    "source_power": ("plc", "tx_power_w"),
    "plc_distance": ("plc", "distance_m"),
}

CLOSED_VS_QUAD_RTOL = 1e-8
# The most grid points a sweep takes, refused before any list is built.
MAX_STEPS = 10 ** 6
_EXPECTED_VARIABLES = f"expected one of {sorted(SWEEPABLE_VARIABLES)}"

# The sampled columns of a sweep record: capacity, then outage.
_SWEEP_METRICS = ("e2e_avg_capacity", "e2e_outage")
# Each sampled metric of a validation run -> the evaluate_point value checked against it.
_VALIDATED = {
    "plc_avg_capacity": "plc_capacity", "vlc_avg_capacity": "vlc_capacity",
    "e2e_avg_capacity": "e2e_capacity_numeric",
    "plc_outage": "plc_outage", "vlc_outage": "vlc_outage", "e2e_outage": "e2e_outage",
}


@dataclass(frozen=True)
class SweepSpec:
    """One swept variable, with an optional second family variable."""

    variable: str
    start: float
    stop: float
    steps: int
    family_variable: str | None = None
    family_values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.variable not in SWEEPABLE_VARIABLES:
            raise ParameterError(f"unknown sweep variable {self.variable!r}; {_EXPECTED_VARIABLES}")
        named = [("start", self.start), ("stop", self.stop)]
        named += [(f"{self.family_variable} value", v) for v in self.family_values]
        for name, value in named:  # before any comparison: 'a' < 1.0 raises TypeError
            if not is_real(value):
                raise ParameterError(f"sweep of {self.variable!r}: {name} must be real, got {value!r}")
        if not self.start < self.stop:
            raise ParameterError(
                f"sweep of {self.variable!r}: start {self.start!r} must be strictly below "
                f"stop {self.stop!r}"
            )
        if not is_integer(self.steps):
            raise ParameterError(f"sweep of {self.variable!r}: steps must be an integer")
        if not 2 <= self.steps <= MAX_STEPS:
            raise ParameterError(f"sweep of {self.variable!r}: steps must be in [2, {MAX_STEPS}]")
        if not math.isfinite((self.stop - self.start) / (self.steps - 1)):  # inf if an end is inf
            raise ParameterError(f"sweep of {self.variable!r}: start, stop and step must be finite")
        if self.family_variable is not None:
            if self.family_variable not in SWEEPABLE_VARIABLES:
                name = self.family_variable
                raise ParameterError(f"unknown family variable {name!r}; {_EXPECTED_VARIABLES}")
            if self.family_variable == self.variable:
                raise ParameterError(
                    f"family variable {self.family_variable!r} must differ from the swept variable"
                )
            if not self.family_values:
                raise ParameterError(f"family variable {self.family_variable!r} has no values")
        elif self.family_values:
            raise ParameterError("family_values given without a family_variable")

    def grid(self) -> list[float]:
        step = (self.stop - self.start) / (self.steps - 1)
        return [self.start + i * step for i in range(self.steps)]


@dataclass(frozen=True)
class SweepRecord:
    """One grid point of a sweep: ``evaluate_point``'s values, two estimates, two flags."""

    swept_value: float
    family_value: float | None
    analytic: dict[str, float]
    mc_e2e_capacity: Estimate
    mc_e2e_outage: Estimate

    @property
    def outage_agrees(self) -> bool:
        return _agrees("e2e_outage", self.analytic["e2e_outage"], self.mc_e2e_outage)

    @property
    def capacity_within_bound(self) -> bool:
        """mean <= bound + 3 SE: one-sided, as the bound lies above the mean."""
        sampled = self.mc_e2e_capacity
        return sampled.mean <= self.analytic["e2e_capacity_bound"] + 3.0 * sampled.std_error


def _agrees(metric: str, value: float, sampled: Estimate) -> bool:
    """|value - mean| <= 3 SE, an outage's SE at least the binomial one at ``value``.

    A sample whose trials all agree reports SE 0, which no outage strictly
    between 0 and 1 would otherwise meet.
    """
    se = sampled.std_error
    if metric.endswith("outage"):
        se = max(se, math.sqrt(max(value * (1.0 - value), 0.0) / sampled.trials))
    return abs(value - sampled.mean) <= 3.0 * se


FIGURE_PRESETS: dict[int, SweepSpec] = {
    # Capacity vs relay power, one curve per LED height.
    2: SweepSpec("relay_power", 0.02, 0.5, 13, "led_height", (2.15, 2.5, 3.0)),
    # Capacity vs relay power, one curve per cell radius.
    3: SweepSpec("relay_power", 0.02, 0.5, 13, "cell_radius", (2.5, 3.6, 4.5)),
    # Outage vs rate threshold, one curve per LED height.
    4: SweepSpec("rate_threshold", 1.05, 1.8, 11, "led_height", (2.15, 2.5, 3.0)),
    # Outage vs rate threshold, one curve per relay power.
    5: SweepSpec("rate_threshold", 0.4, 2.2, 10, "relay_power", (0.05, 0.1, 0.2)),
}


def with_variable(system: RelaySystemParams, name: str, value: float) -> RelaySystemParams:
    """A copy of the system with one sweepable variable replaced.

    The changed parameter set is copied and re-validated by its ``__post_init__``;
    a refusal is raised again, prefixed with the variable and its value.
    """
    if name not in SWEEPABLE_VARIABLES:
        raise ParameterError(f"unknown sweep variable {name!r}; {_EXPECTED_VARIABLES}")
    hop, field = SWEEPABLE_VARIABLES[name]
    changed = _copied(system if hop is None else getattr(system, hop), field, value)
    try:
        changed.__post_init__()
    except ParameterError as exc:
        raise ParameterError(f"sweep variable {name!r} = {value!r}: {exc}") from exc
    # snr_threshold reads only the system's own fields, which a hop leaves as they are.
    return changed if hop is None else _copied(system, hop, changed)


def _copied(params, field: str, value):
    """``params`` with one field replaced; ``law`` and ``snr_threshold`` are left as they were."""
    copy = object.__new__(type(params))
    copy.__dict__.update(params.__dict__)
    copy.__dict__[field] = value
    return copy


def evaluate_point(system: RelaySystemParams) -> dict[str, float]:
    """Every analytic value any command reports for one operating point, by name.

    ``vlc_capacity`` is the closed form; ``e2e_capacity_bound``, duplex_factor
    * min of the hop means, lies above the exact ``e2e_capacity_numeric``.
    """
    plc_capacity = plc_link.avg_capacity(system.plc)
    vlc_capacity = vlc_link.avg_capacity_closed(system.vlc)
    plc_outage = plc_link.outage(system.plc, system.snr_threshold)
    vlc_outage = vlc_link.outage(system.vlc, system.snr_threshold)
    return {
        "plc_attenuation_per_m": plc_link.attenuation_coeff(system.plc),
        "plc_snr_scale": plc_link.snr_scale(system.plc),
        "snr_threshold": system.snr_threshold,
        "plc_capacity": plc_capacity,
        "vlc_capacity": vlc_capacity,
        "vlc_capacity_quad": vlc_link.avg_capacity_quad(system.vlc),
        "e2e_capacity_bound": system.duplex_factor * min(plc_capacity, vlc_capacity),
        "e2e_capacity_numeric": relay.e2e_avg_capacity_numeric(system),
        "plc_outage": plc_outage,
        "vlc_outage": vlc_outage,
        "e2e_outage": relay.e2e_outage(plc_outage, vlc_outage),
    }


def run_sweep(
    spec: SweepSpec,
    system: RelaySystemParams,
    mc: McConfig,
    workers: int = 1,
) -> tuple[SweepRecord, ...]:
    """Evaluate every grid point (times every family value, when present).

    The Monte Carlo columns of all points come from one sampling pass.
    """
    points: list[tuple[float, float | None, RelaySystemParams]] = []
    family: tuple[float | None, ...] = spec.family_values or (None,)
    for swept_value in spec.grid():
        for family_value in family:
            point = with_variable(system, spec.variable, swept_value)
            if spec.family_variable is not None:
                point = with_variable(point, spec.family_variable, family_value)
            points.append((swept_value, family_value, point))
    sampled = estimate_many(
        [(metric, point) for _, _, point in points for metric in _SWEEP_METRICS], mc, workers
    )
    return tuple(
        SweepRecord(swept_value, family_value, evaluate_point(point), capacity, outage)
        for (swept_value, family_value, point), capacity, outage in zip(
            points, sampled[0::2], sampled[1::2]
        )
    )


# (header, cell of a (spec, record) pair): the header line and every row.
_CSV_COLUMNS = (
    ("swept_variable", lambda spec, r: spec.variable),
    ("swept_value", lambda spec, r: repr(r.swept_value)),
    ("family_variable", lambda spec, r: spec.family_variable or ""),
    ("family_value", lambda spec, r: "" if r.family_value is None else repr(r.family_value)),
    *((column, lambda spec, r, key=key: repr(r.analytic[key])) for column, key in (
        ("plc_capacity_analytic", "plc_capacity"), ("vlc_capacity_analytic", "vlc_capacity"),
        ("e2e_capacity_bound", "e2e_capacity_bound"), ("plc_outage_analytic", "plc_outage"),
        ("vlc_outage_analytic", "vlc_outage"), ("e2e_outage_analytic", "e2e_outage"),
    )),
    ("e2e_capacity_mc", lambda spec, r: repr(r.mc_e2e_capacity.mean)),
    ("e2e_capacity_mc_se", lambda spec, r: repr(r.mc_e2e_capacity.std_error)),
    ("e2e_outage_mc", lambda spec, r: repr(r.mc_e2e_outage.mean)),
    ("e2e_outage_mc_se", lambda spec, r: repr(r.mc_e2e_outage.std_error)),
    ("e2e_outage_agrees", lambda spec, r: "true" if r.outage_agrees else "false"),
    ("e2e_capacity_within_bound", lambda spec, r: "true" if r.capacity_within_bound else "false"),
)


def report_csv(
    spec: SweepSpec, records: tuple[SweepRecord, ...], system: RelaySystemParams, mc: McConfig
) -> str:
    """Render a sweep's records as CSV text with the parameter echo header."""
    lines = ["# plcvlc sweep report"]
    lines.extend(echo_lines(system, mc))
    lines.append(f"# sweep.variable = {spec.variable}")
    lines.append(f"# sweep.start = {spec.start!r}")
    lines.append(f"# sweep.stop = {spec.stop!r}")
    lines.append(f"# sweep.steps = {spec.steps!r}")
    if spec.family_variable is not None:
        lines.append(f"# sweep.family_variable = {spec.family_variable}")
        lines.append(
            "# sweep.family_values = " + ",".join(repr(v) for v in spec.family_values)
        )
    lines.append(",".join(header for header, _ in _CSV_COLUMNS))
    for r in records:
        lines.append(",".join(cell(spec, r) for _, cell in _CSV_COLUMNS))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ValidationRow:
    """One analytic-versus-reference comparison from a validation run."""

    name: str
    analytic: float
    reference: float
    std_error: float
    agrees: bool


def run_validation(
    system: RelaySystemParams,
    mc: McConfig,
    workers: int = 1,
) -> list[ValidationRow]:
    """Compare all six metrics against Monte Carlo, plus closed form vs quadrature.

    A metric row checks the ``_VALIDATED`` value of ``evaluate_point`` by
    ``_agrees``; the closed-form row agrees when it matches the Gauss-Legendre
    quadrature to ``CLOSED_VS_QUAD_RTOL`` relative.
    """
    point = evaluate_point(system)
    sampled = estimate_many([(metric, system) for metric in _VALIDATED], mc, workers)
    rows = [
        ValidationRow(metric, point[key], est.mean, est.std_error, _agrees(metric, point[key], est))
        for (metric, key), est in zip(_VALIDATED.items(), sampled)
    ]
    closed, quad = point["vlc_capacity"], point["vlc_capacity_quad"]
    agrees = math.isclose(closed, quad, rel_tol=CLOSED_VS_QUAD_RTOL, abs_tol=1e-300)
    return [*rows, ValidationRow("vlc_capacity_closed_vs_quad", closed, quad, 0.0, agrees)]


def validation_lines(rows: list[ValidationRow]) -> list[str]:
    """Human-readable table for a validation run."""
    width = max(len(r.name) for r in rows)
    lines = [f"{'metric':<{width}}  {'analytic':>14}  {'reference':>14}  {'std_error':>12}  result"]
    for r in rows:
        verdict = "agree" if r.agrees else "DISAGREE"
        lines.append(
            f"{r.name:<{width}}  {r.analytic:>14.8g}  {r.reference:>14.8g}  "
            f"{r.std_error:>12.3g}  {verdict}"
        )
    return lines
