"""Parameter sweeps, figure presets, validation runs and their CSV output.

``evaluate_point`` computes every analytic value of an operating point; sweeps,
validation runs and the ``eval`` command take their analytic numbers from it.

CSV files start with a comment block that echoes the full effective parameter
set; every number is written in shortest round-trip form, so a sweep with a
fixed config and seed is byte-identical across runs and worker counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import plc_link, relay, vlc_link
from .config import echo_lines
from .errors import ParameterError
# `estimate` is unused here, but perfbench/layers.py traces sweeps.estimate by name.
from .montecarlo import Estimate, McConfig, estimate, estimate_many  # noqa: F401
from .relay import RelaySystemParams

__all__ = [
    "SWEEPABLE_VARIABLES",
    "FIGURE_PRESETS",
    "SweepSpec",
    "SweepRecord",
    "RunReport",
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
        if not self.start < self.stop:
            raise ParameterError(
                f"sweep of {self.variable!r}: start {self.start!r} must be strictly below "
                f"stop {self.stop!r}"
            )
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
    """One grid point of a sweep: analytic values, sampled values, flags."""

    swept_value: float
    family_value: float | None
    snr_threshold: float
    plc_capacity: float
    vlc_capacity: float
    e2e_capacity_bound: float
    plc_outage: float
    vlc_outage: float
    e2e_outage: float
    mc_e2e_capacity: Estimate
    mc_e2e_outage: Estimate

    @property
    def outage_agrees(self) -> bool:
        return _outage_agrees(self.e2e_outage, self.mc_e2e_outage)

    @property
    def capacity_within_bound(self) -> bool:
        return (
            self.mc_e2e_capacity.mean
            <= self.e2e_capacity_bound + 3.0 * self.mc_e2e_capacity.std_error
        )


def _outage_agrees(probability: float, sampled: Estimate) -> bool:
    """|p - mean| <= 3 SE, the SE at least the binomial one at the analytic p.

    A sample whose trials all agree reports SE 0, which no p strictly
    between 0 and 1 would otherwise meet.
    """
    binomial = math.sqrt(max(probability * (1.0 - probability), 0.0) / sampled.trials)
    return abs(probability - sampled.mean) <= 3.0 * max(sampled.std_error, binomial)


@dataclass(frozen=True)
class RunReport:
    spec: SweepSpec
    records: tuple[SweepRecord, ...]

    @property
    def all_agree(self) -> bool:
        return all(r.outage_agrees and r.capacity_within_bound for r in self.records)


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

    Each changed parameter set is copied and re-validated by its ``__post_init__``;
    a refusal is raised again, prefixed with the variable and its value.
    """
    hop, field = SWEEPABLE_VARIABLES[name]
    try:
        if hop is None:
            return _replaced(system, field, value)
        return _replaced(system, hop, _replaced(getattr(system, hop), field, value))
    except ParameterError as exc:
        raise ParameterError(f"sweep variable {name!r} = {value!r}: {exc}") from exc


def _replaced(params, field: str, value):
    """``dataclasses.replace(params, field=value)``, with ``law`` set by ``__post_init__``."""
    copy = object.__new__(type(params))
    copy.__dict__.update(params.__dict__)
    copy.__dict__[field] = value
    copy.__post_init__()
    return copy


def evaluate_point(system: RelaySystemParams) -> dict[str, float]:
    """Every analytic value of one operating point, keyed by its ``SweepRecord`` field."""
    threshold = system.snr_threshold
    plc_capacity = plc_link.avg_capacity(system.plc)
    vlc_capacity = vlc_link.avg_capacity_closed(system.vlc)
    plc_outage = plc_link.outage(system.plc, threshold)
    vlc_outage = vlc_link.outage(system.vlc, threshold)
    return {
        "snr_threshold": threshold,
        "plc_capacity": plc_capacity,
        "vlc_capacity": vlc_capacity,
        "e2e_capacity_bound": relay.e2e_capacity(plc_capacity, vlc_capacity, system.duplex_factor),
        "plc_outage": plc_outage,
        "vlc_outage": vlc_outage,
        "e2e_outage": relay.e2e_outage(plc_outage, vlc_outage),
    }


def run_sweep(
    spec: SweepSpec,
    system: RelaySystemParams,
    mc: McConfig,
    workers: int = 1,
) -> RunReport:
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
    records = tuple(
        SweepRecord(
            swept_value=swept_value,
            family_value=family_value,
            **evaluate_point(point),
            mc_e2e_capacity=capacity,
            mc_e2e_outage=outage,
        )
        for (swept_value, family_value, point), capacity, outage in zip(
            points, sampled[0::2], sampled[1::2]
        )
    )
    return RunReport(spec=spec, records=records)


# (header, cell of a (spec, record) pair): the header line and every row.
_CSV_COLUMNS = (
    ("swept_variable", lambda spec, r: spec.variable),
    ("swept_value", lambda spec, r: repr(r.swept_value)),
    ("family_variable", lambda spec, r: spec.family_variable or ""),
    ("family_value", lambda spec, r: "" if r.family_value is None else repr(r.family_value)),
    ("plc_capacity_analytic", lambda spec, r: repr(r.plc_capacity)),
    ("vlc_capacity_analytic", lambda spec, r: repr(r.vlc_capacity)),
    ("e2e_capacity_bound", lambda spec, r: repr(r.e2e_capacity_bound)),
    ("plc_outage_analytic", lambda spec, r: repr(r.plc_outage)),
    ("vlc_outage_analytic", lambda spec, r: repr(r.vlc_outage)),
    ("e2e_outage_analytic", lambda spec, r: repr(r.e2e_outage)),
    ("e2e_capacity_mc", lambda spec, r: repr(r.mc_e2e_capacity.mean)),
    ("e2e_capacity_mc_se", lambda spec, r: repr(r.mc_e2e_capacity.std_error)),
    ("e2e_outage_mc", lambda spec, r: repr(r.mc_e2e_outage.mean)),
    ("e2e_outage_mc_se", lambda spec, r: repr(r.mc_e2e_outage.std_error)),
    ("e2e_outage_agrees", lambda spec, r: "true" if r.outage_agrees else "false"),
    ("e2e_capacity_within_bound", lambda spec, r: "true" if r.capacity_within_bound else "false"),
)


def report_csv(report: RunReport, system: RelaySystemParams, mc: McConfig) -> str:
    """Render a run report as CSV text with the parameter echo header."""
    spec = report.spec
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
    for r in report.records:
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
) -> tuple[list[ValidationRow], bool]:
    """Compare all six metrics against Monte Carlo, plus closed form vs quadrature.

    A metric row agrees when |analytic - sampled| <= 3 standard errors, an
    outage's at least the binomial one at the analytic probability; the
    closed-form row agrees when it matches the Gauss-Legendre quadrature to
    ``CLOSED_VS_QUAD_RTOL`` relative.
    """
    point = evaluate_point(system)
    analytic = {
        "plc_avg_capacity": point["plc_capacity"],
        "vlc_avg_capacity": point["vlc_capacity"],
        "e2e_avg_capacity": relay.e2e_avg_capacity_numeric(system),
        "plc_outage": point["plc_outage"],
        "vlc_outage": point["vlc_outage"],
        "e2e_outage": point["e2e_outage"],
    }
    sampled = estimate_many([(metric, system) for metric in analytic], mc, workers)
    rows = [
        ValidationRow(
            name=metric,
            analytic=value,
            reference=est.mean,
            std_error=est.std_error,
            agrees=(
                _outage_agrees(value, est) if metric.endswith("outage")
                else abs(value - est.mean) <= 3.0 * est.std_error
            ),
        )
        for (metric, value), est in zip(analytic.items(), sampled)
    ]
    closed, quad = point["vlc_capacity"], vlc_link.avg_capacity_quad(system.vlc)
    rows.append(
        ValidationRow(
            name="vlc_capacity_closed_vs_quad",
            analytic=closed,
            reference=quad,
            std_error=0.0,
            agrees=math.isclose(closed, quad, rel_tol=CLOSED_VS_QUAD_RTOL, abs_tol=1e-300),
        )
    )
    return rows, all(row.agrees for row in rows)


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
