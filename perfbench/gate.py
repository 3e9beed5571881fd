"""Correctness gate for benchmark operations.

Every operation's output is checked here; an operation that yields any
problem counts as failed.  Analytic values are compared with references
computed independently in mpmath from the physical model (Gaussian-dB fading
for the power-line hop, a uniformly placed user under a Lambertian LED for the
visible-light hop), never with an earlier output of the program, so an
accuracy fix in the program cannot count as a failure.

Monte Carlo values must lie within ``MC_SIGMAS`` standard errors of their
analytic values.  That is wider than the program's own 3-SE agreement flag, so
a chance 3-SE miss on a new seed is not a failure.
"""

from __future__ import annotations

import math
import re

import mpmath

MC_SIGMAS = 5.0
# Gauss-Hermite-30 is the program's PLC mean; its error against a 30-digit
# reference is 3.2e-7 at 6 dB and reaches about 8e-7 at the far edge of the
# analytic-grid ranges, so capacities get a tolerance above that.
CAPACITY_RTOL = 5e-6
OUTAGE_RTOL = 1e-9
ATOL = 1e-12
CLOSED_VS_QUAD_RTOL = 1e-8
# Relative rounding of the ``%.8g`` columns of the validate table.
TABLE_RTOL = 1e-8
REFERENCE_DPS = 15

_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _close(value: float, reference: float, rtol: float) -> bool:
    return abs(value - reference) <= rtol * abs(reference) + ATOL


# ---------------------------------------------------------------------------
# Independent references, computed from a flat ``{echo key: value}`` mapping.
# ---------------------------------------------------------------------------

class References:
    """mpmath references for one parameter set, cached per distinct inputs."""

    def __init__(self) -> None:
        self._cache: dict[tuple, float] = {}

    def _memo(self, kind: str, p: dict, keys: tuple[str, ...], compute, *extra) -> float:
        key = (kind, *(p[k] for k in keys), *extra)
        if key not in self._cache:
            with mpmath.workdps(REFERENCE_DPS):
                self._cache[key] = float(compute(p, *extra))
        return self._cache[key]

    def plc_capacity(self, p: dict) -> float:
        return self._memo("plc_cap", p, _PLC_KEYS, _plc_capacity)

    def plc_outage(self, p: dict, threshold: float) -> float:
        return self._memo("plc_out", p, _PLC_KEYS, _plc_outage, threshold)

    def vlc_capacity(self, p: dict) -> float:
        return self._memo("vlc_cap", p, _VLC_KEYS, _vlc_capacity)

    def vlc_outage(self, p: dict, threshold: float) -> float:
        return self._memo("vlc_out", p, _VLC_KEYS, _vlc_outage, threshold)


_PLC_KEYS = (
    "plc.frequency_hz", "plc.atten_k", "plc.atten_a0", "plc.atten_a1", "plc.distance_m",
    "plc.tx_power_w", "plc.noise_variance", "plc.fading_mu_db", "plc.fading_sigma_db",
)
_VLC_KEYS = (
    "vlc.tx_power_w", "vlc.noise_variance", "vlc.detector_area", "vlc.filter_gain",
    "vlc.concentrator_gain", "vlc.responsivity", "vlc.cell_radius_m", "vlc.height_m",
    "vlc.semi_angle_rad",
)


def snr_threshold(p: dict) -> float:
    return 2.0 ** (p["system.rate_threshold_bits"] / p["system.duplex_factor"]) - 1.0


def _plc_scale(p: dict):
    mpf = mpmath.mpf
    alpha = mpf(p["plc.atten_a0"]) + mpf(p["plc.atten_a1"]) * mpf(p["plc.frequency_hz"]) ** mpf(
        p["plc.atten_k"]
    )
    return mpf(p["plc.tx_power_w"]) * mpmath.exp(-2 * alpha * p["plc.distance_m"]) / p[
        "plc.noise_variance"
    ]


def _plc_capacity(p: dict):
    """E[log2(1 + a*10**((mu + sigma*U)/5))] for U standard normal."""
    a = _plc_scale(p)
    mu, sigma = mpmath.mpf(p["plc.fading_mu_db"]), mpmath.mpf(p["plc.fading_sigma_db"])
    if sigma == 0:
        return mpmath.log(1 + a * mpmath.power(10, mu / 5), 2)

    def integrand(u):
        return mpmath.npdf(u) * mpmath.log(1 + a * mpmath.power(10, (mu + sigma * u) / 5), 2)

    # Split at the knee of log(1 + snr), where the SNR crosses one; the
    # normal weight is below 1e-32 outside |u| <= 12.
    knee = (5 * mpmath.log10(1 / a) - mu) / sigma
    nodes = sorted({-12, 12, max(-12, min(12, knee))})
    return mpmath.quad(integrand, nodes, method="gauss-legendre")


def _plc_outage(p: dict, threshold: float):
    if threshold <= 0:
        return 0
    a = _plc_scale(p)
    mu, sigma = mpmath.mpf(p["plc.fading_mu_db"]), mpmath.mpf(p["plc.fading_sigma_db"])
    if sigma == 0:
        return 0 if a * mpmath.power(10, mu / 5) >= threshold else 1
    return mpmath.ncdf((5 * mpmath.log10(threshold / a) - mu) / sigma)


def _vlc_gain_law(p: dict):
    """(A, m, L, R, rho) with h(r) = A / (r^2 + L^2)**((m+3)/2)."""
    mpf = mpmath.mpf
    m = -1 / mpmath.log(mpmath.cos(mpf(p["vlc.semi_angle_rad"])), 2)
    q = (
        mpf(p["vlc.detector_area"]) * mpf(p["vlc.filter_gain"]) * mpf(p["vlc.concentrator_gain"])
        * mpf(p["vlc.responsivity"]) / (2 * mpmath.pi)
    )
    height = mpf(p["vlc.height_m"])
    amplitude = q * (m + 1) * height ** (m + 1)
    rho = mpf(p["vlc.tx_power_w"]) / p["vlc.noise_variance"]
    return amplitude, m, height, mpf(p["vlc.cell_radius_m"]), rho


def _vlc_capacity(p: dict):
    """E[log2(1 + rho*h(r)^2)] for r the radius of a uniform point in the disc."""
    amplitude, m, height, radius, rho = _vlc_gain_law(p)

    def integrand(r):
        gain = amplitude * (r * r + height * height) ** (-(m + 3) / 2)
        return mpmath.log(1 + rho * gain * gain, 2) * 2 * r / radius ** 2

    return mpmath.quad(integrand, [0, radius], method="gauss-legendre")


def _vlc_outage(p: dict, threshold: float):
    """P(rho*h(r)^2 < threshold) = P(r > r*), where h(r*)^2 = threshold/rho."""
    if threshold <= 0:
        return 0
    amplitude, m, height, radius, rho = _vlc_gain_law(p)
    gain = mpmath.sqrt(threshold / rho)
    r_sq = (amplitude / gain) ** (2 / (m + 3)) - height * height
    return 1 - min(max(r_sq / radius ** 2, 0), 1)


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------

def process_problems(returncode: int, stdout: str, stderr: str, allowed_codes=(0,)) -> list[str]:
    problems = []
    if returncode not in allowed_codes:
        problems.append(f"exit code {returncode}")
    if "Traceback" in stdout or "Traceback" in stderr:
        problems.append("traceback printed")
    for stream, text in (("stdout", stdout), ("stderr", stderr)):
        match = _NON_FINITE.search(text)
        if match:
            problems.append(f"non-finite number {match.group(0)!r} on {stream}")
    return problems


def _probability(name: str, value: float) -> list[str]:
    return [] if 0.0 <= value <= 1.0 else [f"{name} = {value!r} outside [0, 1]"]


def _mc_problem(name: str, analytic: float, mean: float, se: float, trials: int,
                outage: bool, slack: float = 0.0) -> list[str]:
    if outage:
        # A degenerate sample reports SE 0; the binomial SE at the analytic
        # probability keeps a rare-event miss from counting as a failure.
        se = max(se, math.sqrt(max(analytic * (1.0 - analytic), 0.0) / trials))
    if abs(analytic - mean) <= MC_SIGMAS * se + slack * abs(analytic) + ATOL:
        return []
    return [f"{name}: Monte Carlo {mean!r} is more than {MC_SIGMAS:g} SE ({se!r}) "
            f"from analytic {analytic!r}"]


def _reference_problems(refs: References, p: dict, got: dict, extra_rtol: float = 0.0) -> list[str]:
    """Compare per-hop capacities and outages (and their composition) with mpmath."""
    threshold = snr_threshold(p)
    plc_out = refs.plc_outage(p, threshold)
    vlc_out = refs.vlc_outage(p, threshold)
    expected = {
        "plc_capacity": (refs.plc_capacity(p), CAPACITY_RTOL),
        "vlc_capacity": (refs.vlc_capacity(p), CAPACITY_RTOL),
        "plc_outage": (plc_out, OUTAGE_RTOL),
        "vlc_outage": (vlc_out, OUTAGE_RTOL),
        "e2e_outage": (plc_out + (1.0 - plc_out) * vlc_out, OUTAGE_RTOL),
    }
    problems = []
    for name, value in got.items():
        reference, rtol = expected[name]
        if not _close(value, reference, rtol + extra_rtol):
            problems.append(f"{name} = {value!r} drifts from mpmath reference {reference!r}")
    return problems


def _composition_problems(p1: float, p2: float, e2e: float, tol: float) -> list[str]:
    problems = _probability("plc_outage", p1) + _probability("vlc_outage", p2)
    problems += _probability("e2e_outage", e2e)
    if abs(e2e - (p1 + (1.0 - p1) * p2)) > tol:
        problems.append(f"e2e_outage {e2e!r} breaks p1 + (1 - p1) * p2 for p1={p1!r}, p2={p2!r}")
    return problems


def parse_echo(lines) -> dict:
    """``# key = value`` echo lines -> {key: float}; other lines are skipped."""
    echo = {}
    for line in lines:
        if not line.startswith("# ") or " = " not in line:
            continue
        key, _, value = line[2:].partition(" = ")
        try:
            echo[key] = float(value)
        except ValueError:
            echo[key] = value
    return echo


# ---------------------------------------------------------------------------
# Per-workload gates
# ---------------------------------------------------------------------------

def check_sweep_csv(text: str, refs: References) -> list[str]:
    """Gate for the CSV of ``figure``/``sweep``: analytic, composition and MC checks."""
    lines = text.splitlines()
    echo = parse_echo(lines)
    body = [line for line in lines if not line.startswith("#")]
    if not body:
        return ["no CSV header"]
    columns = body[0].split(",")
    rows = [dict(zip(columns, line.split(","))) for line in body[1:]]
    expected_rows = int(echo.get("sweep.steps", 0)) * max(
        1, len(str(echo.get("sweep.family_values", "")).split(","))
    )
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} CSV rows, expected {expected_rows}")
    trials = int(echo["mc.trials"])
    for index, row in enumerate(rows):
        try:
            problems += [f"row {index}: {p}" for p in _check_sweep_row(row, echo, trials, refs)]
        except (KeyError, ValueError) as exc:
            problems.append(f"row {index}: unreadable ({exc!r})")
    return problems


_SWEEP_KEYS = {
    "relay_power": "vlc.tx_power_w",
    "led_height": "vlc.height_m",
    "cell_radius": "vlc.cell_radius_m",
    "rate_threshold": "system.rate_threshold_bits",
    "source_power": "plc.tx_power_w",
    "plc_distance": "plc.distance_m",
}


def grid_point_params(echo: dict, point: dict) -> dict:
    """The parameter set of one analytic-grid point (``grid.make_points``)."""
    params = dict(echo)
    for name, key in _SWEEP_KEYS.items():
        if name in point:
            params[key] = point[name]
    params["plc.fading_sigma_db"] = point["fading_sigma_db"]
    params["vlc.semi_angle_rad"] = math.radians(point["semi_angle_deg"])
    return params


_SWEEP_NUMBERS = (
    "plc_capacity_analytic", "vlc_capacity_analytic", "e2e_capacity_bound",
    "plc_outage_analytic", "vlc_outage_analytic", "e2e_outage_analytic",
    "e2e_capacity_mc", "e2e_capacity_mc_se", "e2e_outage_mc", "e2e_outage_mc_se",
)


def _check_sweep_row(row: dict, echo: dict, trials: int, refs: References) -> list[str]:
    p = dict(echo)
    p[_SWEEP_KEYS[row["swept_variable"]]] = float(row["swept_value"])
    if row["family_variable"]:
        p[_SWEEP_KEYS[row["family_variable"]]] = float(row["family_value"])
    v = {k: float(row[k]) for k in _SWEEP_NUMBERS}
    cap_plc, cap_vlc = v["plc_capacity_analytic"], v["vlc_capacity_analytic"]
    p1, p2, e2e = v["plc_outage_analytic"], v["vlc_outage_analytic"], v["e2e_outage_analytic"]
    bound = v["e2e_capacity_bound"]
    problems = _composition_problems(p1, p2, e2e, 1e-12)
    expected_bound = p["system.duplex_factor"] * min(cap_plc, cap_vlc)
    if not _close(bound, expected_bound, 1e-12):
        problems.append(f"e2e_capacity_bound {bound!r} != duplex * min = {expected_bound!r}")
    problems += _reference_problems(refs, p, {
        "plc_capacity": cap_plc, "vlc_capacity": cap_vlc,
        "plc_outage": p1, "vlc_outage": p2, "e2e_outage": e2e,
    })
    problems += _mc_problem("e2e_outage", e2e, v["e2e_outage_mc"], v["e2e_outage_mc_se"],
                            trials, outage=True)
    mc_cap, mc_cap_se = v["e2e_capacity_mc"], v["e2e_capacity_mc_se"]
    if not 0.0 <= mc_cap <= bound + MC_SIGMAS * mc_cap_se + ATOL:
        problems.append(f"e2e_capacity_mc {mc_cap!r} outside [0, bound + {MC_SIGMAS:g} SE]")
    return problems


VALIDATION_METRICS = (
    "plc_avg_capacity", "vlc_avg_capacity", "e2e_avg_capacity",
    "plc_outage", "vlc_outage", "e2e_outage", "vlc_capacity_closed_vs_quad",
)


def check_validation_table(text: str, p: dict, trials: int, refs: References) -> list[str]:
    """Gate for the table printed by ``validate`` at the parameter set ``p``."""
    rows = {}
    for line in text.splitlines()[1:]:
        fields = line.split()
        if len(fields) == 5:
            rows[fields[0]] = fields
    if tuple(rows) != VALIDATION_METRICS:
        return [f"validation rows {tuple(rows)} != {VALIDATION_METRICS}"]
    analytic = {name: float(f[1]) for name, f in rows.items()}
    problems = _composition_problems(
        analytic["plc_outage"], analytic["vlc_outage"], analytic["e2e_outage"], 2 * TABLE_RTOL
    )
    problems += _reference_problems(refs, p, {
        "plc_capacity": analytic["plc_avg_capacity"],
        "vlc_capacity": analytic["vlc_avg_capacity"],
        "plc_outage": analytic["plc_outage"],
        "vlc_outage": analytic["vlc_outage"],
        "e2e_outage": analytic["e2e_outage"],
    }, extra_rtol=TABLE_RTOL)
    bound = p["system.duplex_factor"] * min(analytic["plc_avg_capacity"],
                                            analytic["vlc_avg_capacity"])
    if not 0.0 <= analytic["e2e_avg_capacity"] <= bound * (1.0 + 2 * TABLE_RTOL):
        problems.append(f"e2e numeric mean {analytic['e2e_avg_capacity']!r} outside [0, {bound!r}]")
    for name in VALIDATION_METRICS[:-1]:
        _, value, mean, se, _ = rows[name]
        problems += _mc_problem(name, float(value), float(mean), float(se), trials,
                                outage=name.endswith("outage"), slack=2 * TABLE_RTOL)
    closed_vs_quad = rows["vlc_capacity_closed_vs_quad"]
    if closed_vs_quad[4] != "agree" or not _close(
        float(closed_vs_quad[1]), float(closed_vs_quad[2]), CLOSED_VS_QUAD_RTOL + 2 * TABLE_RTOL
    ):
        problems.append(f"closed form vs quadrature differs: {closed_vs_quad}")
    return problems


def validate_exit_ok(returncode: int, stderr: str) -> bool:
    """``validate`` exits 1 on a 3-SE miss; the 5-SE table check judges those."""
    return returncode == 0 or (returncode == 1 and stderr.startswith("validation failed:")
                               and stderr.count("\n") == 1)


GRID_FIELDS = (
    "snr_threshold", "plc_capacity", "vlc_capacity_closed", "vlc_capacity_quad",
    "plc_outage", "vlc_outage", "e2e_outage", "e2e_capacity_numeric",
)


def check_grid_point(values: list[float], p: dict, refs: References) -> list[str]:
    """Gate for one analytic-grid point, ``values`` ordered as ``GRID_FIELDS``."""
    v = dict(zip(GRID_FIELDS, values))
    bad = [k for k, x in v.items() if not math.isfinite(x)]
    if bad:
        return [f"non-finite {bad}"]
    problems = _composition_problems(v["plc_outage"], v["vlc_outage"], v["e2e_outage"], 1e-12)
    if not _close(v["vlc_capacity_closed"], v["vlc_capacity_quad"], CLOSED_VS_QUAD_RTOL):
        problems.append(f"closed {v['vlc_capacity_closed']!r} vs quad "
                        f"{v['vlc_capacity_quad']!r} differ by more than {CLOSED_VS_QUAD_RTOL:g}")
    if not _close(v["snr_threshold"], snr_threshold(p), 1e-12):
        problems.append(f"snr_threshold {v['snr_threshold']!r} != {snr_threshold(p)!r}")
    bound = p["system.duplex_factor"] * min(v["plc_capacity"], v["vlc_capacity_closed"])
    # The integral is converged to 1e-9 relative; allow ten times that past the bound.
    if not 0.0 <= v["e2e_capacity_numeric"] <= bound * (1.0 + 1e-8):
        problems.append(f"e2e numeric mean {v['e2e_capacity_numeric']!r} outside [0, {bound!r}]")
    problems += _reference_problems(refs, p, {
        "plc_capacity": v["plc_capacity"],
        "vlc_capacity": v["vlc_capacity_closed"],
        "plc_outage": v["plc_outage"],
        "vlc_outage": v["vlc_outage"],
        "e2e_outage": v["e2e_outage"],
    })
    return problems
