"""Relay-to-user visible-light hop.

A single ceiling LED with a Lambertian radiation pattern serves a user whose
horizontal position is uniform over a disc of radius ``cell_radius_m``.  The
line-of-sight channel gain then has a known power-law distribution, which
gives closed forms for the squared-gain density/CDF, the outage probability,
and the average capacity (both by a fixed composite Gauss-Legendre rule and
via the Gauss hypergeometric function).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .specfun import gauss_legendre_panels, hyp2f1

__all__ = [
    "VlcLinkParams",
    "lambertian_order",
    "front_end_q",
    "channel_gain",
    "gain_sq_support",
    "gain_sq_pdf",
    "gain_sq_cdf",
    "avg_capacity_quad",
    "avg_capacity_closed",
    "outage",
]


# Gauss-Legendre nodes per panel of avg_capacity_quad.
_QUAD_ORDER = 32
# u = t**(-1/(m+3)) has a branch point at 0 (it is proportional to r^2 + L^2),
# so rules in u cut at u_low * U_GRADING**k.
U_GRADING = 4.0
# Below this t*rho, 2F1(1, -beta; 1-beta; -t*rho) - 1 in avg_capacity_closed
# loses more than about 1e-12 relative to cancellation.
_SMALL_Z = 1e-3


@dataclass(frozen=True)
class VlcLinkParams:
    """LED geometry, optical front end and noise of the visible-light hop.

    ``filter_gain`` and ``concentrator_gain`` are linear (convert dB values
    before constructing the params).  The squared gain must stay a positive
    normal float over the whole cell.
    """

    tx_power_w: float
    noise_variance: float
    detector_area: float
    filter_gain: float
    concentrator_gain: float
    responsivity: float
    cell_radius_m: float
    height_m: float
    semi_angle_rad: float

    def __post_init__(self) -> None:
        for name in (
            "tx_power_w",
            "noise_variance",
            "detector_area",
            "filter_gain",
            "concentrator_gain",
            "responsivity",
            "cell_radius_m",
            "height_m",
        ):
            if not getattr(self, name) > 0.0:
                raise ParameterError(f"VlcLinkParams.{name} must be strictly positive")
        if not sys.float_info.min <= self.cell_radius_m * self.cell_radius_m < math.inf:
            # The gain law divides by the squared radius.
            raise ParameterError(
                f"VlcLinkParams.cell_radius_m must have a positive normal float square, "
                f"got {self.cell_radius_m!r}"
            )
        _check_semi_angle(self.semi_angle_rad, "VlcLinkParams.semi_angle_rad")
        try:
            t_min, t_max = gain_sq_support(self)
        except (OverflowError, ZeroDivisionError):
            t_min = t_max = math.inf
        if not sys.float_info.min <= t_min <= t_max < math.inf:
            raise ParameterError(
                "the squared channel gain over the cell must stay a positive normal float; "
                "it is set by VlcLinkParams.detector_area, VlcLinkParams.filter_gain, "
                "VlcLinkParams.concentrator_gain, VlcLinkParams.responsivity, "
                "VlcLinkParams.cell_radius_m, VlcLinkParams.height_m and "
                "VlcLinkParams.semi_angle_rad"
            )


def _check_semi_angle(angle: float, name: str) -> None:
    # Below about 1e-8 rad cos(angle) rounds to 1 and the order is infinite.
    if not (0.0 < angle < math.pi / 2.0 and math.cos(angle) < 1.0):
        raise ParameterError(f"{name} must lie strictly in (0, pi/2), with a cosine below 1")


def lambertian_order(semi_angle_rad: float) -> float:
    """Lambertian mode number m = -1/log2(cos(semi_angle))."""
    _check_semi_angle(semi_angle_rad, "semi_angle_rad")
    return -1.0 / math.log2(math.cos(semi_angle_rad))


def front_end_q(p: VlcLinkParams) -> float:
    """Receiver front-end factor Q = A_d * U * g * R_p / (2*pi)."""
    return (
        p.detector_area * p.filter_gain * p.concentrator_gain * p.responsivity
        / (2.0 * math.pi)
    )


def _gain_law(p: VlcLinkParams) -> tuple[float, float]:
    """(m, A) of the gain law h = A / (r_k^2 + L^2)**((m+3)/2), A = Q*(m+1)*L**(m+1)."""
    m = lambertian_order(p.semi_angle_rad)
    return m, front_end_q(p) * (m + 1.0) * p.height_m ** (m + 1.0)


def channel_gain(r_k, p: VlcLinkParams):
    """LOS channel gain for a user at horizontal distance r_k from the nadir.

    h = Q * (m+1) * L**(m+1) / (r_k^2 + L^2)**((m+3)/2), strictly decreasing
    in r_k.  Accepts a scalar or an ndarray of distances.
    """
    m, amplitude = _gain_law(p)
    radii = np.asarray(r_k, dtype=float)
    if np.any(radii < 0.0) or np.any(radii > p.cell_radius_m):
        raise ParameterError("r_k must lie in [0, cell_radius_m]")
    gain = amplitude * (radii * radii + p.height_m * p.height_m) ** (-(m + 3.0) / 2.0)
    if np.ndim(r_k) == 0:
        return float(gain)
    return gain


def gain_sq_support(p: VlcLinkParams) -> tuple[float, float]:
    """Support [t_min, t_max] of the squared channel gain over the cell."""
    return _shape(p)[2:]


def _shape(p: VlcLinkParams) -> tuple[float, float, float, float]:
    """(m, C, t_min, t_max) with C the power-law constant of the gain CDF.

    t_min and t_max are the squared gains at the cell edge and at the nadir,
    by ``channel_gain``'s arithmetic in Python floats.
    """
    m, amplitude = _gain_law(p)
    height_sq = p.height_m * p.height_m
    exponent = -(m + 3.0) / 2.0
    g_min = amplitude * (p.cell_radius_m * p.cell_radius_m + height_sq) ** exponent
    g_max = amplitude * height_sq ** exponent
    return m, amplitude ** (2.0 / (m + 3.0)), g_min * g_min, g_max * g_max


def gain_sq_pdf(x, p: VlcLinkParams):
    """Density of the squared channel gain for a uniformly placed user.

    f(x) = C * x**(-1/(m+3) - 1) / ((m+3) * r^2) on [t_min, t_max], zero
    outside; integrates to one exactly by construction.
    """
    m, c_const, t_min, t_max = _shape(p)
    coef = c_const / ((m + 3.0) * p.cell_radius_m ** 2)
    expo = -1.0 / (m + 3.0) - 1.0
    values = np.asarray(x, dtype=float)
    inside = (values >= t_min) & (values <= t_max)
    safe = np.where(inside, values, t_min)
    density = np.where(inside, coef * safe ** expo, 0.0)
    if np.ndim(x) == 0:
        return float(density)
    return density


def gain_sq_cdf(x, p: VlcLinkParams):
    """CDF of the squared channel gain: clamped power law on [t_min, t_max]."""
    m, c_const, t_min, t_max = _shape(p)
    r_sq = p.cell_radius_m ** 2
    offset = 1.0 + p.height_m ** 2 / r_sq
    expo = -1.0 / (m + 3.0)
    values = np.asarray(x, dtype=float)
    inside = (values > t_min) & (values < t_max)
    safe = np.where(inside, values, t_min)
    body = np.clip(offset - (c_const / r_sq) * safe ** expo, 0.0, 1.0)
    prob = np.where(values <= t_min, 0.0, np.where(values >= t_max, 1.0, body))
    if np.ndim(x) == 0:
        return float(prob)
    return prob


def avg_capacity_quad(p: VlcLinkParams) -> float:
    """Average spectral efficiency E[log2(1 + rho * h^2)] by composite Gauss-Legendre.

    rho = P_r / sigma_d^2.  Integrates log(1 + rho*t) against the squared-gain
    density over [t_min, t_max]; the substitution u = t**(-1/(m+3)) makes the
    density contribution constant, so the integrand stays well conditioned
    even when the support spans many decades.  The integrand's branch points
    lie at |u| = rho**(1/(m+3)), at an angle pi/(m+3) off the real axis, so
    the rule splits there (the knee, where rho*t = 1) and at u_low *
    U_GRADING**k, and gives each segment two panels of ``_QUAD_ORDER``
    nodes.  Over the closed-vs-quadrature acceptance grid's ranges it agrees
    with ``avg_capacity_closed`` to 1.8e-11 relative; without the knee split
    the error was 1e-7 to 1e-5.  No duplexing factor is applied here; time
    sharing is accounted for at the system level.
    """
    m, c_const, t_min, t_max = _shape(p)
    rho = p.tx_power_w / p.noise_variance
    beta = 1.0 / (m + 3.0)
    u_low = t_max ** -beta
    u_high = t_min ** -beta
    width = u_high - u_low
    if width <= 0.0:
        # Point-mass support (vanishing cell): every user sees t_max.
        return math.log1p(rho * t_max) / math.log(2.0)
    u, w = gauss_legendre_panels(u_low, u_high, _QUAD_ORDER, (rho ** beta,), grading=U_GRADING)
    # c_const * width / r^2 is exactly the unit probability mass; normalizing
    # by the computed width keeps the mean exact when the support is narrow.
    return float(w @ np.log1p(rho * u ** (-(m + 3.0)))) / (width * math.log(2.0))


def avg_capacity_closed(p: VlcLinkParams) -> float:
    """Average spectral efficiency in closed form via the 2F1 function.

    Equals ``avg_capacity_quad`` to within 1e-8 relative; the two routes act
    as mutual oracles.  Where z = t*rho < ``_SMALL_Z`` the antiderivative
    takes (m+3)*(2F1(1, -beta; 1-beta; -z) - 1) as
    z/(1-beta) * 2F1(1, 1-beta; 2-beta; -z), which does not cancel, so the
    mean stays accurate (and positive) as the transmit SNR vanishes.
    """
    m, c_const, t_min, t_max = _shape(p)
    rho = p.tx_power_w / p.noise_variance
    beta = 1.0 / (m + 3.0)

    def antiderivative(t: float) -> float:
        z = t * rho
        if z < _SMALL_Z:
            # 2F1(1, b; c; x) - 1 = (b/c) * x * 2F1(1, b+1; c+1; x), with (m+3)*beta = 1.
            excess = z / (1.0 - beta) * hyp2f1(1.0, 1.0 - beta, 2.0 - beta, -z)
        else:
            excess = (m + 3.0) * (hyp2f1(1.0, -beta, 1.0 - beta, -z) - 1.0)
        return t ** (-beta) * (excess - math.log1p(z))

    scale = c_const / (p.cell_radius_m ** 2 * math.log(2.0))
    return scale * (antiderivative(t_max) - antiderivative(t_min))


def outage(p: VlcLinkParams, snr_threshold: float) -> float:
    """P(rho * h^2 < snr_threshold) = CDF of h^2 at snr_threshold/rho."""
    if snr_threshold <= 0.0:
        return 0.0
    return gain_sq_cdf(snr_threshold * p.noise_variance / p.tx_power_w, p)

