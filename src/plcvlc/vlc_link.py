"""Relay-to-user visible-light hop.

A single ceiling LED with a Lambertian radiation pattern serves a user whose
horizontal position is uniform over a disc of radius ``cell_radius_m``.  The
line-of-sight channel gain then has a known power-law distribution: its law
in log-SNR gives the outage probability and the average capacity (README,
"Mean capacities"), and the Gauss hypergeometric function the average
capacity in closed form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FINITE, POSITIVE, ParameterError, check_fields, check_value
from .specfun import LN2, bits, hyp2f1, snr_cdf, softplus_mean

__all__ = [
    "VlcLinkParams",
    "front_end_q",
    "gain_sq_law",
    "gain_sq",
    "avg_capacity_quad",
    "log_snr_law",
    "avg_capacity_closed",
    "outage",
]


# Below this relative support width (u_high - u_low) / u_low, which is
# (r/L)**2, the closed form's antiderivative difference cancels (7e-12 off at
# 1e-3 and 5 degrees, 4.6e-8 at 2e-9) and avg_capacity_quad's rule stands in;
# above it the closed form was up to 9.1e-12 off mpmath at 3-15 degrees.
_NARROW_WIDTH = 1e-2


class VlcLaw(NamedTuple):
    """``gain_sq_law``'s record of a cell: the squared-gain law, its support and rho."""

    m: float  # Lambertian order
    c_const: float  # C in t = (C / (r**2*v + L**2))**(m+3)
    r_sq: float
    height_sq: float
    t_min: float  # squared gain at the cell edge (v = 1)
    t_max: float  # and at the nadir (v = 0)
    rho: float  # transmit SNR tx_power_w / noise_variance


@dataclass(frozen=True)
class VlcLinkParams:
    """LED geometry, optical front end and noise of the visible-light hop.

    ``filter_gain`` and ``concentrator_gain`` are linear (convert dB values
    before constructing the params).  The transmit SNR tx_power_w /
    noise_variance, and the squared gain over the whole cell, must be
    positive normal floats, and their product finite.  ``law`` is the
    cell's ``gain_sq_law``, set on construction.
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
        check_fields(self, POSITIVE, ("tx_power_w", "noise_variance", "detector_area",
                                      "filter_gain", "concentrator_gain", "responsivity",
                                      "cell_radius_m", "height_m"))
        check_fields(self, FINITE, ("semi_angle_rad",))
        if not sys.float_info.min <= self.cell_radius_m * self.cell_radius_m < math.inf:
            # The gain law divides by the squared radius.
            raise ParameterError(
                f"VlcLinkParams.cell_radius_m must have a positive normal float square, "
                f"got {self.cell_radius_m!r}"
            )
        # Below about 1e-8 rad the cosine rounds to 1 and the Lambertian order is infinite.
        if not (0.0 < self.semi_angle_rad < math.pi / 2.0 and math.cos(self.semi_angle_rad) < 1.0):
            raise ParameterError(
                "VlcLinkParams.semi_angle_rad must lie strictly in (0, pi/2), with a cosine below 1"
            )
        law = gain_sq_law(self)
        if not sys.float_info.min <= law.rho < math.inf:
            raise ParameterError(
                f"the VLC transmit SNR VlcLinkParams.tx_power_w / VlcLinkParams.noise_variance "
                f"= {law.rho!r} is not a positive normal float"
            )
        gain_fields = (
            "VlcLinkParams.detector_area, VlcLinkParams.filter_gain, "
            "VlcLinkParams.concentrator_gain, VlcLinkParams.responsivity, "
            "VlcLinkParams.cell_radius_m, VlcLinkParams.height_m and VlcLinkParams.semi_angle_rad"
        )
        if not sys.float_info.min <= law.t_min <= law.t_max < math.inf:
            raise ParameterError(
                "the squared channel gain over the cell must stay a positive normal float; "
                f"it is set by {gain_fields}"
            )
        if not law.rho * law.t_max < math.inf:
            raise ParameterError(
                "the SNR at the nadir, VlcLinkParams.tx_power_w / VlcLinkParams.noise_variance "
                f"times the squared gain, overflows; the gain is set by {gain_fields}"
            )
        object.__setattr__(self, "law", law)


def front_end_q(p: VlcLinkParams) -> float:
    """Receiver front-end factor Q = A_d * U * g * R_p / (2*pi)."""
    return (
        p.detector_area * p.filter_gain * p.concentrator_gain * p.responsivity
        / (2.0 * math.pi)
    )


def gain_sq_law(p: VlcLinkParams) -> VlcLaw:
    """The squared-gain law of the cell, its support and the transmit SNR.

    The gain is h = A / (r_k^2 + L^2)**((m+3)/2) with A = Q*(m+1)*L**(m+1),
    so the squared gain at v = (r_k/r)**2 is t = (C / (r**2*v + L**2))**(m+3)
    with C = A**(2/(m+3)), the power-law constant of the gain CDF.  C is
    formed as (Q*(m+1))**(2/(m+3)) * L**(2*(m+1)/(m+3)), never through A,
    whose L**(m+1) overflows or goes subnormal at a narrow beam (m in the
    hundreds), and the base C / (r**2*v + L**2) is t**(1/(m+3)): a narrow
    beam takes no intermediate out of the normal range where t and L**2
    stay in it.  t_min and t_max are ``gain_sq`` at v = 1 and v = 0, so the
    sampler reaches them exactly.  Where ln(rho) + ln(t) is one float at both,
    ``log_snr_law``'s point mass at rho*t_max, t_min is t_max and r_sq is 0,
    so the sampler draws t_max everywhere.  Out-of-range values come out as
    inf, 0 or nan, for ``VlcLinkParams`` to refuse.
    """
    m = -1.0 / math.log2(math.cos(p.semi_angle_rad))  # Lambertian order, angle checked
    r_sq, height_sq = p.cell_radius_m * p.cell_radius_m, p.height_m * p.height_m
    rho = p.tx_power_w / p.noise_variance
    if not 0.0 < height_sq < math.inf:
        # The Python-float power of L and the division by L**2 would raise.
        return VlcLaw(m, math.nan, r_sq, height_sq, math.nan, math.nan, rho)
    c_const = (front_end_q(p) * (m + 1.0)) ** (2.0 / (m + 3.0)) * p.height_m ** (
        2.0 * (m + 1.0) / (m + 3.0)
    )
    bases = [c_const / (r_sq + height_sq), c_const / height_sq]
    # Only a base above 1 can overflow (NumPy does not report underflow), and
    # np.errstate costs about as much as the rest of the law.
    if bases[1] > 1.0:
        with np.errstate(over="ignore"):
            t_min, t_max = np.power(bases, m + 3.0).tolist()
    else:
        t_min, t_max = np.power(bases, m + 3.0).tolist()
    # In range |ln(rho*t)| < 1417, where an ulp is 2.3e-13: only a gap far below 1e-9 can
    # round to one log-SNR.  Test only laws VlcLinkParams accepts (math.log refuses 0).
    if (t_max - t_min < 1e-9 * t_max and sys.float_info.min <= rho < math.inf
            and sys.float_info.min <= t_min < t_max < math.inf
            and math.log(rho) + math.log(t_min) == math.log(rho) + math.log(t_max)):
        r_sq, t_min = 0.0, t_max
    return VlcLaw(m, c_const, r_sq, height_sq, t_min, t_max, rho)


def gain_sq(v: np.ndarray, law: VlcLaw, out: np.ndarray) -> np.ndarray:
    """Squared gain (C / (r**2*v + L**2))**(m+3) of ``gain_sq_law`` at v, written into ``out``.

    Four in-place ufunc passes; ``out`` may be v itself.  NumPy's power sets
    the bits, and the law's support [t_min, t_max] is this at v = 1 and v = 0.
    """
    np.multiply(v, law.r_sq, out=out)
    np.add(out, law.height_sq, out=out)
    np.divide(law.c_const, out, out=out)
    return np.power(out, law.m + 3.0, out=out)


def avg_capacity_quad(p: VlcLinkParams) -> float:
    """Average spectral efficiency E[log2(1 + rho * h^2)] by composite Gauss-Legendre.

    ``specfun.softplus_mean`` of ``log_snr_law`` (README, "Mean capacities"),
    rho = P_r / sigma_d^2.  No duplexing factor is applied.
    """
    return bits(softplus_mean(log_snr_law(p)))


def log_snr_law(p: VlcLinkParams) -> tuple:
    """The law of y = ln(rho*t) for ``specfun``'s mean and outage (README, "Mean capacities").

    A support [ln(rho*t_min), ln(rho*t_max)] of one point (a vanishing cell)
    is a point mass at rho*t_max.  Otherwise, with beta = 1/(m+3), the
    survival is expm1(beta*(high - y)) / expm1(beta*(high - low)) and the
    CDF expm1(-beta*(y - low)) / expm1(-beta*(high - low)), clipped to [0, 1].
    """
    m, _, _, _, t_min, t_max, rho = p.law
    log_rho = math.log(rho)
    low, high = log_rho + math.log(t_min), log_rho + math.log(t_max)
    if not low < high:
        return low, high, None, (), rho * t_max, None
    beta = 1.0 / (m + 3.0)
    scale = 1.0 / math.expm1(beta * (high - low))

    def survival(y: np.ndarray) -> np.ndarray:
        return np.expm1(beta * (high - y)) * scale

    def cdf(y: float) -> float:
        return min(max(math.expm1(-beta * (y - low)) / math.expm1(-beta * (high - low)), 0.0), 1.0)

    return low, high, survival, (), rho * t_min, cdf


def avg_capacity_closed(p: VlcLinkParams) -> float:
    """Average spectral efficiency in closed form via the 2F1 function.

    Equals ``avg_capacity_quad`` to within 1e-8 relative; the two routes act
    as mutual oracles.  With z = rho*t and beta = 1/(m+3) the antiderivative
    is t**-beta * ((F - 1)/beta - log1p(z)), F = 2F1(1, -beta; 1-beta; -z).
    Up to z = 1, (F - 1)/beta = z/(1-beta) * 2F1(1, 1-beta; 2-beta; -z),
    which does not cancel as the transmit SNR vanishes.  Above, the 1/z
    connection (DLMF 15.8.2) gives pi/sin(pi*beta) * z**beta - 1/beta +
    2F1(1, 1+beta; 2+beta; -1/z)/((1+beta)*z); times t**-beta its first term
    is pi/sin(pi*beta) * rho**beta at every t, so it is left out at both ends
    and added once when only t_max lies above z = 1.  Kept at both ends, it
    cancelled all digits at a high transmit SNR.

    On a support narrower than ``_NARROW_WIDTH`` in u (a cell radius below
    a tenth of the LED height) the antiderivative difference cancels, and
    the mean is taken by ``avg_capacity_quad``'s rule instead; on a
    point-mass support that is log2(1 + rho*t_max).
    """
    m, c_const, r_sq, _, t_min, t_max, rho = p.law
    beta = 1.0 / (m + 3.0)
    if t_min ** -beta - t_max ** -beta < _NARROW_WIDTH * t_max ** -beta:
        return avg_capacity_quad(p)

    def antiderivative(t: float) -> float:
        z = t * rho
        if z <= 1.0:
            # 2F1(1, b; c; x) - 1 = (b/c) * x * 2F1(1, b+1; c+1; x), with (m+3)*beta = 1.
            b = 1.0 - beta
            excess = z / b * hyp2f1(1.0, b, b + 1.0, -z)
        else:
            b = 1.0 + beta
            excess = hyp2f1(1.0, b, b + 1.0, -1.0 / z) / (b * z) - 1.0 / beta
        return t ** (-beta) * (excess - math.log1p(z))

    total = antiderivative(t_max) - antiderivative(t_min)
    if t_min * rho <= 1.0 < t_max * rho:
        total += math.pi / math.sin(math.pi * beta) * rho ** beta
    return c_const / (r_sq * LN2) * total


def outage(p: VlcLinkParams, snr_threshold: float) -> float:
    """P(rho * h^2 < snr_threshold) by ``specfun.snr_cdf`` (README, "Mean capacities")."""
    check_value("vlc_link.outage: snr_threshold", snr_threshold, FINITE)
    return snr_cdf(log_snr_law(p), snr_threshold)

