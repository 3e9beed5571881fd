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
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .specfun import KINK_CUTS, PANEL_ORDER, gauss_legendre_panels, hyp2f1

__all__ = [
    "VlcLinkParams",
    "front_end_q",
    "gain_sq_law",
    "gain_sq",
    "gain_sq_pdf",
    "gain_sq_cdf",
    "avg_capacity_quad",
    "avg_capacity_closed",
    "outage",
]


# Below this relative support width (u_high - u_low) / u_low, which is
# (r/L)**2, the closed form's antiderivative difference cancels (7e-12 off at
# 1e-3 and 5 degrees, 4.6e-8 at 2e-9) and avg_capacity_quad's rule stands in;
# above it the closed form was up to 9.1e-12 off mpmath at 3-15 degrees.
_NARROW_WIDTH = 1e-2
# u = t**(-1/(m+3)) has a branch point at 0 (it is proportional to r^2 + L^2),
# so rules in u cut at u_low * _U_GRADING**k.
_U_GRADING = 4.0


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
    sampler reaches them exactly.  Out-of-range values come out as inf, 0 or
    nan, for ``VlcLinkParams`` to refuse.
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


def gain_sq_pdf(x, p: VlcLinkParams):
    """Density of the squared channel gain for a uniformly placed user.

    f(x) = C * x**(-1/(m+3) - 1) / ((m+3) * r^2) on [t_min, t_max], zero
    outside; integrates to one exactly by construction.
    """
    m, c_const, r_sq, _, t_min, t_max, _ = p.law
    coef = c_const / ((m + 3.0) * r_sq)
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
    m, c_const, r_sq, height_sq, t_min, t_max, _ = p.law
    offset = 1.0 + height_sq / r_sq
    expo = -1.0 / (m + 3.0)
    # isinstance first: np.ndim of a float costs more than the scalar path.
    if isinstance(x, float) or np.ndim(x) == 0:
        x = float(x)
        if x <= t_min:
            return 0.0
        if x >= t_max:
            return 1.0
        # NumPy's power, not math's: the two differ in the last bit for a few
        # percent of arguments, and the array path below sets the bits.
        return min(max(offset - (c_const / r_sq) * float(np.power(x, expo)), 0.0), 1.0)
    values = np.asarray(x, dtype=float)
    inside = (values > t_min) & (values < t_max)
    safe = np.where(inside, values, t_min)
    body = np.clip(offset - (c_const / r_sq) * safe ** expo, 0.0, 1.0)
    return np.where(values <= t_min, 0.0, np.where(values >= t_max, 1.0, body))


def avg_capacity_quad(p: VlcLinkParams) -> float:
    """Average spectral efficiency E[log2(1 + rho * h^2)] by composite Gauss-Legendre.

    rho = P_r / sigma_d^2.  Integrates log(1 + rho*t) against the squared-gain
    density in u = t**(-1/(m+3)), where the density is constant, with
    ``PANEL_ORDER`` nodes per panel, cut where ln(rho*t) is in ``KINK_CUTS``,
    at u_low * _U_GRADING**k and at u_low * (1 + 4**k/(m+3)) for 4**k < m+3;
    the README ("VLC quadrature") gives the reasons and its measured accuracy.
    No duplexing factor is applied here; time sharing is accounted for at the
    system level.
    """
    return _capacity_by_rule(p)


def _capacity_by_rule(p: VlcLinkParams, snr_clip: float = math.inf) -> float:
    """``avg_capacity_quad`` of min(C, log2(1 + snr_clip))."""
    m, _, _, _, t_min, t_max, rho = p.law
    beta = 1.0 / (m + 3.0)
    u_low = t_max ** -beta
    u_high = t_min ** -beta
    width = u_high - u_low
    if width <= 0.0 or snr_clip <= rho * t_min:
        # A point-mass support (vanishing cell), where every user sees t_max,
        # or a clip below the support: NumPy's log1p, the sampler's bits.
        return float(np.log1p(min(rho * t_max, snr_clip))) / math.log(2.0)
    knee = rho ** beta  # u at rho*t = 1; u = knee * exp(-beta*y) at y = ln(rho*t)
    cuts = [*(knee * math.exp(-y * beta) for y in KINK_CUTS), (snr_clip / rho) ** -beta]
    layer = beta
    while layer < 1.0:
        cuts.append(u_low * (1.0 + layer))
        layer *= 4.0
    u, w = gauss_legendre_panels(u_low, u_high, PANEL_ORDER, cuts, grading=_U_GRADING)
    capacity = np.log1p(rho * u ** (-(m + 3.0)))
    if snr_clip < math.inf:
        capacity = np.minimum(capacity, math.log1p(snr_clip))
    # c_const * width / r^2 is exactly the unit probability mass; normalizing
    # by the computed width keeps the mean exact when the support is narrow.
    return float(w @ capacity) / (width * math.log(2.0))


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
        return _capacity_by_rule(p)

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
    return c_const / (r_sq * math.log(2.0)) * total


def outage(p: VlcLinkParams, snr_threshold: float) -> float:
    """P(rho * h^2 < snr_threshold) = CDF of h^2 at snr_threshold/rho."""
    return gain_sq_cdf(snr_threshold / p.law.rho, p)

