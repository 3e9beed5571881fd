"""Source-to-relay power-line hop.

The hop is a deterministic cable attenuation followed by log-normal amplitude
fading: the instantaneous relay SNR is gamma = a * |h|^2, where
a = P_s * exp(-2*alpha*d) / sigma_r^2 and the dB value of |h| is Gaussian with
mean ``fading_mu_db`` and standard deviation ``fading_sigma_db`` (so the dB
power gain is N(2*mu, (2*sigma)^2)).

So ln(gamma) = m + s*Z, Z standard normal, with m = ln a + mu*ln(10)/5 and
s = sigma*ln(10)/5: ``PlcLinkParams.law``, in the sampler's own arithmetic,
read by the mean and outage here, the sampler and the end-to-end integral.
At zero spread it is a point mass at the sampler's SNR float(np.exp(m)).
The mean capacity is E[softplus(m + s*Z)] / ln 2; ``avg_capacity`` takes it
with one composite Gauss-Legendre rule in z against the normal density.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .specfun import KINK_CUTS, MAX_QUADRATURE_ORDER, gauss_legendre_panels, std_normal_cdf
# `gauss_hermite` is unused here, but perfbench/layers.py traces plc_link.gauss_hermite by name.
from .specfun import gauss_hermite  # noqa: F401

__all__ = ["PlcLinkParams", "attenuation_coeff", "snr_scale", "avg_capacity", "outage"]

# A dB amplitude gain x is the power gain 10**(x/5) = exp(x * _LN10_OVER_5).
_LN10_OVER_5 = math.log(10.0) / 5.0
_LN2 = math.log(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# The mean's rule drops the normal density beyond this many spreads (phi(9) = 1e-18).
_NORMAL_TAIL = 9.0


@dataclass(frozen=True)
class PlcLinkParams:
    """Cable, power, noise and fading parameters of the power-line hop.

    The SNR scale ``snr_scale`` must be a positive normal float.  ``law`` is
    (m, s) of ln(SNR) (module docstring), set on construction.
    ``quadrature_order`` is the number of Gauss-Legendre nodes per panel of
    ``avg_capacity``.
    """

    frequency_hz: float
    atten_k: float
    atten_a0: float
    atten_a1: float
    distance_m: float
    tx_power_w: float
    noise_variance: float
    fading_mu_db: float
    fading_sigma_db: float
    quadrature_order: int = 30

    def __post_init__(self) -> None:
        for name in ("frequency_hz", "distance_m", "tx_power_w", "noise_variance"):
            if not getattr(self, name) > 0.0:
                raise ParameterError(f"PlcLinkParams.{name} must be strictly positive")
        for name in ("atten_a0", "atten_a1", "fading_sigma_db"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ParameterError(f"PlcLinkParams.{name} must be finite and nonnegative")
        for name in ("atten_k", "fading_mu_db"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"PlcLinkParams.{name} must be finite")
        order = self.quadrature_order
        if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
            raise ParameterError("PlcLinkParams.quadrature_order must be an integer")
        if not 1 <= order <= MAX_QUADRATURE_ORDER:
            raise ParameterError(
                f"PlcLinkParams.quadrature_order must be in [1, {MAX_QUADRATURE_ORDER}]"
            )
        try:
            scale = snr_scale(self)
        except OverflowError:  # from frequency_hz ** atten_k
            scale = math.inf
        if not sys.float_info.min <= scale < math.inf:
            raise ParameterError(
                f"the PLC SNR scale P_s * exp(-2*alpha*d) / sigma_r^2 = {scale!r} is not a "
                "positive normal float; it is set by PlcLinkParams.tx_power_w, "
                "PlcLinkParams.noise_variance, PlcLinkParams.distance_m, "
                "PlcLinkParams.frequency_hz, PlcLinkParams.atten_k, PlcLinkParams.atten_a0 "
                "and PlcLinkParams.atten_a1"
            )
        centre = math.log(scale) + self.fading_mu_db * _LN10_OVER_5
        object.__setattr__(self, "law", (centre, self.fading_sigma_db * _LN10_OVER_5))


def attenuation_coeff(p: PlcLinkParams) -> float:
    """Cable attenuation coefficient alpha = a0 + a1 * f**k, in 1/m."""
    return p.atten_a0 + p.atten_a1 * p.frequency_hz ** p.atten_k


def snr_scale(p: PlcLinkParams) -> float:
    """SNR scale a = P_s * exp(-2*alpha*d) / sigma_r^2; gamma = a * |h|^2."""
    return p.tx_power_w * math.exp(-2.0 * attenuation_coeff(p) * p.distance_m) / p.noise_variance


def avg_capacity(p: PlcLinkParams) -> float:
    """Average spectral efficiency E[log2(1 + gamma)] in bits/s/Hz.

    It is E[softplus(Y)] / ln 2 with ln(gamma) = Y = m + s*Z, (m, s) = ``p.law``.
    At zero spread that is NumPy's log1p of the point mass over ln 2, the
    sampled capacity bit for bit (m / ln 2 where exp(m) overflows, as in the
    sampler).  Otherwise it is one composite Gauss-Legendre rule in z against
    the normal density, ``quadrature_order`` nodes per panel, over
    [-9, max(0, min(s, z0)) + 9], where softplus(m + s*z) * phi(z) has its
    mass, cut at 0, at the kink z0 = -m/s and at z0 +- 4/s and z0 +- 32/s,
    in front of the branch points of softplus at y = +-i*pi.  Where z0 <= 1
    the ramp E[max(Y, 0)] = m*Phi(-z0) + s*phi(z0) is exact and only
    log(1 + exp(-|Y|)) is integrated.  The README gives its measured accuracy
    (within 2.7e-15 relative of mpmath).  No duplexing factor is applied
    here; time sharing is accounted for at the system level.
    """
    m, s = p.law
    if s == 0.0:
        snr = _point_mass(m)
        return (float(np.log1p(snr)) if snr < math.inf else m) / _LN2
    kink = -m / s
    z, w = _z_rule(m, s, p.quadrature_order)
    weights = w * np.exp(-0.5 * z * z) / _SQRT_2PI
    y = m + s * z
    if kink <= 1.0:
        ramp = m * std_normal_cdf(-kink) + s * math.exp(-0.5 * kink * kink) / _SQRT_2PI
        return (ramp + float(weights @ np.log1p(np.exp(-np.abs(y))))) / _LN2
    return float(weights @ np.logaddexp(0.0, y)) / _LN2


def _z_rule(
    m: float, s: float, order: int, top: float = math.inf, cuts=()
) -> tuple[np.ndarray, np.ndarray]:
    """``avg_capacity``'s rule in z, capped at ``top`` and also cut at ``cuts`` (for ``relay``)."""
    kink = -m / s
    return gauss_legendre_panels(
        -_NORMAL_TAIL, min(max(0.0, min(s, kink)) + _NORMAL_TAIL, top), order,
        (0.0, *cuts, *(kink + y / s for y in KINK_CUTS)),
    )


def _point_mass(centre: float) -> float:
    """The sampler's SNR exp(centre) at zero spread, inf where that overflows.

    NumPy's exp, not math's: they differ in the last bit for a few percent."""
    with np.errstate(over="ignore"):
        return float(np.exp(centre))


def outage(p: PlcLinkParams, snr_threshold: float) -> float:
    """P(gamma < snr_threshold) under ``p.law``, a normal ln(gamma).

    With zero fading spread the SNR is the point mass ``_point_mass`` and the
    result is a step there.
    """
    if snr_threshold <= 0.0:
        return 0.0
    centre, spread = p.law
    if spread == 0.0:
        return 0.0 if _point_mass(centre) >= snr_threshold else 1.0
    return std_normal_cdf((math.log(snr_threshold) - centre) / spread)
