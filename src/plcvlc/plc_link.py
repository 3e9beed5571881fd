"""Source-to-relay power-line hop.

The hop is a deterministic cable attenuation followed by log-normal amplitude
fading: the instantaneous relay SNR is gamma = a * |h|^2, where
a = P_s * exp(-2*alpha*d) / sigma_r^2 and the dB value of |h| is Gaussian with
mean ``fading_mu_db`` and standard deviation ``fading_sigma_db`` (so the dB
power gain is N(2*mu, (2*sigma)^2)).

So ln(gamma) = m + s*Z, Z standard normal, with m = ln a + mu*ln(10)/5 and
s = sigma*ln(10)/5: ``PlcLinkParams.law``, in the sampler's own arithmetic.
``log_snr_law`` states it for ``specfun``'s mean and outage (README, "Mean
capacities"); wherever the sampler draws one SNR it is a point mass there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import FINITE, NONNEGATIVE, POSITIVE, ParameterError, check_fields, check_value
from .specfun import PANEL_ORDER, bits, normal_softplus_mean, normal_span, snr_cdf, softplus_mean
# `gauss_hermite` is unused here, but perfbench/layers.py traces plc_link.gauss_hermite by name.
from numpy.polynomial.hermite import hermgauss as gauss_hermite  # noqa: F401

__all__ = [
    "PlcLinkParams", "attenuation_coeff", "snr_scale", "avg_capacity", "log_snr_law", "outage"
]

# A dB amplitude gain x is the power gain 10**(x/5) = exp(x * _LN10_OVER_5).
_LN10_OVER_5 = math.log(10.0) / 5.0
_SQRT2 = math.sqrt(2.0)
# |m + s*z| <= |m| + _Z_REACH*s wherever the log-SNR is formed: the mean's rule
# keeps it within |m| + 9s, and NumPy's ziggurat never draws |z| above 13.71.
_Z_REACH = 16.0


@dataclass(frozen=True)
class PlcLinkParams:
    """Cable, power, noise and fading parameters of the power-line hop.

    The SNR scale ``snr_scale`` must be a positive normal float.  ``law`` is
    (m, s) of ln(SNR) (module docstring), set on construction; the largest
    capacity it reaches, (|m| + 16*s) / ln 2 bits (``_Z_REACH``), must be finite.
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
    # Not a field: perfbench/layers.py's IMPORT_PROBE reads system.plc.quadrature_order.
    quadrature_order = PANEL_ORDER

    def __post_init__(self) -> None:
        check_fields(self, POSITIVE, ("frequency_hz", "distance_m", "tx_power_w", "noise_variance"))
        check_fields(self, NONNEGATIVE, ("atten_a0", "atten_a1", "fading_sigma_db"))
        check_fields(self, FINITE, ("atten_k", "fading_mu_db"))
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
        spread = self.fading_sigma_db * _LN10_OVER_5
        if not bits(abs(centre) + _Z_REACH * spread) < math.inf:
            raise ParameterError(
                f"PlcLinkParams.fading_sigma_db = {self.fading_sigma_db!r} is too large: the "
                "capacity (|m| + 16*s) / ln 2 overflows at PlcLinkParams.fading_mu_db"
            )
        object.__setattr__(self, "law", (centre, spread))


def attenuation_coeff(p: PlcLinkParams) -> float:
    """Cable attenuation coefficient alpha = a0 + a1 * f**k, in 1/m."""
    return p.atten_a0 + p.atten_a1 * p.frequency_hz ** p.atten_k


def snr_scale(p: PlcLinkParams) -> float:
    """SNR scale a = P_s * exp(-2*alpha*d) / sigma_r^2; gamma = a * |h|^2."""
    return p.tx_power_w * math.exp(-2.0 * attenuation_coeff(p) * p.distance_m) / p.noise_variance


def avg_capacity(p: PlcLinkParams) -> float:
    """Average spectral efficiency E[log2(1 + gamma)] in bits/s/Hz.

    It is E[softplus(Y)] / ln 2 with ln(gamma) = Y = m + s*Z, (m, s) = ``p.law``:
    at the point mass of ``log_snr_law`` the sampled capacity bit for bit,
    else ``specfun.normal_softplus_mean`` (README, "Power-line mean
    capacity").  No duplexing factor is applied here.
    """
    law = log_snr_law(p)
    if law[2] is None:
        return bits(softplus_mean(law))
    return bits(normal_softplus_mean(*p.law))


def log_snr_law(p: PlcLinkParams) -> tuple:
    """The law of y = ln(gamma) for ``specfun``'s mean and outage (README, "Mean capacities").

    It is a point mass wherever the sampler draws one SNR: where NumPy's
    exp(m -+ 16*s), the sampler's arithmetic, give one finite float, or m -+ 16*s
    one float (at exp(m), inf where it overflows); NumPy's exp, not math's,
    which differ in the last bit for a few percent.  Otherwise the survival is
    erfc((y - m) / (s*sqrt 2)) / 2 over ``normal_span`` in z, cut at the
    median m, and the CDF erfc((m - y) / (s*sqrt 2)) / 2 at every y.
    """
    m, s = p.law
    low, high = m - _Z_REACH * s, m + _Z_REACH * s
    # exp(high) / exp(low) is about 1 + (high - low): only a narrow span gives one float.
    if high - low < 1e-12:
        with np.errstate(over="ignore"):
            ends = np.exp([low, high]).tolist()
        if low == high or ends[0] == ends[1] < math.inf:
            return m, m, None, (), ends[1], None
    low, high = (m + s * z for z in normal_span(m, s))

    def survival(y: np.ndarray) -> np.ndarray:
        return 0.5 * np.fromiter(map(math.erfc, ((y - m) / (s * _SQRT2)).tolist()), float, y.size)

    def cdf(y: float) -> float:
        return 0.5 * math.erfc((m - y) / (s * _SQRT2))

    return low, high, survival, (m,), 0.0, cdf


def outage(p: PlcLinkParams, snr_threshold: float) -> float:
    """P(gamma < snr_threshold) by ``specfun.snr_cdf`` (README, "Mean capacities")."""
    check_value("plc_link.outage: snr_threshold", snr_threshold, FINITE)
    return snr_cdf(log_snr_law(p), snr_threshold)
