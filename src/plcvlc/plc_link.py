"""Source-to-relay power-line hop.

The hop is a deterministic cable attenuation followed by log-normal amplitude
fading: the instantaneous relay SNR is gamma = a * |h|^2, where
a = P_s * exp(-2*alpha*d) / sigma_r^2 and the dB value of |h| is Gaussian with
mean ``fading_mu_db`` and standard deviation ``fading_sigma_db`` (so the dB
power gain is N(2*mu, (2*sigma)^2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .specfun import MAX_QUADRATURE_ORDER, gauss_hermite, std_normal_cdf

__all__ = ["DB_SCALE", "PlcLinkParams", "attenuation_coeff", "snr_scale", "avg_capacity", "outage"]

# dB per neper of power: 10/ln(10).
DB_SCALE = 10.0 / math.log(10.0)

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class PlcLinkParams:
    """Cable, power, noise and fading parameters of the power-line hop."""

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


def attenuation_coeff(p: PlcLinkParams) -> float:
    """Cable attenuation coefficient alpha = a0 + a1 * f**k, in 1/m."""
    return p.atten_a0 + p.atten_a1 * p.frequency_hz ** p.atten_k


def snr_scale(p: PlcLinkParams) -> float:
    """SNR scale a = P_s * exp(-2*alpha*d) / sigma_r^2; gamma = a * |h|^2."""
    return p.tx_power_w * math.exp(-2.0 * attenuation_coeff(p) * p.distance_m) / p.noise_variance


def avg_capacity(p: PlcLinkParams) -> float:
    """Average spectral efficiency E[log2(1 + gamma)] in bits/s/Hz.

    The expectation over the Gaussian dB power gain is taken with a
    Gauss-Hermite rule of ``quadrature_order`` points.  No duplexing factor is
    applied here; time sharing is accounted for at the system level.
    """
    rule = gauss_hermite(p.quadrature_order)
    shift = 2.0 * p.fading_mu_db + DB_SCALE * math.log(snr_scale(p))
    exponents = (math.sqrt(8.0) * p.fading_sigma_db * rule.nodes + shift) / DB_SCALE
    # log2(1 + exp(y)) evaluated in softplus form to survive large |y|.
    softplus = np.maximum(exponents, 0.0) + np.log1p(np.exp(-np.abs(exponents)))
    return float(rule.weights @ softplus) / (_SQRT_PI * math.log(2.0))


def outage(p: PlcLinkParams, snr_threshold: float) -> float:
    """P(gamma < snr_threshold) under the log-normal fading model.

    With zero fading spread the SNR is deterministic and the result is a step
    at the median SNR a * 10**(mu/5).
    """
    if snr_threshold <= 0.0:
        return 0.0
    a = snr_scale(p)
    median_snr = a * 10.0 ** (p.fading_mu_db / 5.0)
    if p.fading_sigma_db == 0.0:
        return 0.0 if median_snr >= snr_threshold else 1.0
    arg = (
        DB_SCALE * math.log(snr_threshold) - (2.0 * p.fading_mu_db + DB_SCALE * math.log(a))
    ) / (2.0 * p.fading_sigma_db)
    return std_normal_cdf(arg)
