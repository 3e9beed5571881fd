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
with a Gauss-Hermite rule applied to one of two exact forms of it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .specfun import MAX_QUADRATURE_ORDER, QuadratureRule, gauss_hermite, std_normal_cdf

__all__ = ["DB_SCALE", "PlcLinkParams", "attenuation_coeff", "snr_scale", "avg_capacity", "outage"]

# dB per neper of power: 10/ln(10).
DB_SCALE = 10.0 / math.log(10.0)
# A dB amplitude gain x is the power gain 10**(x/5) = exp(x * _LN10_OVER_5).
_LN10_OVER_5 = math.log(10.0) / 5.0
_LN2 = math.log(2.0)

_SQRT_PI = math.sqrt(math.pi)

# Taylor coefficients of (sinh(t) - t) / t**3 in powers of t**2, highest first
# (1/17!, 1/15!, ..., 1/3!); the first omitted term is below 1e-16 relative
# for t < 1.
_SINH_SERIES = np.array([1.0 / math.factorial(2 * k + 1) for k in range(8, 0, -1)])


@dataclass(frozen=True)
class PlcLinkParams:
    """Cable, power, noise and fading parameters of the power-line hop.

    The SNR scale ``snr_scale`` must be a positive normal float.  ``law`` is
    (m, s) of ln(SNR) (module docstring), set on construction.
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
    sampler).  Otherwise it is a Gauss-Hermite sum of ``quadrature_order``
    nodes over one of two exact forms of it:

    * the softplus form, log(1 + exp(Y)) at the nodes m + sqrt(2)*s*x of Y.
      It is used whenever s**2 <= pi (fading spreads up to about 3.85 dB,
      the default 3 dB included);
    * the Fourier form, E[max(Y, 0)] in closed form plus the Parseval
      integral of log(1 + exp(-|Y|)) (``_fourier_mean``).  It is used where
      its predicted error is the smaller (``_fourier_form_converges_faster``):
      at 30 nodes, from a spread of about 4.0 dB at a 0 dB median SNR,
      4.3 dB at -10 or 10 dB, and 5.4 dB at 30 dB.

    Either way ``quadrature_order`` is the number of nodes evaluated.
    Measured against a 40-digit mpmath quadrature at order 30, over median
    SNRs in [-10, 30] dB and spreads up to 12 dB, the relative error is
    below 1e-10 up to 3 dB of spread, below 1e-9 from 6 dB and below 1e-11
    from 7 dB.  Between 3 and 6 dB it stays below 1e-7; around the
    crossover, from about 3.8 to 4.7 dB, neither form reaches 1e-8 at every
    median SNR with 30 nodes (worst seen 7e-8, at 4.3 dB and -10 dB).
    Further out in median SNR both forms degrade at large spreads (4e-6 at
    6 dB and -40 dB).  From 16 dB to 1e4 dB of spread, at median SNRs in
    [-40, 30] dB, the error is below 1e-15.  No duplexing factor is applied
    here; time sharing is accounted for at the system level.
    """
    m, s = p.law
    if s == 0.0:
        snr = _point_mass(m)
        return (float(np.log1p(snr)) if snr < math.inf else m) / _LN2
    rule = gauss_hermite(p.quadrature_order)
    if _fourier_form_converges_faster(m, s, rule.order):
        return _fourier_mean(rule, m, s) / _LN2
    exponents = m + math.sqrt(2.0) * s * rule.nodes
    # log2(1 + exp(y)) evaluated in softplus form to survive large |y|.
    softplus = np.maximum(exponents, 0.0) + np.log1p(np.exp(-np.abs(exponents)))
    return float(rule.weights @ softplus) / (_SQRT_PI * _LN2)


def _point_mass(centre: float) -> float:
    """The sampler's SNR exp(centre) at zero spread, inf where that overflows.

    NumPy's exp, not math's: they differ in the last bit for a few percent."""
    with np.errstate(over="ignore"):
        return float(np.exp(centre))


def _fourier_form_converges_faster(m: float, s: float, order: int) -> bool:
    """Whether ``order`` Gauss-Hermite nodes are predicted to do better on the Fourier form.

    In the rule's variable x (Y = m + sqrt(2)*s*x) the softplus integrand has
    logarithmic branch points at x = (-m +- i*pi) / (sqrt(2)*s), and the
    Fourier integrand simple poles at x = +-i*s/sqrt(2) whose residue grows
    as cosh(m).  A singularity at a +- i*b costs an n-node rule about
    exp(b**2 - a**2 - 2*b*sqrt(2n + 1)) times its strength, and a branch cut
    a further 1/(sqrt(2n + 1) - b) (Trefethen, "Is Gauss quadrature better
    than Clenshaw-Curtis?", SIAM Rev. 2008).  The two strip half-widths
    multiply to pi/2, so for s**2 <= pi the softplus strip is the wider and
    that form is kept without further test.  Elsewhere the two predicted
    errors are compared; over the grid in ``avg_capacity``'s docstring their
    median ratio to the measured errors is within a factor of 2 for either
    form.  Fourier poles
    beyond b = sqrt(2n + 1), out of the nodes' reach, are predicted to cost
    no more than poles at that height (the estimate's minimum over b): the
    Fourier form keeps the largest spreads, where the softplus kink is far
    narrower than the spacing of the nodes.
    """
    if s * s <= math.pi:
        return False
    k = math.sqrt(2.0 * order + 1.0)
    b = math.pi / (math.sqrt(2.0) * s)
    a = m / (math.sqrt(2.0) * s)
    log_cosh_m = abs(m) + math.log1p(math.exp(-2.0 * abs(m))) - math.log(2.0)
    if s < math.sqrt(2.0) * k:
        fourier = log_cosh_m + 0.5 * s * s - math.sqrt(2.0) * s * k
    else:
        fourier = log_cosh_m - k * k
    softplus = 0.5 * math.log(math.pi) + b * b - a * a - 2.0 * b * k - math.log(k - b)
    return fourier < softplus


def _fourier_mean(rule: QuadratureRule, m: float, s: float) -> float:
    """E[softplus(m + s*Z)] for s > 0 from the Fourier (Parseval) form.

    softplus(y) = max(y, 0) + log(1 + exp(-|y|)).  The ramp has the exact
    mean m*Phi(m/s) + s*phi(m/s); the remainder's mean is
    (1/pi) * int_0^inf g(w) cos(m*w) exp(-s**2 * w**2 / 2) dw with g its
    Fourier transform, and w = sqrt(2)*x/s turns that into a Gauss-Hermite
    sum over the same nodes.
    """
    omega = math.sqrt(2.0) * rule.nodes / s
    remainder = float(rule.weights @ (_softplus_remainder_transform(omega) * np.cos(m * omega)))
    r = m / s
    ramp = m * std_normal_cdf(r) + s * math.exp(-0.5 * r * r) / math.sqrt(2.0 * math.pi)
    return ramp + remainder / (math.sqrt(2.0) * math.pi * s)


def _softplus_remainder_transform(omega: np.ndarray) -> np.ndarray:
    """g(w) = 1/w**2 - pi/(w*sinh(pi*w)), the Fourier transform of log(1 + exp(-|y|)).

    With t = pi*|w| it is pi**2 * (1/t**2 - 1/(t*sinh t)).  Below t = 1 the
    bracket is P/(1 + t**2*P) with P = (sinh t - t)/t**3 from its Taylor
    series, which avoids cancelling 1/t**2 against 1/(t*sinh t) and gives
    g(0) = pi**2/6.  Above it 1/sinh t is taken as 2*exp(-t)/(1 - exp(-2t)),
    which underflows to 0 where sinh t would overflow and form inf/inf.
    """
    t = np.pi * np.abs(omega)
    bracket = np.empty_like(t)
    small = t < 1.0
    t2 = t[small] ** 2
    series = np.polyval(_SINH_SERIES, t2)
    bracket[small] = series / (1.0 + t2 * series)
    large = t[~small]
    bracket[~small] = (1.0 / large - 2.0 * np.exp(-large) / -np.expm1(-2.0 * large)) / large
    return math.pi ** 2 * bracket


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
