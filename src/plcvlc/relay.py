"""Decode-and-forward composition of the two hops.

End-to-end instantaneous capacity is ``duplex_factor * min`` of the hop
capacities; an end-to-end outage happens when either hop's SNR falls below
the threshold implied by the rate target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import plc_link, vlc_link
from .errors import ParameterError
from .plc_link import PlcLinkParams
from .specfun import gauss_legendre_panels
from .vlc_link import VlcLinkParams

__all__ = [
    "RelaySystemParams",
    "e2e_capacity",
    "rate_to_snr_threshold",
    "e2e_outage",
    "e2e_outage_analytic",
    "e2e_avg_capacity_numeric",
]

_LN2 = math.log(2.0)
# Gauss-Legendre nodes per panel of the end-to-end mean.
_E2E_ORDER = 48
# The end-to-end mean drops the PLC survival beyond this many spreads above
# its median (Phi(-9) = 1e-19), and the integrand below this many nepers of
# SNR under the lowest of the PLC median, the cell edge and 0 dB: what it
# drops is about exp(y_low)/ln 2 bits, 6e-18 at most.
_NORMAL_TAIL = 9.0
_LOGISTIC_TAIL = 40.0


@dataclass(frozen=True)
class RelaySystemParams:
    """The two hop parameter sets plus the system-level knobs."""

    plc: PlcLinkParams
    vlc: VlcLinkParams
    duplex_factor: float = 0.5
    rate_threshold_bits: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.duplex_factor <= 1.0:
            raise ParameterError("RelaySystemParams.duplex_factor must lie in (0, 1]")
        if not 0.0 <= self.rate_threshold_bits < math.inf:
            raise ParameterError(
                "RelaySystemParams.rate_threshold_bits must be finite and nonnegative"
            )
        try:
            threshold = rate_to_snr_threshold(self.rate_threshold_bits, self.duplex_factor)
        except OverflowError:
            threshold = math.inf
        if not math.isfinite(threshold):
            raise ParameterError(
                f"RelaySystemParams.rate_threshold_bits / RelaySystemParams.duplex_factor = "
                f"{self.rate_threshold_bits!r} / {self.duplex_factor!r} overflows the SNR "
                f"threshold 2**(rate_threshold_bits / duplex_factor) - 1"
            )


def e2e_capacity(c_plc: float, c_vlc: float, duplex_factor: float) -> float:
    """Instantaneous end-to-end capacity: duplex_factor * min of the hops."""
    if c_plc < 0.0 or c_vlc < 0.0:
        raise ParameterError("hop capacities must be nonnegative")
    if not 0.0 < duplex_factor <= 1.0:
        raise ParameterError("duplex_factor must lie in (0, 1]")
    return duplex_factor * min(c_plc, c_vlc)


def rate_to_snr_threshold(rate_threshold: float, duplex_factor: float) -> float:
    """Per-hop SNR threshold 2**(rate/duplex_factor) - 1 for a rate target."""
    if rate_threshold < 0.0:
        raise ParameterError("rate_threshold must be nonnegative")
    if not 0.0 < duplex_factor <= 1.0:
        raise ParameterError("duplex_factor must lie in (0, 1]")
    return 2.0 ** (rate_threshold / duplex_factor) - 1.0


def e2e_outage(p_plc: float, p_vlc: float) -> float:
    """Compose per-hop outage probabilities: p1 + (1 - p1) * p2."""
    for name, value in (("p_plc", p_plc), ("p_vlc", p_vlc)):
        if not 0.0 <= value <= 1.0:
            raise ParameterError(f"{name} must be a probability in [0, 1]")
    return p_plc + (1.0 - p_plc) * p_vlc


def e2e_outage_analytic(s: RelaySystemParams) -> float:
    """End-to-end outage probability at the system's rate threshold."""
    threshold = rate_to_snr_threshold(s.rate_threshold_bits, s.duplex_factor)
    if threshold == 0.0:
        return 0.0
    return e2e_outage(plc_link.outage(s.plc, threshold), vlc_link.outage(s.vlc, threshold))


def e2e_avg_capacity_numeric(s: RelaySystemParams) -> float:
    """Mean end-to-end capacity E[duplex_factor * min(C_plc, C_vlc)].

    Computed as duplex_factor * integral over t of P(C_plc > t) * P(C_vlc > t)
    from the per-hop SNR CDFs (the hops are independent and the VLC capacity
    is bounded), with a fixed composite Gauss-Legendre rule; it is the
    analytic counterpart of the sampled estimate.  The PLC survival is a
    normal CDF in y = ln(snr), ``PlcLinkParams.law`` (a step at its centre
    at zero spread); the VLC survival is 1 up to the cell-edge
    capacity.  Below the edge the integral is taken in y, where
    dt/dy = expit(y)/ln 2; above it in u = (snr/rho)**(-beta),
    beta = 1/(m+3), as in ``vlc_link.avg_capacity_quad``, where the VLC
    survival is linear and dt/du = expit(y)/(beta*u*ln 2).  The rule is cut
    at the median, 9 spreads either side of it (the PLC survival beyond is
    dropped, as is the integrand 40 nepers below the lowest of the median,
    the edge and 0 dB), at 0 dB, beside which the poles of expit(y) lie (at
    the knee u = rho**beta above the edge), and geometrically toward u = 0.
    Against a 30-digit mpmath reference it was within 6e-14 relative on 900
    random systems, fading spreads up to 12 dB and cell radii up to 300 m
    among them (README).  Where both hops are point masses (zero PLC spread, a
    one-point VLC support) it is the capacity of the smaller SNR, in the
    sampler's bits.
    """
    centre, spread = s.plc.law
    _, _, _, _, t_min, t_max, rho = s.vlc.law
    if spread == 0.0 and t_min == t_max:
        snr = min(plc_link._point_mass(centre), rho * t_max)
        return s.duplex_factor * (float(np.log1p(snr)) / _LN2)
    return s.duplex_factor * _survival_integral(s, _E2E_ORDER)


def _survival_integral(s: RelaySystemParams, order: int) -> float:
    """Integral over t of P(C_plc > t) * P(C_vlc > t), ``order`` nodes per panel."""
    m, _, _, _, t_min, t_max, rho = s.vlc.law
    beta = 1.0 / (m + 3.0)
    centre, spread = s.plc.law

    def plc_survival(y: np.ndarray) -> np.ndarray:
        # 0.5 * erfc((y - centre) / (spread * sqrt 2)) where that is neither 1
        # nor 0 in double precision (it is 1 - 1e-19 nine spreads below the
        # centre and 1e-349 forty above), else the step at the centre.  At a
        # zero or subnormal spread it is the step everywhere, with no quotient
        # to overflow.
        survival = (y <= centre).astype(float)
        normal = (y > centre - _NORMAL_TAIL * spread) & (y < centre + 40.0 * spread)
        args = ((y[normal] - centre) / (spread * math.sqrt(2.0))).tolist()
        survival[normal] = 0.5 * np.fromiter(map(math.erfc, args), float, len(args))
        return survival

    # [0, edge], where the VLC hop always survives, in y.
    tail = _NORMAL_TAIL * spread
    y_edge = math.log(rho * t_min)
    y_high = min(y_edge, centre + tail)
    y_low = min(y_edge, centre, 0.0) - _LOGISTIC_TAIL
    y, w = gauss_legendre_panels(y_low, y_high, order, (centre - tail, centre, 0.0))
    total = float(w @ (plc_survival(y) * _expit(y))) / _LN2

    u_low, u_high = t_max ** -beta, t_min ** -beta
    log_rho = math.log(rho)

    def u_at(y: float) -> float:
        return math.exp(beta * (log_rho - y))

    u_start = max(u_low, u_at(centre + tail))
    if u_start < u_high:
        # A split at or below the edge lies past u_high, where exp may overflow.
        splits = tuple(u_at(y) for y in (0.0, centre, centre - tail) if y > y_edge)
        u, w = gauss_legendre_panels(u_start, u_high, order, splits, grading=vlc_link.U_GRADING)
        y = log_rho - np.log(u) / beta
        keep_vlc = (u - u_low) / (u_high - u_low)
        dt_du = _expit(y) / (beta * u * _LN2)
        total += float(w @ (plc_survival(y) * keep_vlc * dt_du))
    return total


def _expit(y: np.ndarray) -> np.ndarray:
    """The logistic function 1/(1 + exp(-y)).

    -y is capped at 709, below exp's overflow; where that acts, the value is
    1.2e-308 instead of less, which no sum here can see.
    """
    return 1.0 / (1.0 + np.exp(np.minimum(-y, 709.0)))
