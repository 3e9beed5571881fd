"""Decode-and-forward composition of the two hops.

End-to-end instantaneous capacity is ``duplex_factor * min`` of the hop
capacities; an end-to-end outage happens when either hop's SNR falls below
the threshold implied by the rate target.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import plc_link, vlc_link
from .errors import ParameterError
from .plc_link import PlcLinkParams
from .vlc_link import VlcLinkParams

__all__ = [
    "RelaySystemParams",
    "rate_to_snr_threshold",
    "e2e_outage",
    "e2e_outage_analytic",
    "e2e_avg_capacity_numeric",
]

_LN2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class RelaySystemParams:
    """The two hop parameter sets plus the system-level knobs.

    ``snr_threshold``, the per-hop ``rate_to_snr_threshold``, is set on construction.
    """

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
        object.__setattr__(self, "snr_threshold", threshold)


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
    threshold = s.snr_threshold
    return e2e_outage(plc_link.outage(s.plc, threshold), vlc_link.outage(s.vlc, threshold))


def e2e_avg_capacity_numeric(s: RelaySystemParams) -> float:
    """Mean end-to-end capacity E[duplex_factor * min(C_plc, C_vlc)].

    The analytic counterpart of the sampled estimate: the integral over t of
    P(C_plc > t) * P(C_vlc > t), by one Gauss-Legendre rule in the PLC's
    normal variable z (README, "End-to-end mean capacity", for the method
    and its measured accuracy).  Where both hops are point masses (zero PLC
    spread, a one-point VLC support) it is the capacity of the smaller SNR,
    in the sampler's bits.
    """
    m, spread = s.plc.law
    vlc_m, _, _, _, t_min, t_max, rho = s.vlc.law
    log_rho = math.log(rho)
    y_edge, y_top = log_rho + math.log(t_min), log_rho + math.log(t_max)
    # A zero or subnormal spread is the point mass exp(m): all of it lies below z = -9.
    z_edge = z_top = -math.inf
    if spread >= sys.float_info.min:
        z_edge, z_top = (y_edge - m) / spread, (y_top - m) / spread
    tail = plc_link._NORMAL_TAIL
    if z_edge < -tail:
        # The PLC hop survives below the rule's start z = -9 (but for 1e-19),
        # so up to exp(m - 9s) the integral is the VLC capacity clipped there.
        clip = plc_link._point_mass(m - tail * spread)
        bits, nepers = vlc_link._capacity_by_rule(s.vlc, clip), 0.0
        if z_top <= -tail:
            return s.duplex_factor * bits
    else:
        # By parts, the integral below the edge is the PLC mean clipped there.
        bits, nepers = 0.0, 0.5 * math.erfc(z_edge / _SQRT2) * float(np.logaddexp(0.0, y_edge))
    # The PLC mean's rule, ending at the top of the cell and also cut at its edge.
    z, w = plc_link._z_rule(m, spread, z_top, (z_edge,))
    below = int(np.searchsorted(z, z_edge))
    nepers += plc_link._softplus_sum(m, spread, z[:below], w[:below])
    beta = 1.0 / (vlc_m + 3.0)
    u_low, u_high = t_max ** -beta, t_min ** -beta
    if u_low < u_high:
        # Above it, P(C_plc > t) * P(C_vlc > t) * dt/dz, with the VLC survival
        # linear in u = (snr/rho)**-beta and dt/dy = expit(y) nepers.
        z = z[below:]
        y = m + spread * z
        survival = np.fromiter(map(math.erfc, (z / _SQRT2).tolist()), float, z.size)
        survival *= np.exp(beta * (log_rho - y)) - u_low
        snr = np.exp(y)
        survival *= snr / (1.0 + snr)
        nepers += 0.5 * spread * (float(w[below:] @ survival) / (u_high - u_low))
    return s.duplex_factor * (bits + nepers / _LN2)
