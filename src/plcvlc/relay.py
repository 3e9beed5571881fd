"""Decode-and-forward composition of the two hops.

End-to-end instantaneous capacity is ``duplex_factor * min`` of the hop
capacities; an end-to-end outage happens when either hop's SNR falls below
the threshold implied by the rate target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate

from . import plc_link, vlc_link
from .errors import NumericDomainError, ParameterError
from .plc_link import PlcLinkParams
from .vlc_link import VlcLinkParams

__all__ = [
    "RelaySystemParams",
    "e2e_capacity",
    "rate_to_snr_threshold",
    "e2e_outage",
    "e2e_outage_analytic",
    "e2e_avg_capacity_bound",
    "e2e_avg_capacity_numeric",
]


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


def e2e_avg_capacity_bound(s: RelaySystemParams) -> float:
    """Upper bound duplex_factor * min(E[C_plc], E[C_vlc]) on the mean capacity."""
    return s.duplex_factor * min(
        plc_link.avg_capacity(s.plc), vlc_link.avg_capacity_closed(s.vlc)
    )


def e2e_avg_capacity_numeric(s: RelaySystemParams) -> float:
    """Mean end-to-end capacity E[duplex_factor * min(C_plc, C_vlc)].

    Computed as duplex_factor * integral over t of
    P(C_plc > t) * P(C_vlc > t), using the per-hop SNR CDFs; the hops are
    independent, and the VLC capacity is bounded, so the integral is finite.
    This is a numeric composition of the per-hop distributions, not a closed
    form, and serves as the analytic counterpart of the sampled estimate.
    """
    t_min, t_max = vlc_link.gain_sq_support(s.vlc)
    rho = s.vlc.tx_power_w / s.vlc.noise_variance
    c_vlc_max = math.log2(1.0 + rho * t_max)

    def survival_product(t: float) -> float:
        threshold = 2.0 ** t - 1.0
        keep_plc = 1.0 - plc_link.outage(s.plc, threshold)
        keep_vlc = 1.0 - vlc_link.outage(s.vlc, threshold)
        return keep_plc * keep_vlc

    # The VLC survival leaves 1 at the cell-edge capacity, a kink in the
    # integrand.
    kinks = [math.log2(1.0 + rho * t_min)]
    if s.plc.fading_sigma_db == 0.0:
        # Deterministic first hop: the integrand steps to zero at its capacity.
        kinks.append(math.log2(
            1.0 + plc_link.snr_scale(s.plc) * 10.0 ** (s.plc.fading_mu_db / 5.0)
        ))
    breakpoints = sorted(k for k in kinks if 0.0 < k < c_vlc_max) or None
    result = integrate.quad(
        survival_product, 0.0, c_vlc_max,
        points=breakpoints, epsabs=1e-12, epsrel=1e-9, limit=200, full_output=1,
    )
    if len(result) > 3:
        raise NumericDomainError(
            f"end-to-end capacity integration did not converge: {result[3]}"
        )
    return s.duplex_factor * result[0]
