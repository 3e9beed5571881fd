"""Decode-and-forward composition of the two hops.

End-to-end instantaneous capacity is ``duplex_factor * min`` of the hop
capacities; an end-to-end outage happens when either hop's SNR falls below
the threshold implied by the rate target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import plc_link, specfun, vlc_link
from .errors import NONNEGATIVE, ParameterError, check_fields, check_value
from .plc_link import PlcLinkParams
from .vlc_link import VlcLinkParams

__all__ = [
    "RelaySystemParams",
    "rate_to_snr_threshold",
    "e2e_outage",
    "e2e_outage_analytic",
    "e2e_avg_capacity_numeric",
]

_DUPLEX = (5e-324, 1.0, "must lie in (0, 1]")
_EXPONENT = (0.0, math.nextafter(1024.0, 0.0), "must be below 1024, or the threshold overflows")


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
        check_fields(self, _DUPLEX, ("duplex_factor",))
        check_fields(self, NONNEGATIVE, ("rate_threshold_bits",))
        try:
            threshold = rate_to_snr_threshold(self.rate_threshold_bits, self.duplex_factor)
        except ParameterError:  # the fields are in range, so the threshold overflows
            raise ParameterError(
                f"RelaySystemParams.rate_threshold_bits / RelaySystemParams.duplex_factor = "
                f"{self.rate_threshold_bits!r} / {self.duplex_factor!r} overflows the SNR "
                f"threshold 2**(rate_threshold_bits / duplex_factor) - 1"
            ) from None
        object.__setattr__(self, "snr_threshold", threshold)


def rate_to_snr_threshold(rate_threshold: float, duplex_factor: float) -> float:
    """Per-hop SNR threshold 2**(rate/duplex_factor) - 1 for a rate target."""
    check_value("rate_threshold", rate_threshold, NONNEGATIVE)
    check_value("duplex_factor", duplex_factor, _DUPLEX)
    exponent = rate_threshold / duplex_factor
    check_value("rate_threshold / duplex_factor", exponent, _EXPONENT)
    return 2.0 ** exponent - 1.0


def e2e_outage(p_plc: float, p_vlc: float) -> float:
    """Compose per-hop outage probabilities: p1 + (1 - p1) * p2."""
    check_value("p_plc", p_plc, (0.0, 1.0, "must be a probability in [0, 1]"))
    check_value("p_vlc", p_vlc, (0.0, 1.0, "must be a probability in [0, 1]"))
    return p_plc + (1.0 - p_plc) * p_vlc


def e2e_outage_analytic(s: RelaySystemParams) -> float:
    """End-to-end outage probability at the system's rate threshold."""
    threshold = s.snr_threshold
    return e2e_outage(plc_link.outage(s.plc, threshold), vlc_link.outage(s.vlc, threshold))


def e2e_avg_capacity_numeric(s: RelaySystemParams) -> float:
    """Mean end-to-end capacity E[duplex_factor * min(C_plc, C_vlc)].

    The analytic counterpart of the sampled estimate: ``specfun.softplus_mean``
    of the two hops' log-SNR laws (README, "Mean capacities").
    """
    laws = plc_link.log_snr_law(s.plc), vlc_link.log_snr_law(s.vlc)
    return specfun.bits(specfun.softplus_mean(*laws), s.duplex_factor)
