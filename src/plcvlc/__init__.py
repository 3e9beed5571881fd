"""Capacity and outage analysis of a cascaded power-line / DF-relay / visible-light link.

The analytic layer (Gauss-Hermite averaging for the power-line hop, a
power-law gain distribution and a hypergeometric closed form for the
visible-light hop, and decode-and-forward composition) is cross-validated by
a deterministic, seedable Monte Carlo engine.
"""

from .errors import ConfigError, NumericDomainError, ParameterError, PlcVlcError
from .montecarlo import (
    METRICS,
    Estimate,
    McConfig,
    estimate,
    estimate_many,
    sample_plc_snr,
    sample_vlc_snr,
)
from .plc_link import PlcLinkParams
from .relay import (
    RelaySystemParams,
    e2e_avg_capacity_numeric,
    e2e_capacity,
    e2e_outage,
    e2e_outage_analytic,
    rate_to_snr_threshold,
)
from .specfun import QuadratureRule, gauss_hermite, hyp2f1, std_normal_cdf
from .vlc_link import VlcLinkParams
from .config import DEFAULTS, load_config
from .sweeps import FIGURE_PRESETS, RunReport, SweepSpec, run_sweep, run_validation

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "NumericDomainError",
    "ParameterError",
    "PlcVlcError",
    "METRICS",
    "Estimate",
    "McConfig",
    "estimate",
    "estimate_many",
    "sample_plc_snr",
    "sample_vlc_snr",
    "PlcLinkParams",
    "RelaySystemParams",
    "e2e_avg_capacity_numeric",
    "e2e_capacity",
    "e2e_outage",
    "e2e_outage_analytic",
    "rate_to_snr_threshold",
    "QuadratureRule",
    "gauss_hermite",
    "hyp2f1",
    "std_normal_cdf",
    "VlcLinkParams",
    "DEFAULTS",
    "load_config",
    "FIGURE_PRESETS",
    "RunReport",
    "SweepSpec",
    "run_sweep",
    "run_validation",
    "__version__",
]
