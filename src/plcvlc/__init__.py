"""Capacity and outage analysis of a cascaded power-line / DF-relay / visible-light link.

The analytic layer (Gauss-Hermite averaging for the power-line hop, a
power-law gain distribution and a hypergeometric closed form for the
visible-light hop, and decode-and-forward composition) is cross-validated by
a deterministic, seedable Monte Carlo engine.  The analytic functions live in
the submodules ``plc_link``, ``vlc_link``, ``relay`` and ``sweeps``.
"""

from .errors import ConfigError, ParameterError, PlcVlcError
from .montecarlo import METRICS, Estimate, McConfig, estimate, estimate_many
from .plc_link import PlcLinkParams
from .relay import RelaySystemParams
from .vlc_link import VlcLinkParams
from .config import DEFAULTS, load_config

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ParameterError",
    "PlcVlcError",
    "METRICS",
    "Estimate",
    "McConfig",
    "estimate",
    "estimate_many",
    "PlcLinkParams",
    "RelaySystemParams",
    "VlcLinkParams",
    "DEFAULTS",
    "load_config",
    "__version__",
]
