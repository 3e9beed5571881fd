"""Capacity and outage analysis of a cascaded power-line / DF-relay / visible-light link.

The analytic layer (Gauss-Legendre averaging over the normal dB gain for the
power-line hop, a power-law gain distribution and a hypergeometric closed
form for the visible-light hop, and decode-and-forward composition) is
cross-validated by a deterministic, seedable Monte Carlo engine.  The
analytic functions live in the submodules ``plc_link``, ``vlc_link``,
``relay`` and ``sweeps``.
"""

import os
import sys

# NumPy's bundled OpenBLAS starts ncores - 1 busy-waiting threads when it
# loads, and nothing in this package makes a threaded BLAS call: Monte Carlo
# sums pairwise in NumPy, the quadrature sums are dot products over at most
# a few thousand nodes, and the only LAPACK call is the small eigvalsh of the
# cached Gauss-Legendre rules.  Those threads would only burn CPU, so NumPy
# is loaded with one BLAS thread, unless it is loaded already or the user
# chose a thread count.  The variable is set for the load
# alone: os.environ and child processes see exactly what the user set.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(name in os.environ for name in _BLAS_THREADS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        __import__("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

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
