"""Special-function kernel: Gauss quadrature rules, normal CDF, Gauss hypergeometric.

The quadrature rules come from NumPy (``numpy.polynomial.hermite.hermgauss``,
``numpy.polynomial.legendre.leggauss``), cached read-only per order (the
Legendre rule tiled once per panel count, in a bounded cache); the normal
CDF is ``math.erfc``; the one 2F1 family the VLC closed form needs,
2F1(1, b; b+1; z) on -1 <= z <= 0, is a native series.  Errors name the
offending argument.

All routines are pure functions of their arguments and keep no mutable state,
so they are safe to call from any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .errors import ParameterError

__all__ = ["MAX_QUADRATURE_ORDER", "QuadratureRule", "gauss_hermite", "gauss_legendre_panels",
           "std_normal_cdf", "hyp2f1"]

MAX_QUADRATURE_ORDER = 200


# ---------------------------------------------------------------------------
# Gauss-Hermite quadrature (physicists' weight exp(-x^2))
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for integrating f(x)*exp(-x^2) over the real line.

    Nodes are strictly increasing and symmetric about zero; the weights sum
    to sqrt(pi) (the zeroth Hermite moment).
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def _gauss_hermite_arrays(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = hermgauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_hermite(order: int) -> QuadratureRule:
    """Nodes and weights of the physicists' Hermite polynomial of the given order.

    Wraps ``numpy.polynomial.hermite.hermgauss``; the rule is exact for
    polynomials of degree <= 2*order - 1 against the exp(-x^2) weight.  The
    order must be an integer in [1, MAX_QUADRATURE_ORDER].  Rules are cached
    per order and their arrays are read-only.
    """
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
        raise ParameterError(f"quadrature order must be an integer, got {order!r}")
    if not 1 <= order <= MAX_QUADRATURE_ORDER:
        raise ParameterError(f"quadrature order must be in [1, {MAX_QUADRATURE_ORDER}], got {order}")
    nodes, weights = _gauss_hermite_arrays(int(order))
    return QuadratureRule(int(order), nodes, weights)


# ---------------------------------------------------------------------------
# Composite Gauss-Legendre quadrature on finite intervals
# ---------------------------------------------------------------------------

# Every analytic mean's rule is cut where its softplus(y) kinks and beside its poles
# at y = +-i*pi, with PANEL_ORDER nodes a panel (the PLC mean: quadrature_order).
KINK_CUTS = (-32.0, -4.0, 0.0, 4.0, 32.0)
PANEL_ORDER = 16


@lru_cache(maxsize=64)
def _tiled_legendre_arrays(order: int, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """The rule of ``order`` nodes on [-1, 1], repeated ``panels`` times."""
    nodes, weights = (np.tile(a, panels) for a in leggauss(order))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_legendre_panels(
    low: float, high: float, order: int, splits=(), grading: float = math.inf
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a composite Gauss-Legendre rule over [low, high].

    The interval is cut at each split point strictly inside it (others are
    ignored) and, for 0 < low, at low * grading**k, and each segment into two
    equal panels of ``order`` nodes; ``weights @ f(nodes)`` then integrates f
    in one vectorised call.  A Gauss rule converges at a rate set by the
    integrand's nearest complex singularity (Trefethen, "Is Gauss quadrature
    better than Clenshaw-Curtis?", SIAM Rev. 2008), so split beside such
    singularities and at kinks or steps, and grade toward a singularity at 0.
    """
    if 0.0 < low and high / low > grading:
        graded = range(1, math.ceil(math.log(high / low, grading)))
        splits = (*splits, *(low * grading ** k for k in graded))
    edges = [low, *sorted({p for p in splits if low < p < high}), high]
    cuts = np.array([*(c for a, b in zip(edges, edges[1:]) for c in (a, a + (b - a) / 2.0)), high])
    half = (cuts[1:] - cuts[:-1]) / 2.0
    centre = cuts[:-1] + half
    # 1-D, not (panels, 1) x (order,): one long NumPy loop per operation, same bits.
    xs, ws = _tiled_legendre_arrays(order, half.size)
    half = half.repeat(order)
    return half * xs + centre.repeat(order), half * ws


# ---------------------------------------------------------------------------
# Standard normal CDF
# ---------------------------------------------------------------------------

def std_normal_cdf(x: float) -> float:
    """P(Z <= x) for Z standard normal, via the complementary error function."""
    if math.isnan(x):
        raise ParameterError("std_normal_cdf requires a non-NaN argument")
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Gauss hypergeometric function 2F1(1, b; b+1; z) on -1 <= z <= 0
# ---------------------------------------------------------------------------

def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; z) for a = 1, c = b + 1 > 0, -1 <= z <= 0.

    This is the family the VLC closed form needs.  The Pfaff transformation
    (DLMF 15.8.1) gives 2F1(1, b; b+1; z) = (1-z)**-1 * sum_n n!/(b+1)_n * w**n
    with w = z/(z-1) in [0, 1/2]: positive terms whose ratio
    (n+1)/(b+1+n) * w falls toward w, so the sum reaches double precision in
    at most about 55 terms.  Any other a, b, c or z raises ParameterError
    naming the argument.
    """
    if a != 1.0:
        raise ParameterError(f"hyp2f1 argument a must be 1, got {a!r}")
    if not math.isfinite(b):
        raise ParameterError(f"hyp2f1 argument b must be finite, got {b!r}")
    if not (c == b + 1.0 and c > 0.0):
        raise ParameterError(f"hyp2f1 argument c must equal b + 1 > 0, got c={c!r} for b={b!r}")
    if not -1.0 <= z <= 0.0:
        raise ParameterError(f"hyp2f1 argument z must lie in [-1, 0], got {z!r}")
    w = z / (z - 1.0)
    total = term = 1.0
    n = 0.0
    while term > 1e-17 * total:
        term *= (n + 1.0) / (c + n) * w
        total += term
        n += 1.0
    return total / (1.0 - z)
