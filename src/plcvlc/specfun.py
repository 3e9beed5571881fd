"""Special-function kernel: Gauss quadrature rules, normal CDF, Gauss hypergeometric.

The numerics come from NumPy (``numpy.polynomial.hermite.hermgauss``,
``numpy.polynomial.legendre.leggauss``) and SciPy (``scipy.special.hyp2f1``);
this module adds argument checking, a cached read-only rule per order, and
errors that name the offending arguments.

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
from scipy import special

from .errors import NumericDomainError, ParameterError

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

@lru_cache(maxsize=None)
def _gauss_legendre_arrays(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = leggauss(order)
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
    x, w = _gauss_legendre_arrays(order)
    if 0.0 < low and high / low > grading:
        splits = (*splits, *low * grading ** np.arange(1, math.ceil(math.log(high / low, grading))))
    edges = [low, *sorted({p for p in splits if low < p < high}), high]
    cuts = np.array([*(c for a, b in zip(edges, edges[1:]) for c in (a, a + (b - a) / 2.0)), high])
    half = (cuts[1:, None] - cuts[:-1, None]) / 2.0
    centre = cuts[:-1, None] + half
    return (centre + half * x).ravel(), (half * w).ravel()


# ---------------------------------------------------------------------------
# Standard normal CDF
# ---------------------------------------------------------------------------

def std_normal_cdf(x: float) -> float:
    """P(Z <= x) for Z standard normal, via the complementary error function."""
    if math.isnan(x):
        raise ParameterError("std_normal_cdf requires a non-NaN argument")
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Gauss hypergeometric function 2F1 for real arguments with z < 1
# ---------------------------------------------------------------------------

def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; z) for real z < 1.

    Wraps ``scipy.special.hyp2f1``.  The arguments must be finite, c must not
    be a nonpositive integer, and z must be below 1 (ParameterError
    otherwise); a non-finite library result raises NumericDomainError naming
    all four arguments.
    """
    for name, value in (("a", a), ("b", b), ("c", c), ("z", z)):
        if not math.isfinite(value):
            raise ParameterError(f"hyp2f1 argument {name} must be finite, got {value!r}")
    if c <= 0.0 and c == math.floor(c):
        raise ParameterError(f"hyp2f1 parameter c must not be a nonpositive integer, got {c}")
    if z >= 1.0:
        raise ParameterError(f"hyp2f1 argument z must satisfy z < 1, got {z}")
    value = float(special.hyp2f1(a, b, c, z))
    if not math.isfinite(value):
        raise NumericDomainError(
            f"hyp2f1 evaluated to {value!r} for a={a}, b={b}, c={c}, z={z}"
        )
    return value
