"""Special-function kernel: Gauss-Legendre rules, the mean capacity kernels and the 2F1.

The quadrature rule comes from NumPy (``numpy.polynomial.legendre.leggauss``),
tiled once per panel count and cached read-only in a bounded cache; on it
``softplus_mean`` and ``normal_softplus_mean`` take every mean capacity in nepers,
``bits`` converts it, and ``snr_cdf`` takes an outage from a law's CDF.  The
2F1(1, b; b+1; z) on -1 <= z <= 0 of the VLC closed form is a native series.
Errors name the offending argument.

All routines are pure functions of their arguments and keep no mutable state,
so they are safe to call from any number of threads.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import FINITE, ParameterError, check_value

__all__ = ["LN2", "bits", "gauss_legendre_panels", "softplus_mean", "normal_span",
           "normal_softplus_mean", "snr_cdf", "hyp2f1"]

LN2 = math.log(2.0)


def bits(nepers: float, level: float = 1.0) -> float:
    """level * nepers / ln 2: every capacity, analytic or sampled, in bits, times ``level``."""
    return level * nepers / LN2


# ---------------------------------------------------------------------------
# Composite Gauss-Legendre quadrature on finite intervals
# ---------------------------------------------------------------------------

# Every analytic mean's rule is cut where its softplus(y) kinks and beside its poles
# at y = +-i*pi, with PANEL_ORDER nodes a panel (read at each call: tests patch it).
KINK_CUTS = (-32.0, -4.0, 0.0, 4.0, 32.0)
PANEL_ORDER = 16
# The normal mean's rule drops the density beyond this many spreads (phi(9) = 1e-18).
_NORMAL_TAIL = 9.0
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@lru_cache(maxsize=64)
def _tiled_legendre_arrays(order: int, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """The rule of ``order`` nodes on [-1, 1], repeated ``panels`` times."""
    nodes, weights = (np.tile(a, panels) for a in leggauss(order))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_legendre_panels(low: float, high: float, splits=()) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a composite Gauss-Legendre rule over [low, high].

    The interval is cut at each split point strictly inside it (others are
    ignored), and each segment into two equal panels of ``PANEL_ORDER`` nodes;
    ``weights @ f(nodes)`` then integrates f in one vectorised call.  A Gauss
    rule converges at a rate set by the integrand's nearest complex
    singularity (Trefethen, "Is Gauss quadrature better than
    Clenshaw-Curtis?", SIAM Rev. 2008), so split beside such singularities
    and at kinks or steps.
    """
    edges = [low, *sorted({p for p in splits if low < p < high}), high]
    cuts = np.array([*(c for a, b in zip(edges, edges[1:]) for c in (a, a + (b - a) / 2.0)), high])
    half = (cuts[1:] - cuts[:-1]) / 2.0
    centre = cuts[:-1] + half
    # 1-D, not (panels, 1) x (PANEL_ORDER,): one long NumPy loop per operation, same bits.
    xs, ws = _tiled_legendre_arrays(PANEL_ORDER, half.size)
    half = half.repeat(PANEL_ORDER)
    return half * xs + centre.repeat(PANEL_ORDER), half * ws


def softplus_mean(*laws: tuple) -> float:
    """E[softplus(min Y)] over independent hops' log-SNRs Y, E[log(1 + min snr)] in nepers.

    Each law is a hop's ``log_snr_law``, (low, high, survival, cuts, floor,
    cdf): the support of Y, its survival S(y) = P(Y > y) there, vectorised (None
    at a point mass), the hop's own cuts, the least SNR the sampler draws (the
    point's SNR at a point mass) and its CDF for ``snr_cdf``.  Where a point
    mass lies at or below every floor the mean is NumPy's log1p of its SNR, the
    sampler's bits, or its y where the SNR overflows.  Otherwise it is
    softplus(low) + the integral of prod S(y) * expit(y) over [low, high], the
    least ends: one rule of ``PANEL_ORDER`` nodes a panel, cut at ``KINK_CUTS``,
    at each low and hop cut and, where expit(y) is about e^y, every 8 nepers for
    48 nepers below min(high, -4) (README, "Mean capacities").  A survival whose
    support starts above low is clipped to 1; survivals and expit are taken with
    overflow ignored (expit is 0 below y = -709).
    """
    lows, highs, survivals, cuts, floors, _ = zip(*laws)
    if None in survivals:
        least = min(floors)
        for high, survival, floor in zip(highs, survivals, floors):
            if survival is None and floor <= least:
                return float(np.log1p(floor)) if floor < math.inf else high
    low, high = min(lows), min(highs)
    top = min(high, KINK_CUTS[1])
    tail = (top - 8.0 * k for k in range(1, 7))
    y, w = gauss_legendre_panels(low, high, (*KINK_CUTS, *lows, *sum(cuts, ()), *tail))
    with np.errstate(over="ignore"):
        factors = [f(y) if start <= low else np.minimum(f(y), 1.0)
                   for start, f in zip(lows, survivals) if f is not None]
        integrand = reduce(np.multiply, factors) / (1.0 + np.exp(-y))
    return max(low, 0.0) + math.log1p(math.exp(-abs(low))) + float(w @ integrand)


def normal_span(m: float, s: float) -> tuple[float, float]:
    """[-9, max(0, min(s, -m/s)) + 9] in z, where softplus(m + s*z) * phi(z) has its mass."""
    return -_NORMAL_TAIL, max(0.0, min(s, -m / s)) + _NORMAL_TAIL


def normal_softplus_mean(m: float, s: float) -> float:
    """E[softplus(m + s*Z)] in nepers, Z standard normal and s > 0, against its density.

    One rule in z over ``normal_span``, cut at 0 and at z0 + ``KINK_CUTS``/s
    around the kink z0 = -m/s of softplus (README, "Power-line mean capacity").
    """
    kink = -m / s
    z, w = gauss_legendre_panels(*normal_span(m, s), (0.0, *(kink + y / s for y in KINK_CUTS)))
    return float((w * np.exp(-0.5 * z ** 2)) @ np.logaddexp(0.0, m + s * z)) / _SQRT_2PI


def snr_cdf(law: tuple, threshold: float) -> float:
    """P(snr < threshold) under a hop's ``log_snr_law`` (README, "Mean capacities").

    0 at a threshold at or below 0; at a point mass a step at the law's
    floor, the sampled SNR, as the sampler's ``snr < threshold`` sees it;
    otherwise the law's CDF P(Y < y) at y = ln(threshold).
    """
    if threshold <= 0.0:
        return 0.0
    _, _, _, _, floor, cdf = law
    if cdf is None:
        return 0.0 if floor >= threshold else 1.0
    return cdf(math.log(threshold))


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
    check_value("hyp2f1 argument b", b, FINITE)
    if not (c == b + 1.0 and c > 0.0):
        raise ParameterError(f"hyp2f1 argument c must equal b + 1 > 0, got c={c!r} for b={b!r}")
    check_value("hyp2f1 argument z", z, (-1.0, 0.0, "must lie in [-1, 0]"))
    w = z / (z - 1.0)
    total = term = 1.0
    n = 0.0
    while term > 1e-17 * total:
        term *= (n + 1.0) / (c + n) * w
        total += term
        n += 1.0
    return total / (1.0 - z)
