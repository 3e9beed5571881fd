"""Sampling oracle for every analytic link metric.

Every request reduces one path SNR per trial: a hop's own SNR or, end to end,
min(SNR_plc, SNR_vlc), since the decode-and-forward relay forwards only what
both hops carry.  A capacity is the mean of level * (log1p(snr) / ln 2), an
outage the share of trials with snr below the SNR threshold.  Each batch
runs in place in the five rows of one work array that its thread reuses
from batch to batch (normals, uniforms, PLC SNR, VLC SNR, values), and
sums pairwise in NumPy, never in BLAS, whose bits could depend on the build.

Determinism contract: every reported Estimate is a pure function of
(seed, trials, batch_size, parameters, metric), whichever other requests
share its sampling pass.  Batch b draws from its own counter-based Philox
stream keyed by (seed, b) through a NumPy SeedSequence spawn key, and each
metric reads fixed positions of it: a hop's PLC SNR the normals drawn
first, its VLC SNR the uniforms drawn after them, whether the metric reads
one hop or both.  One pass (``estimate_many``) therefore serves every
request from one draw of each without changing a bit.  Batch partial sums
are combined with math.fsum, which is exactly rounded, so one worker thread
or many give bit-identical estimates.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .plc_link import PlcLinkParams
from .relay import RelaySystemParams
from .vlc_link import VlcLinkParams, gain_sq

__all__ = [
    "METRICS",
    "MIN_TRIALS",
    "McConfig",
    "Estimate",
    "sample_plc_snr",
    "sample_vlc_snr",
    "estimate",
    "estimate_many",
]

METRICS = (
    "plc_avg_capacity",
    "vlc_avg_capacity",
    "e2e_avg_capacity",
    "plc_outage",
    "vlc_outage",
    "e2e_outage",
)

MIN_TRIALS = 1_000
# The one-pass sum of squared deviations, total_sq - total**2 / n, carries a
# rounding error of up to about this share of total_sq (128 ulps).
_RESOLVED = 2.0 ** -45
# A capacity in bits is log1p(snr) / _LN2.
_LN2 = math.log(2.0)
# Rounding of a sampled mean, in ulps of it (``_combine``).
_ROUNDING_ULPS = 2.0


@dataclass(frozen=True)
class McConfig:
    """Trial count, seed and reduction granularity of a Monte Carlo run."""

    trials: int
    seed: int = 0
    batch_size: int = 65_536

    def __post_init__(self) -> None:
        if isinstance(self.trials, bool) or not isinstance(self.trials, (int, np.integer)):
            raise ParameterError("McConfig.trials must be an integer")
        if self.trials < MIN_TRIALS:
            raise ParameterError(
                f"McConfig.trials must be at least {MIN_TRIALS} for a reported estimate"
            )
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= int(self.seed) < 2 ** 64:
            raise ParameterError("McConfig.seed must be a 64-bit unsigned integer")
        if not isinstance(self.batch_size, (int, np.integer)) or self.batch_size < 1:
            raise ParameterError("McConfig.batch_size must be a positive integer")


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo point estimate with its standard error."""

    mean: float
    std_error: float
    trials: int
    seed: int


def _plc_log_snr(p: PlcLinkParams, u: np.ndarray, out: np.ndarray, where=True) -> np.ndarray:
    """y = centre + spread*u = ln(relay SNR), with (centre, spread) = ``p.law``,
    in place in ``out`` where ``where`` holds."""
    centre, spread = p.law
    np.multiply(u, spread, out=out, where=where)
    return np.add(out, centre, out=out, where=where)


def sample_plc_snr(p: PlcLinkParams, u, out=None):
    """Relay SNR for a unit-normal draw u: a * 10**((mu + sigma*u)/5).

    Computed as exp(y), y = ``_plc_log_snr``: one exp per trial, in place in
    ``out`` (a new array if None).  It is inf where y > ln(max float), which
    only a PLC-only capacity reads as such (``_batch_partials``).
    """
    u = np.asarray(u, dtype=float)
    snr = _plc_log_snr(p, u, np.empty_like(u) if out is None else out)
    with np.errstate(over="ignore"):
        np.exp(snr, out=snr)
    return snr if snr.ndim else float(snr)


def sample_vlc_snr(p: VlcLinkParams, v, out=None):
    """Destination SNR for a uniform(0,1) draw v.

    The user radius r_k = r * sqrt(v) inverts the disc-uniform location CDF,
    so v = (r_k/r)**2, and the SNR is rho * t with rho = P_r / sigma_d^2 and
    t the squared gain (C / (r**2*v + L**2))**(m+3) of ``vlc_link.gain_sq``
    under ``p.law``: no square root and no square, in place in ``out`` (a new
    array if None).  At v = 1 and v = 0, t is the law's support exactly.
    """
    v = np.asarray(v, dtype=float)
    snr = gain_sq(v, p.law, np.empty_like(v) if out is None else out)
    np.multiply(snr, p.law.rho, out=snr)
    return snr if snr.ndim else float(snr)


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,))
    return np.random.Generator(np.random.Philox(sequence))


def _reduction_key(metric: str, system: RelaySystemParams) -> tuple:
    """(kind, plc, vlc, level) of one request.

    plc and vlc are the hop parameters whose smallest SNR the request reads,
    None for a hop it does not read.  The level is an outage's SNR
    threshold, else a capacity's factor: the duplex factor end to end, 1.0
    for a hop.  Equal keys, equal estimates.
    """
    if metric not in METRICS:
        raise ParameterError(f"unknown metric {metric!r}; expected one of {METRICS}")
    hop, kind = metric.split("_", 1)
    plc = None if hop == "vlc" else system.plc
    vlc = None if hop == "plc" else system.vlc
    if kind == "outage":
        level = system.snr_threshold
    else:
        level = system.duplex_factor if hop == "e2e" else 1.0
    return kind, plc, vlc, level


def _batch_partials(
    keys: list[tuple], cfg: McConfig, batch_index: int, work: np.ndarray
) -> list[tuple[float, float, float, float]]:
    """(sum, sum of squares, min, max) of every reduction key over one batch.

    The batch runs in ``work``, its thread's own five rows (module
    docstring).  A row is recomputed only where the parameters behind it
    differ from the previous key's.
    """
    start = batch_index * cfg.batch_size
    count = min(cfg.batch_size, cfg.trials - start)
    normals, uniforms, plc_snr, vlc_snr, values = work[:, :count]
    # Fixed positions: the normals first and the uniforms after them.
    rng = _batch_rng(int(cfg.seed), batch_index)
    rng.standard_normal(out=normals)
    if any(vlc is not None for _, _, vlc, _ in keys):
        rng.random(out=uniforms)
    # What the PLC, VLC and values rows hold.  The samplers are looked up by
    # name on every call, so a tracer that wraps them sees each batch's
    # transforms on the thread that runs it.
    plc_row = vlc_row = path = None
    below = np.empty(count, dtype=bool)
    partials = []
    for kind, plc, vlc, level in keys:
        if plc is not None and plc != plc_row:
            sample_plc_snr(plc, normals, out=plc_snr)
            plc_row = plc
        if vlc is not None and vlc != vlc_row:
            sample_vlc_snr(vlc, uniforms, out=vlc_snr)
            vlc_row = vlc
        if plc is not None and vlc is not None:
            if path != (plc, vlc):
                np.minimum(plc_snr, vlc_snr, out=values)
                path = (plc, vlc)
            snr = values
        else:
            snr = vlc_snr if plc is None else plc_snr
        if kind == "avg_capacity":
            high = _capacities(snr, level, plc, normals, values, below)
            path = None
            total, low = float(np.sum(values)), float(values.min())
            np.multiply(values, values, out=values)
            total_sq = float(np.sum(values))
            if total_sq - total * total / count < _RESOLVED * total_sq:
                # The spread is lost in rounding (a narrow cell), maybe below
                # the pairwise sum's: sum again, exactly rounded (``_combine``).
                if snr is values:
                    np.minimum(plc_snr, vlc_snr, out=values)
                _capacities(snr, level, plc, normals, values, below)
                total = math.fsum(values.tolist())
            partials.append((total, total_sq, low, high))
        else:
            # No sampler returns NaN, so the path is below the threshold iff a
            # hop is.  Sums of 0/1 indicators are exact: a count has their bits.
            hits = int(np.count_nonzero(np.less(snr, level, out=below)))
            partials.append((float(hits), float(hits), float(hits == count), float(hits > 0)))
    return partials


def _capacities(snr, level, plc, normals, values, below) -> float:
    """level * log1p(snr) / ln 2 into ``values`` (which may be ``snr``); its maximum.

    min does not round, and log1p, the division and the product are monotone:
    these are the bits of level * min of the hop capacities."""
    np.log1p(snr, out=values)
    np.divide(values, _LN2, out=values)
    np.multiply(values, level, out=values)
    high = float(values.max())
    if high == math.inf:
        # Only the PLC sampler overflows, and a path with a VLC hop is
        # finite, so this is a PLC-only path (level 1).  Where exp(y)
        # overflowed (y > 709), log1p(exp(y)) rounds to y exactly.
        overflowed = np.isinf(values, out=below)
        _plc_log_snr(plc, normals, values, where=overflowed)
        np.divide(values, _LN2, out=values, where=overflowed)
        high = float(values.max())
    return high


def _combine(partials: list[tuple[float, float, float, float]], cfg: McConfig) -> Estimate:
    """The estimate from every batch's (sum, sum of squares, min, max).

    The standard error reported is at least ``_ROUNDING_ULPS`` ulps of the
    mean, the rounding that the estimate carries whatever its spread: each
    capacity's log1p(snr) / ln 2 is within 1.5 ulps (log1p within 1 ulp, the
    division half an ulp), every value has one sign, so their mean is too, and
    the mean itself adds half an ulp (fsum is exactly rounded, then one
    division).  Where the floor acts the batch sums are exactly rounded too:
    a batch whose own spread is lost in rounding is re-summed by math.fsum
    (``_batch_partials``), not left to NumPy's pairwise sum, which came up to
    1 ulp off on narrow cells.  A sample spanning a few ulps (a narrow cell)
    has a smaller sampling error than this bound; at any real spread the
    sampling error is far larger, and the standard error keeps its bits.
    """
    total = math.fsum(p[0] for p in partials)
    total_sq = math.fsum(p[1] for p in partials)
    low = min(p[2] for p in partials)
    high = max(p[3] for p in partials)
    trials, seed = cfg.trials, int(cfg.seed)
    if low == high:
        # Degenerate sample: the mean is the common value, with no spread.
        return Estimate(mean=low, std_error=0.0, trials=trials, seed=seed)
    squares = total_sq - total * total / trials
    if squares < _RESOLVED * total_sq:
        # The sum of squared deviations is lost in rounding (a narrow cell);
        # report Popoviciu's bound on it, n * (high - low)**2 / 4, instead.
        squares = trials * (high - low) ** 2 / 4.0
    std_error = math.sqrt(squares / (trials - 1) / trials)
    mean = total / trials
    std_error = max(std_error, _ROUNDING_ULPS * math.ulp(mean))
    return Estimate(mean=mean, std_error=std_error, trials=trials, seed=seed)


def estimate_many(
    requests: Sequence[tuple[str, RelaySystemParams]],
    cfg: McConfig,
    workers: int = 1,
) -> list[Estimate]:
    """Monte Carlo estimates of (metric, system) requests from one sampling pass.

    Each batch draws its normals and uniforms once, and each estimate
    equals the standalone ``estimate`` of its request bit for bit.  The keys
    run grouped by VLC hop, then by PLC hop, each in order of first request,
    with a path's outages before its capacities, so a batch recomputes a
    hop's SNR only where the group changes.  Batches run on up to
    ``workers`` threads, never more threads than batches.
    """
    slots = [_reduction_key(metric, system) for metric, system in requests]
    if workers < 1:
        raise ParameterError("workers must be a positive integer")
    first: dict[object, int] = {}
    for _, plc, vlc, _ in slots:
        first.setdefault(vlc, len(first))
        first.setdefault(plc, len(first))
    keys = sorted(dict.fromkeys(slots), key=lambda k: (first[k[2]], first[k[1]], k[0] != "outage"))
    n_batches = -(-cfg.trials // cfg.batch_size)
    pool_size = min(workers, n_batches)

    # One work array per thread, as wide as a batch reads: at most pool_size batches run at once.
    workspaces = [np.empty((5, min(cfg.batch_size, cfg.trials))) for _ in range(pool_size)]

    def run(batch_index: int) -> list[tuple[float, float, float, float]]:
        work = workspaces.pop()
        try:
            return _batch_partials(keys, cfg, batch_index, work)
        finally:
            workspaces.append(work)

    if pool_size == 1:
        partials = [run(b) for b in range(n_batches)]
    else:
        # Imported here: single-threaded runs do not pay for the module.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=pool_size) as pool:
            partials = list(pool.map(run, range(n_batches)))

    estimates = {
        key: _combine([batch[i] for batch in partials], cfg) for i, key in enumerate(keys)
    }
    return [estimates[key] for key in slots]


def estimate(
    metric: str,
    system: RelaySystemParams,
    cfg: McConfig,
    workers: int = 1,
) -> Estimate:
    """Monte Carlo mean and standard error of one metric: a one-request pass."""
    return estimate_many([(metric, system)], cfg, workers)[0]
