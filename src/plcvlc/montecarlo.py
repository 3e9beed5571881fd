"""Sampling oracle for every analytic link metric.

Determinism contract: every reported Estimate is a pure function of
(seed, trials, batch_size, parameters, metric), whichever other requests
share its sampling pass.  Trials are split into batches; batch b draws from
its own counter-based Philox stream keyed by (seed, b) through a NumPy
SeedSequence spawn key, so the draws for a trial depend only on the seed and
the trial's position.  Each metric reads fixed positions of that stream: PLC
and end-to-end metrics the normals drawn first, end-to-end metrics the
uniforms drawn after them, VLC-only metrics the uniforms at the start of the
stream.  One pass (``estimate_many``) therefore draws a batch once and serves
every (metric, system) request from it without changing a bit.  Batch partial
sums are combined with math.fsum, which is exactly rounded and therefore
independent of combination order - running with one worker thread or many
produces bit-identical estimates.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .plc_link import PlcLinkParams, snr_scale
from .relay import RelaySystemParams, rate_to_snr_threshold
from .vlc_link import VlcLinkParams, channel_gain

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


def sample_plc_snr(p: PlcLinkParams, u):
    """Relay SNR for a unit-normal draw u: a * 10**((mu + sigma*u)/5)."""
    return snr_scale(p) * 10.0 ** ((p.fading_mu_db + p.fading_sigma_db * u) / 5.0)


def sample_vlc_snr(p: VlcLinkParams, v):
    """Destination SNR for a uniform(0,1) draw v.

    The user radius r_k = r * sqrt(v) inverts the disc-uniform location CDF;
    the SNR is (P_r / sigma_d^2) * h(r_k)^2.
    """
    gain = channel_gain(p.cell_radius_m * np.sqrt(v), p)
    return p.tx_power_w / p.noise_variance * gain * gain


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,))
    return np.random.Generator(np.random.Philox(sequence))


def _reduction_key(metric: str, system: RelaySystemParams) -> tuple:
    """(kind, PLC transform, VLC transform, level) of one request.

    A transform is (stream, hop params); the stream names the draws it maps:
    "plc" the normals drawn first, "e2e" the uniforms drawn after them, "vlc"
    the uniforms at the start of the batch stream.  The level is the SNR
    threshold of an outage, the duplex factor of an end-to-end capacity, else
    None.  Requests with equal keys have equal estimates.
    """
    if metric not in METRICS:
        raise ParameterError(f"unknown metric {metric!r}; expected one of {METRICS}")
    threshold = rate_to_snr_threshold(system.rate_threshold_bits, system.duplex_factor)
    hop, kind = metric.split("_", 1)
    plc = ("plc", system.plc) if hop != "vlc" else None
    vlc = (hop, system.vlc) if hop != "plc" else None
    if kind == "outage":
        level = threshold
    else:
        level = system.duplex_factor if hop == "e2e" else None
    return kind, plc, vlc, level


def _batch_partials(
    keys: list[tuple], cfg: McConfig, batch_index: int
) -> list[tuple[float, float, float, float]]:
    """(sum, sum of squares, min, max) of every reduction key over one batch."""
    start = batch_index * cfg.batch_size
    count = min(cfg.batch_size, cfg.trials - start)
    rng = _batch_rng(int(cfg.seed), batch_index)

    def draw(stream: str) -> np.ndarray:
        # Fixed positions: the normals first and the e2e uniforms after them
        # (an e2e key reads its PLC hop first), the vlc-only uniforms from the
        # start of the stream, through a second generator with the same key.
        if stream == "plc":
            return rng.standard_normal(count)
        if stream == "e2e":
            return rng.random(count)
        return _batch_rng(int(cfg.seed), batch_index).random(count)

    # Keys still to reduce per transform, and transforms still to compute per
    # stream: each array is dropped as soon as nothing further reads it.
    users = Counter(t for key in keys for t in key[1:3] if t is not None)
    pending = Counter(stream for stream, _ in users)
    draws: dict[str, np.ndarray] = {}
    snr: dict[tuple, np.ndarray] = {}
    partials = []
    for kind, plc, vlc, level in keys:
        hops = [t for t in (plc, vlc) if t is not None]
        for t in hops:
            if t not in snr:
                stream, params = t
                if stream not in draws:
                    draws[stream] = draw(stream)
                sampler = sample_plc_snr if stream == "plc" else sample_vlc_snr
                snr[t] = sampler(params, draws[stream])
                pending[stream] -= 1
                if not pending[stream]:
                    del draws[stream]
        if kind == "avg_capacity":
            if level is None:
                values = np.log2(1.0 + snr[hops[0]])
            else:
                values = level * np.minimum(np.log2(1.0 + snr[plc]), np.log2(1.0 + snr[vlc]))
            partials.append((
                float(np.sum(values)),
                float(np.sum(values * values)),
                float(values.min()),
                float(values.max()),
            ))
        else:
            below = snr[hops[0]] < level
            if len(hops) == 2:
                below |= snr[vlc] < level
            # Sums of 0/1 indicators are exact, so a count has the same bits.
            hits = int(np.count_nonzero(below))
            partials.append((float(hits), float(hits), float(hits == count), float(hits > 0)))
        for t in hops:
            users[t] -= 1
            if not users[t]:
                del snr[t]
    return partials


def _combine(partials: list[tuple[float, float, float, float]], cfg: McConfig) -> Estimate:
    total = math.fsum(p[0] for p in partials)
    total_sq = math.fsum(p[1] for p in partials)
    low = min(p[2] for p in partials)
    high = max(p[3] for p in partials)
    trials = cfg.trials
    if low == high:
        # Degenerate sample: the mean is the common value, with no spread.
        return Estimate(mean=low, std_error=0.0, trials=trials, seed=int(cfg.seed))
    mean = total / trials
    variance = max(0.0, (total_sq - total * total / trials) / (trials - 1))
    return Estimate(
        mean=mean,
        std_error=math.sqrt(variance / trials),
        trials=trials,
        seed=int(cfg.seed),
    )


def estimate_many(
    requests: Sequence[tuple[str, RelaySystemParams]],
    cfg: McConfig,
    workers: int = 1,
) -> list[Estimate]:
    """Monte Carlo estimates of (metric, system) requests from one sampling pass.

    Every batch is drawn once.  Each distinct hop transform, capacity array
    and reduction in it is computed once and serves every request that needs
    it, so each estimate equals the standalone ``estimate`` of its request
    bit for bit.  Batches run on up to ``workers`` threads, never more
    threads than batches.
    """
    slots = [_reduction_key(metric, system) for metric, system in requests]
    if workers < 1:
        raise ParameterError("workers must be a positive integer")
    # Group keys by VLC, then PLC transform, so a batch holds few at a time.
    first_use: dict[object, int] = {}
    for _, plc, vlc, _ in slots:
        first_use.setdefault(vlc, len(first_use))
        first_use.setdefault(plc, len(first_use))
    keys = sorted(dict.fromkeys(slots), key=lambda k: (first_use[k[2]], first_use[k[1]]))
    n_batches = -(-cfg.trials // cfg.batch_size)
    pool_size = min(workers, n_batches)

    def run(batch_index: int) -> list[tuple[float, float, float, float]]:
        return _batch_partials(keys, cfg, batch_index)

    if pool_size == 1:
        partials = [run(b) for b in range(n_batches)]
    else:
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
    """Monte Carlo mean and standard error of one metric: a one-request pass.

    End-to-end metrics draw both hops independently in every trial and apply
    the decode-and-forward composition per draw; outage metrics are indicator
    means against the SNR threshold implied by the system's rate target.
    """
    return estimate_many([(metric, system)], cfg, workers)[0]
