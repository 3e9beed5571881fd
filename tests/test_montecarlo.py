import dataclasses
import itertools
import math
import sys
import threading
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gain_oracle import gain_sq_cdf
from plcvlc import montecarlo, plc_link, relay, sweeps, vlc_link
from plcvlc.errors import ParameterError
from plcvlc.montecarlo import (
    METRICS,
    Estimate,
    McConfig,
    estimate,
    estimate_many,
    sample_plc_snr,
    sample_vlc_snr,
)
from plcvlc.specfun import bits


# ---------------------------------------------------------------------------
# configuration invariants
# ---------------------------------------------------------------------------

def test_trials_floor_refused():
    with pytest.raises(ParameterError) as err:
        McConfig(trials=10)
    assert "1000" in str(err.value).replace(",", "")


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5])
def test_bad_seed_refused(seed):
    with pytest.raises(ParameterError):
        McConfig(trials=10_000, seed=seed)


def test_bad_batch_size_refused():
    with pytest.raises(ParameterError):
        McConfig(trials=10_000, batch_size=0)


@pytest.mark.parametrize("field", ["seed", "batch_size"])
def test_bool_seed_and_batch_size_refused(field):
    # batch_size=True ended in a TypeError from np.empty; seed=True ran as seed 1.
    with pytest.raises(ParameterError, match=f"McConfig.{field} "):
        McConfig(trials=10_000, **{field: True})


def test_fractional_trials_refused():
    with pytest.raises(ParameterError, match="McConfig.trials must be an integer"):
        McConfig(trials=1.5)


def test_workers_below_one_refused(default_system):
    with pytest.raises(ParameterError, match="workers must be a positive integer"):
        estimate_many([("e2e_outage", default_system)], McConfig(trials=10_000), workers=0)


@pytest.mark.parametrize("workers", [2.5, True, "2"])
@pytest.mark.parametrize("entry", ["estimate", "estimate_many", "run_sweep", "run_validation"])
def test_non_integer_workers_refused_before_any_draw(default_system, monkeypatch, entry, workers):
    # 2.5 ended in a TypeError from range(pool_size), and True ran as 1 worker.
    def no_draws(seed, batch_index):
        raise AssertionError("a refused pass drew a batch")

    monkeypatch.setattr(montecarlo, "_batch_rng", no_draws)
    mc = McConfig(trials=10_000)
    call = {
        "estimate": lambda: estimate("e2e_outage", default_system, mc, workers),
        "estimate_many": lambda: estimate_many([("e2e_outage", default_system)], mc, workers),
        "run_sweep": lambda: sweeps.run_sweep(
            sweeps.SweepSpec("relay_power", 0.1, 0.2, 2), default_system, mc, workers
        ),
        "run_validation": lambda: sweeps.run_validation(default_system, mc, workers),
    }[entry]
    with pytest.raises(ParameterError) as err:
        call()
    assert str(err.value) == f"workers must be a positive integer, got {workers!r}"


def test_unknown_metric_refused(default_system):
    with pytest.raises(ParameterError):
        estimate("bit_error_rate", default_system, McConfig(trials=10_000))


# ---------------------------------------------------------------------------
# per-draw samplers
# ---------------------------------------------------------------------------

def test_plc_sampler_median_draw(default_system):
    p = default_system.plc
    median = plc_link.snr_scale(p) * 10.0 ** (p.fading_mu_db / 5.0)
    assert sample_plc_snr(p, 0.0) == pytest.approx(median, rel=1e-14, abs=0.0)


def test_plc_sampler_deterministic_without_spread(default_system):
    p = dataclasses.replace(default_system.plc, fading_sigma_db=0.0)
    values = {sample_plc_snr(p, u) for u in (-3.0, 0.0, 1.7)}
    assert len(values) == 1


def test_plc_sampler_positive_vectorized(default_system):
    draws = sample_plc_snr(default_system.plc, np.linspace(-5, 5, 101))
    assert draws.shape == (101,)
    assert np.all(draws > 0)


def test_vlc_sampler_extremes(default_system):
    p = default_system.vlc
    t_min, t_max = p.law.t_min, p.law.t_max
    rho = p.tx_power_w / p.noise_variance
    assert sample_vlc_snr(p, 0.0) == pytest.approx(rho * t_max, rel=1e-12, abs=0.0)
    assert sample_vlc_snr(p, 1.0) == pytest.approx(rho * t_min, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("semi_angle_deg", [3.0, 3.58672021461792, 20.0, 60.0])
def test_vlc_sampler_reproduces_the_support_exactly(default_system, semi_angle_deg):
    p = dataclasses.replace(default_system.vlc, semi_angle_rad=math.radians(semi_angle_deg))
    t_min, t_max = p.law.t_min, p.law.t_max
    rho = p.tx_power_w / p.noise_variance
    assert sample_vlc_snr(p, np.array([0.0, 1.0])).tolist() == [rho * t_max, rho * t_min]
    assert (sample_vlc_snr(p, 0.0), sample_vlc_snr(p, 1.0)) == (rho * t_max, rho * t_min)


def test_vlc_sampler_inverts_location_law(default_system):
    # r_k = r * sqrt(v) should reproduce the squared-gain CDF.
    p = default_system.vlc
    rng = np.random.default_rng(14)
    n = 1_000_000
    gamma = sample_vlc_snr(p, rng.random(n))
    sample = np.sort(gamma * p.noise_variance / p.tx_power_w)
    cdf = gain_sq_cdf(sample, p)
    ranks = np.arange(1, n + 1)
    statistic = max(float(np.max(ranks / n - cdf)), float(np.max(cdf - (ranks - 1) / n)))
    assert statistic < 1.6276 / math.sqrt(n)


def test_hop_streams_uncorrelated(default_system):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5)))
    n = 1_000_000
    gamma_plc = sample_plc_snr(default_system.plc, rng.standard_normal(n))
    gamma_vlc = sample_vlc_snr(default_system.vlc, rng.random(n))
    corr = float(np.corrcoef(gamma_plc, gamma_vlc)[0, 1])
    assert abs(corr) < 3.0 / math.sqrt(n)


# ---------------------------------------------------------------------------
# estimates
# ---------------------------------------------------------------------------

def test_estimate_reproducible(default_system):
    cfg = McConfig(trials=50_000, seed=42, batch_size=4096)
    first = estimate("e2e_avg_capacity", default_system, cfg)
    second = estimate("e2e_avg_capacity", default_system, cfg)
    assert first == second
    assert first.trials == 50_000


def test_estimate_identical_across_worker_counts(default_system):
    cfg = McConfig(trials=200_000, seed=7, batch_size=8192)
    for metric in METRICS:
        serial = estimate(metric, default_system, cfg, workers=1)
        threaded = estimate(metric, default_system, cfg, workers=4)
        assert serial == threaded


def test_estimate_seed_changes_draws(default_system):
    a = estimate("e2e_outage", default_system, McConfig(trials=20_000, seed=1))
    b = estimate("e2e_outage", default_system, McConfig(trials=20_000, seed=2))
    assert a.mean != b.mean


def test_zero_rate_outage_estimate(default_system):
    s = dataclasses.replace(default_system, rate_threshold_bits=0.0)
    est = estimate("e2e_outage", s, McConfig(trials=10_000, seed=3))
    assert est == Estimate(mean=0.0, std_error=0.0, trials=10_000)


def test_degenerate_system_has_no_spread(default_system):
    plc = dataclasses.replace(default_system.plc, fading_sigma_db=0.0)
    vlc = dataclasses.replace(default_system.vlc, cell_radius_m=1e-9)
    s = dataclasses.replace(default_system, plc=plc, vlc=vlc)
    c_plc = math.log2(1.0 + plc_link.snr_scale(plc) * 10.0 ** (plc.fading_mu_db / 5.0))
    c_vlc = math.log2(
        1.0 + vlc.tx_power_w / vlc.noise_variance * vlc.law.t_max
    )
    expected = {
        "plc_avg_capacity": c_plc,
        "vlc_avg_capacity": c_vlc,
        "e2e_avg_capacity": s.duplex_factor * min(c_plc, c_vlc),
        "plc_outage": 0.0,
        "vlc_outage": 0.0,
        "e2e_outage": 0.0,
    }
    cfg = McConfig(trials=5_000, seed=11)
    for metric in METRICS:
        est = estimate(metric, s, cfg)
        assert est.std_error == 0.0
        assert est.mean == pytest.approx(expected[metric], rel=1e-12, abs=1e-15)


def test_std_error_scaling(default_system):
    small = estimate("e2e_avg_capacity", default_system, McConfig(trials=40_000, seed=8))
    large = estimate("e2e_avg_capacity", default_system, McConfig(trials=80_000, seed=8))
    ratio = large.std_error / small.std_error
    assert ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=0.1, abs=0.0)


def test_estimates_close_with_correlated_batches(default_system):
    # Same seed, different batch size: statistically equivalent estimates.
    a = estimate("plc_outage", default_system, McConfig(trials=100_000, seed=5, batch_size=1 << 14))
    b = estimate("plc_outage", default_system, McConfig(trials=100_000, seed=5, batch_size=1 << 12))
    assert abs(a.mean - b.mean) <= 4.0 * math.hypot(a.std_error, b.std_error)


def test_each_metric_tracks_analytic_value(default_system):
    cfg = McConfig(trials=200_000, seed=3)
    threshold = relay.rate_to_snr_threshold(
        default_system.rate_threshold_bits, default_system.duplex_factor
    )
    analytic = {
        "plc_avg_capacity": plc_link.avg_capacity(default_system.plc),
        "vlc_avg_capacity": vlc_link.avg_capacity_closed(default_system.vlc),
        "e2e_avg_capacity": relay.e2e_avg_capacity_numeric(default_system),
        "plc_outage": plc_link.outage(default_system.plc, threshold),
        "vlc_outage": vlc_link.outage(default_system.vlc, threshold),
        "e2e_outage": relay.e2e_outage_analytic(default_system),
    }
    for metric in METRICS:
        est = estimate(metric, default_system, cfg)
        assert abs(analytic[metric] - est.mean) <= 3.0 * est.std_error, metric


# ---------------------------------------------------------------------------
# shared sampling pass
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 3])
def test_shared_pass_matches_standalone_estimates(default_system, workers):
    systems = [
        default_system,
        dataclasses.replace(
            default_system, plc=dataclasses.replace(default_system.plc, distance_m=80.0)
        ),
        dataclasses.replace(
            default_system, vlc=dataclasses.replace(default_system.vlc, height_m=3.0)
        ),
        dataclasses.replace(default_system, rate_threshold_bits=1.6),
        dataclasses.replace(default_system, rate_threshold_bits=40.0),  # always in outage
        dataclasses.replace(  # no spread at all
            default_system,
            plc=dataclasses.replace(default_system.plc, fading_sigma_db=0.0),
            vlc=dataclasses.replace(default_system.vlc, cell_radius_m=1e-9),
        ),
    ]
    # 10_000 trials in batches of 4096: the last batch is partial.
    cfg = McConfig(trials=10_000, seed=13, batch_size=4096)
    requests = [(metric, system) for system in systems for metric in METRICS]
    requests += requests[:3]  # repeated requests share one reduction
    shared = estimate_many(requests, cfg, workers=workers)
    assert len(shared) == len(requests)
    for (metric, system), est in zip(requests, shared):
        assert est == estimate(metric, system, cfg), metric
        if system is systems[-1]:
            assert est.std_error == 0.0
        if system is systems[-2] and metric.endswith("outage"):
            assert (est.mean, est.std_error) == (1.0, 0.0)


@pytest.mark.parametrize("workers", [1, 2])
def test_shared_pass_over_relay_power_and_height_matches_standalone(default_system, workers):
    # Points that share a PLC hop or an LED height share draws and rows in one
    # pass; each estimate must still equal its standalone pass.  Three duplex
    # factors share one end-to-end capacity reduction, each scaled to bits on
    # its own, on wide cells and on narrow ones whose spread is unresolved.
    requests = []
    for distance in (40.0, 120.0):
        plc = dataclasses.replace(default_system.plc, distance_m=distance)
        for height, power, radius in itertools.product(
            (2.15, 3.0), (0.02, 0.26, 0.5), (2.5, 1e-4, 3e-8)
        ):
            vlc = dataclasses.replace(
                default_system.vlc, height_m=height, tx_power_w=power, cell_radius_m=radius
            )
            for duplex in (0.5, 0.7, 1.0):
                system = dataclasses.replace(default_system, plc=plc, vlc=vlc, duplex_factor=duplex)
                requests += [(metric, system) for metric in METRICS]
    cfg = McConfig(trials=10_000, seed=17, batch_size=4096)
    shared = estimate_many(requests, cfg, workers=workers)
    for (metric, system), est in zip(requests, shared):
        assert est == estimate(metric, system, cfg), metric


def test_shared_pass_memory_does_not_grow_with_the_hops(default_system):
    # 6 PLC distances x 3 LED heights: each thread works in one five-row
    # array, however many distinct hops the pass holds.
    systems = [
        dataclasses.replace(
            default_system,
            plc=dataclasses.replace(default_system.plc, distance_m=distance),
            vlc=dataclasses.replace(default_system.vlc, height_m=height),
        )
        for height in (2.15, 2.5, 3.0)
        for distance in (10.0, 40.0, 70.0, 100.0, 130.0, 160.0)
    ]
    requests = [(metric, s) for s in systems for metric in ("e2e_avg_capacity", "e2e_outage")]
    cfg = McConfig(trials=8192, seed=3, batch_size=4096)
    estimate_many(requests[:2], cfg)  # loads numpy.random, which is not the pass's memory
    tracemalloc.start()
    try:
        estimate_many(requests, cfg, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7 * cfg.batch_size * 8


def test_shared_pass_of_nothing_is_empty(monkeypatch):
    # It used to draw every batch's normals first.
    def no_draws(seed, batch_index):
        raise AssertionError("an empty pass drew a batch")

    monkeypatch.setattr(montecarlo, "_batch_rng", no_draws)
    assert estimate_many([], McConfig(trials=10 ** 7)) == []


@settings(max_examples=2000, deadline=None)
@given(st.floats(min_value=2.0 ** -54, max_value=1.0))
def test_square_root_returns_a_scaled_value_from_its_square(x):
    # A batch whose spread is lost in rounding sums its scaled values again,
    # read back from their squares: each exceeds half the batch mean, at
    # least 2**-54, so the square is normal and sqrt(x*x) is x exactly.
    square = np.multiply(np.float64(x), np.float64(x))
    assert np.sqrt(square) == x


def test_worker_pool_capped_at_batch_count(default_system, monkeypatch):
    started = []

    class Recorder(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(montecarlo.threading, "Thread", Recorder)
    cfg = McConfig(trials=10_000, seed=2, batch_size=4096)
    threaded = estimate("e2e_outage", default_system, cfg, workers=10 ** 6)
    assert len(started) == 3
    assert threaded == estimate("e2e_outage", default_system, cfg)


def _record_batches(monkeypatch, fail_on=None):
    """Patch ``_batch_partials`` to record (batch index, thread id), raising on ``fail_on``."""
    calls = []
    original = montecarlo._batch_partials

    def record(keys, cfg, batch_index, work):
        calls.append((batch_index, threading.get_ident()))
        if batch_index == fail_on:
            raise _BatchFailure(batch_index)
        return original(keys, cfg, batch_index, work)

    monkeypatch.setattr(montecarlo, "_batch_partials", record)
    return calls


class _BatchFailure(Exception):
    pass


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_pool_runs_each_batch_once_off_the_calling_thread(default_system, monkeypatch, workers):
    # 79 batches on up to 8 threads that switch every microsecond: a batch
    # claimed twice or never shows in the record or in the estimates.
    requests = [(metric, default_system) for metric in METRICS]
    cfg = McConfig(trials=10_000, seed=2, batch_size=128)
    serial = estimate_many(requests, cfg)
    calls = _record_batches(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = estimate_many(requests, cfg, workers)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert sorted(b for b, _ in calls) == list(range(79))
    assert threading.get_ident() not in {thread for _, thread in calls}


def test_failing_batch_raises_in_the_caller_once_every_thread_ends(default_system, monkeypatch):
    _record_batches(monkeypatch, fail_on=1)
    before = threading.active_count()
    with pytest.raises(_BatchFailure) as raised:
        estimate_many([("e2e_outage", default_system)],
                      McConfig(trials=10_000, seed=2, batch_size=1024), workers=2)
    assert raised.value.args == (1,)
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# the decode-and-forward path SNR
# ---------------------------------------------------------------------------

def _snr_pairs():
    """Wide log-normal SNR pairs, and runs of adjacent floats from 0 to 1e308 and inf."""
    rng = np.random.default_rng(29)
    a = np.exp(rng.normal(0.0, 30.0, 1 << 20))
    b = np.exp(rng.normal(0.0, 30.0, 1 << 20))
    starts = [0.0, 1e-320, 1e-300, *np.logspace(-200, 308, 60)]
    runs = np.concatenate([s + np.arange(64) * np.spacing(s) for s in starts] + [[np.inf]])
    edges = np.concatenate([runs, runs[::-1], np.full(runs.size, 1.0)])
    return np.concatenate([a, edges]), np.concatenate([b, edges[::-1]])


def test_path_snr_has_the_bits_of_the_hop_by_hop_reductions():
    a, b = _snr_pairs()
    assert not np.any(np.isnan(a) | np.isnan(b))
    path = np.minimum(a, b)
    for level in (0.5, 1.0, 0.25):
        hop_by_hop = level * np.minimum(np.log1p(a) / math.log(2.0), np.log1p(b) / math.log(2.0))
        assert np.array_equal(level * (np.log1p(path) / math.log(2.0)), hop_by_hop)
    for threshold in (0.0, 1.0, 3.0, 1e-310, 1e300, np.inf):
        assert np.array_equal(path < threshold, (a < threshold) | (b < threshold))


def test_e2e_estimate_reduces_the_smaller_hop_capacity(default_system):
    # One batch, reduced hop by hop from the documented stream positions:
    # the normals first, the uniforms after them, which a VLC-only metric
    # reads too.  At a vanishing relay power log2(1 + snr) would round every
    # capacity to 0; log1p does not.
    cfg = McConfig(trials=8192, seed=21, batch_size=8192)
    dim = dataclasses.replace(
        default_system, vlc=dataclasses.replace(default_system.vlc, tx_power_w=1e-20)
    )
    for system in (default_system, dim):
        rng = montecarlo._batch_rng(cfg.seed, 0)
        plc = sample_plc_snr(system.plc, rng.standard_normal(cfg.trials))
        vlc = sample_vlc_snr(system.vlc, rng.random(cfg.trials))
        capacity = np.minimum(np.log1p(plc), np.log1p(vlc))  # in nepers
        threshold = relay.rate_to_snr_threshold(system.rate_threshold_bits, system.duplex_factor)
        hits = np.count_nonzero((plc < threshold) | (vlc < threshold))
        # In plain units (K = 0): the engine's own unit scales back to these bits,
        # and the mean and standard error are then converted to bits once.
        partial = (float(np.sum(capacity)), float(np.sum(capacity * capacity)),
                   float(capacity.min()), float(capacity.max()), 0)
        sums = montecarlo._combine([partial], cfg)
        level = system.duplex_factor
        assert estimate("e2e_avg_capacity", system, cfg) == Estimate(
            bits(sums.mean, level), bits(sums.std_error, level), cfg.trials
        )
        assert estimate("e2e_outage", system, cfg).mean == hits / cfg.trials
        vlc_hits = np.count_nonzero(vlc < threshold)
        assert estimate("vlc_outage", system, cfg).mean == vlc_hits / cfg.trials
    assert partial[0] > 0.0


@pytest.mark.parametrize("radius", [1e-3, 1e-4, 1e-6])
def test_unresolved_spread_reports_its_bound(default_system, radius):
    # The capacity varies across a narrow cell by far less than the rounding
    # of the one-pass variance, which used to come out as 0 or as noise.
    s = dataclasses.replace(
        default_system, vlc=dataclasses.replace(default_system.vlc, cell_radius_m=radius)
    )
    cfg = McConfig(trials=100_000, seed=1)
    est = estimate("vlc_avg_capacity", s, cfg)
    t_min, t_max = s.vlc.law.t_min, s.vlc.law.t_max
    rho = s.vlc.tx_power_w / s.vlc.noise_variance
    spread = math.log2(1.0 + rho * t_max) - math.log2(1.0 + rho * t_min)
    assert 0.0 < est.std_error <= spread / (2.0 * math.sqrt(cfg.trials - 1)) * 1.0001
    assert abs(vlc_link.avg_capacity_closed(s.vlc) - est.mean) <= 3.0 * est.std_error


@pytest.mark.parametrize("duplex", [0.123, 0.3, 0.5, 0.7, 1.0])
@pytest.mark.parametrize("radius,power", [(1e-6, 0.26), (1e-7, 0.26), (3e-8, 0.26), (3e-8, 0.5)])
def test_rounding_floor_bounds_the_error_of_a_narrow_cell_mean(
    default_system, radius, power, duplex
):
    # The spread of these cells is lost in rounding, so the standard error is
    # the rounding floor, and the reported mean must lie within it of the mean
    # of level * log1p(snr) / ln 2 over the very SNRs the pass drew, to 40
    # digits: log1p expanded about the first SNR, the differences exact
    # (Sterbenz).  The PLC hop is a point mass far above the cell.  At 0.5 W
    # and duplex 0.3 or 0.7 the level used to multiply each value, which
    # rounded the distinct capacities of this cell to one: a standard error of 0.
    plc = dataclasses.replace(default_system.plc, fading_sigma_db=0.0, tx_power_w=1e6)
    vlc = dataclasses.replace(default_system.vlc, cell_radius_m=radius, tx_power_w=power)
    system = dataclasses.replace(default_system, plc=plc, vlc=vlc, duplex_factor=duplex)
    cfg = McConfig(trials=4 * 4096, seed=1, batch_size=4096)
    snr = []
    for b in range(4):
        rng = montecarlo._batch_rng(cfg.seed, b)
        rng.standard_normal(4096)  # each batch's uniforms follow its normals
        snr.append(sample_vlc_snr(vlc, rng.random(4096)))
    snr = np.concatenate(snr)
    assert sample_plc_snr(plc, 0.0) > snr.max() > snr.min()
    est = estimate("e2e_avg_capacity", system, cfg)
    assert est.std_error > 0.0
    d = snr - snr[0]
    with mp.workdps(40):
        one = mp.mpf(float(snr[0])) + 1
        nepers = cfg.trials * mp.log(one) + sum(
            (-1) ** (k + 1) * mp.mpf(math.fsum((d ** k).tolist())) / (k * one ** k)
            for k in (1, 2, 3)
        )
        error = abs(mp.mpf(est.mean) - duplex * nepers / cfg.trials / mp.log(2))
        assert error <= est.std_error


def test_point_mass_cell_capacity_is_the_sampled_bits(default_system):
    # On a one-point support (t_min == t_max) both analytic routes are NumPy's
    # log1p of the one SNR over ln 2, as every trial is; math.log1p differed
    # from it in the last bit at 13 of these 400 relay powers.
    cfg = McConfig(trials=1_000, seed=1)
    for power in np.geomspace(1e-6, 10.0, 400).tolist():
        vlc = dataclasses.replace(default_system.vlc, cell_radius_m=1e-9, tx_power_w=power)
        assert vlc.law.t_min == vlc.law.t_max
        s = dataclasses.replace(default_system, vlc=vlc)
        sampled = estimate("vlc_avg_capacity", s, cfg).mean
        assert vlc_link.avg_capacity_quad(vlc) == vlc_link.avg_capacity_closed(vlc) == sampled


def test_plc_capacity_past_exp_overflow(default_system):
    # At a 1e4 dB spread exp(y) overflows on about half the trials, and the
    # sampled capacity used to be inf with a nan standard error.  Reference:
    # softplus(y) / ln 2 in the log domain over the same normals.
    plc = dataclasses.replace(default_system.plc, fading_sigma_db=1e4)
    system = dataclasses.replace(default_system, plc=plc)
    cfg = McConfig(trials=10_000, seed=5, batch_size=4096)
    u = np.concatenate([
        montecarlo._batch_rng(cfg.seed, b).standard_normal(min(4096, cfg.trials - 4096 * b))
        for b in range(3)
    ])
    y = math.log(plc_link.snr_scale(plc)) + (plc.fading_mu_db + plc.fading_sigma_db * u) * (
        math.log(10.0) / 5.0
    )
    assert np.count_nonzero(y > 710.0) > 1000
    capacity = np.logaddexp(0.0, y) / math.log(2.0)
    est = estimate("plc_avg_capacity", system, cfg)
    assert est.mean == pytest.approx(float(capacity.mean()), rel=1e-13, abs=0.0)
    assert est.std_error == pytest.approx(float(capacity.std(ddof=1)) / math.sqrt(cfg.trials),
                                          rel=1e-9, abs=0.0)
    # The end-to-end path and the outages read the overflowed SNRs as they are.
    for metric in ("e2e_avg_capacity", "plc_outage", "e2e_outage"):
        assert math.isfinite(estimate(metric, system, cfg).std_error)


@pytest.mark.parametrize("spread", [False, True])
def test_std_error_is_at_least_the_rounding_of_the_mean(spread):
    # Values one ulp apart have a sampling error (Popoviciu's bound) far below
    # the rounding of their mean, two ulps of it, which is reported instead.
    # A real spread keeps the textbook standard error, bit for bit.
    cfg = McConfig(trials=4096, batch_size=4096)
    if spread:
        values = np.linspace(1.0, 3.0, cfg.trials)
    else:
        values = np.full(cfg.trials, 5.61)
        values[:96] = math.nextafter(5.61, 6.0)
    total, total_sq = float(np.sum(values)), float(np.sum(values * values))
    est = montecarlo._combine([(total, total_sq, values.min(), values.max(), 0)], cfg)
    if spread:
        squares = total_sq - total * total / cfg.trials
        assert est.std_error == math.sqrt(squares / (cfg.trials - 1) / cfg.trials)
    else:
        popoviciu = (values.max() - values.min()) / (2.0 * math.sqrt(cfg.trials - 1))
        assert popoviciu < est.std_error == 2.0 * math.ulp(est.mean)


@pytest.mark.parametrize("shift", [-1000, 900])
def test_std_error_survives_tiny_and_huge_values(shift):
    # The squares of values below about 1e-154 underflowed, and the sums of
    # values near 1e308 overflowed.  Each batch now carries its sums in units
    # of 2**K, K from its largest value: a sample scaled by 2**shift has the
    # statistics of the unscaled one, scaled, bit for bit.
    cfg = McConfig(trials=4096, batch_size=2048)
    values = np.linspace(1.0, 3.0, cfg.trials)
    plain, scaled = [], []
    for half in (values[:2048], values[2048:]):
        exponent = math.frexp(half.max())[1]
        unit = np.ldexp(half, -exponent)
        plain.append((float(np.sum(half)), float(np.sum(half * half)), half.min(), half.max(), 0))
        scaled.append((float(np.sum(unit)), float(np.sum(unit * unit)),
                       math.ldexp(half.min(), shift), math.ldexp(half.max(), shift),
                       exponent + shift))
    reference = montecarlo._combine(plain, cfg)
    est = montecarlo._combine(scaled, cfg)
    assert est.mean == math.ldexp(reference.mean, shift)
    assert est.std_error == math.ldexp(reference.std_error, shift)


@pytest.mark.parametrize(
    "hop,field,value",
    [("vlc", "tx_power_w", 1e-300), ("plc", "fading_sigma_db", 1e152),
     ("plc", "fading_sigma_db", 1e300)],
)
def test_capacity_estimate_at_extreme_magnitudes(default_system, hop, field, value):
    # At a 1e-300 W relay power the standard error came out as the 2-ulp floor
    # (1e-314), and at 1e152 dB the sums overflowed (an fsum OverflowError,
    # then nan).  Reference: the same capacities, their standard error taken
    # by NumPy in units of their largest.
    params = dataclasses.replace(getattr(default_system, hop), **{field: value})
    system = dataclasses.replace(default_system, **{hop: params})
    cfg = McConfig(trials=8192, seed=3, batch_size=8192)
    rng = montecarlo._batch_rng(cfg.seed, 0)
    normals = rng.standard_normal(cfg.trials)
    if hop == "vlc":
        capacity = np.log1p(sample_vlc_snr(system.vlc, rng.random(cfg.trials))) / math.log(2.0)
    else:
        centre, spread = system.plc.law
        capacity = np.logaddexp(0.0, centre + spread * normals) / math.log(2.0)
    exponent = math.frexp(capacity.max())[1]
    unit = np.ldexp(capacity, -exponent)
    est = estimate(f"{hop}_avg_capacity", system, cfg)
    assert est.mean == pytest.approx(math.ldexp(unit.mean(), exponent), rel=1e-13, abs=0.0)
    std_error = math.ldexp(unit.std(ddof=1) / math.sqrt(cfg.trials), exponent)
    assert est.std_error == pytest.approx(std_error, rel=1e-9, abs=0.0)
