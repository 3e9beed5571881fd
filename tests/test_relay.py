import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcvlc import montecarlo, plc_link, specfun, vlc_link
from plcvlc.config import load_config
from plcvlc.sweeps import evaluate_point, with_variable
from plcvlc.errors import ParameterError
from plcvlc.relay import (
    RelaySystemParams,
    e2e_avg_capacity_numeric,
    e2e_outage,
    e2e_outage_analytic,
    rate_to_snr_threshold,
)


def test_system_params_validation(default_system):
    with pytest.raises(ParameterError):
        dataclasses.replace(default_system, duplex_factor=0.0)
    with pytest.raises(ParameterError):
        dataclasses.replace(default_system, duplex_factor=1.5)
    with pytest.raises(ParameterError):
        dataclasses.replace(default_system, rate_threshold_bits=-0.1)
    with pytest.raises(ParameterError):
        dataclasses.replace(default_system, rate_threshold_bits=math.nan)
    # 2**(rate / duplex) - 1 must stay a float; the message names both fields.
    for rate, duplex in ((2000.0, 0.5), (1.0, 1e-300), (1.0, 1e-310)):
        with pytest.raises(ParameterError, match="rate_threshold_bits.*duplex_factor"):
            dataclasses.replace(default_system, rate_threshold_bits=rate, duplex_factor=duplex)
    dataclasses.replace(default_system, rate_threshold_bits=1023.0, duplex_factor=1.0)


# ---------------------------------------------------------------------------
# the end-to-end capacity bound
# ---------------------------------------------------------------------------

def test_capacity_min_composition(default_system):
    # The bound is duplex_factor * min of the hop capacities, bit for bit,
    # whichever hop is the smaller.
    smaller = set()
    for power in (0.1, 100.0):
        for duplex in (0.5, 0.3, 1.0):
            s = dataclasses.replace(with_variable(default_system, "relay_power", power),
                                    duplex_factor=duplex)
            point = evaluate_point(s)
            plc, vlc = point["plc_capacity"], point["vlc_capacity"]
            assert point["e2e_capacity_bound"] == s.duplex_factor * min(plc, vlc)
            smaller.add("plc" if plc < vlc else "vlc")
    assert smaller == {"plc", "vlc"}


# ---------------------------------------------------------------------------
# rate_to_snr_threshold
# ---------------------------------------------------------------------------

def test_threshold_reference_points():
    assert rate_to_snr_threshold(0.0, 0.7) == 0.0
    assert rate_to_snr_threshold(1.0, 1.0) == 1.0
    assert rate_to_snr_threshold(1.0, 0.5) == 3.0


def test_threshold_strictly_increasing():
    rates = np.linspace(0.0, 10.0, 50)
    values = [rate_to_snr_threshold(r, 0.5) for r in rates]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_threshold_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        rate_to_snr_threshold(-1.0, 0.5)
    with pytest.raises(ParameterError):
        rate_to_snr_threshold(1.0, 1.2)


@pytest.mark.parametrize("rate, duplex", [
    (0.0, 0.5), (0.0, 1.0), (1.0, 0.5), (1.3, 0.7), (2.2, 0.5), (10.0, 0.1),
    # the largest ratios rate / duplex whose threshold does not overflow
    (math.nextafter(1024.0, 0.0), 1.0), (math.nextafter(512.0, 0.0), 0.5),
])
def test_system_snr_threshold_is_the_rate_threshold_bit_for_bit(default_system, rate, duplex):
    system = dataclasses.replace(default_system, rate_threshold_bits=rate, duplex_factor=duplex)
    assert system.snr_threshold.hex() == rate_to_snr_threshold(rate, duplex).hex()
    assert with_variable(system, "rate_threshold", rate).snr_threshold == system.snr_threshold


def test_system_snr_threshold_is_not_a_parameter(default_system):
    from plcvlc.config import echo_lines, effective_items, load_config

    _, mc = load_config(None)
    assert "snr_threshold" not in [f.name for f in dataclasses.fields(RelaySystemParams)]
    assert not [key for key, _ in effective_items(default_system, mc) if "snr_threshold" in key]
    assert not [line for line in echo_lines(default_system, mc) if "snr_threshold" in line]


# ---------------------------------------------------------------------------
# e2e_outage
# ---------------------------------------------------------------------------

def test_outage_composition_points():
    assert e2e_outage(0.0, 0.3) == 0.3
    assert e2e_outage(1.0, 0.123) == 1.0
    assert e2e_outage(0.1, 0.2) == pytest.approx(0.28, abs=1e-15)


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_outage_complement_identity(p1, p2):
    assert e2e_outage(p1, p2) == pytest.approx(1.0 - (1.0 - p1) * (1.0 - p2), abs=1e-15)


def test_outage_symmetric_and_monotone():
    rng = np.random.default_rng(6)
    for _ in range(300):
        p1, p2 = rng.uniform(0.0, 1.0, 2)
        assert e2e_outage(p1, p2) == pytest.approx(e2e_outage(p2, p1), abs=1e-15)
        bumped = min(1.0, p1 + 0.05)
        assert e2e_outage(bumped, p2) >= e2e_outage(p1, p2)


def test_outage_rejects_bad_probability():
    with pytest.raises(ParameterError):
        e2e_outage(-0.1, 0.5)
    with pytest.raises(ParameterError):
        e2e_outage(0.5, 1.2)


# ---------------------------------------------------------------------------
# analytic end-to-end outage and capacity
# ---------------------------------------------------------------------------

def test_analytic_outage_zero_rate(default_system):
    s = dataclasses.replace(default_system, rate_threshold_bits=0.0)
    assert e2e_outage_analytic(s) == 0.0


def test_analytic_outage_saturates(default_system):
    s = dataclasses.replace(default_system, rate_threshold_bits=60.0)
    assert abs(e2e_outage_analytic(s) - 1.0) <= 1e-12


def test_analytic_outage_monotone_in_rate(default_system):
    rates = np.linspace(0.1, 4.0, 40)
    values = [
        e2e_outage_analytic(dataclasses.replace(default_system, rate_threshold_bits=r))
        for r in rates
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_analytic_outage_trends_in_geometry_and_power(default_system):
    heights = [2.15, 2.5, 3.0]
    by_height = [
        e2e_outage_analytic(
            dataclasses.replace(
                default_system,
                vlc=dataclasses.replace(default_system.vlc, height_m=h),
                rate_threshold_bits=1.5,
            )
        )
        for h in heights
    ]
    assert all(b > a for a, b in zip(by_height, by_height[1:]))

    powers = [0.05, 0.1, 0.2]
    by_power = [
        e2e_outage_analytic(
            dataclasses.replace(
                default_system,
                vlc=dataclasses.replace(default_system.vlc, tx_power_w=w),
            )
        )
        for w in powers
    ]
    assert all(b < a for a, b in zip(by_power, by_power[1:]))


def test_analytic_outage_matches_sampling(default_system):
    cfg = montecarlo.McConfig(trials=1_000_000, seed=201)
    est = montecarlo.estimate("e2e_outage", default_system, cfg)
    assert abs(e2e_outage_analytic(default_system) - est.mean) <= 3.0 * est.std_error


def test_numeric_mean_capacity_degenerate_system(default_system):
    plc = dataclasses.replace(default_system.plc, fading_sigma_db=0.0)
    vlc = dataclasses.replace(default_system.vlc, cell_radius_m=1e-9)
    s = dataclasses.replace(default_system, plc=plc, vlc=vlc)
    from plcvlc.plc_link import snr_scale

    c_plc = math.log2(1.0 + snr_scale(plc) * 10.0 ** (plc.fading_mu_db / 5.0))
    c_vlc = math.log2(1.0 + vlc.tx_power_w / vlc.noise_variance * vlc.law.t_max)
    expected = s.duplex_factor * min(c_plc, c_vlc)
    assert e2e_avg_capacity_numeric(s) == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_numeric_mean_capacity_at_subnormal_spread_is_the_step(default_system):
    # (centre - y) / spread used to overflow here, with a RuntimeWarning.
    def with_spread(sigma_db):
        plc = dataclasses.replace(default_system.plc, fading_sigma_db=sigma_db)
        return dataclasses.replace(default_system, plc=plc)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        subnormal = e2e_avg_capacity_numeric(with_spread(1e-320))
    assert subnormal == e2e_avg_capacity_numeric(with_spread(0.0))


@pytest.mark.parametrize("sigma_db,radius_m", [(1e300, 1e-6), (1.6911236143524112e307, 1e-3)])
def test_numeric_mean_capacity_at_a_huge_spread(sigma_db, radius_m):
    # 0.5 * spread / (u_high - u_low) overflowed before it met the tiny sum:
    # nan at the first system, inf at the second.  At these spreads the PLC
    # survival is 1/2 across the whole cell.
    s, _ = load_config(None, {"fading_sigma_db": sigma_db, "cell_radius_m": radius_m})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = e2e_avg_capacity_numeric(s)
    assert math.isfinite(value)
    assert value == pytest.approx(
        s.duplex_factor * 0.5 * vlc_link.avg_capacity_quad(s.vlc), rel=1e-13, abs=0.0
    )


def test_numeric_mean_capacity_error_estimate(default_system, rule_sizes, monkeypatch):
    # The error estimate of the end-to-end and the VLC means is the distance
    # to the rule with twice the nodes, at the default point and at points
    # that take the tail cuts.
    systems = [default_system, *(_system(default_system, *case)
                                 for case in (_WIDE_SPREAD, _DIM_NARROW_CELL))]

    def means():
        return [f(s) for s in systems
                for f in (e2e_avg_capacity_numeric, lambda s: vlc_link.avg_capacity_quad(s.vlc))]

    values = means()
    monkeypatch.setattr(specfun, "PANEL_ORDER", 2 * specfun.PANEL_ORDER)
    finer = means()
    half = len(rule_sizes) // 2
    assert len(rule_sizes) == 2 * len(values)
    assert rule_sizes[half:] == [2 * size for size in rule_sizes[:half]]
    for value, fine in zip(values, finer):
        assert 0.0 <= abs(fine - value) <= 1e-12 * value
    # At zero spread the PLC survival is a step at its point mass: the VLC
    # capacity clipped there meets the reference.
    s = dataclasses.replace(
        default_system, plc=dataclasses.replace(default_system.plc, fading_sigma_db=0.0)
    )
    assert e2e_avg_capacity_numeric(s) == pytest.approx(
        _zero_spread_reference(s), rel=1e-13, abs=0.0
    )


def test_evaluator_outage_equals_analytic_outage(default_system):
    for rate in (0.0, 0.4, 1.0, 2.2, 60.0):
        s = dataclasses.replace(default_system, rate_threshold_bits=rate)
        assert evaluate_point(s)["e2e_outage"] == e2e_outage_analytic(s)


def test_numeric_mean_capacity_below_bound(default_system):
    numeric = e2e_avg_capacity_numeric(default_system)
    bound = evaluate_point(default_system)["e2e_capacity_bound"]
    assert 0.0 < numeric <= bound + 1e-12


def test_numeric_mean_capacity_matches_sampling(default_system):
    cfg = montecarlo.McConfig(trials=1_000_000, seed=202)
    est = montecarlo.estimate("e2e_avg_capacity", default_system, cfg)
    assert abs(e2e_avg_capacity_numeric(default_system) - est.mean) <= 3.0 * est.std_error


def _system(default_system, height, radius, power, distance, semi_angle_deg, sigma_db):
    s = default_system
    for name, value in (("led_height", height), ("cell_radius", radius),
                        ("relay_power", power), ("plc_distance", distance)):
        s = with_variable(s, name, value)
    return dataclasses.replace(
        s,
        plc=dataclasses.replace(s.plc, fading_sigma_db=sigma_db),
        vlc=dataclasses.replace(s.vlc, semi_angle_rad=math.radians(semi_angle_deg)),
    )


def _physical_model(s):
    """At the working precision: the PLC SNR scale a and fading mu, sigma (dB),
    the Lambertian order m, the gain amplitude Q*(m+1)*L**(m+1), L, r and rho."""
    plc, vlc = s.plc, s.vlc
    alpha = mp.mpf(plc.atten_a0) + mp.mpf(plc.atten_a1) * mp.mpf(plc.frequency_hz) ** plc.atten_k
    a = mp.mpf(plc.tx_power_w) * mp.exp(-2 * alpha * plc.distance_m) / plc.noise_variance
    m = -1 / mp.log(mp.cos(mp.mpf(vlc.semi_angle_rad)), 2)
    q = (mp.mpf(vlc.detector_area) * vlc.filter_gain * vlc.concentrator_gain
         * vlc.responsivity / (2 * mp.pi))
    height, radius = mp.mpf(vlc.height_m), mp.mpf(vlc.cell_radius_m)
    return (a, mp.mpf(plc.fading_mu_db), mp.mpf(plc.fading_sigma_db), m,
            q * (m + 1) * height ** (m + 1), height, radius,
            mp.mpf(vlc.tx_power_w) / vlc.noise_variance)


def _zero_spread_reference(s):
    """40-digit mpmath duplex * E[min(C_plc, C_vlc)] at zero fading spread.

    The PLC SNR is a * 10**(mu/5); the user's v = (r_k/r)**2 is uniform, and
    the VLC capacity falls in v, below the PLC's from v_star on.
    """
    with mp.workdps(40):
        a, mu, _, m, amplitude, height, radius, rho = _physical_model(s)
        snr_plc = a * 10 ** (mu / 5)

        def c_vlc(v):
            return mp.log(1 + rho * amplitude ** 2 * (radius ** 2 * v + height ** 2) ** -(m + 3), 2)

        v_star = ((rho * amplitude ** 2 / snr_plc) ** (1 / (m + 3)) - height ** 2) / radius ** 2
        v_star = min(max(v_star, 0), 1)
        mean = v_star * mp.log(1 + snr_plc, 2) + mp.quad(c_vlc, [v_star, 1])
        return float(s.duplex_factor * mean)


def _survival_product_reference(s, dps=30):
    """mpmath quadrature of P(C_plc > t) * P(C_vlc > t), split at the VLC support.

    Built from the physical model (Gaussian-dB PLC fading, a uniformly placed
    user under a Lambertian LED), not from the program's outage functions.
    Needs a nonzero fading spread.
    """
    with mp.workdps(dps):
        a, mu, sigma, m, amplitude, height, radius, rho = _physical_model(s)

        def survival_product(t):
            # expm1 keeps the SNR nonzero at tanh-sinh nodes next to t = 0.
            snr = mp.expm1(t * mp.log(2))
            keep_plc = 1 - mp.ncdf((5 * mp.log10(snr / a) - mu) / sigma)
            r_sq = (amplitude / mp.sqrt(snr / rho)) ** (2 / (m + 3)) - height * height
            return keep_plc * min(max(r_sq / radius ** 2, 0), 1)

        edge = mp.log(1 + rho * amplitude ** 2 * (radius ** 2 + height ** 2) ** (-(m + 3)), 2)
        top = mp.log(1 + rho * amplitude ** 2 * height ** (-2 * (m + 3)), 2)
        return float(s.duplex_factor * mp.quad(survival_product, [0, edge, top]))


# (semi-angle in degrees, cell radius, LED height, relay power) of the 18
# points of the lattice 15-20 degrees x {2.5, 3.6, 4.5} m x {2.15, 2.5, 3.0} m
# x {0.02, 0.1, 0.5} W, at the default PLC distance and fading, on which an
# adaptive quad stopped on roundoff in its extrapolation table.
_ADAPTIVE_QUAD_FAILURES = [
    (15, 3.6, 2.5, 0.02), (15, 3.6, 2.5, 0.1), (16, 3.6, 2.15, 0.1),
    (16, 3.6, 2.15, 0.5), (16, 3.6, 2.5, 0.02), (16, 4.5, 3.0, 0.02),
    (16, 4.5, 3.0, 0.1), (17, 3.6, 2.15, 0.1), (17, 4.5, 2.5, 0.1),
    (17, 4.5, 3.0, 0.02), (18, 4.5, 2.15, 0.5), (18, 4.5, 2.5, 0.02),
    (18, 4.5, 2.5, 0.1), (19, 4.5, 2.15, 0.1), (19, 4.5, 2.15, 0.5),
    (19, 4.5, 2.5, 0.02), (20, 4.5, 2.15, 0.02), (20, 4.5, 2.15, 0.1),
]


# (height, radius, power, distance, semi-angle in degrees, sigma in dB) of a
# 3.5-degree beam, where a rule in u without cuts in the boundary layer at
# the nadir was 6.2e-7 off.
_NARROW_BEAM = (2.691936017601873, 6.201900143580717, 1.2764113075449068,
                5.533551669281857, 3.493502303788138, 1.2768473040731503)
# A 98.9 dB spread: the mean of min(C_plc, C_vlc), about 3e-7 bits, lies below
# y = -32 in log-SNR, where expit(y) falls like e^y.  The former rule in the
# PLC's z spanned that tail, about 9s = 410 nepers, with one segment of two
# panels and was 1.1e-11 off.
_WIDE_SPREAD = (2.34, 6.36, 1.1e-8, 30.0, 43.0, 98.9)
# A 6.49-degree cell whose SNR stays below e^-4 (2.2e-2 at the nadir): the
# mean lies in [-32, -4], which takes the tail cuts (tests/test_vlc_link.py).
_DIM_NARROW_CELL = (2.63, 4.79, 3.46e-8, 30.0, 6.49, 3.0)


@pytest.mark.parametrize(
    "height,radius,power,distance,semi_angle_deg,sigma_db",
    [
        # quad used to stop on roundoff in its extrapolation table here
        (2.616, 4.402, 0.166, 128.0, 22.16, 3.86),
        # and used to return a value 1.4e-7 off, above its own epsrel
        (2.8168135527311846, 4.349333184129176, 0.4415603400051664,
         46.836303644571146, 45.45592058378384, 5.769755010842858),
        *[(height, radius, power, 30.0, angle, 3.0)
          for angle, radius, height, power in _ADAPTIVE_QUAD_FAILURES],
        _NARROW_BEAM,
    ],
)
def test_numeric_mean_capacity_matches_split_reference(
    default_system, height, radius, power, distance, semi_angle_deg, sigma_db
):
    s = _system(default_system, height, radius, power, distance, semi_angle_deg, sigma_db)
    assert e2e_avg_capacity_numeric(s) == pytest.approx(
        _survival_product_reference(s), rel=1e-9, abs=0.0
    )


@pytest.mark.parametrize(
    "case",
    [
        _NARROW_BEAM,
        # zero spread, with the PLC point mass inside a 30 m cell's VLC support
        (2.5, 30.0, 0.1, 30.0, 60.0, 0.0),
        _WIDE_SPREAD,
    ],
)
def test_numeric_mean_capacity_to_13_digits(default_system, case):
    s = _system(default_system, *case)
    if s.plc.fading_sigma_db == 0.0:
        reference = _zero_spread_reference(s)
    else:
        reference = _survival_product_reference(s, dps=50)
    assert e2e_avg_capacity_numeric(s) == pytest.approx(reference, rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "sigma_db,mu_db,plc_mean",
    [
        # Cut 40 nepers below the PLC median alone, the rule dropped 2.5e-12
        # of the mean below 0 dB.
        (6.21, 29.9, 23.187067067733637),
        # Cut 40 nepers below 0 dB but not at 0 dB, a panel 28 nepers wide
        # met the poles of expit(y) at +-i*pi: 1.3e-10 off.
        (0.5, 29.0, 22.5891112800283),
    ],
)
def test_numeric_mean_capacity_at_a_high_plc_median(default_system, sigma_db, mu_db, plc_mean):
    # The VLC edge lies beyond the PLC support, so the integral is the PLC
    # mean (40-digit mpmath).
    s = dataclasses.replace(
        default_system,
        plc=dataclasses.replace(default_system.plc, fading_sigma_db=sigma_db, fading_mu_db=mu_db),
        vlc=dataclasses.replace(default_system.vlc, tx_power_w=1e19),
    )
    value = e2e_avg_capacity_numeric(s) / s.duplex_factor
    assert value == pytest.approx(plc_mean, rel=2e-15, abs=0.0)


def test_means_finite_without_warnings_over_widened_grid_ranges(default_system):
    # 200 seeded points over the benchmark's analytic-grid ranges, with the
    # semi-angle widened from [30, 80] to [15, 80] degrees and fading in
    # {0} and [0.5, 6] dB.  A NumericDomainError once ended the end-to-end
    # mean below about 28 degrees at radii above about 3.6 m.
    rng = np.random.default_rng(26)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(200):
            sigma_db = rng.uniform(0.0, 6.0)
            s = _system(
                default_system,
                height=rng.uniform(2.15, 3.0),
                radius=rng.uniform(2.5, 4.5),
                power=rng.uniform(0.02, 0.5),
                distance=rng.uniform(5.0, 200.0),
                semi_angle_deg=rng.uniform(15.0, 80.0),
                sigma_db=sigma_db if sigma_db >= 0.5 else 0.0,
            )
            means = (vlc_link.avg_capacity_quad(s.vlc), vlc_link.avg_capacity_closed(s.vlc),
                     e2e_avg_capacity_numeric(s))
            assert all(0.0 < value < math.inf for value in means)


# ---------------------------------------------------------------------------
# One composition of the hops' log-SNR laws
# ---------------------------------------------------------------------------

def _point_mass_mixes(default_system):
    """Every pairing of a PLC hop (spread, or a point mass below, inside, above
    or beyond the float range of the cell, or at a subnormal spread) with a
    cell (default, dim, one point)."""
    plcs = [default_system.plc] + [
        dataclasses.replace(default_system.plc, fading_sigma_db=sigma_db, fading_mu_db=mu_db)
        for sigma_db, mu_db in ((0.0, 0.0), (1e-320, 0.0), (0.0, -20.0), (0.0, 20.0),
                                (0.0, 2000.0), (1e-320, -20.0))
    ]
    vlcs = [
        default_system.vlc,
        _vlc_6_49_degrees(default_system),
        dataclasses.replace(default_system.vlc, cell_radius_m=1e-9),
    ]
    return [(plc, vlc) for plc in plcs for vlc in vlcs]


def _vlc_6_49_degrees(default_system):
    """The dim cell of ``test_vlc_link.test_quadrature_is_cut_below_a_dim_top``."""
    return dataclasses.replace(default_system.vlc, semi_angle_rad=math.radians(6.49),
                               cell_radius_m=4.79, height_m=2.63, tx_power_w=3.46e-8)


def test_composition_is_symmetric_bit_for_bit(default_system, perfbench):
    _, grid = perfbench
    systems = [grid.build_system(default_system, point) for point in grid.make_points(1)]
    for plc, vlc in _point_mass_mixes(default_system) + [(s.plc, s.vlc) for s in systems]:
        plc_law, vlc_law = plc_link.log_snr_law(plc), vlc_link.log_snr_law(vlc)
        forward = specfun.softplus_mean(plc_law, vlc_law)
        assert 0.0 < forward < math.inf
        assert specfun.softplus_mean(vlc_law, plc_law).hex() == forward.hex()


@pytest.mark.parametrize("duplex", [0.5, 0.123, 0.3, 0.45, 0.6, 0.7, 0.8, 0.9, 1.0])
@pytest.mark.parametrize("case", ["plc-point-below-the-cell", "both-points"])
def test_numeric_mean_capacity_is_the_sampled_bits_on_a_point_mass_path(
    default_system, case, duplex
):
    # The path min(snr_plc, snr_vlc) takes one value: the sampled mean is that
    # value's log1p in nepers, and both sides convert it to bits by the one
    # specfun.bits, so the analytic mean has the same bits at every duplex factor.
    if case == "both-points":
        plc = dataclasses.replace(default_system.plc, fading_sigma_db=0.0)
        vlc = dataclasses.replace(default_system.vlc, cell_radius_m=1e-9)
    else:
        plc = dataclasses.replace(default_system.plc, fading_sigma_db=0.0, fading_mu_db=-20.0)
        vlc = default_system.vlc
        assert montecarlo.sample_plc_snr(plc, 0.0) < montecarlo.sample_vlc_snr(vlc, 1.0)
    s = dataclasses.replace(default_system, plc=plc, vlc=vlc, duplex_factor=duplex)
    sampled = montecarlo.estimate("e2e_avg_capacity", s, montecarlo.McConfig(trials=5000, seed=3))
    assert sampled.std_error == 0.0
    assert e2e_avg_capacity_numeric(s) == sampled.mean


def _law_and_two_samples(default_system, hop, n):
    """The hop's ``log_snr_law`` and two independent samples of n values of y = ln(snr)."""
    draws = np.random.default_rng(29)
    if hop == "plc":
        law = plc_link.log_snr_law(default_system.plc)
        samples = [np.log(montecarlo.sample_plc_snr(default_system.plc, draws.standard_normal(n)))
                   for _ in range(2)]
    else:
        vlc = default_system.vlc if hop == "vlc" else _vlc_6_49_degrees(default_system)
        law = vlc_link.log_snr_law(vlc)
        samples = [np.log(montecarlo.sample_vlc_snr(vlc, draws.random(n))) for _ in range(2)]
    return law, samples


@pytest.mark.parametrize("hop", ["plc", "vlc", "vlc-6.49-degrees"])
def test_log_snr_survival_matches_the_sampled_share_above(default_system, hop):
    # At the deciles of one sample of y = ln(snr), the law's survival meets the
    # share of an independent sample above them within 3 binomial SE.
    n = 200_000
    law, samples = _law_and_two_samples(default_system, hop, n)
    low, high, survival = law[:3]
    y = np.quantile(samples[0], np.linspace(0.1, 0.9, 9))
    assert low < y.min() and y.max() < high
    expected = survival(y)
    share = (samples[1][:, None] > y).mean(axis=0)
    se = np.sqrt(expected * (1.0 - expected) / n)
    assert np.all(np.abs(share - expected) <= 3.0 * se), (share, expected)


@pytest.mark.parametrize("hop", ["plc", "vlc", "vlc-6.49-degrees"])
def test_log_snr_cdf_matches_the_sampled_share_below(default_system, hop):
    # At the deciles of one sample of y = ln(snr), the law's CDF meets the
    # share of an independent sample below them within 3 binomial SE, and it
    # completes the survival to 1.
    n = 200_000
    law, samples = _law_and_two_samples(default_system, hop, n)
    survival, cdf = law[2], law[5]
    y = np.quantile(samples[0], np.linspace(0.1, 0.9, 9))
    expected = np.array([cdf(value) for value in y.tolist()])
    share = (samples[1][:, None] < y).mean(axis=0)
    se = np.sqrt(expected * (1.0 - expected) / n)
    assert np.all(np.abs(share - expected) <= 3.0 * se), (share, expected)
    assert np.all(np.abs(expected + survival(y) - 1.0) <= 1e-15)


def _quantile_thresholds(snr_at):
    """SNRs at the 5/30/70/95 % points of a hop's law, from a 50-digit ``snr_at(q)``."""
    return [float(snr_at(mp.mpf(q) / 100)) for q in (5, 30, 70, 95)]


def _vlc_outage_reference(p):
    """(snr_at, outage) of the cell by 50-digit mpmath: P(v > v*) for the disc-uniform user.

    The SNR at radius r_k is rho * (A / (r_k**2 + L**2)**((m+3)/2))**2, so
    snr < x where v = (r_k/r)**2 exceeds v*(x) = ((A*sqrt(rho/x))**(2/(m+3)) - L**2) / r**2.
    """
    m = -1 / mp.log(mp.cos(mp.mpf(p.semi_angle_rad)), 2)
    front_end = (mp.mpf(p.detector_area) * mp.mpf(p.filter_gain) * mp.mpf(p.concentrator_gain)
                 * mp.mpf(p.responsivity) / (2 * mp.pi))
    height, radius = mp.mpf(p.height_m), mp.mpf(p.cell_radius_m)
    amplitude = front_end * (m + 1) * height ** (m + 1)
    rho = mp.mpf(p.tx_power_w) / mp.mpf(p.noise_variance)

    def snr_at(q):
        return rho * amplitude ** 2 / ((1 - q) * radius ** 2 + height ** 2) ** (m + 3)

    def outage(x):
        v_star = ((amplitude * mp.sqrt(rho / x)) ** (2 / (m + 3)) - height ** 2) / radius ** 2
        return 1 - min(max(v_star, 0), 1)

    return snr_at, outage


def _plc_outage_reference(p):
    """(snr_at, outage) of the hop by 50-digit mpmath: the dB gain is N(2*mu, (2*sigma)**2)."""
    alpha = mp.mpf(p.atten_a0) + mp.mpf(p.atten_a1) * mp.mpf(p.frequency_hz) ** mp.mpf(p.atten_k)
    scale = (mp.mpf(p.tx_power_w) * mp.exp(-2 * alpha * mp.mpf(p.distance_m))
             / mp.mpf(p.noise_variance))
    mu, sigma = mp.mpf(p.fading_mu_db), mp.mpf(p.fading_sigma_db)

    def snr_at(q):
        return scale * mp.power(10, (mu + sigma * mp.sqrt(2) * mp.erfinv(2 * q - 1)) / 5)

    def outage(x):
        return mp.ncdf((5 * mp.log10(x / scale) - mu) / sigma)

    return snr_at, outage


def test_hop_outages_match_mpmath(default_system):
    # Seeded cells (3-80 degrees, radius at least a tenth of the height) and
    # hops, at their own 5/30/70/95 % SNRs and at the system's threshold.
    rng = np.random.default_rng(32)
    threshold = rate_to_snr_threshold(default_system.rate_threshold_bits,
                                      default_system.duplex_factor)
    cells = []
    while len(cells) < 30:
        height = rng.uniform(1.0, 5.0)
        try:
            cells.append(dataclasses.replace(
                default_system.vlc, semi_angle_rad=math.radians(rng.uniform(3.0, 80.0)),
                height_m=height, cell_radius_m=rng.uniform(height / 10.0, 12.0),
                tx_power_w=10.0 ** rng.uniform(-8.0, 2.0)))
        except ParameterError:
            continue
    hops = [dataclasses.replace(default_system.plc, fading_sigma_db=rng.uniform(0.3, 12.0),
                                fading_mu_db=rng.uniform(-30.0, 30.0),
                                distance_m=rng.uniform(5.0, 300.0)) for _ in range(30)]
    with mp.workdps(50):
        cases = [(p, vlc_link.outage, _vlc_outage_reference(p)) for p in cells]
        cases += [(p, plc_link.outage, _plc_outage_reference(p)) for p in hops]
        for p, outage, (snr_at, reference) in cases:
            for x in _quantile_thresholds(snr_at) + [threshold]:
                expected = reference(mp.mpf(x))
                assert abs(outage(p, x) - expected) <= 1e-12 * expected, (p, x)
