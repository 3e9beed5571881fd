import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcvlc import montecarlo, relay, specfun
from plcvlc.sweeps import evaluate_point, with_variable
from plcvlc.errors import ParameterError
from plcvlc.relay import (
    RelaySystemParams,
    e2e_avg_capacity_numeric,
    e2e_capacity,
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
# e2e_capacity
# ---------------------------------------------------------------------------

def test_capacity_min_composition():
    assert e2e_capacity(4.0, 2.0, 1.0) == 2.0
    assert e2e_capacity(4.0, 2.0, 0.5) == 1.0


@given(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=1e-6, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_capacity_symmetric_case(c, theta):
    assert e2e_capacity(c, c, theta) == pytest.approx(theta * c, rel=1e-15, abs=1e-300)


def test_capacity_never_exceeds_either_hop():
    rng = np.random.default_rng(3)
    for _ in range(200):
        c1, c2 = rng.uniform(0.0, 20.0, 2)
        theta = rng.uniform(0.01, 1.0)
        value = e2e_capacity(c1, c2, theta)
        assert value <= theta * c1 + 1e-15
        assert value <= theta * c2 + 1e-15


def test_capacity_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        e2e_capacity(-1.0, 2.0, 0.5)
    with pytest.raises(ParameterError):
        e2e_capacity(1.0, 2.0, 0.0)


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


def test_numeric_mean_capacity_error_estimate(default_system):
    # The error estimate is the distance to the rule with twice the nodes.
    order = specfun.PANEL_ORDER
    value, finer = (default_system.duplex_factor * relay._survival_integral(default_system, n)
                    for n in (order, 2 * order))
    assert value == e2e_avg_capacity_numeric(default_system)
    assert 0.0 <= abs(finer - value) <= 1e-12 * value
    # At zero spread there is no rule in z: the VLC capacity clipped at the
    # PLC point mass meets the reference.
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
# 3.5-degree beam, where the former rule in u, without the boundary-layer
# cuts of avg_capacity_quad, was 6.2e-7 off.
_NARROW_BEAM = (2.691936017601873, 6.201900143580717, 1.2764113075449068,
                5.533551669281857, 3.493502303788138, 1.2768473040731503)


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
    ],
)
def test_numeric_mean_capacity_to_13_digits(default_system, case):
    s = _system(default_system, *case)
    if s.plc.fading_sigma_db == 0.0:
        reference = _zero_spread_reference(s)
    else:
        reference = _survival_product_reference(s, dps=40)
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
