import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss
from scipy import integrate

from plcvlc.errors import ParameterError
from plcvlc.specfun import gauss_hermite, gauss_legendre_panels, hyp2f1, std_normal_cdf

mp.mp.dps = 30

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# gauss_hermite
# ---------------------------------------------------------------------------

def test_order_one_rule():
    rule = gauss_hermite(1)
    assert rule.nodes.tolist() == [0.0]
    assert rule.weights[0] == pytest.approx(SQRT_PI, rel=1e-15, abs=0.0)


def test_order_two_rule():
    rule = gauss_hermite(2)
    assert rule.nodes == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], rel=1e-14, abs=0.0)
    assert rule.weights == pytest.approx([SQRT_PI / 2, SQRT_PI / 2], rel=1e-14, abs=0.0)


def test_order_30_quartic_moment():
    # Oracle: adaptive numeric integration of exp(-x^2) * x^4.
    expected, err = integrate.quad(lambda x: math.exp(-x * x) * x ** 4, -np.inf, np.inf)
    assert err < 1e-7
    rule = gauss_hermite(30)
    value = float(rule.weights @ rule.nodes ** 4)
    assert value == pytest.approx(expected, rel=1e-10, abs=0.0)
    assert value == pytest.approx(0.75 * SQRT_PI, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("order", [1, 2, 3, 5, 17, 30, 40, 64, 101, 150, 200])
def test_rule_invariants(order):
    rule = gauss_hermite(order)
    assert rule.order == order
    assert len(rule.nodes) == len(rule.weights) == order
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)
    # symmetry about zero
    assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) <= 1e-12
    # zeroth Hermite moment
    assert float(rule.weights.sum()) == pytest.approx(SQRT_PI, rel=1e-10, abs=0.0)
    if order >= 2:
        # second Hermite moment needs degree-2 exactness, i.e. order >= 2
        second_moment = float(rule.weights @ rule.nodes ** 2)
        assert second_moment == pytest.approx(SQRT_PI / 2, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("order", [1, 2, 7, 30, 40, 99, 100, 151, 200])
def test_matches_numpy_rule(order):
    rule = gauss_hermite(order)
    nodes, weights = hermgauss(order)
    assert np.max(np.abs(rule.nodes - nodes)) <= 1e-12
    assert np.max(np.abs(rule.weights - weights)) <= 1e-12 * weights.max()


def test_polynomial_exactness():
    # Exact Gaussian moments: int exp(-x^2) x^(2k) = gamma(k + 1/2).
    rng = np.random.default_rng(42)
    for order in (3, 8, 21, 50):
        rule = gauss_hermite(order)
        degree = 2 * order - 1
        coeffs = rng.uniform(-1.0, 1.0, degree + 1)
        exact = sum(
            c * math.gamma((k + 1) / 2)
            for k, c in enumerate(coeffs)
            if k % 2 == 0
        )
        approx = float(rule.weights @ np.polynomial.polynomial.polyval(rule.nodes, coeffs))
        scale = sum(abs(c) * math.gamma((k + 1) / 2) for k, c in enumerate(coeffs) if k % 2 == 0)
        assert abs(approx - exact) <= 1e-9 * max(1.0, scale)


def test_rule_is_deterministic():
    a = gauss_hermite(33)
    b = gauss_hermite(33)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.weights, b.weights)


@pytest.mark.parametrize("order", [0, -3, 201, 2.5, "10"])
def test_order_out_of_range(order):
    with pytest.raises(ParameterError):
        gauss_hermite(order)


# ---------------------------------------------------------------------------
# gauss_legendre_panels
# ---------------------------------------------------------------------------

def test_panels_integrate_piecewise_polynomials_exactly():
    # Degree 2n - 1 = 7 on each panel, with a kink at the split point 1.
    nodes, weights = gauss_legendre_panels(-1.0, 3.0, 4, splits=(1.0, -5.0, 7.0, math.nan))
    assert nodes.size == weights.size == 2 * 2 * 4
    assert np.all(np.diff(nodes) > 0) and nodes[0] > -1.0 and nodes[-1] < 3.0
    # x**7 integrates to 0 over [-1, 1], (x - 1)**3 to 2**4 / 4 over [1, 3].
    values = np.where(nodes < 1.0, nodes ** 7, (nodes - 1.0) ** 3)
    assert weights @ values == pytest.approx(4.0, rel=1e-14, abs=0.0)


def test_panels_graded_toward_zero():
    nodes, weights = gauss_legendre_panels(1.0, 1e6, 16, grading=4.0)
    # ceil(log4(1e6)) = 10 segments of two panels each.
    assert nodes.size == 10 * 2 * 16
    assert weights @ (1.0 / nodes) == pytest.approx(math.log(1e6), rel=1e-13, abs=0.0)
    assert gauss_legendre_panels(1.0, 1e6, 16)[0].size == 2 * 16


def test_panels_are_fresh_writable_arrays_off_read_only_tiles():
    from plcvlc import specfun

    args = (0.5, 7.0, 8, (1.0, 3.0))
    first, second = gauss_legendre_panels(*args), gauss_legendre_panels(*args)
    tiles = specfun._tiled_legendre_arrays(8, 6)
    for tile in tiles:
        assert not tile.flags.writeable
    for result in (*first, *second):
        assert result.flags.writeable and result.flags.c_contiguous and result.flags.owndata
        assert result.shape == (6 * 8,) and result.dtype == np.float64
        assert not any(np.shares_memory(result, tile) for tile in tiles)
    assert not any(np.shares_memory(a, b) for a in first for b in second)
    # Writing into a result changes neither the tiles nor the next build.
    reference = [a.copy() for a in second]
    for result in first:
        result[:] = math.nan
    assert all(np.array_equal(a, b) for a, b in zip(gauss_legendre_panels(*args), reference))
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert np.array_equal(tiles[0], np.tile(nodes, 6))
    assert np.array_equal(tiles[1], np.tile(weights, 6))


def test_panel_tile_cache_is_bounded():
    from plcvlc import specfun

    maxsize = specfun._tiled_legendre_arrays.cache_info().maxsize
    assert maxsize is not None and maxsize <= 256
    for order in range(1, 5):
        for count in range(maxsize):
            gauss_legendre_panels(0.0, 1.0, order, [(k + 1.0) / (count + 1.0) for k in range(count)])
    assert specfun._tiled_legendre_arrays.cache_info().currsize <= maxsize


def _panels_with_array_splits(low, high, order, splits=(), grading=math.inf):
    """The rule with its graded splits formed as a NumPy array (reference)."""
    x, w = np.polynomial.legendre.leggauss(order)
    if 0.0 < low and high / low > grading:
        splits = (*splits, *low * grading ** np.arange(1, math.ceil(math.log(high / low, grading))))
    edges = [low, *sorted({p for p in splits if low < p < high}), high]
    cuts = np.array([*(c for a, b in zip(edges, edges[1:]) for c in (a, a + (b - a) / 2.0)), high])
    half = (cuts[1:, None] - cuts[:-1, None]) / 2.0
    centre = cuts[:-1, None] + half
    return (centre + half * x).ravel(), (half * w).ravel()


def test_panels_bit_identical_to_array_splits_on_grid_cut_sets(default_system, monkeypatch):
    # Every rule the analytic evaluations build, over points spanning the
    # analytic-grid ranges with semi-angles down to 3 degrees.
    import dataclasses

    from plcvlc import plc_link, relay, sweeps, vlc_link

    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return gauss_legendre_panels(*args, **kwargs)

    monkeypatch.setattr(plc_link, "gauss_legendre_panels", recording)
    monkeypatch.setattr(vlc_link, "gauss_legendre_panels", recording)
    rng = np.random.default_rng(3)
    for _ in range(60):
        plc = dataclasses.replace(
            default_system.plc,
            distance_m=rng.uniform(5.0, 200.0),
            fading_sigma_db=float(rng.choice([0.0, rng.uniform(0.5, 6.0)])),
        )
        vlc = dataclasses.replace(
            default_system.vlc,
            height_m=rng.uniform(2.15, 3.0),
            cell_radius_m=rng.uniform(2.5, 4.5),
            tx_power_w=rng.uniform(0.02, 0.5),
            semi_angle_rad=math.radians(rng.uniform(3.0, 80.0)),
        )
        system = dataclasses.replace(default_system, plc=plc, vlc=vlc)
        sweeps.evaluate_point(system)
        vlc_link.avg_capacity_quad(vlc)
        relay.e2e_avg_capacity_numeric(system)
    assert any(kwargs.get("grading", math.inf) < math.inf for _, kwargs in calls)
    for args, kwargs in calls:
        nodes, weights = gauss_legendre_panels(*args, **kwargs)
        ref_nodes, ref_weights = _panels_with_array_splits(*args, **kwargs)
        assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)


# ---------------------------------------------------------------------------
# std_normal_cdf
# ---------------------------------------------------------------------------

def test_cdf_at_zero():
    assert std_normal_cdf(0.0) == 0.5


def test_cdf_saturates():
    assert abs(std_normal_cdf(40.0) - 1.0) <= 1e-15


def test_cdf_at_one():
    # 0.8413447460685429... from a 30-digit erf evaluation
    assert std_normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)
    assert std_normal_cdf(1.0) == pytest.approx(float(mp.ncdf(1)), abs=1e-14)


def test_cdf_monotone():
    grid = np.linspace(-12.0, 12.0, 4001)
    values = [std_normal_cdf(x) for x in grid]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(b >= a for a, b in zip(values, values[1:]))


@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_cdf_symmetry(x):
    assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)


def test_cdf_rejects_nan():
    with pytest.raises(ParameterError):
        std_normal_cdf(float("nan"))


# ---------------------------------------------------------------------------
# hyp2f1: the family 2F1(1, b; b+1; z) on -1 <= z <= 0
# ---------------------------------------------------------------------------

def _direct_series(a, b, c, z, terms=200_000):
    """Plain Gauss series; converges for |z| < 1."""
    total = term = 1.0
    for n in range(terms):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return total


def _connection(b, z):
    """2F1(1, b; b+1; z) for z < -1 from the kernel at 1/z (DLMF 15.8.2).

    2F1(1, b; b+1; z) = b/(b-1) * (-1/z) * 2F1(1, 1-b; 2-b; 1/z)
                        + Gamma(1+b) * Gamma(1-b) * (-z)**-b,
    the identity ``vlc_link.avg_capacity_closed`` uses above z = 1.
    """
    b2 = 1.0 - b
    return (b / (b - 1.0) * (-1.0 / z) * hyp2f1(1.0, b2, b2 + 1.0, 1.0 / z)
            + math.pi * b / math.sin(math.pi * b) * (-z) ** -b)


def test_unit_at_zero_argument():
    assert hyp2f1(1.0, -0.25, 0.75, 0.0) == 1.0


def test_log_identity():
    # 2F1(1,1;2;z) = -log(1-z)/z; at z=-1 that is log 2.  Cross-check against
    # the direct series at the Pfaff-mapped argument.
    value = hyp2f1(1.0, 1.0, 2.0, -1.0)
    assert value == pytest.approx(math.log(2.0), rel=1e-15, abs=0.0)
    mapped = 0.5 * _direct_series(1.0, 1.0, 2.0, 0.5)
    assert value == pytest.approx(mapped, rel=1e-15, abs=0.0)


def test_transformed_matches_direct_series():
    rng = np.random.default_rng(11)
    for _ in range(200):
        b = rng.uniform(-0.95, 2.0)
        z = -rng.uniform(0.0, 0.999)
        value = hyp2f1(1.0, b, b + 1.0, z)
        direct = _direct_series(1.0, b, b + 1.0, z)
        assert abs(value - direct) <= 1e-14 * max(1.0, abs(direct))


def test_matches_mpmath_over_negative_axis():
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 200:
        b = rng.uniform(-0.95, 2.0)
        if abs(b - round(b)) < 0.05:
            continue
        z = -rng.uniform(0.0, 50.0)
        value = hyp2f1(1.0, b, b + 1.0, z) if z >= -1.0 else _connection(b, z)
        reference = float(mp.hyp2f1(1, b, b + 1, z))
        assert abs(value - reference) <= 1e-14 * abs(reference)
        checked += 1


# The closed form's z = rho*t runs over many decades; it calls the kernel at
# -z up to z = 1 and at -1/z above, with beta = 1/(m+3) in (0, 1/3].
def _closed_form_arguments(beta, z):
    return (1.0 - beta, -z) if z <= 1.0 else (1.0 + beta, -1.0 / z)


@pytest.mark.parametrize(
    "z",
    [1e-20, 1e-9, 9e-4, 1e-3 * (1 - 1e-12), 1e-3, 1e-3 * (1 + 1e-12), 1.1e-3,
     0.5, 0.999, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.001, 2.0, 1e3, 1e15],
)
@pytest.mark.parametrize("beta", [1.0 / 403.0, 0.05, 0.25, 2.0 / 7.0, 1.0 / 3.0])
def test_matches_mpmath_in_closed_form_family(beta, z):
    b, x = _closed_form_arguments(beta, z)
    reference = mp.hyp2f1(1, b, b + 1, x)
    assert abs(hyp2f1(1.0, b, b + 1.0, x) - reference) <= 1e-14 * reference


def test_matches_mpmath_over_closed_form_range():
    rng = np.random.default_rng(13)
    for _ in range(500):
        beta = rng.uniform(1.0 / 403.0, 2.0 / 7.0)
        z = 10.0 ** rng.uniform(-20.0, 15.0)
        b, x = _closed_form_arguments(beta, z)
        reference = mp.hyp2f1(1, b, b + 1, x)
        assert abs(hyp2f1(1.0, b, b + 1.0, x) - reference) <= 1e-14 * reference


# In the family with z < -1: checked through the connection identity.
@pytest.mark.parametrize(
    "a,b,c,z",
    [
        (1.0, -0.25, 0.75, -5.0),
        (1.0, -0.25, 0.75, -199.9),
        (1.0, -0.25, 0.75, -201.0),
        (1.0, -0.25, 0.75, -1e4),
        (1.0, -0.25, 0.75, -7.5e5),
        (1.0, -0.0707, 0.9293, -3e5),
    ],
)
def test_matches_mpmath_spot_values(a, b, c, z):
    assert a == 1.0 and c == b + 1.0
    reference = float(mp.hyp2f1(a, b, c, z))
    assert _connection(b, z) == pytest.approx(reference, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("c", [0.0, -1.0, -7.0])
def test_rejects_nonpositive_integer_c(c):
    with pytest.raises(ParameterError):
        hyp2f1(1.0, 0.5, c, -0.5)


@pytest.mark.parametrize("z", [1.0, 1.5, float("inf")])
def test_rejects_argument_at_or_beyond_one(z):
    with pytest.raises(ParameterError):
        hyp2f1(1.0, 0.5, 1.5, z)


@pytest.mark.parametrize(
    "a,b,c,z,name",
    [
        (1.3, 0.7, 1.7, -0.5, "argument a"),
        (1.0, float("nan"), 1.5, -0.5, "argument b"),
        (1.0, 0.5, 2.2, -0.5, "argument c"),
        (1.0, -1.5, -0.5, -0.5, "argument c"),
        (1.0, 0.5, 1.5, -1.0 - 1e-15, "argument z"),
        (1.0, 0.5, 1.5, 1e-300, "argument z"),
        (1.0, 0.5, 1.5, float("nan"), "argument z"),
    ],
)
def test_rejects_arguments_outside_the_family(a, b, c, z, name):
    with pytest.raises(ParameterError, match=name):
        hyp2f1(a, b, c, z)
