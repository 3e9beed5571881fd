"""One rule for parameter values: a real number, not a bool, inside its range.

Every float field of the parameter classes, set by the constructor or by
``dataclasses.replace``, every sweepable variable through
``sweeps.with_variable``, and the raw-value entry points refuse a bool, a
string, None, an int beyond the largest float, NaN and the infinities with a
``ParameterError`` that names the field, variable or argument; none ends in
a TypeError, an OverflowError or an accepted value.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from plcvlc import plc_link, relay, specfun, vlc_link
from plcvlc.errors import FINITE, NONNEGATIVE, POSITIVE, ParameterError, check_value, is_real
from plcvlc.sweeps import SWEEPABLE_VARIABLES, with_variable

NOT_VALID = [True, False, "0.1", None, 10 ** 400, math.nan, math.inf, -math.inf]
_IDS = ["True", "False", "str", "None", "int-1e400", "nan", "inf", "-inf"]

_FLOAT_FIELDS = [
    (hop, field.name)
    for hop, cls in (("plc", plc_link.PlcLinkParams), ("vlc", vlc_link.VlcLinkParams),
                     (None, relay.RelaySystemParams))
    for field in dataclasses.fields(cls)
    if field.type == "float"
]


def test_every_float_field_is_listed():
    assert len(_FLOAT_FIELDS) == 9 + 9 + 2


def _params(system, hop):
    return system if hop is None else getattr(system, hop)


@pytest.mark.parametrize("value", NOT_VALID, ids=_IDS)
@pytest.mark.parametrize("how", ["constructor", "replace"])
@pytest.mark.parametrize("hop, field", _FLOAT_FIELDS)
def test_field_refuses_a_value_that_is_not_a_real_in_range(default_system, hop, field, how, value):
    params = _params(default_system, hop)
    with pytest.raises(ParameterError) as err:
        if how == "replace":
            dataclasses.replace(params, **{field: value})
        else:
            type(params)(**{**{f.name: getattr(params, f.name)
                               for f in dataclasses.fields(params)}, field: value})
    assert f"{type(params).__name__}.{field}" in str(err.value)


@pytest.mark.parametrize("value", NOT_VALID, ids=_IDS)
@pytest.mark.parametrize("name", sorted(SWEEPABLE_VARIABLES))
def test_with_variable_refuses_a_value_that_is_not_a_real_in_range(default_system, name, value):
    hop, field = SWEEPABLE_VARIABLES[name]
    with pytest.raises(ParameterError) as err:
        with_variable(default_system, name, value)
    message = str(err.value)
    assert message.startswith(f"sweep variable {name!r} = {value!r}: ")
    assert f"{type(_params(default_system, hop)).__name__}.{field}" in message


_RAW_ENTRY_POINTS = {
    "rate_to_snr_threshold-rate": (lambda s, x: relay.rate_to_snr_threshold(x, 0.5),
                                   "rate_threshold"),
    "rate_to_snr_threshold-duplex": (lambda s, x: relay.rate_to_snr_threshold(1.0, x),
                                     "duplex_factor"),
    "e2e_outage-plc": (lambda s, x: relay.e2e_outage(x, 0.5), "p_plc"),
    "e2e_outage-vlc": (lambda s, x: relay.e2e_outage(0.5, x), "p_vlc"),
    "plc_outage": (lambda s, x: plc_link.outage(s.plc, x), "plc_link.outage: snr_threshold"),
    "vlc_outage": (lambda s, x: vlc_link.outage(s.vlc, x), "vlc_link.outage: snr_threshold"),
    "hyp2f1-b": (lambda s, x: specfun.hyp2f1(1.0, x, 2.0, -0.5), "hyp2f1 argument b"),
    "hyp2f1-z": (lambda s, x: specfun.hyp2f1(1.0, 0.5, 1.5, x), "hyp2f1 argument z"),
}


@pytest.mark.parametrize("value", NOT_VALID, ids=_IDS)
@pytest.mark.parametrize("entry", sorted(_RAW_ENTRY_POINTS))
def test_raw_entry_point_refuses_a_value_that_is_not_a_real_in_range(default_system, entry, value):
    call, name = _RAW_ENTRY_POINTS[entry]
    with pytest.raises(ParameterError, match=f"^{name} ") as err:
        call(default_system, value)
    assert str(err.value).endswith(f", got {value!r}")


def test_rate_to_snr_threshold_refuses_an_overflowing_threshold():
    # 2.0 ** 1024 raises OverflowError, and 1.0 / 5e-324 is inf; both are refused by name.
    for rate, duplex in ((2000.0, 0.5), (1024.0, 1.0), (1.0, 5e-324)):
        with pytest.raises(ParameterError, match="^rate_threshold / duplex_factor must ") as err:
            relay.rate_to_snr_threshold(rate, duplex)
        assert str(err.value).endswith(f", got {rate / duplex!r}")
    assert relay.rate_to_snr_threshold(math.nextafter(1024.0, 0.0), 1.0) < math.inf


def test_real_numbers_other_than_float_pass():
    for value in (3, np.float32(0.5), np.int64(2), Fraction(1, 3), 10 ** 300, math.inf):
        assert is_real(value)
    for value in (True, np.bool_(True), "1", None, 1j, 10 ** 400, Fraction(10 ** 400)):
        assert not is_real(value)


def test_ranges_are_closed_float_intervals():
    for value in (5e-324, math.inf):
        check_value("x", value, POSITIVE)
    for value in (0.0, 1.7976931348623157e308):
        check_value("x", value, NONNEGATIVE)
    check_value("x", -1.7976931348623157e308, FINITE)
    for value, bounds in ((0.0, POSITIVE), (-5e-324, NONNEGATIVE), (math.inf, NONNEGATIVE),
                          (Fraction(1, 10 ** 400), POSITIVE)):
        with pytest.raises(ParameterError, match=f"^x {bounds[2]}, got "):
            check_value("x", value, bounds)


def test_an_int_field_builds_the_same_law_as_its_float(default_system):
    vlc = dataclasses.replace(default_system.vlc, height_m=3)
    assert vlc.law == dataclasses.replace(default_system.vlc, height_m=3.0).law
