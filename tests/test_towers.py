"""TowerReal: construction, ordering, arithmetic against plain-float oracles."""

import math
import random

import pytest

from sphgrow.towers import (
    BAND_BOTTOM,
    BAND_TOP,
    TowerDomainError,
    TowerReal,
    tower_compare,
)


def test_from_value_roundtrip():
    for x in [0.0, 1.0, 2.5, 1e6, 1e7, 12345.678]:
        t = TowerReal.from_value(x)
        assert math.isclose(t.value(), x, rel_tol=1e-15)


def test_from_log_roundtrip():
    for lv in [-5.0, 0.0, 3.0, 700.0, 1e5, 1e7]:
        t = TowerReal.from_log(lv)
        if lv <= 709.0:
            assert math.isclose(t.value(), math.exp(lv), rel_tol=1e-12)
        else:
            assert t.value() == math.inf


def _in_band(t):
    return BAND_BOTTOM <= t.base < BAND_TOP if t.depth >= 1 else 0.0 <= t.base < BAND_TOP


def test_normal_form_band():
    for x in [1e-3, 1.0, 5.0, 1e7, 1e9, 1e300]:
        assert _in_band(TowerReal.from_value(x))  # built in normal form


@pytest.mark.parametrize("depth, base, twin", [
    (0, 1e9, TowerReal.from_value(1e9)),
    (1, math.nextafter(BAND_TOP, math.inf), TowerReal.from_value(BAND_TOP).exp()),
    (3, 1.0, TowerReal.from_log(math.exp(math.e))),
], ids=["depth0-above-band", "depth1-one-ulp-above-band", "depth3-below-band"])
def test_constructor_builds_the_normal_form(depth, base, twin):
    # a (depth, base) pair outside the band is moved into it when built, so
    # order, equality and hash by fields agree with the represented value
    t = TowerReal(depth, base)
    assert _in_band(t)
    assert (t.depth, t.base) == (twin.depth, twin.base)
    assert t == twin and hash(t) == hash(twin) and len({t, twin}) == 1
    assert str(t) == str(twin)


def test_ordering_matches_floats():
    rng = random.Random(7)
    vals = [rng.uniform(0.0, 1e7) for _ in range(300)]
    for a, b in zip(vals[::2], vals[1::2]):
        ta, tb = TowerReal.from_value(a), TowerReal.from_value(b)
        assert (ta < tb) == (a < b)
        assert (ta == tb) == (a == b)


def test_ordering_across_depths():
    small = TowerReal.from_value(1e6)
    big = TowerReal.from_log(1e6)         # e^(1e6)
    bigger = TowerReal.from_log(1e6).exp()
    assert small < big < bigger
    assert tower_compare(bigger, small) == 1


def test_exp_log_inverse():
    t = TowerReal.from_value(42.0)
    assert tower_compare(t.exp().log(), t) == 0
    deep = t.exp().exp().exp()
    assert tower_compare(deep.log().log().log(), t) == 0


def test_log_of_subunit_raises():
    with pytest.raises(TowerDomainError):
        TowerReal.from_value(0.5).log()


def test_add_const_depth0_and_1():
    t = TowerReal.from_value(10.0).add_const(2.5)
    assert math.isclose(t.value(), 12.5, rel_tol=1e-15)
    u = TowerReal.from_log(30.0).add_const(7.0)   # e^30 + 7
    assert math.isclose(u.value(), math.exp(30.0) + 7.0, rel_tol=1e-12)


def test_add_const_deep_tower_absorbs():
    deep = TowerReal.from_log(1e7).exp()          # depth 2 after normalization
    assert deep.add_const(1e30) == deep


def test_mul_const_oracle():
    t = TowerReal.from_value(3.0).mul_const(7.0)
    assert math.isclose(t.value(), 21.0, rel_tol=1e-14)
    u = TowerReal.from_log(100.0).mul_const(0.5)
    assert math.isclose(u.log().value(), 100.0 + math.log(0.5), rel_tol=1e-14)
    with pytest.raises(ValueError):
        t.mul_const(-1.0)


def test_pow_const_oracle():
    t = TowerReal.from_value(5.0).pow_const(3.0)
    assert math.isclose(t.value(), 125.0, rel_tol=1e-13)
    u = TowerReal.from_log(50.0).pow_const(2.0)   # (e^50)^2 = e^100
    assert math.isclose(u.log().value(), 100.0, rel_tol=1e-14)


def test_exp_monotone():
    a = TowerReal.from_value(20.0)
    b = TowerReal.from_value(21.0)
    for _ in range(4):
        a, b = a.exp(), b.exp()
        assert a < b


def test_str_format():
    s = str(TowerReal.from_log(1e6).exp())
    assert s.startswith("E^")
    assert "(" in s and s.endswith(")")
    # 17 significant digits survive a round trip
    t = TowerReal(2, 123.45678901234567)
    depth, base = str(t)[2:].split("(")
    assert int(depth) == 2
    assert float(base[:-1]) == t.base


def test_value_overflow_to_inf():
    assert TowerReal(3, 50.0).value() == math.inf
