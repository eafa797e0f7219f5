"""Orbit iteration, spherical derivatives, periodic points, fast escape."""

import cmath
import math

import pytest

from sphgrow import dynamics as dy
from sphgrow import functions as fx

EXP = fx.ExpAffine(1.0)
SQUARE = fx.Polynomial((0, 0, 1))


def test_orbit_complete_bounded():
    orbit = dy.iterate_orbit(SQUARE, 0.5 + 0j, 20)
    assert orbit.status == dy.COMPLETE
    assert orbit.length() == 21
    # |z_n| = 0.5^(2^n) -> log mags halve... double each step downward
    assert math.isclose(orbit.log_mag(3), (2 ** 3) * math.log(0.5), rel_tol=1e-12)


def test_orbit_escalates_then_overflows():
    orbit = dy.iterate_orbit(EXP, 10.0 + 0j, 10)
    assert orbit.status in (dy.ESCALATED, dy.OVERFLOW)
    # z_1 = e^10, z_2 = e^(e^10): log mags iterate the exponential exactly
    assert math.isclose(orbit.log_mag(1), 10.0, rel_tol=1e-12)
    assert math.isclose(orbit.log_mag(2), math.exp(10.0), rel_tol=1e-12)


def test_spherical_derivative_square_map():
    # (f^n)'(z) = 2^n z^(2^n - 1); on |z| = 1 the orbit stays on the circle
    z0 = cmath.exp(0.7j)
    n = 6
    orbit = dy.iterate_orbit(SQUARE, z0, n)
    got = dy.log_spherical_derivative(orbit, n)
    want = n * math.log(2.0) - math.log(2.0)   # log|..'| - log(1 + 1)
    assert math.isclose(got, want, rel_tol=0, abs_tol=1e-9)


def test_lyapunov_estimate_square_map():
    est = dy.lyapunov_estimate(SQUARE, cmath.exp(0.7j), 30)
    # on the unit circle (1/n) log (f^n)^# -> log 2
    assert abs(est.upper - math.log(2.0)) < 0.05
    assert est.lower <= est.upper


def test_lyapunov_estimate_exp_derivative_underflow():
    # f'(z) = e^z underflows to 0 in doubles at Re z = -800 but never vanishes
    est = dy.lyapunov_estimate(EXP, -800.0 + 0j, 10)
    assert math.isfinite(est.upper)
    assert est.per_n[0] == -800.0  # log f^#(z) = Re z - log(1 + e^(2 Re z))


def test_find_periodic_point_square():
    pp = dy.find_periodic_point(SQUARE, 1, 0.9 + 0.1j)
    assert abs(pp.location - 1.0) < 1e-8
    assert pp.period == 1
    assert abs(pp.multiplier - 2.0) < 1e-6
    assert math.isclose(pp.lyapunov, math.log(2.0), rel_tol=1e-6)


def test_find_periodic_point_exp():
    pp = dy.find_periodic_point(EXP, 1, 1.0 + 1.0j)
    # fixed point of e^z near 0.318 + 1.337i, repelling
    assert abs(pp.location - complex(0.318, 1.337)) < 0.01
    assert abs(pp.multiplier) > 1.0
    # at a fixed point the multiplier is f'(z) = f(z) = z
    assert abs(pp.multiplier - pp.location) < 1e-8


def test_period2_cycle_square():
    # z^2 on the unit circle: the period-2 cycle is at angle 2pi/3
    pp = dy.find_periodic_point(SQUARE, 2, cmath.exp(2.1j))
    assert pp.period in (1, 2)
    w, _ = abs(pp.location), None
    assert abs(abs(pp.location) - 1.0) < 1e-8


def test_fast_escape_member_l0():
    member, l, _ = dy.fast_escaping_test(EXP, 10.0, R=5.0, l_max=3, n_max=12)
    assert member and l == 0


def test_fast_escape_fixed_point_nonmember():
    pp = dy.find_periodic_point(EXP, 1, 1.0 + 1.0j)
    member, l, failures = dy.fast_escaping_test(EXP, pp.location, R=5.0,
                                                l_max=3, n_max=12)
    assert not member and l is None
    assert set(failures) == {0, 1, 2, 3}


def test_fast_escape_member_l3():
    member, l, _ = dy.fast_escaping_test(EXP, 0.1, R=5.0, l_max=3, n_max=12)
    assert member and l == 3


def test_fast_escape_precomputed_table():
    table = fx.iterated_max_modulus(EXP, 5.0, 12)
    a = dy.fast_escaping_test(EXP, 10.0, R=5.0, l_max=3, n_max=12)
    b = dy.fast_escaping_test(EXP, 10.0, R=5.0, l_max=3, n_max=12, table=table)
    assert a == b


def test_lyapunov_rejects_tiny_horizon():
    with pytest.raises(ValueError):
        dy.lyapunov_estimate(SQUARE, 0.5, 2)


def test_orbit_ends_when_no_value_is_representable():
    # E_0.2 at z_3 = e^207.4: the series overflows, and so does the log-polar
    # value the variant would report instead; the orbit ends there, kept so far
    orbit = dy.iterate_orbit(fx.MittagLeffler(0.2), -0.5 + 0j, 6)
    assert orbit.status == dy.OVERFLOW
    assert orbit.overflow_at == 3
    assert orbit.length() == len(orbit.log_deriv_prefix) == 4
    assert orbit.log_mag(3) > 200.0
