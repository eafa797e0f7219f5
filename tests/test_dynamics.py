"""Orbit iteration, spherical derivatives, periodic points, fast escape."""

import cmath
import math

import numpy as np
import pytest

from sphgrow import dynamics as dy
from sphgrow import functions as fx
from sphgrow import measures as ms
from sphgrow import mittag

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


def test_orbit_table_rejects_no_steps():
    with pytest.raises(ValueError, match="^n=0 must be >= 1$"):
        dy.orbit_table(EXP, [0.5], [0.0], 0)


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


_NAN, _INF, _NEG_INF = complex(math.nan, 0.0), complex(math.inf, 0.0), complex(-math.inf, 1.0)


@pytest.mark.parametrize("f, z0, status, escalated_at, overflow_at, length", [
    # a NaN value escalates like one past ESCALATION_THRESHOLD; a variant with
    # no log continuation then ends its orbit at that point
    (fx.CoshSqrt(), _NAN, dy.OVERFLOW, 1, 1, 2),
    (fx.CoshSqrt(), _INF, dy.OVERFLOW, 1, 1, 2),
    (fx.MittagLeffler(0.75), _NAN, dy.OVERFLOW, 1, 1, 2),
    (fx.MittagLeffler(0.75), _INF, dy.OVERFLOW, 1, 1, 2),
    (fx.MittagLeffler(0.75), _NEG_INF, dy.COMPLETE, -1, -1, 5),
    (SQUARE, _NAN, dy.ESCALATED, 1, -1, 5),
    (SQUARE, _INF, dy.ESCALATED, 1, -1, 5),
    (SQUARE, _NEG_INF, dy.ESCALATED, 1, -1, 5),
    (EXP, _NAN, dy.ESCALATED, 1, -1, 5),
    (EXP, _INF, dy.OVERFLOW, 1, 1, 2),
    (EXP, _NEG_INF, dy.COMPLETE, -1, -1, 5),
], ids=["cosh_sqrt-nan", "cosh_sqrt-inf", "ml0.75-nan", "ml0.75-inf", "ml0.75-neg_inf",
        "square-nan", "square-inf", "square-neg_inf", "exp-nan", "exp-inf", "exp-neg_inf"])
def test_orbit_of_a_non_finite_start(f, z0, status, escalated_at, overflow_at, length):
    orbit = dy.iterate_orbit(f, z0, 4)
    assert (orbit.status, orbit.escalated_at, orbit.overflow_at) == (status, escalated_at, overflow_at)
    assert orbit.length() == length


def test_orbit_of_a_non_finite_start_outside_the_domain():
    # cosh sqrt z at -inf + i: sinh(sqrt z) = sinh(i inf) has no value in cmath
    with pytest.raises(ValueError):
        dy.iterate_orbit(fx.CoshSqrt(), _NEG_INF, 4)


# ---------------------------------------------------------------------------
# orbit_table against one iterate_orbit per start


def _thm4_starts():
    """The 1,000 starts of run_thm4_scan at seed 0, drawn the same way."""
    rng = np.random.default_rng(0)
    disk = ms.Region.disk(0j, 20.0)
    return [disk.sample(rng) for _ in range(1000)]


# z0 = 0 and its signed-zero twins, other -0.0 parts, and large starts: 300
# escalates E_1, 1e5 escalates cosh sqrt z, 1e200 overflows E_0.2 and E_0.5
# with no log-polar value; E_1'(-800) = e^-800 rounds to 0; E_0.2(2.8) is
# about 5e74, and E_0.2 at it has neither a value nor a log|f'|
_EDGE_STARTS = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                complex(-0.0, 0.3), complex(0.5, -0.0), complex(-1.5, -0.0),
                300.0 + 0j, 1e5 + 0j, 1e200 + 0j, -1e200 + 0j, -800.0 + 0j,
                2.8 + 0j]


def _orbit_rows_per_start(f, starts, n):
    """The parent's orbit_table, one iterate_orbit per start, and how each orbit ended."""
    m = len(starts)
    log_mag, log_deriv = np.full((m, n + 1), np.nan), np.full((m, n + 1), np.nan)
    length, logphi = np.zeros(m, dtype=np.int64), np.full(m, np.nan)
    ends = set()
    for i, z0 in enumerate(starts):
        orbit = dy.iterate_orbit(f, z0, n)
        length[i] = orbit.length()
        log_mag[i, :length[i]] = [orbit.log_mag(k) for k in range(length[i])]
        log_deriv[i, :length[i]] = orbit.log_deriv_prefix
        if length[i] > n:
            logphi[i] = dy.log_spherical_derivative(orbit, n)
        if orbit.escalated_at >= 0:
            # an EvalOverflow value is past double range; an escalated one is not
            ends.add("eval_overflow" if orbit.log_points[0][0] > 709.8 else "escalation")
        elif orbit.status == dy.OVERFLOW:
            ends.add("overflow_error")
    return log_mag, log_deriv, length, logphi, ends


@pytest.mark.parametrize("scaled", [False, True], ids=["eta1", "eta_auto"])
@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.75, 1.0, 1.5, 2.0])
def test_orbit_table_bit_identical_to_iterate_orbit(alpha, scaled):
    f = fx.MittagLeffler(alpha, fx.choose_eta(alpha) if scaled else 1.0)
    rs = mittag.switch_radius(alpha)
    beyond = [1.01 * rs * cmath.exp(1j * t) for t in (0.0, 1.0, 2.5, math.pi)]
    starts = _thm4_starts() + _EDGE_STARTS + beyond
    n = 25
    xs = np.array([z.real for z in starts])
    ys = np.array([z.imag for z in starts])
    tab = dy.orbit_table(f, xs, ys, n)
    *want, ends = _orbit_rows_per_start(f, starts, n)
    for got, exp in zip((tab.log_mag, tab.log_deriv, tab.length, tab.logphi), want):
        assert got.dtype == exp.dtype and got.tobytes() == exp.tobytes()
    # each way an orbit can end is in the table; E_alpha's log-polar value
    # only overflows where (1e200)^(1/alpha) leaves double range
    assert {"eval_overflow", "escalation"} <= ends
    assert ("overflow_error" in ends) == (alpha <= 0.5)
    # the contracting eta leaves orbits that run all n steps
    assert not scaled or (tab.length == n + 1).any()
