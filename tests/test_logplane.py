"""Logarithmic change of variable: slow-escape schedules and the backward
orbit construction."""

import math
import os
import pathlib
import random
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

from sphgrow import logplane as lp


def test_schedule_known_values():
    sched = lp.schedule_build(26.0, 8)
    # regression anchors for the first two recurrence steps at x0 = 26
    assert math.isclose(float(sched.x[1]), 13.78797062591687, rel_tol=1e-12)
    assert math.isclose(float(sched.x[2]), 19.96625866810981, rel_tol=1e-12)
    # the first step contracts (x1 < x0, the source of the n=2 gap below);
    # from then on the schedule grows, always within one exponential step
    assert sched.x[1] < sched.x[0]
    for a, b in zip(sched.x[1:], sched.x[2:]):
        assert b > a
    for a, b in zip(sched.x, sched.x[1:]):
        assert b <= mp.exp(a)


def test_schedule_partial_sum_gap_at_n2():
    # the partial-sum inequality fails at n = 2 for every admissible x0:
    # its induction step needs x1 >= x0, but x1 < x0 never holds there.
    sched = lp.schedule_build(26.0, 8)
    assert any("n=2" in note for note in sched.invariant_failures)
    # and holds again once delta(x) has decayed
    assert not any(f"n={k}" in note for note in sched.invariant_failures
                   for k in range(4, 9))


def test_schedule_precondition_names_binding_bound():
    with pytest.raises(ValueError, match=r"^x0=10.0 must exceed 25.132741 "
                                         r"\(binding bound: 8\*pi\)$"):
        lp.schedule_build(10.0, 4)


@pytest.mark.parametrize("x0", [math.inf, math.nan])
def test_schedule_rejects_non_finite_x0(x0):
    # an infinite start would make an all-inf schedule, not a counterexample
    with pytest.raises(ValueError, match=f"^x0={x0} must be finite$"):
        lp.schedule_build(x0, 3)


def test_schedule_rejects_negative_n_max():
    with pytest.raises(ValueError, match="n_max=-1"):
        lp.schedule_build(26.0, -1)


def _schedule_float_operands(x0, n_max):
    """schedule_build as it was first written: float operands in mpf arithmetic."""
    lam_low = 1.0
    with mp.workprec(96):
        x = mp.mpf(x0)
        d = 1.0 / mp.log(x)
        xs = [x]
        fails = []
        partial = mp.mpf(0)
        shave = 1 - mp.mpf(2)**-60
        for n in range(1, n_max + 1):
            grow = lam_low - d if n == 1 else 1.0 + lam_low
            x_n = grow / (1.0 + d) * x
            partial += (lam_low - d) * x
            if partial < (1.0 + d) * x_n * shave:
                fails.append(f"partial-sum inequality at n={n}")
            x, d = x_n, 1.0 / mp.log(x_n)
            xs.append(x)
    return xs, fails


@pytest.mark.parametrize("x0, n_max", [(26.0, 7), (1e6, 2000), (1e6, 10_000)])
def test_schedule_bit_identical_to_float_operands(x0, n_max):
    # mpf operands change no rounding: every float operand converts exactly.
    # (1e6, 10000) is thm3's tier a at its defaults.
    sched = lp.schedule_build(x0, n_max)
    xs, fails = _schedule_float_operands(x0, n_max)
    # schedule_growth_statistic and slow_orbit_construct take mpf entries
    assert all(type(x) is mp.mpf for x in sched.x)
    assert [x._mpf_ for x in sched.x] == [x._mpf_ for x in xs]
    assert sched.invariant_failures == fails


def _schedule_libmp(x0, n_max):
    """schedule_build's loop on mpmath.libmp tuples, verbatim: one libmp
    call per operation at 96 bits, rounding to nearest."""
    lm = mp.libmp
    add, sub, mul, div, log, lt = (lm.mpf_add, lm.mpf_sub, lm.mpf_mul,
                                   lm.mpf_div, lm.mpf_log, lm.mpf_lt)
    prec, rnd = 96, "n"
    one = lm.fone  # also lambda, the growth exponent of h(x) = e^x here
    grow = lm.from_int(2)  # the factor 1 + lambda of every step after the first
    shave = lm.from_man_exp((1 << 60) - 1, -60)  # 1 - 2^-60
    x = mp.mpf(x0, prec=prec, rounding=rnd)._mpf_
    d = div(one, log(x, prec, rnd), prec, rnd)
    xs = [x]
    fails = []
    partial = lm.fzero
    for n in range(1, n_max + 1):
        low, high = sub(one, d, prec, rnd), add(one, d, prec, rnd)
        x_n = mul(div(low if n == 1 else grow, high, prec, rnd), x, prec, rnd)
        partial = add(partial, mul(low, x, prec, rnd), prec, rnd)
        if lt(partial, mul(mul(high, x_n, prec, rnd), shave, prec, rnd)):
            fails.append(f"partial-sum inequality at n={n}")
        x, d = x_n, div(one, log(x_n, prec, rnd), prec, rnd)
        xs.append(x)
    return xs, fails


def _assert_schedule_matches_libmp(x0, n_max):
    sched = lp.schedule_build(x0, n_max)
    xs, fails = _schedule_libmp(x0, n_max)
    assert all(type(x) is mp.mpf for x in sched.x)
    assert [x._mpf_ for x in sched.x] == xs
    assert sched.invariant_failures == fails


# just above the floor, the tests' own starts, a power of two and 1e300,
# whose schedule leaves double range after about 30 steps
_ORACLE_X0 = [lp.X0_FLOOR * (1 + 2.0**-52), 25.2, 26.0, 30.5, 1e6, 1e15,
              2.0**70, 1e300]


@pytest.mark.parametrize("x0", _ORACLE_X0)
def test_schedule_bit_identical_to_libmp_loop(x0):
    assert x0 > lp.X0_FLOOR
    for n_max in (0, 1, 2, 7, 300, 3000):
        _assert_schedule_matches_libmp(x0, n_max)


def test_schedule_bit_identical_to_libmp_loop_at_thm3_default():
    _assert_schedule_matches_libmp(1e6, 10_000)


def test_schedule_bit_identical_to_libmp_loop_random():
    rng = np.random.default_rng(1919)
    lo, hi = math.log(lp.X0_FLOOR), math.log(1e300)
    for _ in range(200):
        x0 = max(math.exp(rng.uniform(lo, hi)), math.nextafter(lp.X0_FLOOR, math.inf))
        _assert_schedule_matches_libmp(x0, int(rng.integers(0, 200)))


def _normal(man, exp):
    """The mpf tuple of man * 2^exp, exact."""
    return mp.libmp.from_man_exp(man, exp)


def test_round96_matches_mpmath_rounding():
    lm, top = mp.libmp, 1 << 95
    cases = [
        ((top + 2) << 5 | 1 << 4, -7),     # a tie, even quotient: stays
        ((top + 3) << 5 | 1 << 4, 3),      # a tie, odd quotient: rounds up
        ((top + 3) << 1 | 1, 0),           # a one-bit tie
        ((top + 2) << 5 | 1 << 4 | 1, 0),  # just past a tie
        ((top + 3) << 5 | (1 << 4) - 1, 9),  # just short of a tie
        (((1 << 96) - 1) << 3 | 4, -200),  # a tie that carries to 2^96
        (((1 << 96) - 1) << 7 | 127, 50),  # a carry past a tie
        ((1 << 96) - 1, 1),                # 96 bits: exact
        (1, -3), (12345, 7), (1 << 200, -5),  # under 96 bits, a power of two
    ]
    rng = random.Random(96)
    for bits in (1, 53, 95, 96, 97, 98, 150, 400):
        for _ in range(200):
            cases.append((rng.getrandbits(bits) | 1 << (bits - 1), rng.randint(-99, 99)))
    for man, exp in cases:
        got = lp._round96(man, exp)
        assert got[0].bit_length() <= 96 or got[0] == 1 << 96
        assert _normal(*got) == lm.from_man_exp(man, exp, 96, "n"), (man, exp)


def test_div96_matches_mpf_div():
    lm = mp.libmp
    cases = [(1, 0, 3, 0), (3, 0, 1, 0), (1, 0, 1 << 80, -7), (6, 5, 3, 2),
             ((1 << 96) - 1, 0, 1, 0), ((1 << 96) + 1, 0, 1, 0),  # exact
             ((1 << 200) + 1, 0, 3, 0), (7, 0, (1 << 150) - 1, 0),
             (1, 0, lm.mpf_log(lm.from_int(10 ** 6), 96, "n")[1], -93)]
    rng = random.Random(98)
    for _ in range(2000):
        a, b = (rng.getrandbits(rng.randint(1, 150)) | 1 for _ in range(2))
        cases.append((a, rng.randint(-50, 50), b, rng.randint(-50, 50)))
        cases.append((a * b, 3, b, -4))  # an exact quotient
    for am, ae, bm, be in cases:
        want = lm.mpf_div(_normal(am, ae), _normal(bm, be), 96, "n")
        assert _normal(*lp._div96(am, ae, bm, be)) == want, (am, ae, bm, be)


def test_growth_statistic_tends_to_log2():
    sched = lp.schedule_build(1e6, 1200)
    stat = lp.schedule_growth_statistic(sched, 1000)
    assert abs(float(stat) - math.log(2.0)) < 5e-3


def _ends(x):
    """The ends of an mpmath.iv real interval, as mpf."""
    return tuple(mp.make_mpf(t) for t in x._mpi_)


def test_slow_orbit_tracks_schedule():
    sched = lp.schedule_build(26.0, 7)
    trace = lp.slow_orbit_construct(1.0, sched)
    assert trace.length() == 7
    for box, x in zip(trace.boxes, sched.x):
        assert all(abs(end - x) <= lp.FOUR_PI for end in _ends(box.real))
    assert trace.precision_bits == 256


def test_slow_orbit_keeps_the_requested_precision():
    # no precision grows with the targets; the point pullback needed 6,010 bits here
    sched = lp.schedule_build(26.0, 12)
    assert lp.slow_orbit_construct(1.0, sched).precision_bits == lp.PRECISION_BITS == 256


def test_slow_orbit_far_past_the_point_pullback():
    # n_max = 100 would have needed 5e28 bits; the boxes stay narrow at
    # 256, and the statistic dips to 0.5570 at n = 20, above log 2 - 0.15
    sched = lp.schedule_build(26.0, 100)
    trace = lp.slow_orbit_construct(1.0, sched)
    for box, x in zip(trace.boxes, sched.x):
        lo, hi = _ends(box.real)
        assert hi - lo <= 1e-40 and abs(lo - x) <= lp.FOUR_PI
    stat = math.log(lp.log_sph_deriv_from_logplane(trace, 20)) / 20
    assert 0.556 < stat < 0.558


def test_slow_orbit_rejects_a_target_past_the_tract():
    # x_1 = 10^12 > e^26: no branch of level 0 reaches it
    sched = lp.SlowEscapeSchedule(x=[mp.mpf(26), mp.mpf(10) ** 12])
    message = r"^target x_1=1000000000000\.000 exceeds e\^x_0$"
    with pytest.raises(lp.ScheduleInfeasible, match=message):
        lp.slow_orbit_construct(1.0, sched)


def test_slow_orbit_derivative_statistic():
    sched = lp.schedule_build(26.0, 7)
    trace = lp.slow_orbit_construct(1.0, sched)
    n = 7
    log_phi = lp.log_sph_deriv_from_logplane(trace, n)
    stat = math.log(log_phi) / n
    assert stat >= math.log(2.0) - 0.15


def _point_bits(xs):
    """The bits of the point pullback: 1.45 (x_0 + ... + x_(n-1)) + 64, at
    least 256."""
    return max(256, int(1.5 * float(max(xs))) + 64,
               int(1.45 * float(mp.fsum(xs[:-1]))) + 64)


def _slow_orbit_mp(lam, schedule):
    """slow_orbit_construct as it was before the interval pullback, verbatim
    but for its error checks: a point pullback at _point_bits, then a
    forward run at twice that.  Returns the base point u, the floats
    Re F^j(u) and the bits."""
    xs = schedule.x
    n_max = len(xs) - 1
    internal = _point_bits(xs)
    with mp.workprec(internal):
        log_lam = mp.log(mp.mpc(lam))
        two_pi = 2 * mp.pi
        w = mp.mpc(xs[n_max], 0)
        for j in range(n_max - 1, -1, -1):
            a = w - log_lam
            big = mp.exp(xs[j])
            s = mp.sqrt(big * big - a.real * a.real)
            m = mp.nint((s - a.imag) / two_pi)
            w = mp.log(mp.mpc(a.real, a.imag + two_pi * m))
        u = w
    with mp.workprec(2 * internal):
        v = mp.mpc(u)
        log_lam = mp.log(mp.mpc(lam))
        re_F = [float(v.real)]
        for _ in range(n_max):
            v = mp.exp(v) + log_lam
            re_F.append(float(v.real))
    return u, re_F, internal


def _log_sph_deriv_mp(u, re_F, n):
    """log_sph_deriv_from_logplane's formula on _slow_orbit_mp's floats."""
    return sum(re_F[:n]) - math.log(2.0) - float(u.real) - re_F[n]


@pytest.mark.parametrize("n_max", range(2, 13))
def test_slow_orbit_bound_matches_point_pullback(n_max):
    # n_max = 12 is where the point pullback needs 6,010 bits
    sched = lp.schedule_build(26.0, n_max)
    trace = lp.slow_orbit_construct(1.0, sched)
    u, re_F, _ = _slow_orbit_mp(1.0, sched)
    for n in range(1, n_max + 1):
        assert math.isclose(lp.log_sph_deriv_from_logplane(trace, n),
                            _log_sph_deriv_mp(u, re_F, n), rel_tol=1e-12)


@pytest.mark.parametrize("n_max", [5, 7, 12])
def test_slow_orbit_forward_run_stays_in_boxes(monkeypatch, n_max):
    # the forward check the point pullback ran, kept here: from box_0's
    # midpoint at _point_bits plus the boxes' own 256 bits, so the run
    # resolves Re F^j(u) finer than a box, Re F^j stays inside every box
    # and within 4 pi of x_j.  The top box is the point x_n, so one unit
    # of 256 bits is allowed at each end.
    sched = lp.schedule_build(26.0, n_max)
    boxes = lp.slow_orbit_construct(1.0, sched).boxes
    bits = _point_bits(sched.x) + 256
    monkeypatch.setattr(lp, "PRECISION_BITS", bits)
    base = lp.slow_orbit_construct(1.0, sched).boxes[0]
    with mp.workprec(bits):
        v = mp.mpc(*(sum(_ends(part)) / 2 for part in (base.real, base.imag)))
        for j, (box, x) in enumerate(zip(boxes, sched.x)):
            lo, hi = _ends(box.real)
            slack = x * 2.0 ** -256
            assert lo - slack <= v.real <= hi + slack, j
            assert abs(v.real - x) <= lp.FOUR_PI, j
            v = mp.exp(v)  # F(w) = e^w + log 1


def test_harnack():
    rep = lp.harnack_check(samples=2000, seed=3)
    assert rep["passed"]
    assert rep["axis_equality_gap"] <= 1e-9


def test_cli_import_does_not_load_mpmath():
    # every CLI start pays for the modules it imports; mpmath loads only
    # when a logplane function runs
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, sphgrow.cli, sphgrow.experiments; "
            "print('mpmath' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
