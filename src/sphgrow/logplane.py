"""Logarithmic change of variable for f(z) = lam * e^z.

Work happens in the w-plane where F(w) = e^w + log(lam) satisfies
exp(F(w)) = f(e^w).  Provides the slow-escape target schedule, the backward
orbit hitting those targets as a chain of mpmath.iv boxes (one pullback
through inverse branches of F, at a fixed precision), and the certified
lower bounds on log (f^n)^# read off the boxes.  Each function imports
mpmath itself, so importing the CLI does not load it.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

LOG_96PI = math.log(96.0 * math.pi)
FOUR_PI = 4.0 * math.pi
X0_FLOOR = 8.0 * math.pi  # smallest schedule start; above e^2, so delta(x0) < 1/2
PRECISION_BITS = 256  # of every box; 128 sufficed in a probe out to n = 10,000


class ScheduleInfeasible(Exception):
    """A backward target cannot be reached inside the tract."""


# ---------------------------------------------------------------------------
# schedule


@dataclass
class SlowEscapeSchedule:
    x: list                      # mpf values, length n_max + 1
    invariant_failures: list = field(default_factory=list)

    def __len__(self):
        return len(self.x)


def _round96(man: int, exp: int) -> tuple:
    """man * 2^exp (man > 0) rounded to 96 bits, to nearest with ties to even."""
    shift = man.bit_length() - 96
    if shift <= 0:
        return man, exp
    half = 1 << (shift - 1)
    rest, man = man & (2 * half - 1), man >> shift
    if rest > half or (rest == half and man & 1):
        man += 1  # a carry to 2^96 is still exact
    return man, exp + shift


def _div96(am: int, ae: int, bm: int, be: int) -> tuple:
    """(am 2^ae) / (bm 2^be) rounded as _round96 rounds: a quotient of at
    least 98 bits whose last bit is set when the division is inexact."""
    shift = max(0, 98 + bm.bit_length() - am.bit_length())
    q, r = divmod(am << shift, bm)
    return _round96(q | (r != 0), ae - be - shift)


def schedule_build(x0: float, n_max: int) -> SlowEscapeSchedule:
    """Targets x_{n+1} = (1+lambda) x_n / (1 + delta(x_n)), delta = 1/log x.

    The first step is x_1 = (lambda - delta(x_0)) x_0 / (1 + delta(x_0)).
    Each step also checks the partial-sum inequality.  No step can break
    x_n <= e^(x_{n-1}): it multiplies by at most 2/(1+delta) < 2, and
    2x < e^x for every real x.

    Values are positive (man, exp) Python ints, man * 2^exp, and every
    operation rounds its exact result once to 96 bits, to nearest: the
    bits of mpf arithmetic at workprec(96), which rounds correctly.  Only
    the logarithm is mpmath's (mpf_log at 96 bits, as mp.log of an mpf
    makes it), fed the canonical (0, man, exp, bc) tuple of x_n that the
    returned mpf wraps.
    """
    import mpmath as mp
    if not math.isfinite(x0):
        raise ValueError(f"x0={x0} must be finite")
    if not x0 > X0_FLOOR:
        raise ValueError(
            f"x0={x0} must exceed {X0_FLOOR:.6f} (binding bound: 8*pi)")
    if n_max < 0:
        raise ValueError(f"n_max={n_max} must be >= 0")

    def recip_log(t):
        return _div96(1, 0, *mp.libmp.mpf_log(t, 96, "n")[1:3])

    t = mp.mpf(x0, prec=96, rounding="n")._mpf_
    _, xm, xe, _ = t
    dm, de = recip_log(t)
    # mp.make_mpf wraps a tuple as is; mp.mpf(tuple) would round it to the
    # context precision, 53 bits outside workprec
    xs, fails, pm, pe = [mp.make_mpf(t)], [], 0, 0  # pm 2^pe: the partial sum
    for n in range(1, n_max + 1):
        one = 1 << -de  # d = 1/log x < 1/3, so de < 0
        (lm, le), (hm, he) = _round96(one - dm, de), _round96(one + dm, de)
        # lambda = 1: x_1 = (lambda - d) x_0 / (1 + d), then the factor is (1 + lambda) / (1 + d)
        qm, qe = _div96(lm, le, hm, he) if n == 1 else _div96(2, 0, hm, he)
        nm, ne = _round96(qm * xm, qe + xe)
        am, ae = _round96(lm * xm, le + xe)
        e = min(pe, ae)
        pm, pe = _round96((pm << (pe - e)) + (am << (ae - e)), e)
        bm, be = _round96(hm * nm, he + ne)
        bm, be = _round96(bm * ((1 << 60) - 1), be - 60)  # times 1 - 2^-60
        e = min(pe, be)
        if pm << (pe - e) < bm << (be - e):
            fails.append(f"partial-sum inequality at n={n}")
        z = (nm & -nm).bit_length() - 1  # canonical: an odd mantissa
        xm, xe = nm >> z, ne + z
        t = (0, xm, xe, xm.bit_length())
        dm, de = recip_log(t)
        xs.append(mp.make_mpf(t))
    return SlowEscapeSchedule(x=xs, invariant_failures=fails)


def schedule_growth_statistic(schedule: SlowEscapeSchedule, n: int) -> float:
    """(1/n) log of the schedule-level log (f^n)^# lower bound.

    Uses the pessimistic product bound: log |(F^n)'| >= sum x_j - n*(4*pi
    + log(96*pi)); then subtracts log 2, log|z| ~ x_0, and Re F^n ~ x_n.
    """
    import mpmath as mp
    if not 1 <= n < len(schedule.x):
        raise ValueError("n out of schedule range")
    with mp.workprec(96):
        total = mp.fsum(schedule.x[:n])
        log_bound = (total - n * (FOUR_PI + LOG_96PI)
                     - mp.log(2) - schedule.x[0] - schedule.x[n])
        if log_bound <= 0:
            return -math.inf
        return float(mp.log(log_bound) / n)


# ---------------------------------------------------------------------------
# orbit construction


@contextlib.contextmanager
def _iv_at():
    """mpmath.iv at PRECISION_BITS, restored on exit (iv has no workprec)."""
    import mpmath as mp
    saved, mp.iv.prec = mp.iv.prec, PRECISION_BITS
    try:
        yield mp.iv
    finally:
        mp.iv.prec = saved


@dataclass
class SlowOrbitTrace:
    boxes: list                  # iv.mpc: Re F^j(u) lies in Re boxes[j], j = 0..n_max
    precision_bits: int

    def length(self) -> int:
        return len(self.boxes) - 1


def slow_orbit_construct(lam: complex, schedule: SlowEscapeSchedule) -> SlowOrbitTrace:
    """Boxes around a backward orbit whose Re F^j(u) hit the schedule within 4*pi.

    From the point x_n, level j pulls the box above back through
    G_j(w) = Log(w - log lam + 2*pi*i*m_j), with m_j the branch that puts
    |e^{G_j}| nearest e^{x_j} on the positive-imaginary side of strip 0.
    F(G_j(w)) = w + 2*pi*i*m_j and F has period 2*pi*i, so Re F^j(u) lies in
    Re boxes[j] for the base point u that the chain reaches.  Any integer m_j
    is a branch, so m_j may be rounded, and every box is at PRECISION_BITS.
    """
    import mpmath as mp
    if lam == 0:
        raise ValueError("lam must be nonzero")
    xs = schedule.x
    with _iv_at() as iv:
        log_lam = iv.log(iv.mpc(lam.real, lam.imag))  # mpmath 1.3: no iv.mpc(complex)
        two_pi = 2 * iv.pi
        boxes = [iv.mpc(xs[-1], 0)]   # topmost point: real axis, Re = x_n
        for j in range(len(xs) - 2, -1, -1):
            a = boxes[-1] - log_lam   # need e^{w_j} = a + 2*pi*i*m_j
            big = iv.exp(xs[j])
            if not abs(a.real) < big:
                raise ScheduleInfeasible(
                    f"target x_{j+1}={float(xs[j+1]):.3f} exceeds e^x_{j}")
            q = (iv.sqrt(big * big - a.real * a.real) - a.imag) / two_pi
            m = iv.mpf(mp.make_mpf(mp.libmp.mpf_nint(q.mid._mpi_[0])))  # an exact integer
            T = a + iv.mpc(0, two_pi * m)
            if not T.imag > 0:
                raise ScheduleInfeasible(f"no positive-side branch at level {j}")
            boxes.append(iv.log(T))   # principal: lands in strip 0, Im in (0, pi/2)
    return SlowOrbitTrace(boxes=boxes[::-1], precision_bits=PRECISION_BITS)


def _bound_lower_end(trace: SlowOrbitTrace, n: int) -> tuple:
    """Certified lower bound on log (f^n)^#(e^u) from the trace, as the mpf
    tuple of an interval's lower end (any exponent).

    log (f^n)^# >= log|(F^n)'(u)| - log 2 - log|z| - Re F^n(u), and for this
    family |F'(w)| = e^{Re w} exactly, so log|(F^n)'| = sum_{j<n} Re F^j(u).
    Summed in intervals of the boxes' real parts, which adds their lower ends
    and subtracts their upper ends.
    """
    if not 1 <= n <= trace.length():
        raise ValueError("n past trace length")
    re = [box.real for box in trace.boxes]
    with _iv_at() as iv:
        bound = sum(re[:n]) - iv.log(2) - re[0] - re[n]
    return bound._mpi_[0]


def log_sph_deriv_statistic(trace: SlowOrbitTrace, n: int) -> float:
    """(1/n) log of _bound_lower_end's bound, -inf where the bound is at
    most 1.  Where the bound fits a double it is rounded down to a float and
    its log taken there; past double range the log is taken in intervals
    from the bound itself and rounded down, so the statistic stays a finite
    lower bound at any n."""
    import mpmath as mp
    lo = _bound_lower_end(trace, n)
    bound = mp.libmp.to_float(lo, rnd="f")
    if bound != math.inf:
        return math.log(bound) / n if bound > 1.0 else -math.inf
    with _iv_at() as iv:
        stat = iv.log(iv.mpf(mp.make_mpf(lo))) / n
    return mp.libmp.to_float(stat._mpi_[0], rnd="f")


# ---------------------------------------------------------------------------
# Harnack (positive harmonic functions on the disk)


def harnack_check(samples: int = 10_000, seed: int = 0) -> dict:
    """(1-r)/(1+r) <= u(z)/u(0) <= (1+r)/(1-r) for u = Re (1+z)/(1-z)."""
    rng = np.random.default_rng(seed)
    rs = rng.uniform(0.0, 0.99, samples)
    ths = rng.uniform(0.0, 2.0 * math.pi, samples)
    z = rs * np.exp(1j * ths)
    u = ((1 + z) / (1 - z)).real  # u(0) = 1
    lo = (1 - rs) / (1 + rs)
    hi = (1 + rs) / (1 - rs)
    ok = bool(np.all((u >= lo - 1e-12) & (u <= hi + 1e-12)))
    # equality is attained on the real axis: u(r) hits the upper bound,
    # u(-r) the lower bound
    r_ax = 0.9
    u_pos = ((1 + (r_ax + 0j)) / (1 - (r_ax + 0j))).real
    u_neg = ((1 + (-r_ax + 0j)) / (1 - (-r_ax + 0j))).real
    axis_gap = max(abs((1 + r_ax) / (1 - r_ax) - u_pos),
                   abs((1 - r_ax) / (1 + r_ax) - u_neg))
    return {"samples": samples, "all_bounded": ok,
            "axis_equality_gap": float(axis_gap),
            "passed": ok and axis_gap <= 1e-9}
