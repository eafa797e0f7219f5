"""Logarithmic change of variable for f(z) = lam * e^z.

Work happens in the w-plane where F(w) = e^w + log(lam) satisfies
exp(F(w)) = f(e^w).  Provides the slow-escape target schedule, the
extended-precision backward orbit construction hitting those targets,
and the resulting certified lower bounds on log (f^n)^#.

Everything precision-critical runs through mpmath: once a target x_j
exceeds ~36 the quantity e^{x_j} cannot be reduced mod 2*pi in doubles,
and the backward-constructed base point needs on the order of
1.45 * sum(x_j) mantissa bits to survive forward verification.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

LOG_96PI = math.log(96.0 * math.pi)
FOUR_PI = 4.0 * math.pi


class PrecisionExhausted(Exception):
    """Forward verification could not resolve imaginary parts mod 2*pi."""


class ScheduleInfeasible(Exception):
    """A backward target cannot be reached inside the tract."""


# ---------------------------------------------------------------------------
# tract


@dataclass(frozen=True)
class LogTract:
    lam: complex
    alpha_cutoff: float = 0.0

    def __post_init__(self):
        if self.lam == 0:
            raise ValueError("lam must be nonzero")

    @property
    def log_lam(self) -> complex:
        return complex(mp.log(mp.mpc(self.lam)))

    def F_double(self, w: complex) -> complex:
        z = complex(w)
        return complex(math.exp(z.real) * math.cos(z.imag),
                       math.exp(z.real) * math.sin(z.imag)) + self.log_lam

    def F_prime_double(self, w: complex) -> complex:
        z = complex(w)
        return complex(math.exp(z.real) * math.cos(z.imag),
                       math.exp(z.real) * math.sin(z.imag))


def pullback(v: complex) -> complex:
    """Exact inverse on log-polar targets: G(L, theta) = L + i*theta."""
    return complex(math.log(abs(v)), math.atan2(v.imag, v.real))


def tract_invariant_report(tract: LogTract, samples: int = 100,
                           seed: int = 0) -> dict:
    """Check 2*pi*i periodicity of F and exp(F(w)) == f(e^w)."""
    rng = np.random.default_rng(seed)
    ws = rng.uniform(0.2, 3.0, samples) + 1j * rng.uniform(-1.4, 1.4, samples)
    worst_periodic = 0.0
    worst_semiconj = 0.0
    for w in ws:
        a = tract.F_double(w)
        b = tract.F_double(w + 2j * math.pi)
        worst_periodic = max(worst_periodic, abs(a - b) / max(abs(a), 1.0))
        lhs = np.exp(a)
        rhs = tract.lam * np.exp(np.exp(w))
        worst_semiconj = max(worst_semiconj, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    return {"samples": samples,
            "max_periodicity_error": float(worst_periodic),
            "max_semiconjugacy_error": float(worst_semiconj),
            "passed": worst_periodic < 1e-12 and worst_semiconj <= 1e-10}


def el_inequality_check(tract: LogTract, samples: int = 1000,
                        seed: int = 0) -> dict:
    """Expansion estimate |F'(w)| >= Re F(w) / (4*pi) on the base strip."""
    if samples < 100:
        raise ValueError("samples must be >= 100")
    rng = np.random.default_rng(seed)
    ws = rng.uniform(0.0, 6.0, samples) + 1j * rng.uniform(
        -math.pi / 2, math.pi / 2, samples)
    min_ratio = math.inf
    used = 0
    for w in ws:
        re_F = tract.F_double(w).real
        if re_F <= 0.0:
            continue
        used += 1
        ratio = abs(tract.F_prime_double(w)) * FOUR_PI / re_F
        min_ratio = min(min_ratio, ratio)
    return {"samples": samples, "used": used,
            "min_ratio": float(min_ratio),
            "passed": used > 0 and min_ratio >= 1.0}


# ---------------------------------------------------------------------------
# schedule


@dataclass
class SlowEscapeSchedule:
    x: list                      # mpf values, length n_max + 1
    invariant_failures: list = field(default_factory=list)

    def __len__(self):
        return len(self.x)


def schedule_build(tract: LogTract, x0: float, n_max: int) -> SlowEscapeSchedule:
    """Targets x_{n+1} = (1+lambda) x_n / (1 + delta(x_n)), delta = 1/log x.

    The first step is x_1 = (lambda - delta(x_0)) x_0 / (1 + delta(x_0)).
    Each step also checks the partial-sum inequality and x_n <= e^(x_{n-1})
    (as log x_n <= x_{n-1}, reusing the log the next step needs).
    """
    lam_low = 1.0  # growth exponent of h(x) = e^x for the exponential family
    floor = max(tract.alpha_cutoff, 8.0 * math.pi, math.e**2)
    if not x0 > floor:
        which = max((tract.alpha_cutoff, "alpha_cutoff"),
                    (8.0 * math.pi, "8*pi"), (math.e**2, "e^2"))
        raise ValueError(
            f"x0={x0} must exceed {which[0]:.6f} (binding bound: {which[1]})")
    if n_max < 0:
        raise ValueError(f"n_max={n_max} must be >= 0")
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
            log_x = mp.log(x_n)
            if log_x > x:
                fails.append(f"x_{n} > e^x_{n-1}")
            x, d = x_n, 1.0 / log_x
            xs.append(x)
    return SlowEscapeSchedule(x=xs, invariant_failures=fails)


def schedule_growth_statistic(schedule: SlowEscapeSchedule, n: int) -> float:
    """(1/n) log of the schedule-level log (f^n)^# lower bound.

    Uses the pessimistic product bound: log |(F^n)'| >= sum x_j - n*(4*pi
    + log(96*pi)); then subtracts log 2, log|z| ~ x_0, and Re F^n ~ x_n.
    """
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


@dataclass
class SlowOrbitTrace:
    u: object                    # mpc base point at working precision
    steps: list                  # dicts: n, x_target, re_F_n, strip, angular_offset_log
    re_F: list                   # float Re F^j(u), j = 0..n_max
    log_F_deriv_partial: list    # float sum_{j<n} Re F^j(u), n = 0..n_max
    precision_bits: int

    def length(self) -> int:
        return len(self.steps)

    def to_json(self) -> str:
        return json.dumps({
            "precision_bits": self.precision_bits,
            "u": [mp.nstr(self.u.real, 30), mp.nstr(self.u.imag, 30)],
            "steps": self.steps}, sort_keys=True, indent=1)


def slow_orbit_construct(tract: LogTract, schedule: SlowEscapeSchedule,
                         precision_bits: int) -> SlowOrbitTrace:
    """Backward orbit whose forward Re F^n hit the schedule within 4*pi.

    Each level solves |e^{w_j}| = e^{x_j} with F(w_j) = w_{j+1} + 2*pi*i*m,
    branch fixed to the positive-imaginary side of strip 0.  The base point
    is then verified forward at twice the working precision.
    """
    if precision_bits < 53:
        raise ValueError("precision_bits must be at least 53")
    xs = schedule.x
    n_max = len(xs) - 1
    max_x = float(max(xs))
    # argument reduction of e^{x_j} mod 2*pi needs ~1.5*max(x)+64 bits, and
    # forward phase errors grow like e^{sum x_j}; the requested precision is
    # treated as a floor and raised internally as needed (recorded in the trace)
    internal = max(precision_bits, int(1.5 * max_x) + 64,
                   int(1.45 * float(mp.fsum(xs[:n_max]))) + 64)
    with mp.workprec(internal):
        log_lam = mp.log(mp.mpc(tract.lam))
        two_pi = 2 * mp.pi
        w = mp.mpc(xs[n_max], 0)      # topmost point: real axis, Re = x_n
        ws = [w]
        for j in range(n_max - 1, -1, -1):
            a = w - log_lam           # need e^{w_j} = a + 2*pi*i*m
            big = mp.exp(xs[j])
            if abs(a.real) >= big:
                raise ScheduleInfeasible(
                    f"target x_{j+1}={float(xs[j+1]):.3f} exceeds e^x_{j}")
            s = mp.sqrt(big * big - a.real * a.real)
            m = mp.nint((s - a.imag) / two_pi)
            T = mp.mpc(a.real, a.imag + two_pi * m)
            if T.imag <= 0:
                raise ScheduleInfeasible(f"no positive-side branch at level {j}")
            w = mp.log(T)             # principal: lands in strip 0, Im in (0, pi/2)
            ws.append(w)
        ws.reverse()
        u = ws[0]

    # forward verification at doubled precision
    with mp.workprec(2 * internal):
        v = mp.mpc(u)
        log_lam = mp.log(mp.mpc(tract.lam))
        re_F = [float(v.real)]
        steps = []
        for n in range(1, n_max + 1):
            v = mp.exp(v) + log_lam
            re_F.append(float(v.real))
            err = abs(re_F[n] - float(xs[n]))
            if err > FOUR_PI:
                raise PrecisionExhausted(
                    f"|Re F^{n}(u) - x_{n}| = {err:.3e} > 4*pi; "
                    f"raise precision_bits (used {internal})")
            offs = float(mp.log(mp.pi / 2 - abs(ws[n].imag))) \
                if abs(ws[n].imag) < mp.pi / 2 else -math.inf
            steps.append({"n": n, "x_target": float(xs[n]),
                          "re_F_n": re_F[n], "strip": 0,
                          "angular_offset_log": offs})
    partial = [0.0]
    acc = 0.0
    for r in re_F:
        acc += r
        partial.append(acc)
    return SlowOrbitTrace(u=u, steps=steps, re_F=re_F,
                          log_F_deriv_partial=partial[:n_max + 1],
                          precision_bits=internal)


def log_sph_deriv_from_logplane(tract: LogTract, trace: SlowOrbitTrace,
                                n: int) -> float:
    """Certified lower bound on log (f^n)^#(e^u) from the trace.

    log (f^n)^# >= log|(F^n)'(u)| - log 2 - log|z| - Re F^n(u), and for this
    family |F'(w)| = e^{Re w} exactly, so log|(F^n)'| = sum_{j<n} Re F^j(u).
    """
    if not 1 <= n <= trace.length():
        raise ValueError("n past trace length")
    log_abs_z = float(trace.u.real)
    return (trace.log_F_deriv_partial[n] - math.log(2.0)
            - log_abs_z - trace.re_F[n])


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
