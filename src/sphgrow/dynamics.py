"""Forward orbits, Lyapunov estimators, periodic points, fast escape.

Orbits run in rectangular coordinates while representable, then escalate
to log-polar continuation (exact for the exponential family, leading-term
for polynomials).  The chain rule is tracked as a running sum of
log|f'(z_j)| so that log (f^n)^# stays finite far past double overflow.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import functions as fx
from .towers import TowerReal

ESCALATION_THRESHOLD = 1e100

COMPLETE = "complete"
ESCALATED = "escalated"
OVERFLOW = "overflow"


class NoConvergence(Exception):
    pass


class DerivativeSingular(Exception):
    pass


@dataclass
class OrbitRecord:
    start: complex
    points: list  # rectangular z_0..z_m while representable
    log_points: list  # (log_mag, arg) continuation entries after escalation
    log_deriv_prefix: list  # entry n: sum_{j<n} log|f'(z_j)| = log|(f^n)'(z_0)|
    status: str
    escalated_at: int = -1
    overflow_at: int = -1

    def length(self) -> int:
        """Number of orbit points with known magnitude (steps + 1)."""
        return len(self.points) + len(self.log_points)

    def log_mag(self, n: int) -> float:
        """log|z_n|; defined for n < length()."""
        if n < len(self.points):
            z = self.points[n]
            return math.log(abs(z)) if z != 0 else -math.inf
        return self.log_points[n - len(self.points)][0]


def _log_abs_derivative(f, z: complex) -> float:
    try:
        d = fx.derivative_f(f, z)
    except fx.EvalOverflow as e:
        return e.log_mag
    if d == 0:
        return f.log_abs_derivative_underflow(z)
    return math.log(abs(d))


def iterate_orbit(f, z0: complex, n_max: int) -> OrbitRecord:
    """Orbit of z0 under f for n_max steps with log-polar escalation."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    z0 = complex(z0)
    points = [z0]
    log_points = []
    prefix = [0.0]
    status = COMPLETE
    escalated_at = -1
    overflow_at = -1
    mode_rect = True
    cur = z0
    cur_lp = None
    for n in range(n_max):
        nxt = None
        try:
            if mode_rect:
                logd = _log_abs_derivative(f, cur)
                try:
                    nxt = fx.eval_f(f, cur)
                except fx.EvalOverflow as e:
                    nxt_lp = (e.log_mag, e.arg)
            else:
                logd = f.log_abs_derivative_polar(*cur_lp)
                nxt_lp = fx.log_eval(f, cur_lp)
        except (OverflowError, fx.OrbitOverflow):
            # no value, not even a log-polar one: the orbit ends here
            status = OVERFLOW
            overflow_at = n
            break
        prefix.append(prefix[-1] + logd)
        if nxt is not None and abs(nxt) <= ESCALATION_THRESHOLD:
            points.append(nxt)
            cur = nxt
            continue
        if nxt is not None:
            nxt_lp = (math.log(abs(nxt)), cmath.phase(nxt))
        log_points.append(nxt_lp)
        cur_lp = nxt_lp
        if mode_rect:
            # escalate to log-polar continuation
            mode_rect = False
            escalated_at = n + 1
            status = ESCALATED
            if not f.log_continuation:
                # next point recorded, but no way to iterate further
                if n + 1 < n_max:
                    status = OVERFLOW
                    overflow_at = n + 1
                break
    return OrbitRecord(start=z0, points=points, log_points=log_points,
                       log_deriv_prefix=prefix, status=status,
                       escalated_at=escalated_at, overflow_at=overflow_at)


def orbit_table(f, xs, ys, n: int):
    """(log|z_k| table, log (f^n)^#) over start points, one iterate_orbit each;
    NaN past an orbit's end, and for log (f^n)^# where the orbit ends first."""
    table = np.full((xs.size, n + 1), np.nan)
    logphi = np.full(xs.size, np.nan)
    for i in range(xs.size):
        orbit = iterate_orbit(f, complex(xs[i], ys[i]), n)
        table[i, :orbit.length()] = [orbit.log_mag(k) for k in range(orbit.length())]
        if orbit.length() > n:
            logphi[i] = log_spherical_derivative(orbit, n)
    return table, logphi


def log_spherical_derivative(orbit: OrbitRecord, n: int) -> float:
    """log (f^n)^#(z_0) = log|(f^n)'| - log(1 + |z_n|^2)."""
    if n >= len(orbit.log_deriv_prefix) or n >= orbit.length():
        raise IndexError(f"orbit data ends before n={n}")
    lm = orbit.log_mag(n)
    if lm > 350.0:
        den = 2.0 * lm
    elif lm == -math.inf:
        den = 0.0
    else:
        den = math.log1p(math.exp(2.0 * lm))
    return orbit.log_deriv_prefix[n] - den


@dataclass
class LyapunovEstimate:
    horizon: int
    upper: float
    lower: float
    per_n: list
    truncated: bool = False


def lyapunov_estimate(f, z0: complex, N: int) -> LyapunovEstimate:
    """Finite-horizon Lyapunov surrogates from (1/n) log (f^n)^#.

    Only n >= N/2 enter the max/min, damping transients.
    """
    if N < 4:
        raise ValueError("N must be >= 4")
    orbit = iterate_orbit(f, z0, N)
    avail = min(N, orbit.length() - 1, len(orbit.log_deriv_prefix) - 1)
    if avail < 2:
        raise ValueError("orbit dies before step 2; no estimate")
    per_n = []
    for n in range(1, avail + 1):
        per_n.append(log_spherical_derivative(orbit, n) / n)
    window = [v for n, v in enumerate(per_n, start=1) if n >= N / 2.0]
    if not window:
        window = per_n
    return LyapunovEstimate(horizon=N, upper=max(window), lower=min(window),
                            per_n=per_n, truncated=avail < N)


@dataclass
class PeriodicPoint:
    location: complex
    period: int
    multiplier: complex
    lyapunov: float  # log|multiplier| / period


def _cycle_data(f, z: complex, p: int) -> tuple:
    """(f^p(z), (f^p)'(z)) by the chain rule; None on overflow."""
    w = z
    deriv = 1.0 + 0.0j
    for _ in range(p):
        try:
            deriv *= fx.derivative_f(f, w)
            w = fx.eval_f(f, w)
        except fx.EvalOverflow:
            return None, None
    return w, deriv


def find_periodic_point(f, p: int, seed: complex) -> PeriodicPoint:
    """Newton's method on f^p(z) - z from seed (plus perturbed restarts)."""
    if not 1 <= p <= 8:
        raise ValueError("period must be in [1, 8]")
    seeds = [complex(seed)]
    for k in range(20):
        ang = 2.0 * math.pi * k / 20.0
        seeds.append(complex(seed) + 0.3 * cmath.exp(1j * ang))
    for s in seeds:
        z = s
        for _ in range(200):
            w, dw = _cycle_data(f, z, p)
            if w is None:
                break
            g = w - z
            if abs(g) <= 1e-10 * (1.0 + abs(z)):
                return _finish_periodic(f, z, p)
            denom = dw - 1.0
            if abs(denom) < 1e-300:
                raise DerivativeSingular(f"Newton denominator ~0 at {z}")
            z = z - g / denom
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                break
    raise NoConvergence(f"no period-{p} point found from seed {seed}")


def _finish_periodic(f, z: complex, p: int) -> PeriodicPoint:
    """Polish, detect the true period, and package the cycle data."""
    # detect proper divisors of p that already close the cycle
    true_p = p
    for q in range(1, p):
        if p % q == 0:
            w, _ = _cycle_data(f, z, q)
            if w is not None and abs(w - z) <= 1e-8 * (1.0 + abs(z)):
                true_p = q
                break
    _, mult = _cycle_data(f, z, true_p)
    chi = math.log(abs(mult)) / true_p if mult != 0 else -math.inf
    return PeriodicPoint(location=z, period=true_p, multiplier=mult, lyapunov=chi)


def fast_escaping_test(f, z0: complex, R: float, l_max: int, n_max: int,
                       table: "fx.MaxModulusTable" = None):
    """Smallest l with |f^n(z0)| > M^(n-l)(R,f) strictly for all l <= n <= n_max.

    Returns (member, l, failures) where failures maps each tried l to the
    first violating n.  Comparisons are TowerReal, so they remain exact far
    beyond double range.  Real nonnegative orbits of a positive-lambda
    exponential iterate exactly in tower form; other orbits contribute as
    far as their log-polar continuation reaches, and undeterminable steps
    count as failures.
    """
    if table is None:
        table = fx.iterated_max_modulus(f, R, n_max)
    mags = _orbit_towers(f, z0, n_max)
    failures = {}
    for l in range(0, l_max + 1):
        ok = True
        for n in range(l, n_max + 1):
            if n >= len(mags) or mags[n] is None or not mags[n] > table.log_levels[n - l]:
                failures[l] = n
                ok = False
                break
        if ok:
            return True, l, failures
    return False, None, failures


def _orbit_towers(f, z0: complex, n_max: int) -> list:
    """|z_n| as TowerReal for n = 0..n_max (None where undeterminable)."""
    z0 = complex(z0)
    if f.orbit_follows_max_modulus(z0):
        # the orbit is the max-modulus iteration itself, exact in tower form
        out = [TowerReal.from_value(z0.real)]
        for _ in range(n_max):
            out.append(f.tower_log_max(out[-1]))
        return out
    orbit = iterate_orbit(f, z0, n_max)
    out = []
    for n in range(n_max + 1):
        if n < orbit.length():
            lm = orbit.log_mag(n)
            out.append(None if lm == -math.inf else TowerReal.from_log(lm))
        else:
            out.append(None)
    return out

