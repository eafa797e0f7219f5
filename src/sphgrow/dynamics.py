"""Forward orbits, Lyapunov estimators, periodic points, fast escape.

Orbits run in rectangular coordinates while representable, then escalate
to log-polar continuation (exact for the exponential family, leading-term
for polynomials).  The chain rule is tracked as a running sum of
log|f'(z_j)| so that log (f^n)^# stays finite far past double overflow.
`orbit_table` steps a batch of orbits together, in arrays where the variant
evaluates as arrays (`eval_arrays`), and gives each start the bits of its
`iterate_orbit`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import functions as fx
from . import kernels
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
            return _log_abs_point(self.points[n])
        return self.log_points[n - len(self.points)][0]


def _log_abs_point(z: complex) -> float:
    return math.log(abs(z)) if z != 0 else -math.inf


def _log_abs_derivative(f, z: complex) -> float:
    try:
        d = fx.derivative_f(f, z)
    except fx.EvalOverflow as e:
        return e.log_mag
    if d == 0:
        return f.log_abs_derivative_underflow(z)
    if not cmath.isfinite(d) and f.log_continuation:  # overflowed before z escalated
        return f.log_abs_derivative_polar(math.log(abs(z)), cmath.phase(z))
    return math.log(abs(d))


def _orbit_step(f, z: complex, z_lp):
    """One orbit step from z, or from z_lp = (log|z|, arg z) once the orbit
    has escalated: (log|f'(z)|, f(z), None) while |f(z)| <= ESCALATION_THRESHOLD,
    else (log|f'(z)|, None, (log|f(z)|, arg f(z))); None when f(z) has no
    value, not even a log-polar one."""
    try:
        if z_lp is None:
            logd = _log_abs_derivative(f, z)
            try:
                nxt, nxt_lp = fx.eval_f(f, z), None
            except fx.EvalOverflow as e:
                nxt, nxt_lp = None, (e.log_mag, e.arg)
        else:
            logd = f.log_abs_derivative_polar(*z_lp)
            nxt, nxt_lp = None, fx.log_eval(f, z_lp)
    except (OverflowError, fx.OrbitOverflow):
        return None
    if nxt is not None and abs(nxt) <= ESCALATION_THRESHOLD:
        return logd, nxt, None
    if nxt is not None:
        nxt_lp = (math.log(abs(nxt)), cmath.phase(nxt))
    return logd, None, nxt_lp


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
    cur = z0
    cur_lp = None
    for n in range(n_max):
        step = _orbit_step(f, cur, cur_lp)
        if step is None:
            # no value, not even a log-polar one: the orbit ends here
            status = OVERFLOW
            overflow_at = n
            break
        logd, nxt, nxt_lp = step
        prefix.append(prefix[-1] + logd)
        if nxt is not None:
            points.append(nxt)
            cur = nxt
            continue
        log_points.append(nxt_lp)
        if cur_lp is None:
            # escalate to log-polar continuation
            escalated_at = n + 1
            status = ESCALATED
            if not f.log_continuation:
                # next point recorded, but no way to iterate further
                if n + 1 < n_max:
                    status = OVERFLOW
                    overflow_at = n + 1
                break
        cur_lp = nxt_lp
    return OrbitRecord(start=z0, points=points, log_points=log_points,
                       log_deriv_prefix=prefix, status=status,
                       escalated_at=escalated_at, overflow_at=overflow_at)


@dataclass
class OrbitTable:
    """The orbits of a batch of start points, one row each, as iterate_orbit
    records them."""

    log_mag: np.ndarray  # (m, n + 1): log|z_k|, NaN past the orbit's end
    log_deriv: np.ndarray  # (m, n + 1): log|(f^k)'(z_0)|, NaN past the orbit's end
    length: np.ndarray  # (m,): entries known per row, OrbitRecord.length()
    logphi: np.ndarray  # (m,): log (f^n)^#(z_0), NaN where the orbit ends before n


def _log_abs(mags: np.ndarray) -> list:
    """_log_abs_point from |z|, for each of mags; math.log, since np.log
    differs from it in the last bit on some."""
    return [math.log(v) if v else -math.inf for v in mags.tolist()]


def orbit_table(f, xs, ys, n: int) -> OrbitTable:
    """The orbits of the start points xs + i ys for n steps, all rows a step
    at a time, each row bit for bit its iterate_orbit.

    At each step the rows in rectangular form that f.eval_arrays evaluates
    step together in arrays; every other row, and each one whose step is not
    the common case (f'(z) = 0, |f(z)| past ESCALATION_THRESHOLD, or a NaN
    where f left double range), takes _orbit_step.  np.hypot gives
    abs(complex) bit for bit.
    """
    if n < 1:
        raise ValueError("n_max must be >= 1")
    x = np.array(xs, dtype=np.float64)
    y = np.array(ys, dtype=np.float64)
    m = x.size
    log_mag = np.full((m, n + 1), np.nan)
    log_deriv = np.full((m, n + 1), np.nan)
    log_mag[:, 0] = _log_abs(np.hypot(x, y))
    log_deriv[:, 0] = 0.0
    length = np.ones(m, dtype=np.int64)
    rect = np.arange(m)  # rows still iterating in rectangular form
    polar = {}  # rows iterating in log-polar form: row -> (log|z|, arg z)
    for k in range(n):
        for i, z_lp in list(polar.items()):
            step = _orbit_step(f, None, z_lp)
            if step is None:
                del polar[i]
                continue
            logd, _, polar[i] = step
            log_deriv[i, k + 1] = log_deriv[i, k] + logd
            log_mag[i, k + 1] = polar[i][0]
            length[i] += 1
        scalar = np.ones(rect.size, dtype=bool)
        batch = f.eval_arrays(x[rect], y[rect]) if rect.size else None
        if batch is not None:
            er, ei, dr, di = batch
            dmag, vmag = np.hypot(dr, di), np.hypot(er, ei)
            sub = np.flatnonzero((dmag > 0.0) & (vmag <= ESCALATION_THRESHOLD))  # NaN fails
            rows = rect[sub]
            log_deriv[rows, k + 1] = log_deriv[rows, k] + _log_abs(dmag[sub])
            log_mag[rows, k + 1] = _log_abs(vmag[sub])
            x[rows], y[rows] = er[sub], ei[sub]
            length[rows] += 1
            scalar[sub] = False
        stay = np.ones(rect.size, dtype=bool)
        for j in np.flatnonzero(scalar).tolist():
            i = int(rect[j])
            step = _orbit_step(f, complex(x[i], y[i]), None)
            stay[j] = step is not None and step[1] is not None
            if step is None:
                continue
            logd, nxt, nxt_lp = step
            log_deriv[i, k + 1] = log_deriv[i, k] + logd
            length[i] += 1
            if nxt is not None:
                log_mag[i, k + 1] = _log_abs_point(nxt)
                x[i], y[i] = nxt.real, nxt.imag
            else:
                log_mag[i, k + 1] = nxt_lp[0]
                if f.log_continuation:
                    polar[i] = nxt_lp
        rect = rect[stay]
    logphi = np.full(m, np.nan)
    done = np.flatnonzero(length > n)
    logphi[done] = [log_spherical(d, lm) for d, lm in
                    zip(log_deriv[done, n].tolist(), log_mag[done, n].tolist())]
    return OrbitTable(log_mag, log_deriv, length, logphi)


def log_spherical(log_deriv: float, log_mag: float) -> float:
    """log (f^n)^#(z_0) = log|(f^n)'(z_0)| - log(1 + |z_n|^2) from log_deriv
    and log_mag = log|z_n|, finite where |z_n|^2 overflows."""
    if log_mag > kernels.LOG_SQUARE_CUT:
        den = 2.0 * log_mag
    elif log_mag == -math.inf:
        den = 0.0
    else:
        den = math.log1p(math.exp(2.0 * log_mag))
    return log_deriv - den


def log_spherical_derivative(orbit: OrbitRecord, n: int) -> float:
    """log (f^n)^# along a recorded orbit."""
    if n >= len(orbit.log_deriv_prefix) or n >= orbit.length():
        raise IndexError(f"orbit data ends before n={n}")
    return log_spherical(orbit.log_deriv_prefix[n], orbit.log_mag(n))


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

