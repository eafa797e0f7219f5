"""Forward orbits, Lyapunov estimators, periodic points, fast escape.

Orbits run in rectangular coordinates while representable, then escalate
to log-polar continuation (exact for the exponential family, leading-term
for polynomials).  The chain rule is tracked as a running sum of
log|f'(z_j)| so that log (f^n)^# stays finite far past double overflow.
`_orbit_steps` alone decides when an orbit escalates and when it ends:
`iterate_orbit` records its steps, and `orbit_table` those of a batch,
stepping in arrays where the variant has `eval_arrays`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import functions as fx
from . import kernels
from .towers import TowerReal

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
        d = f.derivative(z)
    except fx.EvalOverflow as e:
        return e.log_mag
    if d == 0:
        return f.log_abs_derivative_underflow(z)
    if not cmath.isfinite(d) and f.log_continuation:  # overflowed before z escalated
        return f.log_abs_derivative_polar(math.log(abs(z)), cmath.phase(z))
    return math.log(abs(d))


def _orbit_steps(f, z: complex, n: int):
    """Up to n steps of the orbit of z, each (log|f'(z_k)|, z_(k+1), None)
    while |z_(k+1)| <= ESCALATION_THRESHOLD, else (log|f'(z_k)|, None,
    (log|z_(k+1)|, arg z_(k+1))); a NaN z_(k+1) escalates too.  The orbit
    ends at a step where f has no value, not even a log-polar one, and
    after its first log-polar point where f has no log continuation."""
    z_lp = None
    for _ in range(n):
        try:
            if z_lp is not None:
                logd = f.log_abs_derivative_polar(*z_lp)
                z_lp = f.log_eval(*z_lp)
            else:
                logd = _log_abs_derivative(f, z)
                try:
                    z = f.eval(z)
                except fx.EvalOverflow as e:
                    z, z_lp = None, (e.log_mag, e.arg)
        except (OverflowError, fx.OrbitOverflow):
            return
        if z is not None and not abs(z) <= kernels.ESCALATION_THRESHOLD:
            z, z_lp = None, (math.log(abs(z)), cmath.phase(z))
        yield logd, z, z_lp
        if z is None and not f.log_continuation:
            return


def iterate_orbit(f, z0: complex, n_max: int) -> OrbitRecord:
    """Orbit of z0 under f for n_max steps with log-polar escalation."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    z0 = complex(z0)
    points = [z0]
    log_points = []
    prefix = [0.0]
    for logd, z, z_lp in _orbit_steps(f, z0, n_max):
        prefix.append(prefix[-1] + logd)
        if z is not None:
            points.append(z)
        else:
            log_points.append(z_lp)
    steps = len(prefix) - 1  # fewer than n_max where the orbit ended
    status = OVERFLOW if steps < n_max else ESCALATED if log_points else COMPLETE
    return OrbitRecord(start=z0, points=points, log_points=log_points,
                       log_deriv_prefix=prefix, status=status,
                       escalated_at=len(points) if log_points else -1,
                       overflow_at=steps if steps < n_max else -1)


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
    """The orbits of the start points xs + i ys for n steps, each row bit for
    bit its iterate_orbit.

    The rows step together in arrays where f.eval_arrays evaluates them
    (np.hypot gives abs(complex) bit for bit).  A row leaves the arrays at
    the first z_k whose |f(z_k)| is past ESCALATION_THRESHOLD or NaN, and
    from there takes the rest of its orbit from _orbit_steps; with no
    eval_arrays every row does so from z_0.
    """
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    x = np.array(xs, dtype=np.float64)
    y = np.array(ys, dtype=np.float64)
    m = x.size
    log_mag = np.full((m, n + 1), np.nan)
    log_deriv = np.full((m, n + 1), np.nan)
    log_mag[:, 0] = _log_abs(np.hypot(x, y))
    log_deriv[:, 0] = 0.0
    length = np.full(m, n + 1, dtype=np.int64)  # k + 1 for a row that leaves at z_k
    rect = np.arange(m)  # rows stepping in arrays
    handed = []  # (row, k, log|(f^k)'(z_0)|, z_k): rows that left the arrays at z_k
    for k in range(n):
        er, ei, dr, di = f.eval_arrays(x[rect], y[rect]) or np.full((4, rect.size), np.nan)
        vmag = np.hypot(er, ei)
        keep = vmag <= kernels.ESCALATION_THRESHOLD  # NaN fails, as where there is no array rule
        out, rect = rect[~keep], rect[keep]
        length[out] = k + 1
        handed += zip(out.tolist(), [k] * out.size, log_deriv[out, k].tolist(),
                      map(complex, x[out].tolist(), y[out].tolist()))
        if not rect.size:
            break
        log_deriv[rect, k + 1] = log_deriv[rect, k] + _log_abs(np.hypot(dr[keep], di[keep]))
        log_mag[rect, k + 1] = _log_abs(vmag[keep])
        x[rect], y[rect] = er[keep], ei[keep]
    cells = []  # (row, k, log|(f^k)'(z_0)|, log|z_k|) past each row's hand-over
    for i, k, d, z_k in handed:
        for logd, z, z_lp in _orbit_steps(f, z_k, n - k):
            k, d = k + 1, d + logd
            cells.append((i, k, d, _log_abs_point(z) if z is not None else z_lp[0]))
    if cells:
        rows, cols, derivs, mags = (np.array(c) for c in zip(*cells))
        log_deriv[rows, cols], log_mag[rows, cols] = derivs, mags
        np.maximum.at(length, rows, cols + 1)
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
    if n >= orbit.length():
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
    avail = min(N, orbit.length() - 1)
    if avail < 2:
        raise ValueError("orbit dies before step 2; no estimate")
    per_n = [log_spherical_derivative(orbit, n) / n for n in range(1, avail + 1)]
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
            deriv *= f.derivative(w)
            w = f.eval(w)
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


def fast_escaping_test(f, z0: complex, R: float, l_max: int, n_max: int):
    """Smallest l with |f^n(z0)| > M^(n-l)(R,f) strictly for all l <= n <= n_max.

    Returns (member, l, failures) where failures maps each tried l to the
    first violating n.  Comparisons are TowerReal, so they remain exact far
    beyond double range.  Real nonnegative orbits of a positive-lambda
    exponential iterate exactly in tower form; other orbits contribute as
    far as their log-polar continuation reaches, and undeterminable steps
    count as failures.
    """
    levels = fx.iterated_max_modulus(f, R, n_max)
    mags = _orbit_towers(f, z0, n_max)
    failures = {}
    for l in range(0, l_max + 1):
        ok = True
        for n in range(l, n_max + 1):
            if n >= len(mags) or mags[n] is None or not mags[n] > levels[n - l]:
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

