"""Mittag-Leffler function E_a(z) = sum z^n / Gamma(a n + 1), 0 < a <= 2.

`ml_eval(a, z)` gives (E_a(z), E_a'(z)) from one call, one loop per sum that
sums E_a or E_a' by its `derivative` flag; the last (a, z) is memoised.
`ml_eval_arrays` gives the same bits over arrays of points anywhere in the
plane, with complex products written out on real arrays (`cmul`).

Evaluation strategy: the power series in the zone where double-precision
summation keeps full accuracy, and the sector expansion outside it.  With
p = 1/a the expansion is

    E_a(z) ~ p * exp(z^p) - sum_{k>=1} z^(-k) / Gamma(1 - a k)

where the exponential term carries the growth sector |arg z| <= a*pi/2
and decays (relatively) elsewhere; the algebraic tail gives the O(1/|z|)
behaviour on the remaining sector.  a = 1 and a = 2 are handled through
E_1(z) = exp(z) and E_2(z) = cosh(sqrt(z)), whose algebraic tails vanish
identically.

The series/asymptotics switch radius is set by cancellation: the largest
series term is ~exp(|z|^p) while the summed value can be O(1), so double
summation is trusted only while eps * max_term stays below 1e-12.  The
radius is found once per alpha by scanning.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

MAX_SERIES_TERMS = 2000
_SERIES_STOP = 1e-18

# past the switch radius the expansion keeps its exponential term where
# |arg z| <= alpha*pi/2 + SECTOR_DELTA, and is the algebraic tail alone beyond
SECTOR_DELTA = 0.05 * math.pi

# eps * max_term must stay below this for the series to be trusted
_SERIES_TRUST = 1e-12
_EPS = 2.2e-16

def _log_max_term(alpha: float, r: float) -> float:
    """log of the largest series term magnitude at |z| = r."""
    lr = math.log(r)
    best = 0.0
    prev = 0.0
    for n in range(1, 100000):
        cur = n * lr - math.lgamma(alpha * n + 1.0)
        if cur > best:
            best = cur
        if cur < prev and cur < best - 5.0:
            break
        prev = cur
    return best


@lru_cache(maxsize=None)
def switch_radius(alpha: float) -> float:
    """Smallest |z| beyond which eval uses the sector expansion.

    Scanned once per alpha: the first radius where the double-precision
    cancellation bound eps * max_term crosses _SERIES_TRUST.
    """
    _check_alpha(alpha)
    threshold = math.log(_SERIES_TRUST / _EPS)
    r = 1.0
    while _log_max_term(alpha, r) <= threshold:
        r *= 1.05
        if r > 1e6:  # pragma: no cover - unreachable for alpha <= 2
            break
    return r


def _check_alpha(alpha: float):
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")


@lru_cache(maxsize=None)
def _series_ratios(alpha: float) -> list:
    """c[n] = Gamma(alpha (n-1) + 1) / Gamma(alpha n + 1), n >= 1; c[0] unused.

    Term n of the series is term n-1 times z * c[n].  Computed once per alpha.
    """
    lg = [math.lgamma(alpha * n + 1.0) for n in range(MAX_SERIES_TERMS)]
    return [math.nan] + [math.exp(lg[n - 1] - lg[n]) for n in range(1, MAX_SERIES_TERMS)]


def _series_sum(alpha: float, z: complex, derivative: bool) -> complex:
    """E_alpha(z) by its truncated power series, or E_alpha'(z) by the
    term-wise derivative sum n z^(n-1) / Gamma(alpha n + 1); the sum stops
    past n = 3 at a term below _SERIES_STOP times the largest."""
    c = _series_ratios(alpha)
    if derivative:
        total = term = 1.0 / math.gamma(alpha + 1.0) + 0.0j
        biggest = abs(total)
    else:
        term = (1.0 + 0.0j) * (z * c[1])
        total = (1.0 + 0.0j) + term
        biggest = max(1.0, abs(term))
    for n in range(2, MAX_SERIES_TERMS):
        term *= (z * (n / (n - 1)) if derivative else z) * c[n]
        total += term
        mag = abs(term)
        if mag > biggest:
            biggest = mag
        elif mag < _SERIES_STOP * biggest and n > 3:
            break
    return total


def ml_series(alpha: float, z: complex) -> tuple:
    """(E_alpha(z), E_alpha'(z)) by the power series; accurate while
    |z|**(1/alpha) is moderate."""
    return _series_sum(alpha, z, False), _series_sum(alpha, z, True)


def cmul(ar, ai, br, bi) -> tuple:
    """(ar + i ai) * (br + i bi) on real arrays, rounded as Python's complex
    product rounds it; complex * float is the full product with bi = 0.0."""
    return ar * br - ai * bi, ar * bi + ai * br


def _row_sums(ks, state, step) -> np.ndarray:
    """(Re, Im) of each row's sum where it stops: for k in ks, step(k, *state)
    gives the next state, whose first two arrays are the running sum, and the
    rows that stop there and leave the state."""
    out = np.empty((2, state[0].size))
    rows = np.arange(state[0].size)
    for k in ks:
        if not rows.size:
            break
        state, done = step(k, *state)
        if done.any():
            out[:, rows[done]] = state[0][done], state[1][done]
            keep = ~done
            rows, state = rows[keep], tuple(a[keep] for a in state)
    out[:, rows] = state[:2]
    return out


def _series_sums(alpha: float, x, y, derivative: bool) -> np.ndarray:
    """_series_sum over the points x + iy, term for term; each point stops by
    the scalar rule (past n = 3, a term below _SERIES_STOP times the largest)."""
    c = _series_ratios(alpha)
    if derivative:
        g = np.full(x.shape, 1.0 / math.gamma(alpha + 1.0)), np.zeros(x.shape)
        start = (*g, *g, np.abs(g[0]))
    else:
        tr, ti = cmul(1.0, 0.0, *cmul(x, y, c[1], 0.0))
        start = (1.0 + tr, 0.0 + ti, tr, ti, np.fmax(np.hypot(tr, ti), 1.0))

    def step(n, sr, si, tr, ti, biggest, x, y):
        zr, zi = cmul(x, y, n / (n - 1), 0.0) if derivative else (x, y)
        tr, ti = cmul(tr, ti, *cmul(zr, zi, c[n], 0.0))
        mag = np.hypot(tr, ti)
        biggest = np.fmax(biggest, mag)  # a NaN term leaves it, as in _series_sum
        # a term that just set biggest is not below _SERIES_STOP times it
        return (sr + tr, si + ti, tr, ti, biggest, x, y), (n > 3) & (mag < _SERIES_STOP * biggest)

    return _row_sums(range(2, MAX_SERIES_TERMS), (*start, x, y), step)


@lru_cache(maxsize=None)
def _tail_coeff(alpha: float, k: int) -> float:
    """1/Gamma(1 - alpha k), the coefficient of -z^(-k) in the tail; zero at
    the poles of Gamma (1 - alpha k a nonpositive integer).  Memoised as the
    sums reach k, not precomputed: past 1 - alpha k ~ -178 Gamma underflows
    to 0 and this raises ZeroDivisionError, at k no sum reaches."""
    g = 1.0 - alpha * k
    return 0.0 if g <= 0.0 and abs(g - round(g)) < 1e-12 else 1.0 / math.gamma(g)


def _tail_sum(alpha: float, inv: complex, derivative: bool) -> complex:
    """-sum_k z^(-k)/Gamma(1-a k), or its derivative, at 1/z = inv, truncated
    at its smallest term.

    The tail is an asymptotic (divergent) series; optimal truncation stops
    once terms start growing again.
    """
    total = 0.0 + 0.0j
    prev_mag = math.inf
    zk = inv
    for k in range(1, 121):
        coeff = _tail_coeff(alpha, k)
        term = k * coeff * zk * inv if derivative else -coeff * zk
        mag = abs(term)
        if mag > prev_mag:
            break
        total += term
        prev_mag = mag
        if mag < 1e-300 or not math.isfinite(mag):  # a NaN point gives NaN
            break
        zk *= inv
    return total


def _recip(x, y) -> tuple:
    """1.0 / complex(x, y) on real arrays, as Python divides (Smith's method)."""
    big = np.abs(x) >= np.abs(y)
    r = np.where(big, y / x, x / y)
    d = np.where(big, x + y * r, x * r + y)
    return (np.where(big, 1.0 + 0.0 * r, 1.0 * r + 0.0) / d,
            np.where(big, 0.0 - 1.0 * r, 0.0 * r - 1.0) / d)


def _tail_sums(alpha: float, ir, ii, derivative: bool) -> np.ndarray:
    """_tail_sum over the points with 1/z = ir + i ii; each point stops by
    the scalar rule (before a term larger than the last, after one below
    1e-300 or not finite)."""
    def step(k, sr, si, prev, zr, zi, ir, ii):
        c = _tail_coeff(alpha, k)
        tr, ti = cmul(*cmul(k * c, 0.0, zr, zi), ir, ii) if derivative else cmul(-c, 0.0, zr, zi)
        mag = np.hypot(tr, ti)
        take = ~(mag > prev)
        sr, si = np.where(take, sr + tr, sr), np.where(take, si + ti, si)
        done = ~take | (mag < 1e-300) | ~np.isfinite(mag)
        return (sr, si, mag, *cmul(zr, zi, ir, ii), ir, ii), done

    zero = np.zeros(ir.shape)
    return _row_sums(range(1, 121), (zero, zero, zero + np.inf, ir, ii, ir, ii), step)


def _growth_terms(alpha: float, z: complex) -> tuple:
    """p exp(z^p) and its derivative, the terms the growth sector adds to the
    tail; OverflowError when E_alpha leaves double range."""
    p = 1.0 / alpha
    log_z = cmath.log(z)
    zp = cmath.exp(p * log_z)
    if zp.real > 700.0:
        raise OverflowError("E_alpha overflows double range")
    lead = cmath.exp(zp)
    return p * lead, p * p * cmath.exp((p - 1.0) * log_z) * lead


def _growth_sector(alpha: float, x, y) -> np.ndarray:
    """|arg z| <= alpha*pi/2 + SECTOR_DELTA at the points x + iy, as
    abs(cmath.phase(z)) decides it; np.arctan2 may differ from cmath.phase in
    the last bits, so points within 1e-12 of the edge ask cmath.phase."""
    edge = alpha * math.pi / 2.0 + SECTOR_DELTA
    a = np.abs(np.arctan2(y, x))
    for i in np.flatnonzero(np.abs(a - edge) < 1e-12).tolist():
        a[i] = abs(cmath.phase(complex(x[i], y[i])))
    return a <= edge


def ml_asymptotic(alpha: float, z: complex) -> tuple:
    """(E_alpha(z), E_alpha'(z)) by the sector expansion, valid for |z|
    beyond the switch radius; OverflowError when E_alpha leaves double
    range, which is where E_alpha' does too."""
    if alpha == 2.0:
        s = cmath.sqrt(z)
        return cmath.cosh(s), cmath.sinh(s) / (2.0 * s)
    if alpha == 1.0:
        if z.real > 700.0:
            raise OverflowError("E_alpha overflows double range")
        e = cmath.exp(z)
        return e, e
    inv = 1.0 / z
    tail, d_tail = _tail_sum(alpha, inv, False), _tail_sum(alpha, inv, True)
    if abs(cmath.phase(z)) > alpha * math.pi / 2.0 + SECTOR_DELTA:
        return tail, d_tail
    lead, d_lead = _growth_terms(alpha, z)
    return lead + tail, d_lead + d_tail


def _pointwise(fn, alpha: float, x, y) -> np.ndarray:
    """fn(alpha, z), a pair of complex values, at each point x + iy: the
    pairs' parts as (4, n), NaN where fn raises OverflowError."""
    nan = complex(math.nan, math.nan)
    out = []
    for z in map(complex, x.tolist(), y.tolist()):
        try:
            out += fn(alpha, z)
        except OverflowError:
            out += (nan, nan)
    return np.array(out, dtype=complex).view(float).reshape(-1, 4).T


def _asymptotic_arrays(alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """ml_asymptotic at the points x + iy: (Re E, Im E, Re E', Im E') as
    (4, n), NaN where it raises OverflowError.  The tail sums as arrays; exp
    and log go point by point through cmath, since numpy's differ from
    libm's in the last bit."""
    if alpha in (1.0, 2.0):  # the closed forms
        return _pointwise(ml_asymptotic, alpha, x, y)
    ir, ii = _recip(x, y)
    out = np.concatenate([_tail_sums(alpha, ir, ii, False), _tail_sums(alpha, ir, ii, True)])
    g = np.flatnonzero(_growth_sector(alpha, x, y))
    out[:, g] = _pointwise(_growth_terms, alpha, x[g], y[g]) + out[:, g]
    return out


def ml_eval_arrays(alpha: float, x: np.ndarray, y: np.ndarray) -> tuple:
    """ml_eval at the points x + iy, bit for bit: (Re E, Im E, Re E', Im E'),
    NaN where ml_eval raises OverflowError.  Both branches follow ml_eval's
    in the real and imaginary arrays of cmul; np.hypot is abs(complex)."""
    x, y = x + 0.0, y + 0.0  # as ml_eval reads z
    near = np.hypot(x, y) <= switch_radius(alpha)
    out = np.empty((4, x.shape[0]))
    with np.errstate(all="ignore"):
        x_near, y_near = x[near], y[near]
        out[:, near] = np.concatenate([_series_sums(alpha, x_near, y_near, False),
                                       _series_sums(alpha, x_near, y_near, True)])
        far = ~near
        out[:, far] = _asymptotic_arrays(alpha, x[far], y[far])
    return tuple(out)


@lru_cache(maxsize=1)
def ml_eval(alpha: float, z: complex) -> tuple:
    """(E_alpha(z), E_alpha'(z)); the last (alpha, z) is memoised."""
    z = complex(z) + 0.0  # -0.0 parts read as +0.0, so equal z give equal values
    if abs(z) <= switch_radius(alpha):  # which rejects a bad alpha
        return ml_series(alpha, z)
    return ml_asymptotic(alpha, z)


def ml_log_abs(alpha: float, x: float) -> float:
    """log E_alpha(x) on the positive axis, overflow-free (x >= 0)."""
    _check_alpha(alpha)
    if x < 0.0:
        raise ValueError("positive axis only")
    if x <= switch_radius(alpha):
        return math.log(abs(_series_sum(alpha, x, False)))
    p = 1.0 / alpha
    xp = p * math.log(x)
    if alpha == 2.0:
        # cosh(sqrt x) = e^{sqrt x} (1 + e^{-2 sqrt x})/2
        s = math.sqrt(x)
        return s - math.log(2.0) + math.log1p(math.exp(-2.0 * s))
    # p e^{x^p} dominates; fold in the O(1/x) tail while it is visible
    lead = math.exp(xp)
    if lead < 600.0:
        tail = _tail_sum(alpha, 1.0 / complex(x), False)
        return lead + math.log(p) + math.log1p(tail.real * math.exp(-lead) / p)
    return lead + math.log(p)
