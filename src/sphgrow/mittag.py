"""Mittag-Leffler function E_a(z) = sum z^n / Gamma(a n + 1), 0 < a <= 2.

`ml_eval(a, z)` gives (E_a(z), E_a'(z)) from one pass, each half with its own
term recurrence and stopping rule; the last (a, z) is memoised.
`ml_eval_arrays` gives the same bits over arrays of points in the series
zone, with complex products written out on real arrays (`cmul`).

Evaluation strategy: the power series in the zone where double-precision
summation keeps full accuracy, and the sector expansion outside it.  With
p = 1/a the expansion is

    E_a(z) ~ p * exp(z^p) - sum_{k>=1} z^(-k) / Gamma(1 - a k)

where the exponential term carries the growth sector |arg z| <= a*pi/2
and decays (relatively) elsewhere; the algebraic tail gives the O(1/|z|)
behaviour on the remaining sector.  a = 2 is handled through the identity
E_2(z) = cosh(sqrt(z)), whose algebraic tail vanishes identically.

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

# growth sector half-angle is alpha*pi/2 + SECTOR_DELTA; inputs within
# BOUNDARY_LAYER of that edge go back to the (extended) series, since the
# expansion degrades near the sector boundary
SECTOR_DELTA = 0.05 * math.pi
BOUNDARY_LAYER = 0.02 * math.pi

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


def ml_series(alpha: float, z: complex) -> tuple:
    """(E_alpha(z), E_alpha'(z)) by the truncated power series and its
    term-wise derivative sum n z^(n-1) / Gamma(alpha n + 1); accurate while
    |z|**(1/alpha) is moderate."""
    c = _series_ratios(alpha)
    total = term = 1.0 + 0.0j
    term *= z * c[1]  # the n = 1 term of E; that of E' seeds d_total
    total += term
    biggest = max(1.0, abs(term))
    d_total = d_term = 1.0 / math.gamma(alpha + 1.0) + 0.0j
    d_biggest = abs(d_total)
    live = d_live = True
    for n in range(2, MAX_SERIES_TERMS):
        if live:
            term *= z * c[n]
            total += term
            mag = abs(term)
            if mag > biggest:
                biggest = mag
            elif mag < _SERIES_STOP * biggest and n > 3:
                live = False
                if not d_live:
                    break
        if d_live:
            d_term *= z * (n / (n - 1)) * c[n]
            d_total += d_term
            mag = abs(d_term)
            if mag > d_biggest:
                d_biggest = mag
            elif mag < _SERIES_STOP * d_biggest and n > 3:
                d_live = False
                if not live:
                    break
    return total, d_total


def cmul(ar, ai, br, bi) -> tuple:
    """(ar + i ai) * (br + i bi) on real arrays, rounded as Python's complex
    product rounds it; complex * float is the full product with bi = 0.0."""
    return ar * br - ai * bi, ar * bi + ai * br


def _series_sums(x, y, total, term, biggest, factor) -> tuple:
    """Continue ml_series's sum from its n = 1 term over the points x + iy:
    term n is term n-1 times factor(n, x, y), and each point stops by the
    scalar rule (past n = 3, a term below _SERIES_STOP times the largest)."""
    out_r, out_i = np.empty(x.shape), np.empty(x.shape)
    rows = np.arange(x.shape[0])
    (sr, si), (tr, ti) = total, term
    for n in range(2, MAX_SERIES_TERMS):
        if not rows.size:
            break
        tr, ti = cmul(tr, ti, *factor(n, x, y))
        sr, si = sr + tr, si + ti
        mag = np.hypot(tr, ti)
        grow = mag > biggest
        biggest = np.where(grow, mag, biggest)
        if n > 3:
            done = ~grow & (mag < _SERIES_STOP * biggest)
            if done.any():
                out_r[rows[done]], out_i[rows[done]] = sr[done], si[done]
                keep = ~done
                rows, x, y, tr, ti, sr, si, biggest = (
                    a[keep] for a in (rows, x, y, tr, ti, sr, si, biggest))
    out_r[rows], out_i[rows] = sr, si
    return out_r, out_i


def ml_eval_arrays(alpha: float, x: np.ndarray, y: np.ndarray) -> tuple:
    """ml_eval at the points x + iy it sums by the series, bit for bit:
    (rows, Re E, Im E, Re E', Im E') for the rows of x, y with |z| at most the
    switch radius.  Both sums follow ml_series term for term, in the real and
    imaginary arrays of cmul; np.hypot is abs(complex)."""
    x, y = x + 0.0, y + 0.0  # as ml_eval reads z
    rows = np.flatnonzero(np.hypot(x, y) <= switch_radius(alpha))
    x, y = x[rows], y[rows]
    c = _series_ratios(alpha)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        tr, ti = cmul(1.0, 0.0, *cmul(x, y, c[1], 0.0))
        mag = np.hypot(tr, ti)
        er, ei = _series_sums(x, y, (1.0 + tr, 0.0 + ti), (tr, ti),
                              np.where(mag > 1.0, mag, 1.0),
                              lambda n, x, y: cmul(x, y, c[n], 0.0))
        g = 1.0 / math.gamma(alpha + 1.0)
        seed = (np.full(x.shape, g), np.zeros(x.shape))
        dr, di = _series_sums(x, y, seed, seed, abs(complex(g, 0.0)),
                              lambda n, x, y: cmul(*cmul(x, y, n / (n - 1), 0.0), c[n], 0.0))
    return rows, er, ei, dr, di


def ml_series_vec(alpha: float, z: np.ndarray) -> tuple:
    """Vectorized (E_alpha, E_alpha') by the power series; |z| moderate."""
    c = _series_ratios(alpha)
    e = np.ones(z.shape, dtype=np.complex128)
    de = np.full(z.shape, 1.0 / math.gamma(alpha + 1.0), dtype=np.complex128)
    term = np.ones(z.shape, dtype=np.complex128)
    for n in range(1, 400):
        term = term * z * c[n]
        e += term
        if n > 1:  # the n=1 derivative term seeds de above
            de += n * term / z
        if float(np.abs(term).max()) < 1e-18:
            break
    return e, de


def _algebraic_tail(alpha: float, z: complex) -> tuple:
    """-sum_k z^(-k)/Gamma(1-a k) and its derivative, each truncated at its
    smallest term.

    The tail is an asymptotic (divergent) series; optimal truncation stops
    once terms start growing again.
    """
    inv = 1.0 / z
    total = d_total = 0.0 + 0.0j
    prev_mag = d_prev_mag = math.inf
    live = d_live = True
    zk = inv
    for k in range(1, 121):
        g = 1.0 - alpha * k
        # 1/Gamma at the poles of Gamma (g a nonpositive integer) is zero
        if g <= 0.0 and abs(g - round(g)) < 1e-12:
            coeff = 0.0
        else:
            coeff = 1.0 / math.gamma(g)
        if live:
            term = -coeff * zk
            mag = abs(term)
            live = not mag > prev_mag
            if live:
                total += term
                prev_mag = mag
                live = not mag < 1e-300
        if d_live:
            term = k * coeff * zk * inv
            mag = abs(term)
            d_live = not mag > d_prev_mag
            if d_live:
                d_total += term
                d_prev_mag = mag
                d_live = not mag < 1e-300
        if not (live or d_live):
            break
        zk *= inv
    return total, d_total


def ml_tail_vec(alpha: float, z: np.ndarray) -> tuple:
    """Vectorized algebraic tail (-sum z^-k / Gamma(1 - alpha k)) and its
    derivative, truncated where terms start growing."""
    inv = 1.0 / z
    t = np.zeros(z.shape, dtype=np.complex128)
    dt = np.zeros(z.shape, dtype=np.complex128)
    zk = inv.copy()
    prev = np.full(z.shape, np.inf)
    alive = np.ones(z.shape, dtype=bool)
    for k in range(1, 80):
        g = 1.0 - alpha * k
        if g <= 0.0 and abs(g - round(g)) < 1e-12:
            coeff = 0.0
        else:
            coeff = 1.0 / math.gamma(g)
        term = -coeff * zk
        mag = np.abs(term)
        alive &= mag <= prev
        if not alive.any():
            break
        t = np.where(alive, t + term, t)
        dt = np.where(alive, dt + k * coeff * zk * inv, dt)
        prev = mag
        zk = zk * inv
    return t, dt


def _sector(alpha: float, z: complex) -> str:
    """'growth', 'decay', or 'boundary' position of arg z."""
    edge = alpha * math.pi / 2.0 + SECTOR_DELTA
    a = abs(cmath.phase(z))
    if abs(a - edge) < BOUNDARY_LAYER and abs(z) ** (1.0 / alpha) < 690.0:
        # near the sector edge the expansion is unreliable; the extended
        # series is usable as long as its terms fit doubles
        return "boundary"
    return "growth" if a <= edge else "decay"


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
    sector = _sector(alpha, z)
    if sector == "boundary":
        return ml_series(alpha, z)
    if sector == "decay":
        return _algebraic_tail(alpha, z)
    p = 1.0 / alpha
    log_z = cmath.log(z)
    zp = cmath.exp(p * log_z)
    if zp.real > 700.0:
        raise OverflowError("E_alpha overflows double range")
    tail, d_tail = _algebraic_tail(alpha, z)
    lead = cmath.exp(zp)
    return p * lead + tail, p * p * cmath.exp((p - 1.0) * log_z) * lead + d_tail


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
        return math.log(abs(ml_series(alpha, x)[0]))
    p = 1.0 / alpha
    xp = p * math.log(x)
    if alpha == 2.0:
        # cosh(sqrt x) = e^{sqrt x} (1 + e^{-2 sqrt x})/2
        s = math.sqrt(x)
        return s - math.log(2.0) + math.log1p(math.exp(-2.0 * s))
    # p e^{x^p} dominates; fold in the O(1/x) tail while it is visible
    lead = math.exp(xp)
    if lead < 600.0:
        tail = _algebraic_tail(alpha, complex(x))[0]
        return lead + math.log(p) + math.log1p(tail.real * math.exp(-lead) / p)
    return lead + math.log(p)
