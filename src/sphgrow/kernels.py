"""Hot grid/orbit kernels, vectorized over batches of start points.

The kernels compute log spherical derivatives of iterates over batches of
start points (the inner loop of the measure quadratures and the theorem
scans) and orbit log-magnitude tables for rendering.  There is one numpy
orbit loop per orbit family: for lam e^z, `_exp_orbit` steps only the
orbits still in double range, and `expaffine_logphi` and
`expaffine_logmags` read its table.  The escape index has one rule
(`escape_index`), shared with the orbit-table path of the render.

Status codes: 0 = reached step n; 1 = orbit left double range earlier.
"""

from __future__ import annotations

import math

import numpy as np

# no compiled (numba) kernel path exists; perfbench/worker.py records this flag
USING_NUMBA = False

STATUS_OK = 0
STATUS_OVERFLOW = 1

# log-magnitude ceilings: e^709 is the double limit; polynomial log-polar
# magnitudes themselves overflow doubles near 1e300
_EXP_LIMIT = 709.0
_POLAR_ESCALATE = 230.25850929940457  # log 1e100
_LOG_BIG = 1e300


# ---------------------------------------------------------------------------
# exp-affine family f(z) = lam * e^z: one live-row orbit loop, two readers


def _exp_orbit(x0, y0, n: int, loglam: float, arglam: float, log_escape):
    """n steps of f = lam e^z, each on the live rows only (log|z_k| <= 709
    before the last step): the (m, n + 1) table of log|z_k|, NaN once an orbit
    leaves double range; s = log|(f^k)'(z_0)| up to that step or n, the live
    rows and their z_n when log_escape is None; else the escape steps, with
    None for the three that expaffine_logmags does not read."""
    x = np.ascontiguousarray(x0, dtype=np.float64)
    y = np.ascontiguousarray(y0, dtype=np.float64)
    m = x.shape[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        table = np.full((m, n + 1), np.nan)
        r2 = x * x + y * y
        table[:, 0] = np.where(r2 > 0.0, 0.5 * np.log(np.maximum(r2, 1e-323)), -745.0)
        del r2  # one (m,) array fewer at the peak of a 512^2 render
        if log_escape is None:
            s_all, s = np.zeros(m), np.zeros(m)
        else:
            escape_step = np.full(m, -1, dtype=np.int64)
        live = np.arange(m)
        for k in range(1, n + 1):
            ll = x + loglam
            # a strided copy, not a scatter, while every row is live
            table[live if live.size < m else slice(None), k] = ll
            if log_escape is None:
                s += x  # (s + x) + loglam, in place: the full-width loop's rounding
                s += loglam
            else:
                _mark_escapes(escape_step, live, ll, k, log_escape)
                if k == n:
                    break
            # z_k exceeds doubles: the orbit ends, unless this is the last step
            drop = ll > _EXP_LIMIT
            if k < n and drop.any():
                keep = ~drop
                if log_escape is None:
                    s_all[live[drop]] = s[drop]
                    s = s[keep]
                live, ll, y = live[keep], ll[keep], y[keep]
            # z_k = e^ll (cos a + i sin a), formed in place to hold fewer (m,) arrays
            a = y + arglam
            r = np.exp(ll)
            x = np.cos(a)
            x *= r
            y = np.sin(a, out=a)
            y *= r
        if log_escape is not None:
            return table, None, escape_step, None, None, None
        s_all[live] = s
    return table, s_all, None, live, x, y


def expaffine_logphi(x0, y0, n: int, loglam: float, arglam: float):
    """log (f^n)^#, log|(f^n)'|, log|z_n| (NaN where the orbit left double
    range before step n), status for f = lam e^z."""
    table, s, _, live, x, y = _exp_orbit(x0, y0, n, loglam, arglam, None)
    ll = table[live, n]
    logphi = np.full(s.shape, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        den = x * x  # log(1 + |z_n|^2) in one array; 2 log|z_n| where |z_n|^2 may overflow
        den += y * y
        np.log1p(den, out=den)
        big = ll > 350.0
        den[big] = 2.0 * ll[big]
        logphi[live] = s[live] - den
    status = np.full(s.shape, STATUS_OVERFLOW, dtype=np.int64)
    status[live] = STATUS_OK
    return logphi, s, table[:, n], status


def expaffine_logmags(x0, y0, loglam: float, arglam: float, n_max: int, log_escape: float):
    """Orbit table of log|z_k| (nan past double overflow) and first-escape index."""
    table, _, escape_step, *_ = _exp_orbit(x0, y0, n_max, loglam, arglam, log_escape)
    return table, escape_step


# the escape rule: the first step k >= 1 with log|z_k| > log_escape, or -1


def _mark_escapes(escape_step, rows, ll, k: int, log_escape: float):
    """Step k of the rule for the rows whose log|z_k| is ll."""
    newly = (ll > log_escape) & (escape_step[rows] < 0)
    escape_step[rows[newly]] = k


def escape_index(table, log_escape: float):
    """The escape step of every row of a log|z_k| table."""
    escape_step = np.full(table.shape[0], -1, dtype=np.int64)
    for k in range(1, table.shape[1]):
        _mark_escapes(escape_step, np.arange(table.shape[0]), table[:, k], k, log_escape)
    return escape_step


# ---------------------------------------------------------------------------
# polynomial p(z) = sum c_k z^k, continued on log|z| alone once |z| > 1e100


def poly_logphi(x0, y0, n: int, coefficients):
    """Same outputs for a polynomial given by its coefficient list."""
    x0 = np.ascontiguousarray(x0, dtype=np.float64)
    y0 = np.ascontiguousarray(y0, dtype=np.float64)
    coeffs = np.asarray(coefficients, dtype=np.complex128)
    d = coeffs.shape[0] - 1
    lead = coeffs[d]
    # escalate before z^d (and the Horner intermediates) can overflow
    esc_log = min(_POLAR_ESCALATE, 690.0 / d - 10.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z = x0 + 1j * y0
        s = np.zeros(z.shape)
        polar = np.zeros(z.shape, dtype=bool)
        ll = np.zeros(z.shape)
        alive = np.ones(z.shape, dtype=bool)
        for _ in range(n):
            pol = alive & polar
            rect = alive & ~polar
            if rect.any():
                # p'(z) and p(z) by Horner
                zr = z[rect]
                dv = np.zeros(zr.shape, dtype=np.complex128)
                for j in range(d, 0, -1):
                    dv = dv * zr + j * coeffs[j]
                sv = np.zeros(zr.shape, dtype=np.complex128)
                for j in range(d, -1, -1):
                    sv = sv * zr + coeffs[j]
                s[rect] += np.log(np.abs(dv))
                z[rect] = sv
                mag = np.abs(sv)
                esc = (mag > 0.0) & (np.log(np.maximum(mag, 1e-323)) > esc_log)
                if esc.any():
                    idx = np.flatnonzero(rect)[esc]
                    polar[idx] = True
                    ll[idx] = np.log(mag[esc])
            if pol.any():
                # leading-term step: |p'| ~ d |a_d| r^(d-1), p ~ a_d z^d
                s[pol] += math.log(float(d)) + math.log(abs(lead)) + (d - 1.0) * ll[pol]
                ll[pol] = d * ll[pol] + math.log(abs(lead))
                dead = pol & (ll > _LOG_BIG)
                alive &= ~dead
        rect_mag = np.abs(z)
        ll = np.where(polar, ll, np.log(np.maximum(rect_mag, 1e-323)))
        den = np.where(polar | (ll > 350.0), 2.0 * ll,
                       np.log1p(np.where(polar, 0.0, rect_mag * rect_mag)))
        logphi = np.where(alive, s - den, np.nan)
    status = np.where(alive, STATUS_OK, STATUS_OVERFLOW).astype(np.int64)
    return logphi, s, ll, status
