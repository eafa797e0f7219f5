"""Hot grid/orbit kernels, vectorized over batches of start points.

The kernels compute log spherical derivatives of iterates over batches of
start points (the inner loop of the measure quadratures and the theorem
scans) and orbit log-magnitude tables for rendering.  There is one numpy
implementation per orbit family.

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
# exp-affine family f(z) = lam * e^z


def expaffine_logphi(x0, y0, n: int, loglam: float, arglam: float):
    """log (f^n)^#, log|(f^n)'|, log|z_n|, status for f = lam e^z."""
    x = np.ascontiguousarray(x0, dtype=np.float64)
    y = np.ascontiguousarray(y0, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = np.zeros_like(x)
        r2 = x * x + y * y
        ll = np.where(r2 > 0.0, 0.5 * np.log(np.maximum(r2, 1e-323)), -745.0)
        alive = np.ones(x.shape, dtype=bool)
        dead_at_end = np.zeros(x.shape, dtype=bool)
        for k in range(n):
            s = np.where(alive, s + x + loglam, s)
            ll = np.where(alive, x + loglam, ll)
            a = y + arglam
            over = alive & (ll > _EXP_LIMIT)
            # z_{k+1} exceeds doubles; if this is the final step its
            # log-magnitude ll is all we need, otherwise the orbit dies
            if k < n - 1:
                alive = alive & ~over
            else:
                dead_at_end |= over
            safe = np.where(alive & ~dead_at_end, np.minimum(ll, _EXP_LIMIT), 0.0)
            r = np.exp(safe)
            nx = r * np.cos(a)
            ny = r * np.sin(a)
            x = np.where(alive & ~dead_at_end, nx, x)
            y = np.where(alive & ~dead_at_end, ny, y)
        den = np.where(ll > 350.0, 2.0 * ll, np.log1p(np.where(dead_at_end, 0.0, x * x + y * y)))
        logphi = np.where(alive, s - den, np.nan)
    status = np.where(alive, STATUS_OK, STATUS_OVERFLOW).astype(np.int64)
    return logphi, s, ll, status


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


# ---------------------------------------------------------------------------
# orbit log-magnitude table for the exp family (render / escape scans)


def expaffine_logmags(x0, y0, loglam: float, arglam: float, n_max: int, log_escape: float):
    """Orbit table of log|z_k| (nan past double overflow) and first-escape index.

    Each step works only on the live rows, the orbits still below e^709.
    """
    x = np.ascontiguousarray(x0, dtype=np.float64)
    y = np.ascontiguousarray(y0, dtype=np.float64)
    m = x.shape[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        table = np.full((m, n_max + 1), np.nan)
        r2 = x * x + y * y
        table[:, 0] = np.where(r2 > 0.0, 0.5 * np.log(np.maximum(r2, 1e-323)), -745.0)
        escape_step = np.full(m, -1, dtype=np.int64)
        live = np.arange(m)
        for k in range(1, n_max + 1):
            ll = x + loglam
            table[live, k] = ll
            newly = (ll > log_escape) & (escape_step[live] < 0)
            escape_step[live[newly]] = k
            keep = ~(ll > _EXP_LIMIT)
            if not keep.all():
                live, ll, y = live[keep], ll[keep], y[keep]
            a = y + arglam
            r = np.exp(ll)
            x = r * np.cos(a)
            y = r * np.sin(a)
    return table, escape_step
