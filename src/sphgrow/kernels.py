"""Hot grid/orbit kernels, vectorized over batches of start points.

The kernels compute log spherical derivatives of iterates over batches of
start points (the inner loop of the measure quadratures and the theorem
scans), and the render's orbit log-magnitudes a step at a time.  There is
one numpy live-row orbit loop per orbit family, each stepping only the rows
that still need its step, with the floating-point ops of a full-width loop:
`_exp_orbit` for lam e^z keeps no table and forms no z_n (`expaffine_logphi`
takes log(1 + |z_n|^2) from log|z_n| by dynamics.log_spherical's rule,
`expaffine_logmag_steps` gets each log|z_k| as it is formed), and
`poly_logphi` steps the rectangular rows by Horner in place and the
log-polar rows on log|z| alone; its Horner starts from the leading
coefficient and skips zero ones (z^2: 2 complex multiplies per step), with
the output bits of Horner from 0 * z.

Status codes: 0 = reached step n; 1 = orbit left double range earlier.
"""

from __future__ import annotations

import math

import numpy as np

# no compiled (numba) kernel path exists; perfbench/worker.py records this flag
USING_NUMBA = False

STATUS_OK = 0
STATUS_OVERFLOW = 1

ESCALATION_THRESHOLD = 1e100  # |z| past which an orbit steps in log-polar form
# log-magnitude ceilings: e^709 is the double limit; polynomial log-polar
# magnitudes themselves overflow doubles near 1e300
_EXP_LIMIT = 709.0
_POLAR_ESCALATE = math.log(ESCALATION_THRESHOLD)
_LOG_BIG = 1e300
LOG_SQUARE_CUT = 350.0  # past it, log(1 + |z|^2) is 2 log|z| and |z|^2 may overflow


# ---------------------------------------------------------------------------
# exp-affine family f(z) = lam * e^z: one live-row orbit loop, two readers


def _exp_orbit(x0, y0, n: int, loglam: float, arglam: float, visit):
    """n steps of f = lam e^z, each on the live rows only (log|z_k| <= 709
    before the last step); neither reader forms z_n.  With visit, each
    log|z_k| (k = 0..n) goes to visit(ll, live) as it is formed and nothing
    is kept; a boolean mask over live that visit returns drops the rows
    outside it.  Without, returns s = log|(f^k)'(z_0)| up to the step where
    the orbit left double range or n, and the live rows with log|z_n|."""
    x = np.ascontiguousarray(x0, dtype=np.float64)
    y = np.ascontiguousarray(y0, dtype=np.float64)
    m = x.shape[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r2 = x * x + y * y
        ll = np.where(r2 > 0.0, 0.5 * np.log(np.maximum(r2, 1e-323)), -745.0)
        del r2  # one (m,) array fewer at the peak of a 512^2 render
        live = np.arange(m)
        if visit is None:
            s_all, s = np.zeros(m), np.zeros(m)
        else:
            wanted = visit(ll, live)
            if wanted is not None:
                live, x, y = live[wanted], x[wanted], y[wanted]
        for k in range(1, n + 1):
            ll, wanted = x + loglam, None
            if visit is None:
                s += x  # (s + x) + loglam, in place: the full-width loop's rounding
                s += loglam
            else:
                wanted = visit(ll, live)
            if k == n:
                break
            # z_k exceeds doubles, or visit reads the row no more: the orbit ends
            drop = ll > _EXP_LIMIT
            if wanted is not None:
                drop |= ~wanted
            if drop.any():
                keep = ~drop
                if visit is None:
                    s_all[live[drop]] = s[drop]
                    s = s[keep]
                live, ll, y = live[keep], ll[keep], y[keep]
            # z_k = e^ll (cos a + i sin a), formed in place to hold fewer (m,) arrays
            a = y + arglam
            x = np.cos(a)
            r = np.exp(ll)
            x *= r
            if k < n - 1:  # Im z_(n-1) would only form z_n
                y = np.sin(a, out=a)
                y *= r
            del r  # nor held while visit runs
        if visit is not None:
            return None
        s_all[live] = s
    return s_all, live, ll


def expaffine_logphi(x0, y0, n: int, loglam: float, arglam: float):
    """log (f^n)^#, log|(f^n)'|, log|z_n| (NaN where the orbit left double
    range before step n), status for f = lam e^z."""
    s, live, ll = _exp_orbit(x0, y0, n, loglam, arglam, None)
    logphi = np.full(s.shape, np.nan)
    last = np.full(s.shape, np.nan)
    last[live] = ll
    with np.errstate(over="ignore", invalid="ignore"):
        # log(1 + |z_n|^2) from log|z_n|: dynamics.log_spherical's rule
        two = 2.0 * ll
        den = np.where(ll > LOG_SQUARE_CUT, two, np.log1p(np.exp(two)))
        logphi[live] = s[live] - den
    status = np.full(s.shape, STATUS_OVERFLOW, dtype=np.int64)
    status[live] = STATUS_OK
    return logphi, s, last, status


def expaffine_logmag_steps(x0, y0, n_max: int, loglam: float, arglam: float, visit):
    """Feeds visit(ll, live), ll = log|z_k| on the rows live, for k = 0..n_max."""
    _exp_orbit(x0, y0, n_max, loglam, arglam, visit)


# ---------------------------------------------------------------------------
# polynomial p(z) = sum c_k z^k, continued on log|z| alone once log|z|
# passes _escalate_log(d)


def _escalate_log(d: int) -> float:
    """log|z| above which a degree-d orbit takes leading-term steps: at most
    log 1e100, low enough that z^d and the Horner intermediates of the next
    step stay in double range, and (for d > 65, where 690/d - 10 < 40/d)
    high enough that |z^d| > e^40 dwarfs the constant term."""
    return min(_POLAR_ESCALATE, max(690.0 / d - 10.0, 40.0 / d))


def _horner(z, coeffs, out):
    """p(z) into out, coeffs highest first, by Horner from the leading
    coefficient c: the first product is z itself when c = 1, z times the
    real c when c is real, else c filled into out times z (the array x array
    product, as a scalar c may round differently), and a zero coefficient
    gets no add.  A constant is 0 * z + c, NaN where z is."""
    lead, *rest = coeffs
    if not rest:
        np.add(np.multiply(0.0, z, out=out), lead, out=out)
        return
    if lead == 1.0:
        acc = z
    elif lead.imag == 0.0:
        acc = np.multiply(z, lead.real, out=out)
    else:
        out.fill(lead)
        acc = np.multiply(out, z, out=out)
    for j, c in enumerate(rest):
        if j:
            acc = np.multiply(acc, z, out=out)
        if c != 0.0:
            acc = np.add(acc, c, out=out)
    if acc is z:  # p(z) = z
        np.copyto(out, z)


def poly_logphi(x0, y0, n: int, coefficients):
    """Same outputs for a polynomial given by its coefficient list.

    The rectangular rows sit in contiguous arrays and step by Horner in
    place, on the whole batch until a row escalates; the log-polar rows
    take leading-term steps.  The row sets change only when a row escalates
    (its first log-polar step is the next one) or dies.

    Horner from 0 * z, with a multiply by a leading 1 and an add of every
    zero coefficient, gives the values of _horner up to the signs of zeros,
    which no magnitude sees, except where z is not finite and 0 * z is NaN:
    so rows that start off the finite plane start from 0 * z."""
    x0 = np.ascontiguousarray(x0, dtype=np.float64)
    y0 = np.ascontiguousarray(y0, dtype=np.float64)
    coeffs = np.asarray(coefficients, dtype=np.complex128)
    d = coeffs.shape[0] - 1
    loglead = math.log(abs(coeffs[d]))
    logd_lead = math.log(float(d)) + loglead
    pcoeffs = [complex(c) for c in coeffs[::-1]]  # p and p', highest first
    dcoeffs = [complex(j * coeffs[j]) for j in range(d, 0, -1)]
    esc_log = _escalate_log(d)
    # |z| <= near means log|z| <= esc_log, whatever the last bits of log
    near = math.exp(esc_log) * (1.0 - 1e-9)
    abs_coeffs = [abs(coeffs[j]) for j in range(d, -1, -1)]

    def bound(r):
        """An upper bound on |p(z)| as computed, for every |z| <= r."""
        acc = abs_coeffs[0]
        for a in abs_coeffs[1:]:
            acc = acc * r + a
        return acc * (1.0 + 1e-9)

    m = x0.shape[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = np.zeros(m)  # log|(f^k)'(z_0)| and log|z_k|, filled in as
        ll = np.zeros(m)  # rows die and at the end
        alive = np.ones(m, dtype=bool)
        # rectangular rows (None: all of them), z_k, s and |z_k|
        rows, z, sr, mag = None, x0 + 1j * y0, np.zeros(m), np.empty(m)
        dv, zn = np.empty_like(z), np.empty_like(z)
        # a bound on |z_k| over the rectangular rows (NaN: none known)
        r = float(np.abs(z).max()) if m else 0.0
        if not math.isfinite(r):
            # starts off the finite plane: Horner from 0 * z made these rows
            # NaN at their first product; start them there, so the NaNs that
            # leave them keep their bytes
            off = ~np.isfinite(z)
            z[off] = np.multiply(np.complex128(0.0), z[off])
        # log-polar rows, their s and log|z_k|
        prows, ps, pl = np.empty(0, dtype=np.intp), np.empty(0), np.empty(0)
        for _ in range(n):
            if prows.size:
                # leading-term step: |p'| ~ d |a_d| r^(d-1), p ~ a_d z^d
                ps += logd_lead + (d - 1.0) * pl
                pl = d * pl + loglead
                dead = pl > _LOG_BIG
                if dead.any():
                    gone = prows[dead]
                    s[gone], ll[gone], alive[gone] = ps[dead], pl[dead], False
                    keep = ~dead
                    prows, ps, pl = prows[keep], ps[keep], pl[keep]
            if not z.size:
                continue
            _horner(z, dcoeffs, dv)
            _horner(z, pcoeffs, zn)
            np.abs(dv, out=mag)
            sr += np.log(mag, out=mag)
            z, zn = zn, z
            r = bound(r)
            if r <= near:
                continue  # no row can pass esc_log at this step
            # escalate the rows with log|z_k| > esc_log; their first
            # leading-term step is the next one
            np.abs(z, out=mag)
            logmag = np.log(mag)
            new = np.flatnonzero(logmag > esc_log)
            if new.size:
                prows = np.concatenate([prows, new if rows is None else rows[new]])
                ps = np.concatenate([ps, sr[new]])
                pl = np.concatenate([pl, logmag[new]])
                keep = np.ones(z.size, dtype=bool)
                keep[new] = False
                rows = np.flatnonzero(keep) if rows is None else rows[keep]
                z, sr, mag = z[keep], sr[keep], mag[keep]
                dv, zn = dv[:z.size], zn[:z.size]
            r = float(mag.max()) if mag.size else 0.0
        np.abs(z, out=mag)
        lm = np.log(np.maximum(mag, 1e-323))
        rect = slice(None) if rows is None else rows
        s[rect], ll[rect] = sr, lm
        s[prows], ll[prows] = ps, pl
        # log(1 + |z_n|^2): |z_n| <= e^esc_log on the rectangular rows, so
        # |z_n|^2 fits doubles; from log|z_n| alone on the log-polar rows
        den = np.multiply(mag, mag, out=mag)
        np.log1p(den, out=den)
        logphi = np.full(m, np.nan)
        logphi[rect] = np.subtract(sr, den, out=den)
        logphi[prows] = ps - (2.0 * pl + np.log1p(np.exp(-2.0 * pl)))
    status = np.where(alive, STATUS_OK, STATUS_OVERFLOW).astype(np.int64)
    return logphi, s, ll, status
