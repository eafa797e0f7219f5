"""Vectorized orbit kernels agree with the scalar orbit code in dynamics."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from conftest import log_sharp
from sphgrow import dynamics as dy
from sphgrow import functions as fx
from sphgrow import kernels
from sphgrow import render as rd

# log of the smallest normal double: below it |z| is subnormal and carries
# fewer than 53 significant bits
LOG_TINY = math.log(np.finfo(np.float64).tiny)


def _grid(seed, m=500, lo=-2.0, hi=2.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, m), rng.uniform(lo, hi, m)


def _assert_grid_matches_orbits(f, xs, ys, n, got, min_pairs):
    """Kernel outputs (logphi, logderiv, loglast, status) against iterate_orbit.

    Status OK must coincide with the scalar orbit reaching step n.  Only
    log|z_n| may be -inf on the scalar side, where z_n underflowed to 0 in
    doubles while the kernel keeps its exact log; there the kernel value is
    only checked to be finite.
    """
    logphi, logderiv, loglast, status = got
    pairs = 0
    for i in range(xs.size):
        orbit = dy.iterate_orbit(f, complex(xs[i], ys[i]), n)
        reaches = orbit.length() > n and len(orbit.log_deriv_prefix) > n
        assert (status[i] == kernels.STATUS_OK) == reaches, i
        if not reaches:
            continue
        want = (log_sharp(orbit, n),
                orbit.log_deriv_prefix[n], orbit.log_mag(n))
        for k, (g, w) in enumerate(zip((logphi[i], logderiv[i], loglast[i]), want)):
            if w == -math.inf:
                assert k == 2 and orbit.points[n] == 0, i
                assert math.isfinite(g), i
                continue
            assert math.isfinite(g) and math.isfinite(w), i
            assert abs(g - w) <= 1e-9 + 1e-10 * abs(w), (i, g, w)
        pairs += math.isfinite(want[0])
    assert pairs >= min_pairs


def test_exp_kernel_vs_scalar_orbit():
    f = fx.ExpAffine(0.8 + 0.1j)
    xs = np.array([0.2, -1.0, 0.5])
    ys = np.array([0.3, 0.4, -0.7])
    n = 4
    logphi, logderiv, loglast, status = kernels.expaffine_logphi(
        xs, ys, n, math.log(abs(f.lam)), math.atan2(f.lam.imag, f.lam.real))
    for i in range(xs.size):
        orbit = dy.iterate_orbit(f, complex(xs[i], ys[i]), n)
        assert status[i] == kernels.STATUS_OK
        assert math.isclose(loglast[i], orbit.log_mag(n), rel_tol=0, abs_tol=1e-10)
        want = log_sharp(orbit, n)
        assert math.isclose(logphi[i], want, rel_tol=0, abs_tol=1e-9)
    # 500 points, most of which overflow before n = 12
    xs, ys = _grid(0)
    got = kernels.expaffine_logphi(xs, ys, 12, 0.0, 0.0)
    _assert_grid_matches_orbits(fx.ExpAffine(1.0), xs, ys, 12, got, min_pairs=60)


def test_poly_kernel_vs_scalar_orbit():
    f = fx.Polynomial((0.1, 0.0, 1.0))
    xs = np.array([0.3, -0.2, 1.1])
    ys = np.array([0.1, 0.6, -0.4])
    n = 5
    logphi, _, loglast, status = kernels.poly_logphi(xs, ys, n, f.coefficients)
    for i in range(xs.size):
        orbit = dy.iterate_orbit(f, complex(xs[i], ys[i]), n)
        assert status[i] == kernels.STATUS_OK
        assert math.isclose(loglast[i], orbit.log_mag(n), rel_tol=0, abs_tol=1e-9)
        want = log_sharp(orbit, n)
        assert math.isclose(logphi[i], want, rel_tol=0, abs_tol=1e-8)
    xs, ys = _grid(1)
    coeffs = (0.1 + 0.2j, -1.0, 0.0, 0.5)
    got = kernels.poly_logphi(xs, ys, 10, np.array(coeffs, dtype=np.complex128))
    _assert_grid_matches_orbits(fx.Polynomial(coeffs), xs, ys, 10, got,
                                min_pairs=500)
    # z^2 from |z_0| in [1.27, 3]: the rows pass 1e100 at steps 8 to 10, so
    # the kernel takes log-polar steps from step 9, 10 or not at all
    square = fx.Polynomial((0, 0, 1))
    rng = np.random.default_rng(3)
    r, t = rng.uniform(1.27, 3.0, 300), rng.uniform(0.0, 2.0 * np.pi, 300)
    xs, ys = r * np.cos(t), r * np.sin(t)
    got = kernels.poly_logphi(xs, ys, 10, square.coefficients)
    _assert_grid_matches_orbits(square, xs, ys, 10, got, min_pairs=300)
    polar_steps = 10 - np.ceil(np.log2(kernels._POLAR_ESCALATE / np.log(r)))
    assert {0, 1, 2} <= set(polar_steps.tolist())
    # z_0 = 10 under z^2: log|z_k| = 2^k log 10 passes 1e300 at k = 996,
    # where the kernel ends the row with the scalar orbit's values
    xs, ys = np.array([10.0, 1.0]), np.array([0.0, 0.0])
    logphi, logderiv, loglast, status = kernels.poly_logphi(xs, ys, 1000, square.coefficients)
    orbit = dy.iterate_orbit(square, 10.0, 1000)
    k = next(k for k in range(orbit.length()) if orbit.log_mag(k) > 1e300)
    assert k == 996
    assert status.tolist() == [kernels.STATUS_OVERFLOW, kernels.STATUS_OK]
    assert np.isnan(logphi[0]) and math.isfinite(logphi[1])
    assert math.isclose(loglast[0], orbit.log_mag(k), rel_tol=1e-10)
    assert math.isclose(logderiv[0], orbit.log_deriv_prefix[k], rel_tol=1e-10)


@pytest.mark.parametrize("d", [70, 80, 100])
def test_poly_kernel_high_degree_vs_scalar_orbit(d):
    # z^d + 0.3: below |z| = e^(40/d) the kernel keeps Horner steps, where the
    # constant term still counts.  The starts with |z_0| > 1 run three and
    # four steps: z_2 is still rectangular in the scalar orbit (d log|z_2|
    # is about 7,000 at d = 70), so its Horner derivative overflows doubles
    # and log|(f^3)'| comes from the leading term, as in the kernel.
    f = fx.Polynomial((0.3,) + (0.0,) * (d - 1) + (1.0,))
    inside = [0.5 + 0.1j, 0.9, -0.7j, 0.99 + 0.05j, 0.3 - 0.8j]
    outside = [1.02, 1.01 + 0.05j, -1.03j, -1.02 + 0.01j]
    for n, starts in ((1, inside + outside), (2, inside + outside), (3, inside + outside),
                      (4, outside)):
        xs = np.array([z.real for z in starts])
        ys = np.array([z.imag for z in starts])
        got = kernels.poly_logphi(xs, ys, n, f.coefficients)
        _assert_grid_matches_orbits(f, xs, ys, n, got, min_pairs=len(starts))


def test_overflow_status():
    xs = np.array([740.0])
    ys = np.array([0.0])
    _, _, _, status = kernels.expaffine_logphi(xs, ys, 3, 0.0, 0.0)
    assert status[0] == kernels.STATUS_OVERFLOW


def _streamed(x0, y0, loglam, arglam, n_max, log_escape):
    """The log|z_k| table assembled from expaffine_logmag_steps (NaN past an
    orbit's end) and the escape steps the render's rule reads off the same
    steps."""
    m = np.size(x0)
    table = np.full((m, n_max + 1), np.nan)
    towers = fx.iterated_max_modulus(fx.ExpAffine(1.0), 5.0, n_max)
    rules = rd._StepRules(m, log_escape, towers, -1)  # l_max = -1: no fast rule
    steps = []

    def visit(ll, live):
        table[live, len(steps)] = ll
        steps.append(live.size)
        rules.step(ll, live)

    kernels.expaffine_logmag_steps(x0, y0, n_max, loglam, arglam, visit)
    assert len(steps) == n_max + 1 and steps[0] == m
    return table, rules.escape_step


def test_logmags_escape_index():
    xs = np.array([10.0, 0.0])
    ys = np.array([0.0, 0.0])
    table, escape = _streamed(xs, ys, 0.0, 0.0, 10, math.log(5.0))
    assert escape[0] == 1          # |z_1| = e^10 > 5
    assert math.isclose(table[0, 1], 10.0, rel_tol=1e-12)   # log|e^10|
    assert escape[1] == 3          # 0 -> 1 -> e -> e^e, first |z_k| > 5

    # 500 points against iterate_orbit: escape indices exactly, nan exactly
    # after the first log|z_k| > 709, values at rtol 1e-8 (one ulp at step k
    # is amplified by exp at every later step).  Reference entries below the
    # smallest normal double are skipped: there iterate_orbit holds z_k as a
    # subnormal and log|z_k| has lost bits, while the kernel keeps log|z_k|
    # itself (10 such entries here, down to log|z| = -742).
    f = fx.ExpAffine(1.0)
    n_max = 20
    xs, ys = _grid(2, lo=-1.0, hi=3.0)
    table, escape = _streamed(xs, ys, 0.0, 0.0, n_max, math.log(5.0))
    pairs = 0
    for i in range(xs.size):
        orbit = dy.iterate_orbit(f, complex(xs[i], ys[i]), n_max)
        lm = [orbit.log_mag(k) for k in range(min(orbit.length(), n_max + 1))]
        want_escape = next((k for k in range(1, len(lm)) if lm[k] > math.log(5.0)), -1)
        assert escape[i] == want_escape, i
        first_big = next((k for k in range(len(lm)) if lm[k] > 709.0), n_max)
        assert np.isnan(table[i, first_big + 1:]).all(), i
        assert not np.isnan(table[i, :first_big + 1]).any(), i
        for k in range(first_big + 1):
            if lm[k] < LOG_TINY:
                continue
            assert abs(table[i, k] - lm[k]) <= 1e-9 + 1e-8 * abs(lm[k]), (i, k)
            pairs += 1
    assert pairs > 4800


def _logmags_full_width(x0, y0, loglam, arglam, n_max, log_escape):
    """The render's orbit table as it was first written: every step over
    every orbit, with the escape index filled in along the way."""
    x = np.ascontiguousarray(x0, dtype=np.float64)
    y = np.ascontiguousarray(y0, dtype=np.float64)
    m = x.shape[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        table = np.full((m, n_max + 1), np.nan)
        r2 = x * x + y * y
        table[:, 0] = np.where(r2 > 0.0, 0.5 * np.log(np.maximum(r2, 1e-323)), -745.0)
        escape_step = np.full(m, -1, dtype=np.int64)
        alive = np.ones(m, dtype=bool)
        for k in range(1, n_max + 1):
            ll = x + loglam
            a = y + arglam
            table[alive, k] = ll[alive]
            newly = alive & (escape_step < 0) & (ll > log_escape)
            escape_step[newly] = k
            over = alive & (ll > 709.0)
            alive = alive & ~over
            safe = np.where(alive, np.minimum(ll, 709.0), 0.0)
            r = np.exp(safe)
            x = np.where(alive, r * np.cos(a), x)
            y = np.where(alive, r * np.sin(a), y)
    return table, escape_step


@pytest.mark.parametrize("lam", [1.0, 0.3 - 0.2j])
def test_logmags_bit_identical_to_full_width(lam):
    # the live-row kernel's steps must reproduce every bit, NaN tails included
    n_max = 12
    side = np.linspace(-3.0, 3.0, 200)
    X, Y = np.meshgrid(side + 1.0, side)
    # and backward orbits that reach Re z = t (so log|z| > 709 one step
    # later) at step k: principal branches z_(j-1) = log(z_j / lam)
    starts = []
    for k in (n_max - 1, n_max - 2, n_max - 6):
        for t in np.linspace(720.0, 1500.0, 9):
            z = complex(t)
            for _ in range(k):
                z = cmath.log(z / lam)
            starts.append(z)
    xs = np.concatenate([X.ravel(), [z.real for z in starts]])
    ys = np.concatenate([Y.ravel(), [z.imag for z in starts]])
    args = (xs, ys, math.log(abs(lam)), cmath.phase(lam), n_max, math.log(5.0))
    table, escape = _streamed(*args)
    want_table, want_escape = _logmags_full_width(*args)
    assert table.tobytes() == want_table.tobytes()
    assert escape.tobytes() == want_escape.tobytes()
    # the points exercise what the live rows change: orbits that leave
    # double range midway (NaN tails), orbits that pass e^709 at the last
    # step, and orbits that never escape
    last = want_table[:, n_max]
    assert np.isnan(last).sum() >= 18
    assert (last > 709.0).sum() >= 9
    assert (want_escape < 0).any()


def _logphi_full_width(x0, y0, n, loglam, arglam):
    """expaffine_logphi's loop as it was first written: every step over every
    orbit, with the orbits that pass e^709 at the last step kept alive; log
    (f^n)^# from its log|z_n| by dynamics.log_spherical's rule."""
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
            over = alive & (ll > 709.0)
            if k < n - 1:
                alive = alive & ~over
            else:
                dead_at_end |= over
            safe = np.where(alive & ~dead_at_end, np.minimum(ll, 709.0), 0.0)
            r = np.exp(safe)
            nx = r * np.cos(a)
            ny = r * np.sin(a)
            x = np.where(alive & ~dead_at_end, nx, x)
            y = np.where(alive & ~dead_at_end, ny, y)
        logphi = np.where(alive, s - _log1p_square(ll), np.nan)
    status = np.where(alive, kernels.STATUS_OK, kernels.STATUS_OVERFLOW).astype(np.int64)
    return logphi, s, ll, status


def _log1p_square(ll):
    """log(1 + |z|^2) from ll = log|z|, by dynamics.log_spherical's rule on
    arrays: 2 log|z| past log|z| = 350, else log1p(e^(2 log|z|))."""
    with np.errstate(over="ignore"):
        return np.where(ll > 350.0, 2.0 * ll, np.log1p(np.exp(2.0 * ll)))


def _overflow_starts(lam, n):
    """A 120^2 grid with Re z_0 in [-2, 4], a strip with Re z_0 in [6, 7] where
    most orbits of lam e^z overflow within 4 steps, and backward orbits that
    reach Re z = t (so log|z| > 709 one step later) at step n - 1 (the last
    step overflows), n - 2 and n - 6 (overflow midway)."""
    side = np.linspace(-3.0, 3.0, 120)
    X, Y = np.meshgrid(side + 1.0, side)
    rng = np.random.default_rng(11)
    sx, sy = rng.uniform(6.0, 7.0, 4000), rng.uniform(-0.5, 0.5, 4000)
    starts = []
    for k in (n - 1, n - 2, n - 6):
        if k < 0:
            continue
        for t in np.linspace(720.0, 1500.0, 9):
            z = complex(t)
            for _ in range(k):
                z = cmath.log(z / lam)
            starts.append(z)
    xs = np.concatenate([X.ravel(), sx, [z.real for z in starts]])
    ys = np.concatenate([Y.ravel(), sy, [z.imag for z in starts]])
    return xs, ys


@pytest.mark.parametrize("lam", [1.0, 0.3 - 0.2j])
@pytest.mark.parametrize("n", [1, 2, 4, 12])
def test_logphi_bit_identical_to_full_width(lam, n):
    # logphi, logderiv and status keep every bit; log|z_n| is only defined
    # where the orbit reaches step n
    xs, ys = _overflow_starts(lam, n)
    args = (xs, ys, n, math.log(abs(lam)), cmath.phase(lam))
    logphi, logderiv, loglast, status = kernels.expaffine_logphi(*args)
    want = _logphi_full_width(*args)
    assert logphi.tobytes() == want[0].tobytes()
    assert logderiv.tobytes() == want[1].tobytes()
    assert status.tobytes() == want[3].tobytes()
    ok = want[3] == kernels.STATUS_OK
    assert loglast[ok].tobytes() == want[2][ok].tobytes()
    # orbits that die midway, at the last step and never
    assert (~ok).sum() >= 9 * (n > 1)
    assert (want[2][ok] > 709.0).sum() >= 9
    assert (want[2][ok] < 5.0).any()


@pytest.mark.parametrize("lam", [1.0, 0.3 - 0.2j])
@pytest.mark.parametrize("n", [1, 2, 4, 12])
def test_logphi_is_log_spherical_rule_of_its_outputs(lam, n):
    # log (f^n)^# is log|(f^n)'| - log(1 + |z_n|^2), the second formed from
    # the log|z_n| the kernel returns, bit for bit, on every row that reaches n
    xs, ys = _overflow_starts(lam, n)
    logphi, logderiv, loglast, status = kernels.expaffine_logphi(
        xs, ys, n, math.log(abs(lam)), cmath.phase(lam))
    ok = status == kernels.STATUS_OK
    want = np.where(ok, logderiv - _log1p_square(loglast), np.nan)
    assert logphi.tobytes() == want.tobytes()
    # both sides of the cut
    assert (loglast[ok] > 350.0).sum() >= 9
    assert (loglast[ok] < 5.0).any()


def test_logphi_n1_accuracy_against_mpmath():
    # at n = 1, log (f)^#(z_0) = x0 + log|lam| - log1p(|lam|^2 e^(2 x0)) is
    # exact from the start point; 200-bit reference on seeded z_0 on both
    # sides of the cut.  Forming z_1 and squaring it back gave 5.2e-16 here
    rng = np.random.default_rng(5)
    worst = 0.0
    for lam in (1.0, 0.3 - 0.2j):
        for lo, hi in ((-3.0, 3.0), (-40.0, 40.0), (300.0, 400.0)):
            xs, ys = rng.uniform(lo, hi, 500), rng.uniform(-4.0, 4.0, 500)
            logphi = kernels.expaffine_logphi(xs, ys, 1, math.log(abs(lam)), cmath.phase(lam))[0]
            with mpmath.workprec(200):
                loglam = mpmath.log(abs(mpmath.mpc(lam)))
                for x, got in zip(xs.tolist(), logphi.tolist()):
                    ll = mpmath.mpf(x) + loglam
                    want = ll - mpmath.log1p(mpmath.exp(2 * ll))
                    worst = max(worst, float(abs((got - want) / want)))
    assert worst <= 3.5e-16, worst


def _poly_logphi_masked(x0, y0, n, coefficients):
    """poly_logphi as it was first written: full-width alive/polar masks and
    a fancy-indexed Horner step on the rectangular rows at every step.  Its
    escalation ceiling and its 2 log|z_n| for log-polar rows give the
    kernel's bits below degree 26 (log-polar rows end past log|z| = 16.7)."""
    x0 = np.ascontiguousarray(x0, dtype=np.float64)
    y0 = np.ascontiguousarray(y0, dtype=np.float64)
    coeffs = np.asarray(coefficients, dtype=np.complex128)
    d = coeffs.shape[0] - 1
    lead = coeffs[d]
    esc_log = min(230.25850929940457, 690.0 / d - 10.0)
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
                s[pol] += math.log(float(d)) + math.log(abs(lead)) + (d - 1.0) * ll[pol]
                ll[pol] = d * ll[pol] + math.log(abs(lead))
                dead = pol & (ll > 1e300)
                alive &= ~dead
        rect_mag = np.abs(z)
        ll = np.where(polar, ll, np.log(np.maximum(rect_mag, 1e-323)))
        den = np.where(polar | (ll > 350.0), 2.0 * ll,
                       np.log1p(np.where(polar, 0.0, rect_mag * rect_mag)))
        logphi = np.where(alive, s - den, np.nan)
    status = np.where(alive, kernels.STATUS_OK, kernels.STATUS_OVERFLOW).astype(np.int64)
    return logphi, s, ll, status


def _deep_area_calls():
    """The (xs, ys, n) of every poly_logphi call that the criterion-4 areas
    S(rectangle(1, 0.25, 0.25), z^n), n = 6..10, make."""
    from sphgrow import measures as ms

    calls = []
    real = kernels.poly_logphi

    def record(xs, ys, n, coefficients):
        calls.append((np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64), n))
        return real(xs, ys, n, coefficients)

    square = fx.Polynomial((0, 0, 1))
    rect = ms.Region.rectangle(1.0 + 0j, 0.25, 0.25)
    kernels.poly_logphi = record
    try:
        for n in range(6, 11):
            ms.spherical_area(square, rect, n, ms.GridSpec())
    finally:
        kernels.poly_logphi = real
    return calls


def _poly_oracle_cases():
    """(name, xs, ys, n, coefficients) for the bit-identity oracle."""
    cases = []
    square = (0.0, 0.0, 1.0)
    for i, (xs, ys, n) in enumerate(_deep_area_calls()):
        cases.append((f"deep-area-{i}-n{n}", xs, ys, n, square))
    rng = np.random.default_rng(5)
    r, t = 0.4 * np.sqrt(rng.uniform(0, 1, 2000)), rng.uniform(0, 2 * np.pi, 2000)
    cases.append(("disk-n6", 0.5 + r * np.cos(t), 0.5 + r * np.sin(t), 6, (0.1, 0.0, 1.0)))
    xs, ys = _grid(1)
    cases.append(("cubic-n10", xs, ys, 10, (0.1 + 0.2j, -1.0, 0.0, 0.5)))
    # z_0 = 0 (so (f^k)'(z_0) = 0 and log 0 = -inf) and signed zeros
    xs = np.array([0.0, -0.0, 0.0, -0.0, 0.5, -0.0, 0.7, -0.7])
    ys = np.array([0.0, 0.0, -0.0, -0.0, -0.0, 0.7, 0.0, -0.0])
    for n in (0, 1, 3):
        cases.append((f"zeros-n{n}", xs, ys, n, square))
        cases.append((f"zeros-c-n{n}", xs, ys, n, (0.1, 0.0, 1.0)))
    # rows that die in polar mode (log|z| > 1e300) after about 996 steps,
    # next to rows that never escalate and rows that escalate and survive
    xs = np.array([10.0, 0.0, -7.0, 3.0, 0.5, 1.0, 0.0, 1.0001])
    ys = np.array([0.0, 10.0, 7.0, 0.0, 0.5, 0.0, 0.2, 0.0])
    for n in (990, 996, 1000):
        cases.append((f"die-n{n}", xs, ys, n, square))
    # -0.0 coefficient parts and starts off the finite plane, where Horner's
    # 0 * z and its signed zeros show
    xs = np.array([np.inf, -np.inf, np.nan, 1.0, 0.0, -0.0, 0.3, -0.4])
    ys = np.array([0.0, 1.0, 0.0, np.inf, -0.0, -0.0, -0.0, 0.2])
    for n in (1, 2):
        cases.append((f"signed-n{n}", xs, ys, n, (-0.0, complex(0.5, -0.0), complex(1.0, -0.0))))
    # the coefficient patterns that Horner from the leading coefficient
    # branches on: a complex and a real lead other than 1, a monic
    # polynomial with c_(d-1) != 0, one whose derivative is z (Horner's
    # p(z) = z exit), a sparse one and degree 1; from starts that stay
    # bounded, escalate or die, and from the starts above
    patterns = (("lead-complex", 4, (1, 0, 0, 0, 0, 2 - 1j)),
                ("lead-real", 10, (0.3, 0.0, -1.5)),
                ("monic-z2+z", 9, (0.0, 1.0, 1.0)),
                ("derivative-z", 6, (0.25, 0, 0.5)),
                ("sparse-z5+0.3", 4, (0.3, 0, 0, 0, 0, 1.0)),
                ("degree-1", 520, (0.2 - 0.1j, 1.5 + 0.5j)),
                ("degree-1-real", 3, (0.5, 2.0)))
    rx, ry = _grid(6, m=360, lo=-1.3, hi=1.3)
    for name, n, coeffs in patterns:
        cases.append((name, rx, ry, n, coeffs))
        cases.append((f"{name}-signed", xs, ys, 2, coeffs))
    cases.append(("empty", np.array([]), np.array([]), 5, square))
    return cases


def test_poly_logphi_bit_identical_to_parent_loop():
    want = {}
    for name, xs, ys, n, coeffs in _poly_oracle_cases():
        got = kernels.poly_logphi(xs, ys, n, coeffs)
        want[name] = _poly_logphi_masked(xs, ys, n, coeffs)
        for k in range(4):
            assert got[k].dtype == want[name][k].dtype, (name, k)
            assert got[k].tobytes() == want[name][k].tobytes(), (name, k)
    # the cases reach what a live-row loop changes: rows that escalate to
    # polar mode at the last step or midway, rows that die in polar mode at
    # different steps, and -inf derivatives
    deep = {name: out[2] for name, out in want.items() if name.startswith("deep-area")}
    assert any((ll > 230.0).any() for name, ll in deep.items() if name.endswith("n10"))
    assert all((ll < 230.0).all() for name, ll in deep.items() if not name.endswith("n10"))
    assert (want["cubic-n10"][2] > 230.0).sum() > 100
    dead = [(want[f"die-n{n}"][3] == kernels.STATUS_OVERFLOW).sum() for n in (990, 996, 1000)]
    assert dead == [0, 3, 4]
    assert np.isneginf(want["zeros-n1"][1]).sum() == 4
