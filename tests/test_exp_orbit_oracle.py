"""Bit-identity oracle for the lambda e^z orbit loop and the render's rules.

The reference below is the table-building code the render and the logphi
kernel once shared, kept verbatim: `_exp_orbit` filling the (m, n + 1)
table of log|z_k|, the escape rule (`_mark_escapes`, `escape_index`), the
render's `_orbit_logmags` and the table-fed `_classify_fast`.  The code
under test must give the same escape steps, fast mask, PPM bytes and
`expaffine_logphi` outputs, compared with `tobytes()`; the expected log
(f^n)^# is formed from the table's log|z_n| by dynamics.log_spherical's
rule, as the kernel forms it.
"""

import cmath
import functools
import math

import numpy as np
import pytest

from sphgrow import dynamics as dy
from sphgrow import functions as fx
from sphgrow import kernels
from sphgrow import measures as ms
from sphgrow import render as rd
from sphgrow.towers import TowerReal

from test_kernels import _log1p_square
from test_render import CASES, _hand_made_table, _pixels


# ---------------------------------------------------------------------------
# the reference, verbatim


def _exp_orbit(x0, y0, n: int, loglam: float, arglam: float, log_escape):
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
            drop = ll > kernels._EXP_LIMIT
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


def _expaffine_logphi(x0, y0, n: int, loglam: float, arglam: float):
    table, s, _, live, _, _ = _exp_orbit(x0, y0, n, loglam, arglam, None)
    ll = table[live, n]
    logphi = np.full(s.shape, np.nan)
    # log(1 + |z_n|^2) from log|z_n|, by dynamics.log_spherical's rule
    logphi[live] = s[live] - _log1p_square(ll)
    status = np.full(s.shape, kernels.STATUS_OVERFLOW, dtype=np.int64)
    status[live] = kernels.STATUS_OK
    return logphi, s, table[:, n], status


def _expaffine_logmags(x0, y0, loglam: float, arglam: float, n_max: int, log_escape: float):
    table, _, escape_step, *_ = _exp_orbit(x0, y0, n_max, loglam, arglam, log_escape)
    return table, escape_step


def _mark_escapes(escape_step, rows, ll, k: int, log_escape: float):
    newly = (ll > log_escape) & (escape_step[rows] < 0)
    escape_step[rows[newly]] = k


def _escape_index(table, log_escape: float):
    escape_step = np.full(table.shape[0], -1, dtype=np.int64)
    for k in range(1, table.shape[1]):
        _mark_escapes(escape_step, np.arange(table.shape[0]), table[:, k], k, log_escape)
    return escape_step


def _orbit_logmags(f, xs, ys, n_max, log_escape):
    if isinstance(f, fx.ExpAffine):
        return _expaffine_logmags(
            xs, ys, math.log(abs(f.lam)), math.atan2(f.lam.imag, f.lam.real),
            n_max, log_escape)
    table = dy.orbit_table(f, xs, ys, n_max).log_mag
    return table, _escape_index(table, log_escape)


def _classify_fast(logmags, levels, l_max, n_max):
    log_M = [t.log().value() for t in levels]
    fast = np.zeros(logmags.shape[0], dtype=bool)
    for l in range(l_max + 1):
        run = np.flatnonzero(~fast)  # the pixels still in the running for l
        for n in range(l, n_max + 1):
            col, v = logmags[run, n], log_M[n - l]
            beats = np.isnan(col) | (col > v)
            gap = rd._TIE_REL * np.maximum(np.maximum(np.abs(col), abs(v)), 1.0)
            near = np.isfinite(col) & ~(np.abs(col - v) > gap)
            for i in np.flatnonzero(near):
                beats[i] = TowerReal.from_log(col[i]) > levels[n - l]
            run = run[beats]
        fast[run] = True
    return fast


def _reference_rules(f, xs, ys, R, l_max, n_max):
    logmags, escape_step = _orbit_logmags(f, xs, ys, n_max, math.log(max(R, 10.0)))
    fast = _classify_fast(logmags, fx.iterated_max_modulus(f, R, n_max), l_max, n_max)
    return escape_step, fast


def _colorize(escape_step, fast, n_max):
    rgb = np.zeros((escape_step.size, 3), dtype=np.float64)
    bounded = escape_step < 0
    rgb[bounded] = (10.0, 10.0, 40.0)
    esc = ~bounded
    t = escape_step[esc] / max(n_max, 1)  # in (0, 1]: escapes happen at steps 1..n_max
    rgb[esc, 0] = 60.0 + 170.0 * (1.0 - t)
    rgb[esc, 1] = 30.0 + 120.0 * (1.0 - t) ** 2
    rgb[esc, 2] = 90.0 * t
    rgb[fast] = (255.0, 244.0, 214.0)
    return rgb  # every entry is in [0, 255]


def _ppm_pixels(rgb):
    """The pixel bytes render_escape writes for a colorize result."""
    return rgb.astype(np.uint8).tobytes()


# ---------------------------------------------------------------------------
# the code under test


def _rules(f, xs, ys, R, l_max, n_max):
    """Escape steps and fast mask as the render computes them."""
    return rd._escape_and_fast(f, xs, ys, R, l_max, n_max, fx.iterated_max_modulus(f, R, n_max))


def _rules_from_columns(logmags, log_escape, towers, l_max):
    """The same two rules fed a given log|z_k| table, column by column."""
    rules = rd._StepRules(logmags.shape[0], log_escape, towers, l_max)
    for col in logmags.T:
        rules.step(col)
    return rules.escape_step, rules.fast()


# ---------------------------------------------------------------------------


def _assert_same(got, want):
    assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("name, f, window, R, size, n_max", CASES,
                         ids=[c[0] for c in CASES])
@pytest.mark.parametrize("l_max", [0, 1, 3])
def test_rules_bit_identical_on_render_cases(name, f, window, R, size, n_max, l_max):
    xs, ys = _pixels(window, size)
    want = _reference_rules(f, xs, ys, R, l_max, n_max)
    _assert_same(_rules(f, xs, ys, R, l_max, n_max), want)
    assert (want[0] >= 1).any() and (want[0] < 0).any()


def test_default_render_bit_identical(tmp_path):
    # the 512^2 default window of the render subcommand, PPM bytes included
    f, window, R, l_max, n_max = fx.ExpAffine(1.0), ms.Region.rectangle(1.0 + 0j, 3.0, 3.0), 5.0, 3, 12
    out = tmp_path / "escape.ppm"
    stats = rd.render_escape(f, window, 512, R, l_max, n_max, str(out))
    xs = np.linspace(-2.0, 4.0, 512)
    ys = np.linspace(3.0, -3.0, 512)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    escape_step, fast = _reference_rules(f, X.ravel(), Y.ravel(), R, l_max, n_max)
    _assert_same(_rules(f, X.ravel(), Y.ravel(), R, l_max, n_max), (escape_step, fast))
    want = b"P6\n512 512\n255\n" + _ppm_pixels(_colorize(escape_step, fast, n_max))
    assert out.read_bytes() == want
    assert stats["fast_members"] == int(fast.sum()) == 25672


def _backward_orbits(lam, ks):
    """Starts whose orbits reach Re z = t in [720, 1500] (so log|z| > 709 one
    step later) at step k, for each k of ks: principal branches
    z_(j-1) = log(z_j / lam)."""
    starts = []
    for k in ks:
        for t in np.linspace(720.0, 1500.0, 9):
            z = complex(t)
            for _ in range(k):
                z = cmath.log(z / lam)
            starts.append(z)
    return np.array([z.real for z in starts]), np.array([z.imag for z in starts])


def _backward_starts(lam, n_max):
    """A 200^2 grid with Re z_0 in [-2, 4], and backward orbits that pass
    e^709 at the last step (n_max), one step before it and midway."""
    side = np.linspace(-3.0, 3.0, 200)
    X, Y = np.meshgrid(side + 1.0, side)
    bx, by = _backward_orbits(lam, (n_max - 1, n_max - 2, n_max - 6))
    return np.concatenate([X.ravel(), bx]), np.concatenate([Y.ravel(), by])


def _assert_rules_and_pixels(lam, l_max, n_max):
    """Escape steps, fast mask and pixel bytes on the grid and the backward
    orbits that pass e^709 near the last step; returns the reference."""
    f, R = fx.ExpAffine(lam), 5.0
    xs, ys = _backward_starts(lam, n_max)
    want = _reference_rules(f, xs, ys, R, l_max, n_max)
    got = _rules(f, xs, ys, R, l_max, n_max)
    _assert_same(got, want)
    assert _ppm_pixels(rd._colorize(*got, n_max)) == _ppm_pixels(_colorize(*want, n_max))
    return xs, ys, want


@pytest.mark.parametrize("lam", [1.0, 0.3 - 0.2j])
@pytest.mark.parametrize("l_max", [0, 1, 3])
def test_rules_bit_identical_on_backward_orbits(lam, l_max):
    # NaN tails, and rows that pass e^709 at the last step
    n_max = 12
    xs, ys, want = _assert_rules_and_pixels(lam, l_max, n_max)
    table, _ = _expaffine_logmags(xs, ys, math.log(abs(lam)), cmath.phase(lam),
                                  n_max, math.log(5.0))
    assert np.isnan(table[:, -1]).sum() >= 18 and (table[:, -1] > 709.0).sum() >= 9
    assert want[1].any() == (l_max > 0) and (want[0] < 0).any()


# with the test above: l_max in {0, 1, 3} and at or past n_max, each with
# n_max in {1, l_max, 12}
_L_N = [(l_max, n_max) for l_max in (0, 1, 3, 12, 13)
        for n_max in sorted({1, l_max, 12}) if not (l_max <= 3 and n_max == 12)]


@pytest.mark.parametrize("lam", [1.0, 0.3 - 0.2j])
@pytest.mark.parametrize("l_max, n_max", _L_N, ids=[f"l{l}-n{n}" for l, n in _L_N])
def test_rules_bit_identical_on_backward_orbits_across_horizons(lam, l_max, n_max):
    # once every l has started the kernel drops the settled rows; an l at or
    # past n_max never starts before the last step
    _, _, want = _assert_rules_and_pixels(lam, l_max, n_max)
    assert (want[0] < 0).any() and (n_max == 0 or (want[0] >= 1).any())


@pytest.mark.parametrize("l_max, R", [(0, 5.0), (1, 5.0), (3, 5.0), (0, 1.0), (1, 1.0)])
def test_rules_bit_identical_on_hand_made_columns(l_max, R):
    f, n_max = fx.ExpAffine(1.0), 6
    towers = fx.iterated_max_modulus(f, R, n_max)
    logmags = _hand_made_table(towers, n_max)
    log_escape = math.log(max(R, 10.0))
    want = (_escape_index(logmags, log_escape), _classify_fast(logmags, towers, l_max, n_max))
    _assert_same(_rules_from_columns(logmags, log_escape, towers, l_max), want)
    assert 0 < want[1].sum() < want[1].size


@functools.cache
def _criterion_5_points():
    """The distinct start points of the kernel calls that criterion 5's
    mu_sup makes, n = 1..4, on the disk of radius 0.5 around the fixed point."""
    calls = []
    kernel = kernels.expaffine_logphi

    def recorded(x0, y0, *args):
        calls.append((np.array(x0), np.array(y0)))
        return kernel(x0, y0, *args)

    U = ms.Region.disk(complex(0.318, 1.337), 0.5)
    kernels.expaffine_logphi = recorded
    try:
        for n in (1, 2, 3, 4):
            ms.mu_sup(fx.ExpAffine(1.0), U, n, ms.GridSpec())
    finally:
        kernels.expaffine_logphi = kernel
    z = np.unique(np.concatenate([xs + 1j * ys for xs, ys in calls]))
    return z.real.copy(), z.imag.copy()


def _overflow_rows(lam, n):
    """Rows at and around x0 = 740, past e^709 already at z_0, and backward
    orbits that pass it after step n, at step n (the last step) and at
    step n - 4 (midway)."""
    rng = np.random.default_rng(17)
    bx, by = _backward_orbits(lam, (n, n - 1, n - 5))
    return (np.concatenate([[740.0, 740.0, 740.0, 708.9, 709.0, 709.1],
                            rng.uniform(700.0, 760.0, 300), bx]),
            np.concatenate([[0.0, 1.0, -3.0, 0.0, 0.5, 0.0],
                            rng.uniform(-4.0, 4.0, 300), by]))


@pytest.mark.parametrize("lam", [1.0, 0.3 - 0.2j])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 12])
def test_logphi_bit_identical_to_table_loop(lam, n):
    cx, cy = _criterion_5_points()
    ox, oy = _overflow_rows(lam, n)
    xs, ys = np.concatenate([cx, ox]), np.concatenate([cy, oy])
    args = (xs, ys, n, math.log(abs(lam)), cmath.phase(lam))
    got = kernels.expaffine_logphi(*args)
    want = _expaffine_logphi(*args)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert cx.size > 200_000
    # rows that die before step n, and rows that pass e^709 at step n
    assert (want[3] == kernels.STATUS_OVERFLOW).sum() >= 200 * (n >= 2)
    assert (want[2] > 709.0).sum() >= 3 * (n >= 1)
