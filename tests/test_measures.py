"""Spherical sup/area measures and characteristic functions against
closed forms and dense-grid oracles."""

import cmath
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from sphgrow import dynamics as dy
from sphgrow import functions as fx
from sphgrow import kernels
from sphgrow import measures as ms

EXP = fx.ExpAffine(1.0)
SQUARE = fx.Polynomial((0, 0, 1))
GRID = ms.GridSpec()


def _dense_mu_oracle(f, U, n, pts=400):
    """Brute-force sup of log (f^n)^# over a dense rectangle grid."""
    xs = np.linspace(U.center.real - U.half_width, U.center.real + U.half_width, pts)
    ys = np.linspace(U.center.imag - U.half_height, U.center.imag + U.half_height, pts)
    X, Y = np.meshgrid(xs, ys)
    logphi = ms.logphi_batch(f, X.ravel(), Y.ravel(), n)
    good = ~np.isnan(logphi)
    return float(np.max(logphi[good]))


def test_mu_sup_vs_dense_oracle():
    U = ms.Region.rectangle(1.0 + 0.5j, 0.4, 0.3)
    for n in (1, 2, 3):
        res = ms.mu_sup(SQUARE, U, n, GRID)
        want = _dense_mu_oracle(SQUARE, U, n)
        # both sample the same continuum sup; neither sees the exact argmax
        assert abs(res.log_mu - want) <= 1e-4


def test_mu_sup_exp_small_disk():
    U = ms.Region.disk(complex(0.318, 1.337), 0.5)
    res = ms.mu_sup(EXP, U, 1, GRID)
    want = _dense_mu_oracle(EXP, ms.Region.rectangle(U.center, 0.5, 0.5), 1)
    assert res.log_mu >= want - 0.05 or res.log_mu >= want - abs(want) * 0.01


def test_area_law_whole_plane_square():
    # S(D(0, R), z^2) -> deg = 2 as R -> infinity
    res = ms.spherical_area(SQUARE, ms.Region.disk(0j, 1e6), 1, GRID)
    assert abs(res.value - 2.0) <= 1e-2
    assert not res.unconverged


def test_area_riemann_sum_oracle():
    # small square where a plain Riemann sum converges: compare directly
    U = ms.Region.rectangle(0.7 + 0.2j, 0.35, 0.25)
    res = ms.spherical_area(SQUARE, U, 1, GRID)
    pts = 600
    xs = np.linspace(U.center.real - U.half_width, U.center.real + U.half_width, pts)
    ys = np.linspace(U.center.imag - U.half_height, U.center.imag + U.half_height, pts)
    X, Y = np.meshgrid(xs, ys)
    Z = X + 1j * Y
    phi2 = (2.0 * np.abs(Z) / (1.0 + np.abs(Z * Z) ** 2)) ** 2
    want = phi2.mean() * 4.0 * U.half_width * U.half_height / math.pi
    assert math.isclose(res.value, want, rel_tol=5e-3)


def test_area_iterate_growth():
    # S(U, f^(n+1)) ~ 2 S(U, f^n) for z^2 once the image covers the sphere
    U = ms.Region.rectangle(1.0 + 0j, 0.25, 0.25)
    prev = None
    for n in (6, 7, 8):
        res = ms.spherical_area(SQUARE, U, n, GRID)
        if prev is not None:
            inc = res.log_value - prev
            assert abs(inc - math.log(2.0)) <= 0.1
        prev = res.log_value


def test_nevanlinna_T_exp_classical():
    # T(r, e^z) = r / pi
    for r in (math.pi, math.e, 10.0):
        got = ms.nevanlinna_T(EXP, r)
        assert abs(got - r / math.pi) <= 1e-4 * (r / math.pi)


def test_nevanlinna_T_poly():
    # T(r, z^2) = 2 log r + o(1)
    got = ms.nevanlinna_T(SQUARE, 1e4)
    assert abs(got - 2.0 * math.log(1e4)) < 0.01


def _nevanlinna_T_scalar(f, r):
    """nevanlinna_T as first written: one scalar log_eval per angle and the
    panel shares added to a running total."""
    logr = math.log(r)

    def g(theta):
        return f.log_eval(logr, theta)[0]

    thetas = np.linspace(0.0, 2.0 * math.pi, 4097)
    vals = np.array([g(t) for t in thetas])
    total = 0.0
    for i in range(4096):
        a, b = thetas[i], thetas[i + 1]
        va, vb = vals[i], vals[i + 1]
        if va <= 0.0 and vb <= 0.0:
            continue
        if va >= 0.0 and vb >= 0.0:
            total += 0.5 * (va + vb) * (b - a)
            continue
        lo, hi = (a, b) if va < 0.0 else (b, a)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if g(mid) < 0.0:
                lo = mid
            else:
                hi = mid
            if abs(hi - lo) < 1e-12:
                break
        t_star = 0.5 * (lo + hi)
        if va > 0.0:
            total += 0.5 * va * abs(t_star - a)
        else:
            total += 0.5 * vb * abs(b - t_star)
    return total / (2.0 * math.pi)


@pytest.mark.parametrize("f, r", [
    (EXP, math.e), (EXP, math.e ** 2), (EXP, 10.0), (EXP, math.pi), (EXP, 0.5),
    (fx.ExpAffine(0.3 - 0.2j), 3.0), (SQUARE, 1e4), (fx.Polynomial((0.5, 0, 1)), 0.8),
    (fx.CoshSqrt(), 20.0),
], ids=["e", "e2", "10", "pi", "half", "exp-complex", "square", "poly-kinks", "coshsqrt"])
def test_nevanlinna_T_bit_identical_to_scalar_loop(f, r):
    assert float(ms.nevanlinna_T(f, r)).hex() == float(_nevanlinna_T_scalar(f, r)).hex()


def test_sandwich_exp():
    out = ms.characteristic_sandwich_check(EXP, math.e, GRID)
    assert out["passed"]
    assert abs(out["T"] - math.e / math.pi) < 1e-3


def _exp_circle_mean(r, g):
    """(1/2pi) integral over theta of g(r cos theta), split where cos changes sign."""
    pi = mp.pi
    return float(mp.quad(lambda t: g(r * mp.cos(t)), [0, pi / 2, 3 * pi / 2, 2 * pi]) / (2 * pi))


def test_exp_characteristics_closed_forms():
    # f = e^z, |f| = e^(r cos theta) on |z| = r:
    #   T0(r) = mean of log sqrt(1 + |f|^2) - log sqrt(1 + |f(0)|^2)
    #   S(r) = r dT0/dr = mean of r cos theta e^(2 r cos theta) / (1 + e^(2 r cos theta))
    grid = ms.GridSpec(rel_tol=1e-2)
    with mp.workdps(30):
        for r in (1.0, math.e, math.e ** 2, 10.0):
            t0 = _exp_circle_mean(r, lambda x: 0.5 * mp.log1p(mp.exp(2 * x))) - 0.5 * math.log(2.0)
            s = _exp_circle_mean(r, lambda x: x * mp.exp(2 * x) / (1 + mp.exp(2 * x)))
            got_t0, _ = ms.ahlfors_shimizu_T0(EXP, r, grid)
            got_s = ms.spherical_area(EXP, ms.Region.disk(0j, r), 1, grid).value
            assert abs(got_t0 - t0) <= 1e-4 * t0, r
            assert abs(got_s - s) <= 2e-3 * s, r


def test_region_validation():
    with pytest.raises(ValueError):
        ms.Region.rectangle(0j, -1.0, 1.0)
    with pytest.raises(ValueError, match="^base_resolution must be an integer >= 16, not 8$"):
        ms.GridSpec(base_resolution=8)
    with pytest.raises(ValueError):
        ms.GridSpec(rel_tol=0.5)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("r", [_NAN, _INF, -_INF, 0.0, -1.0])
def test_nevanlinna_T_rejects_r_by_name(r):
    # NaN once bisected all 4,096 panels and returned nan; inf ended in OrbitOverflow
    with pytest.raises(ValueError, match=f"^r must be positive and finite, not {r}$"):
        ms.nevanlinna_T(EXP, r)


@pytest.mark.parametrize("obj, message", [
    ({"kind": "disk", "center": [_NAN, 1.0], "radius": 0.5}, "disk center must be finite"),
    ({"kind": "disk", "center": [0.3, _INF], "radius": 0.5}, "disk center must be finite"),
    ({"kind": "disk", "center": [0.3, 1.3], "radius": _NAN}, "disk radius must be positive"),
    ({"kind": "disk", "center": [0.3, 1.3], "radius": _INF}, "disk radius must be positive"),
    ({"kind": "rectangle", "center": [1.0, 0.0], "half_width": _INF, "half_height": 1.0},
     "rectangle half_width must be positive and finite"),
    ({"kind": "rectangle", "center": [1.0, 0.0], "half_width": 1.0, "half_height": _NAN},
     "rectangle half_height must be positive and finite"),
    ({"kind": "rectangle", "center": [1.0, 0.0], "half_width": 0.0, "half_height": 1.0},
     "rectangle half_width must be positive and finite"),
    ({"kind": "disk", "center": [0.3, 1.3]}, "disk region needs radius"),
    ({"kind": "rectangle", "half_width": 1.0}, "rectangle region needs center, half_height"),
    ({"kind": "circle", "center": [0.0, 0.0], "radius": 1.0}, "unknown region kind 'circle'"),
    ({"center": [0.0, 0.0], "radius": 1.0}, "unknown region kind None"),
    ({"kind": "disk", "center": 0.5, "radius": 1.0}, r"disk center must be \[re, im\], not 0.5"),
    ({"kind": "disk", "center": [0.5], "radius": 1.0}, r"disk center must be \[re, im\]"),
    ({"kind": "disk", "center": ["0", 1.0], "radius": 1.0}, r"disk center must be \[re, im\]"),
    ({"kind": "disk", "center": [0.3, 1.3], "radius": "1"}, "disk radius must be a number, not '1'"),
    ({"kind": "rectangle", "center": [1.0, 0.0], "half_width": True, "half_height": 1.0},
     "rectangle half_width must be a number, not True"),
], ids=["nan-center", "inf-center", "nan-radius", "inf-radius", "inf-half-width",
        "nan-half-height", "zero-half-width", "no-radius", "no-center", "unknown-kind",
        "no-kind", "scalar-center", "short-center", "string-center", "string-radius",
        "bool-half-width"])
def test_region_rejects_non_finite_and_missing_values(obj, message):
    # NaN fails every comparison, so a bare `size <= 0` check let it through
    with pytest.raises(ValueError, match=message):
        ms.Region.from_json(obj)


@pytest.mark.parametrize("field", ["base_resolution", "max_refinements"])
@pytest.mark.parametrize("value", [_NAN, 32.0, 16.5, True, "32", None],
                         ids=["nan", "float", "fraction", "bool", "string", "none"])
def test_grid_counts_must_be_integers(field, value):
    # a NaN max_refinements used to skip refinement and fail at report.json;
    # a NaN or fractional base_resolution failed inside np.linspace
    least = {"base_resolution": 16, "max_refinements": 0}[field]
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= {least}, not {value!r}$"):
        ms.GridSpec(**{field: value})
    assert ms.GridSpec(**{field: np.int64(20)}) == ms.GridSpec(**{field: 20})


@pytest.mark.parametrize("U", [ms.Region.disk(0.318 + 1.337j, 0.5),
                               ms.Region.rectangle(1.0 - 0.25j, 3.0, 0.125)])
def test_region_owns_its_rules(U):
    assert ms.Region.from_json(U.to_json()) == U
    x0, x1, y0, y1 = U.bounds()
    assert x0 < U.center.real < x1 and y0 < U.center.imag < y1
    rng = np.random.default_rng(3)
    pts = np.array([U.sample(rng) for _ in range(200)])
    assert U.contains(pts.real, pts.imag).all()
    assert not U.contains(np.array([x0 - 1e-9, x1 + 1e-9]), np.full(2, U.center.imag)).any()


# Decisions of the refinement engine on fixed inputs: evaluation and cell
# counts and depths are exact, log_mu is bit-exact; log_value may differ in
# the last bits where numpy's vectorised exp/log and summation order differ
# from a scalar libm loop.
_PIN_DISK = ms.Region.disk(complex(0.318, 1.337), 0.5)
_PIN_MU = {  # n: (evaluations, refinements, overflow_points, log_mu)
    1: (799956, 24, 0, -0.6931471871994259),
    2: (628371, 24, 0, 0.08439566809151222),
    3: (647037, 24, 0, 1.0471797062384876),
    4: (637641, 24, 0, 1.5138521628654031),
}
_PIN_AREA = [  # (f, U, n, cells, refinements, log_value)
    (EXP, _PIN_DISK, 1, 1106, 3, -2.915877044168405),
    (EXP, _PIN_DISK, 2, 1441, 5, -2.2264927262137126),
    (EXP, _PIN_DISK, 3, 2359, 6, -1.33189377752403),
    (EXP, _PIN_DISK, 4, 3063, 6, -0.7287657675164683),
    (SQUARE, ms.Region.disk(0j, 1e6), 1, 4192, 24, 0.6918008001900873),
    (SQUARE, ms.Region.rectangle(1.0, 0.25, 0.25), 6, 4434, 5, 1.6400304131750838),
    (SQUARE, ms.Region.rectangle(1.0, 0.25, 0.25), 7, 6856, 7, 2.337402864894475),
    (SQUARE, ms.Region.rectangle(1.0, 0.25, 0.25), 8, 10804, 9, 3.0228859626791564),
    (SQUARE, ms.Region.rectangle(1.0, 0.25, 0.25), 9, 15794, 11, 3.7156729264241086),
    (SQUARE, ms.Region.rectangle(1.0, 0.25, 0.25), 10, 21770, 13, 4.398932662560346),
]


def test_refinement_decisions_pinned():
    for n, (evals, rounds, overflow, log_mu) in _PIN_MU.items():
        res = ms.mu_sup(EXP, _PIN_DISK, n, GRID)
        assert (res.evaluations, res.refinements, res.overflow_points) == \
            (evals, rounds, overflow), n
        assert repr(res.log_mu) == repr(log_mu), n
    for f, U, n, cells, rounds, log_value in _PIN_AREA:
        res = ms.spherical_area(f, U, n, GRID)
        assert (res.cells, res.refinements, res.overflow_cells, res.unconverged) == \
            (cells, rounds, 0, False), (U, n)
        assert math.isclose(res.log_value, log_value, rel_tol=1e-13, abs_tol=0.0), (U, n)


# Further variants the pins above never reach: orbits that overflow inside
# U, a rectangle in mu_sup, a complex lambda, a polynomial, and a variant
# without a batch kernel (scalar fallback, small grid).
_SMALL_GRID = ms.GridSpec(base_resolution=16, max_refinements=3)
_PIN_CASES = {  # name: (f, U, n, grid, mu pin, area pin)
    # mu pin: (repr(log_mu), evaluations, refinements, overflow_points)
    # area pin: (cells, refinements, overflow_cells, unconverged, log_value)
    "exp-overflow": (EXP, ms.Region.disk(6.5, 0.5), 3, GRID,
                     ("-4.502140331560971e+171", 761643, 24, 5192),
                     (1126, 3, 372, True, -1.8613443349114433e+175)),
    "exp-complex-rect": (fx.ExpAffine(0.3 - 0.2j), ms.Region.rectangle(1 + 1j, 0.7, 0.4), 3, GRID,
                         ("0.45787663098898856", 194598, 6, 0),
                         (1345, 1, 0, False, -1.826825035669466)),
    "poly-disk": (fx.Polynomial((0.1, 0, 1)), ms.Region.disk(0.5 + 0.5j, 0.4), 6, GRID,
                  ("3.688727168353537", 666072, 24, 0),
                  (12789, 9, 0, False, 1.8725826714912324)),
    "coshsqrt-scalar": (fx.CoshSqrt(), ms.Region.disk(2 + 1j, 1.0), 2, _SMALL_GRID,
                        ("-2.4807324624232923", 39997, 3, 0),
                        (312, 3, 0, False, -5.136325926109829)),
}


@pytest.mark.parametrize("name", sorted(_PIN_CASES))
def test_refinement_pins_more_variants(name):
    f, U, n, grid, mu_pin, area_pin = _PIN_CASES[name]
    res = ms.mu_sup(f, U, n, grid)
    assert (repr(res.log_mu), res.evaluations, res.refinements, res.overflow_points) == mu_pin
    area = ms.spherical_area(f, U, n, grid)
    cells, rounds, overflow, unconverged, log_value = area_pin
    assert (area.cells, area.refinements, area.overflow_cells, area.unconverged) == \
        (cells, rounds, overflow, unconverged)
    assert math.isclose(area.log_value, log_value, rel_tol=1e-13, abs_tol=0.0)


# The engines as they were before each pass evaluated only new points: a
# mu_sup pass evaluates every refined cell's whole 3x3 block, the corner
# test reduces stacked (N, 4) rows, and a spherical_area pass evaluates each
# cell's midpoint with its 2 children's.  Evaluations at the same doubles
# give the same values, so the engines must agree with these bit for bit.


def _corner_test_rows(corners, threshold):
    fin = np.isfinite(corners)
    count = fin.sum(axis=1)
    top = np.where(fin, corners, -np.inf).max(axis=1)
    spread = np.where(count > 1, top - np.where(fin, corners, np.inf).min(axis=1), np.inf)
    return (count > 0) & ((spread > threshold) | (count < 4)), top


def _mu_sup_full_blocks(f, U, n, grid):
    x0, x1, y0, y1 = U.bounds()
    res = grid.base_resolution
    gx = np.linspace(x0, x1, res + 1)
    gy = np.linspace(y0, y1, res + 1)
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    lp = ms.logphi_batch(f, X.ravel(), Y.ravel(), n)
    lp = lp.reshape(X.shape)
    mask = U.contains(X, Y)
    overflow = int((np.isnan(lp) & mask).sum())
    lp = np.where(mask, lp, np.nan)
    vals = lp[np.isfinite(lp)]
    evals = X.size
    best = float(vals.max())
    spread_ref = float(vals.max() - vals.min()) if vals.size > 1 else 0.0
    threshold = grid.rel_tol * max(spread_ref, 1.0)
    corners = np.stack([lp[:-1, :-1], lp[1:, :-1], lp[:-1, 1:], lp[1:, 1:]], axis=-1)
    refine, _ = _corner_test_rows(corners.reshape(-1, 4), threshold)
    a, b, c, d = (e[refine] for e in ms._grid_cells(gx, gy))
    rounds = 0
    for _ in range(grid.max_refinements):
        if not a.size:
            break
        rounds += 1
        mx = (a + b) / 2
        my = (c + d) / 2
        xs = np.repeat(np.stack([a, mx, b], axis=1), 3, axis=1).ravel()
        ys = np.tile(np.stack([c, my, d], axis=1), 3).ravel()
        lpv = ms.logphi_batch(f, xs, ys, n)
        inside = U.contains(xs, ys)
        overflow += int((np.isnan(lpv) & inside).sum())
        lpv = np.where(inside, lpv, np.nan)
        finite = np.isfinite(lpv)
        evals += xs.size
        if finite.any():
            best = max(best, float(lpv[finite].max()))
        block = lpv.reshape(-1, 3, 3)
        corners = np.stack([block[:, p:p + 2, q:q + 2].reshape(-1, 4)
                            for p in (0, 1) for q in (0, 1)], axis=1)
        refine, top = _corner_test_rows(corners.reshape(-1, 4), threshold)
        refine &= top > best - 3.0 * max(spread_ref, 1.0)
        sub = [np.stack(e, axis=1).ravel()[refine] for e in
               ((a, a, mx, mx), (mx, mx, b, b), (c, my, c, my), (my, d, my, d))]
        keep = np.argsort(-(sub[1] - sub[0]), kind="stable")[:4096]
        a, b, c, d = (e[keep] for e in sub)
    return ms.MuSupResult(log_mu=best, evaluations=evals, refinements=rounds,
                          overflow_points=overflow)


def _area_three_points(f, U, n, grid):
    res = grid.base_resolution
    polar = U.kind == "disk"
    if polar:
        u0, u1, v0, v1 = ms._grid_cells(U.radius * np.sqrt(np.linspace(0.0, 1.0, res + 1)),
                                        np.linspace(0.0, 2.0 * math.pi, res + 1))
    else:
        x0, x1, y0, y1 = U.bounds()
        u0, u1, v0, v1 = ms._grid_cells(np.linspace(x0, x1, res + 1),
                                        np.linspace(y0, y1, res + 1))
    depth = np.zeros(u0.size, dtype=np.int64)
    log_tol = math.log(grid.rel_tol)
    total_logs, err_logs = [], []
    overflow_cells = n_cells = refinements = 0
    running_max = -math.inf
    force_bank = False
    while u0.size:
        um = 0.5 * (u0 + u1)
        vm = 0.5 * (v0 + v1)
        along_u = u1 - u0 >= (um * (v1 - v0) if polar else v1 - v0)
        kids = (np.stack([u0, np.where(along_u, um, u0)], axis=1),
                np.stack([np.where(along_u, um, u1), u1], axis=1),
                np.stack([v0, np.where(along_u, v0, vm)], axis=1),
                np.stack([np.where(along_u, v1, vm), v1], axis=1))
        cu0, cu1, cv0, cv1 = (np.column_stack([e, k]) for e, k in zip((u0, u1, v0, v1), kids))
        mu, mv = 0.5 * (cu0 + cu1), 0.5 * (cv0 + cv1)
        if polar:
            xs = U.center.real + mu * np.cos(mv)
            ys = U.center.imag + mu * np.sin(mv)
            area = 0.5 * (cu1 * cu1 - cu0 * cu0) * (cv1 - cv0)
        else:
            xs, ys = mu, mv
            area = (cu1 - cu0) * (cv1 - cv0)
        lp = ms.logphi_batch(f, xs.ravel(), ys.ravel(), n)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            contrib = np.where(U.contains(xs, ys),
                               2.0 * lp.reshape(-1, 3) + np.log(area) - math.log(math.pi),
                               -np.inf)
            logc, l0, l1 = contrib.T
            top = np.where((l0 == -np.inf) | (l1 > l0), l1, l0)
            logf = np.where(np.isfinite(top),
                            top + np.log(np.exp(l0 - top) + np.exp(l1 - top)), top)
            empty = (logc == -np.inf) & (logf == -np.inf)
            bad = ~empty & (np.isnan(logc) | np.isnan(logf))
            live = np.flatnonzero(~empty & ~bad)
            logc, logf, dep = logc[live], logf[live], depth[live]
            hi = np.maximum(logf, logc)
            diff = np.where(logf == logc, -np.inf,
                            hi + np.log1p(-np.exp(np.minimum(logf, logc) - hi)))
            run = np.maximum.accumulate(np.concatenate(([running_max], logf)))
            running_max = float(run[-1])
            run = run[1:]
            done = (force_bank
                    | (logf < run - 45.0)
                    | (diff - logf <= log_tol)
                    | (diff < run + log_tol - 9.2)
                    | (dep >= grid.max_refinements))
            fc = logc[done] - logf[done]
            total_logs.append(np.where(fc > math.log(4.0) - 1e-12, logf[done],
                                       logf[done] + np.log((4.0 - np.exp(fc)) / 3.0)))
            err_logs.append(diff[done] - math.log(3.0))
        overflow_cells += int(bad.sum())
        n_cells += int(empty.sum()) + int(bad.sum()) + int(done.sum())
        grow = ~done
        if grow.any():
            refinements = max(refinements, int(dep[grow].max()) + 1)
        u0, u1, v0, v1 = (k[live[grow]].ravel() for k in kids)
        depth = np.repeat(dep[grow] + 1, 2)
        force_bank = u0.size > 200_000
    log_value = ms._logsumexp(np.concatenate(total_logs))
    log_err = ms._logsumexp(np.concatenate(err_logs))
    unconverged = (log_err != -math.inf and log_value != -math.inf
                   and log_err > math.log(10.0 * grid.rel_tol) + log_value)
    value = math.exp(log_value) if log_value < 700.0 else math.inf
    return ms.AreaResult(value=value, log_value=log_value, log_error=log_err,
                         unconverged=unconverged or overflow_cells > 0,
                         cells=n_cells, refinements=refinements,
                         overflow_cells=overflow_cells)


_ORACLE_MU = {f"exp-pin-n{n}": (EXP, _PIN_DISK, n, GRID) for n in _PIN_MU}
_ORACLE_MU.update({name: case[:4] for name, case in _PIN_CASES.items()})
_ORACLE_MU.update({  # no refinement round, one round, and a U that holds every block point
    "exp-pin-rounds0": (EXP, _PIN_DISK, 2, ms.GridSpec(max_refinements=0)),
    "exp-pin-rounds1": (EXP, _PIN_DISK, 2, ms.GridSpec(max_refinements=1)),
    "exp-rect": (EXP, ms.Region.rectangle(complex(0.318, 1.337), 0.5, 0.5), 2, GRID),
    # grids that hold the critical point 0 of z^2, so some corners are -inf
    "square-crit-rect": (SQUARE, ms.Region.rectangle(0j, 0.5, 0.25), 3, GRID),
    "square-crit-disk": (SQUARE, ms.Region.disk(0j, 0.5), 2, GRID),
})
_ORACLE_AREA = {f"area-pin-{i}": (f, U, n, GRID) for i, (f, U, n, *_) in enumerate(_PIN_AREA)}
_ORACLE_AREA.update({name: case[:4] for name, case in _PIN_CASES.items()})


@pytest.mark.parametrize("name", sorted(_ORACLE_MU))
def test_mu_sup_bit_identical_to_full_blocks(name):
    f, U, n, grid = _ORACLE_MU[name]
    got, want = ms.mu_sup(f, U, n, grid), _mu_sup_full_blocks(f, U, n, grid)
    assert repr(got.log_mu) == repr(want.log_mu)
    assert (got.evaluations, got.refinements, got.overflow_points) == \
        (want.evaluations, want.refinements, want.overflow_points)


@pytest.mark.parametrize("name", sorted(_ORACLE_AREA))
def test_area_bit_identical_to_three_points(name):
    f, U, n, grid = _ORACLE_AREA[name]
    got, want = ms.spherical_area(f, U, n, grid), _area_three_points(f, U, n, grid)
    for field in ("value", "log_value", "log_error"):
        assert getattr(got, field).hex() == getattr(want, field).hex(), field
    for field in ("unconverged", "cells", "refinements", "overflow_cells"):
        assert getattr(got, field) == getattr(want, field), field


# The spherical_area engine as it was with stacked passes: a pass's points
# and its children's edges sit in (N, 2) and (N, 3) arrays, every live
# cell's children are gathered as 2-D rows, and the logs of both children
# come from one call on stacked edges.  Same cells, same order, same bits.


def _cell_logs_stacked(lp, inside, u0, u1, v0, v1, polar, rho, weight_r):
    area = 0.5 * (u1 * u1 - u0 * u0) * (v1 - v0) if polar else (u1 - u0) * (v1 - v0)
    logs = 2.0 * lp + np.log(area) - math.log(math.pi)
    if weight_r is not None:
        logs += np.log(np.log(weight_r / rho))
    return np.where(inside, logs, -np.inf)


def _area_stacked(f, U, n, grid, sectors, weight_r):
    res = grid.base_resolution
    polar = U.kind == "disk"
    if polar:
        us = U.radius * np.sqrt(np.linspace(0.0, 1.0, res + 1))
        vs = np.linspace(0.0, 2.0 * math.pi, sectors + 1)
    else:
        x0, x1, y0, y1 = U.bounds()
        us, vs = np.linspace(x0, x1, res + 1), np.linspace(y0, y1, sectors + 1)
    u0, v0 = (a.ravel() for a in np.meshgrid(us[:-1], vs[:-1], indexing="ij"))
    u1, v1 = (a.ravel() for a in np.meshgrid(us[1:], vs[1:], indexing="ij"))
    depth = np.zeros(u0.size, dtype=np.int64)
    log_tol = math.log(grid.rel_tol)
    total_logs, err_logs = [], []
    overflow_cells = n_cells = refinements = 0
    running_max = -math.inf
    force_bank = False
    logc = None
    while u0.size:
        um = 0.5 * (u0 + u1)
        vm = 0.5 * (v0 + v1)
        along_u = u1 - u0 >= (um * (v1 - v0) if polar else v1 - v0)
        mu = np.stack([np.where(along_u, 0.5 * (u0 + um), um),
                       np.where(along_u, 0.5 * (um + u1), um)], axis=1)
        mv = np.stack([np.where(along_u, vm, 0.5 * (v0 + vm)),
                       np.where(along_u, vm, 0.5 * (vm + v1))], axis=1)
        if logc is None:
            mu, mv = np.column_stack([um, mu]), np.column_stack([vm, mv])
        if polar:
            xs = U.center.real + mu * np.cos(mv)
            ys = U.center.imag + mu * np.sin(mv)
        else:
            xs, ys = mu, mv
        inside = U.contains(xs, ys)
        lp = ms.logphi_batch(f, xs.ravel(), ys.ravel(), n).reshape(mu.shape)
        kids = (np.stack([u0, np.where(along_u, um, u0)], axis=1),
                np.stack([np.where(along_u, um, u1), u1], axis=1),
                np.stack([v0, np.where(along_u, v0, vm)], axis=1),
                np.stack([np.where(along_u, v1, vm), v1], axis=1))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if logc is None:
                logc = _cell_logs_stacked(lp[:, 0], inside[:, 0], u0, u1, v0, v1, polar,
                                          um, weight_r)
            kid_logs = _cell_logs_stacked(lp[:, -2:], inside[:, -2:], *kids, polar,
                                          mu[:, -2:], weight_r)
            l0, l1 = kid_logs.T
            top = np.where((l0 == -np.inf) | (l1 > l0), l1, l0)
            logf = np.where(np.isfinite(top),
                            top + np.log(np.exp(l0 - top) + np.exp(l1 - top)), top)
            empty = (logc == -np.inf) & (logf == -np.inf)
            bad = ~empty & (np.isnan(logc) | np.isnan(logf))
            live = np.flatnonzero(~empty & ~bad)
            logc, logf, dep = logc[live], logf[live], depth[live]
            hi = np.maximum(logf, logc)
            diff = np.where(logf == logc, -np.inf,
                            hi + np.log1p(-np.exp(np.minimum(logf, logc) - hi)))
            run = np.maximum.accumulate(np.concatenate(([running_max], logf)))
            running_max = float(run[-1])
            run = run[1:]
            done = (force_bank
                    | (logf < run - 45.0)
                    | (diff - logf <= log_tol)
                    | (diff < run + log_tol - 9.2)
                    | (dep >= grid.max_refinements))
            fc = logc[done] - logf[done]
            total_logs.append(np.where(fc > math.log(4.0) - 1e-12, logf[done],
                                       logf[done] + np.log((4.0 - np.exp(fc)) / 3.0)))
            err_logs.append(diff[done] - math.log(3.0))
        overflow_cells += int(bad.sum())
        n_cells += int(empty.sum()) + int(bad.sum()) + int(done.sum())
        grow = ~done
        if grow.any():
            refinements = max(refinements, int(dep[grow].max()) + 1)
        u0, u1, v0, v1 = (k[live[grow]].ravel() for k in kids)
        depth = np.repeat(dep[grow] + 1, 2)
        logc = kid_logs[live[grow]].ravel()
        force_bank = u0.size > 200_000
    log_value = ms._logsumexp(np.concatenate(total_logs))
    log_err = ms._logsumexp(np.concatenate(err_logs))
    unconverged = (log_err != -math.inf and log_value != -math.inf
                   and log_err > math.log(10.0 * grid.rel_tol) + log_value)
    value = math.exp(log_value) if log_value < 700.0 else math.inf
    return ms.AreaResult(value=value, log_value=log_value, log_error=log_err,
                         unconverged=unconverged or overflow_cells > 0,
                         cells=n_cells, refinements=refinements,
                         overflow_cells=overflow_cells)


_T0_GRID = ms.GridSpec(rel_tol=1e-2)  # the characteristic sandwich's grid
_DEEP_RECT = ms.Region.rectangle(1.0, 0.25, 0.25)
_ORACLE_STACKED = {  # name: (f, U, n, grid, sectors, weight_r); sectors None: base_resolution
    "deep-disk-1e6": (SQUARE, ms.Region.disk(0j, 1e6), 1, GRID, None, None),
    **{f"deep-rect-n{n}": (SQUARE, _DEEP_RECT, n, GRID, None, None) for n in range(6, 11)},
    **{f"T0-r{r:.4g}": (EXP, ms.Region.disk(0j, r), 1, _T0_GRID, 4 * _T0_GRID.base_resolution, r)
       for r in (1.0, math.e, 100.0)},
    **{f"exp-crit5-n{n}": (EXP, _PIN_DISK, n, GRID, None, None) for n in range(1, 5)},
    "poly-disk-n6": (*_PIN_CASES["poly-disk"][:4], None, None),
    "ml075-no-kernel": (fx.MittagLeffler(0.75), ms.Region.disk(0.5 + 0j, 2.0), 3, _SMALL_GRID,
                        None, None),
    "exp-overflow": (*_PIN_CASES["exp-overflow"][:4], None, None),
    "exp-rounds2": (EXP, _PIN_DISK, 3, ms.GridSpec(max_refinements=2), None, None),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_STACKED))
def test_area_bit_identical_to_stacked_passes(name):
    f, U, n, grid, sectors, weight_r = _ORACLE_STACKED[name]
    want = _area_stacked(f, U, n, grid, sectors or grid.base_resolution, weight_r)
    if weight_r is None:
        got = ms.spherical_area(f, U, n, grid)
    else:
        got = ms._area(f, U, n, grid, sectors, weight_r)
        assert ms.ahlfors_shimizu_T0(f, weight_r, grid) == (want.value, want.unconverged)
    for field in ("value", "log_value", "log_error"):
        assert getattr(got, field).hex() == getattr(want, field).hex(), field
    for field in ("unconverged", "cells", "refinements", "overflow_cells"):
        assert getattr(got, field) == getattr(want, field), field
    # the cases reach overflow cells, the refinement cap and the orbit table
    assert (want.overflow_cells > 0) == (name == "exp-overflow")
    if name == "exp-rounds2":  # 6 refinements without the cap
        assert want.refinements == grid.max_refinements == 2
    if name == "ml075-no-kernel":
        assert f.logphi(np.zeros(1), np.zeros(1), n) is None


def _seeded_corner_rows():
    """(4000, 4) corner rows: NaN, +-inf, every corner missing and no spread."""
    rng = np.random.default_rng(5)
    rows = rng.normal(0.0, 3.0, (4000, 4))
    pick = rng.random(rows.shape)
    rows[pick < 0.1] = np.nan
    rows[(pick >= 0.1) & (pick < 0.15)] = np.inf
    rows[(pick >= 0.15) & (pick < 0.2)] = -np.inf
    rows[:50] = np.nan                            # every corner missing
    rows[50:60] = [np.inf, -np.inf, np.nan, np.inf]
    rows[60:70] = 1.25                            # no spread at all
    return rows


def _window_rows(g):
    """The corner rows (x0, y0), (x0, y1), (x1, y0), (x1, y1) of every 2x2
    cell of the point grid g, cells laid out as _window_test gives them."""
    return np.stack([g[:-1, :-1], g[:-1, 1:], g[1:, :-1], g[1:, 1:]], axis=-1).reshape(-1, 4)


def test_corner_test_columns_match_rows():
    rows = _seeded_corner_rows()
    cells = rows.T.reshape(2, 2, -1)  # the rows as (2, 2, N) point grids
    grid = rows.reshape(-1)[:33 * 33].reshape(33, 33)  # their values as a base-size point grid
    # and as subcell (p, q) of (3, 3, N) blocks whose other points are the rows shifted by one
    placed = {}
    for p in (0, 1):
        for q in (0, 1):
            blocks = np.pad(np.roll(cells, 1, axis=-1), ((0, 1), (0, 1), (0, 0)), mode="wrap")
            blocks[p:p + 2, q:q + 2] = cells
            placed[p, q] = blocks
    for threshold in (1e-3, 0.5, 4.0):
        for g in [cells, grid, *placed.values()]:
            got = ms._window_test(g, threshold)
            want = _corner_test_rows(_window_rows(g), threshold)
            assert got[0].shape == (g.shape[0] - 1, g.shape[1] - 1, *g.shape[2:])
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
        want = _corner_test_rows(rows, threshold)
        for (p, q), g in placed.items():
            got = ms._window_test(g, threshold)
            assert got[0][p, q].tobytes() == want[0].tobytes()
            assert got[1][p, q].tobytes() == want[1].tobytes()


def test_subcell_corners_match_cell_corners():
    # the subcells _subcells picks, their edges and corner rows, against the
    # (N, 3, 3) block engine: stacked corners per subcell 4i + 2p + q, masked,
    # then the stable cap by descending x-width
    rng = np.random.default_rng(11)
    m = 1500
    blocks = rng.normal(size=(m, 3, 3))
    rng.random((m, 3, 3))  # the draw of the retired corner flags: the cells below keep their values
    a = rng.normal(size=m)
    b = a + rng.choice([0.5, 1.0, 2.0], m)
    c = rng.normal(size=m)
    d = c + 1.0
    mx, my = (a + b) / 2, (c + d) / 2
    threshold, floor = 0.5, -1.0
    corners = np.stack([blocks[:, p:p + 2, q:q + 2].reshape(-1, 4)
                        for p in (0, 1) for q in (0, 1)], axis=1).reshape(-1, 4)
    refine, top = _corner_test_rows(corners, threshold)
    refine &= top > floor
    sub = [np.stack(e, axis=1).ravel()[refine] for e in
           ((a, a, mx, mx), (mx, mx, b, b), (c, my, c, my), (my, d, my, d))]
    keep = np.argsort(-(sub[1] - sub[0]), kind="stable")[:4096]
    assert 4096 < refine.sum() and np.unique(sub[1] - sub[0]).size > 1
    xe, ye, lpc = ms._subcells(ms._edges(a, b), ms._edges(c, d),
                               blocks.reshape(m, 9).T.copy(), threshold, floor)
    for got, want in zip((xe[0], xe[2], ye[0], ye[2]), sub):
        assert got.tobytes() == want[keep].tobytes()
    assert lpc.tobytes() == corners[refine][keep].T.tobytes()


def _kernel_points(monkeypatch):
    """The (x0, y0) arrays of every kernels.expaffine_logphi call, in order."""
    calls = []
    kernel = kernels.expaffine_logphi

    def recorded(x0, y0, *args):
        calls.append((np.array(x0), np.array(y0)))
        return kernel(x0, y0, *args)

    monkeypatch.setattr(kernels, "expaffine_logphi", recorded)
    return calls


def test_mu_sup_evaluates_each_block_point_once(monkeypatch):
    # the grid points inside U once, then per refined cell those of its 4
    # edge midpoints and centre that lie inside U; its 4 corners come from
    # the block that evaluated them.  The full-block engine hands the kernel
    # every grid point and then whole 3x3 blocks, x outer: recount from those.
    calls = _kernel_points(monkeypatch)
    want = _mu_sup_full_blocks(EXP, _PIN_DISK, 4, GRID)
    (gx, gy), *blocks = calls
    not_corners = [1, 3, 4, 5, 7]
    inside = [int(_PIN_DISK.contains(gx, gy).sum())] + [
        int(_PIN_DISK.contains(xs, ys).reshape(-1, 9)[:, not_corners].sum())
        for xs, ys in blocks]
    assert len(blocks) == want.refinements and 0 < inside[-1] < 5 * blocks[-1][0].size // 9
    calls.clear()
    got = ms.mu_sup(EXP, _PIN_DISK, 4, GRID)
    assert got.evaluations == want.evaluations
    assert all(_PIN_DISK.contains(xs, ys).all() for xs, ys in calls)
    assert [xs.size for xs, _ in calls] == [k for k in inside if k]


def test_mu_sup_heap_peak():
    # while the kernel runs, a pass holds its cells' edges and corners and its
    # new points in U, not the blocks and subcell indices of the pass before;
    # the kernel forms no log|z_0| and no NaN-filled outputs when no orbit
    # leaves double range.  Peak 2.09 MB, bound 3% above it (forming both
    # peaks at 2.23 MB)
    tracemalloc.start()
    try:
        ms.mu_sup(EXP, _PIN_DISK, 4, GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.15e6


def _heap_peak(run):
    run()  # caches filled before tracing
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_area_heap_peak():
    # while the kernel runs, a pass holds its cells' edges, its new points
    # and their radii, not its children's edges (formed after the kernel
    # returns) nor any array of the pass before.  The stacked-pass engine
    # peaked at 5.40 MB on the deep rectangle and 1.54 MB on T0(100).  T0(100)
    # peaks at 1.17 MB, bound 3% above it, as the e^z kernel forms no log|z_0|
    # and no NaN-filled outputs when no orbit leaves double range (forming
    # both peaks at 1.36 MB)
    deep = _heap_peak(lambda: ms.spherical_area(SQUARE, _DEEP_RECT, 10, GRID))
    t0 = _heap_peak(lambda: ms.ahlfors_shimizu_T0(EXP, 100.0, _T0_GRID))
    assert deep < 4.6e6
    assert t0 <= 1.2e6


def test_area_evaluates_each_midpoint_once(monkeypatch):
    # 3 points per cell on the first pass (its midpoint and its 2 children's),
    # then 2: a cell's own midpoint was a child midpoint of the pass before
    calls = _kernel_points(monkeypatch)
    want = _area_three_points(EXP, _PIN_DISK, 3, GRID)
    three_point_sizes = [xs.size for xs, _ in calls]
    calls.clear()
    got = ms.spherical_area(EXP, _PIN_DISK, 3, GRID)
    sizes = [xs.size for xs, _ in calls]
    assert got.cells == want.cells
    assert len(sizes) == len(three_point_sizes) > 1
    assert sizes[0] == three_point_sizes[0] == 3 * GRID.base_resolution ** 2
    assert [3 * s for s in sizes[1:]] == [2 * s for s in three_point_sizes[1:]]


def _logphi_per_point(f, xs, ys, n):
    """logphi_batch's scalar fallback as it was first written: one orbit per
    start, an orbit that raises OverflowError or OrbitOverflow counted as
    overflowed."""
    lp = np.empty(xs.shape)
    for i in range(xs.size):
        try:
            orbit = dy.iterate_orbit(f, complex(xs[i], ys[i]), n)
            if orbit.length() > n:
                lp[i] = dy.log_spherical_derivative(orbit, n)
            else:
                lp[i] = math.nan
        except (OverflowError, fx.OrbitOverflow):
            lp[i] = math.nan
    return lp


def _starts(center, half, size):
    side = np.linspace(-half, half, size)
    X, Y = np.meshgrid(center.real + side, center.imag + side)
    return X.ravel(), Y.ravel()


# kernel-less variants, plus a polynomial with its kernel switched off; each
# window holds orbits that stay bounded and orbits that overflow before n
_FALLBACK_CASES = {
    "cosh_sqrt": (fx.CoshSqrt(), 300.0 + 0j, 400.0, 3),
    "ml_075": (fx.MittagLeffler(0.75), 0j, 4.0, 3),
    "ml_02": (fx.MittagLeffler(0.2), -0.5 + 0j, 0.5, 6),
    "poly": (fx.Polynomial((0.25, 0, 1)), 0.5 + 0.5j, 4.0, 9),
}


@pytest.mark.parametrize("name", sorted(_FALLBACK_CASES))
def test_logphi_fallback_bit_identical_to_per_point(name, monkeypatch):
    f, center, half, n = _FALLBACK_CASES[name]
    monkeypatch.setattr(type(f), "logphi", fx.Descriptor.logphi)
    xs, ys = _starts(center, half, 9)
    lp = ms.logphi_batch(f, xs, ys, n)
    want_lp = _logphi_per_point(f, xs, ys, n)
    assert lp.tobytes() == want_lp.tobytes()
    overflowed = np.isnan(want_lp)
    assert overflowed.sum() < overflowed.size
    assert (overflowed.sum() > 0) == (name != "poly")  # a polynomial orbit continues in log-polar form
