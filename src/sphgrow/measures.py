"""Supremum metric mu(U,f^n), spherical area S(U,f^n), characteristics.

All integrand work happens on log (f^n)^# values coming out of the batch
kernels, so quantities like S(U,f^4) ~ e^(hundreds) accumulate through
log-sum-exp instead of overflowing.  Reduction orders are fixed
(row-major) for reproducible output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics as dy
from . import functions as fx
from . import kernels


@dataclass(frozen=True)
class Region:
    center: complex
    kind: str  # "rectangle" or "disk"
    half_width: float = 0.0
    half_height: float = 0.0
    radius: float = 0.0

    def __post_init__(self):
        if self.kind == "rectangle":
            if self.half_width <= 0.0 or self.half_height <= 0.0:
                raise ValueError("rectangle needs positive half sizes")
        elif self.kind == "disk":
            if self.radius <= 0.0:
                raise ValueError("disk needs positive radius")
        else:
            raise ValueError(f"unknown region kind {self.kind!r}")

    @staticmethod
    def rectangle(center: complex, half_width: float, half_height: float) -> "Region":
        return Region(complex(center), "rectangle",
                      half_width=float(half_width), half_height=float(half_height))

    @staticmethod
    def disk(center: complex, radius: float) -> "Region":
        return Region(complex(center), "disk", radius=float(radius))

    def area(self) -> float:
        if self.kind == "rectangle":
            return 4.0 * self.half_width * self.half_height
        return math.pi * self.radius * self.radius


@dataclass(frozen=True)
class GridSpec:
    base_resolution: int = 32
    # depth cap only; converged cells bank long before it.  Huge domains
    # (say a 1e6-radius disk with all the mass near the unit circle) need
    # ~20 bisections before the interesting scale is even resolved.
    max_refinements: int = 24
    rel_tol: float = 1e-3

    def __post_init__(self):
        if self.base_resolution < 16:
            raise ValueError("base_resolution must be >= 16")
        if not 0.0 < self.rel_tol <= 0.1:
            raise ValueError("rel_tol must be in (0, 0.1]")
        if self.max_refinements < 0:
            raise ValueError("max_refinements must be >= 0")


# ---------------------------------------------------------------------------
# batched log (f^n)^# evaluation


def logphi_batch(f, xs: np.ndarray, ys: np.ndarray, n: int):
    """(logphi, status) arrays over start points; NaN where the orbit dies."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if isinstance(f, fx.ExpAffine):
        lp, _, _, st = kernels.expaffine_logphi(
            xs, ys, n, math.log(abs(f.lam)), math.atan2(f.lam.imag, f.lam.real))
        return lp, st
    if isinstance(f, fx.Polynomial):
        lp, _, _, st = kernels.poly_logphi(xs, ys, n, f.coefficients)
        return lp, st
    # generic scalar fallback (Mittag-Leffler families, cosh sqrt)
    lp = np.empty(xs.shape)
    st = np.zeros(xs.shape, dtype=np.int64)
    flat_x = xs.ravel()
    flat_y = ys.ravel()
    flp = lp.ravel()
    fst = st.ravel()
    for i in range(flat_x.size):
        try:
            orbit = dy.iterate_orbit(f, complex(flat_x[i], flat_y[i]), n)
            if orbit.length() > n:
                flp[i] = dy.log_spherical_derivative(orbit, n)
            else:
                flp[i] = math.nan
                fst[i] = kernels.STATUS_OVERFLOW
        except (OverflowError, fx.OrbitOverflow):
            flp[i] = math.nan
            fst[i] = kernels.STATUS_OVERFLOW
    return lp, st


# ---------------------------------------------------------------------------
# supremum metric


@dataclass
class MuSupResult:
    log_mu: float
    log_mu_chordal: float
    evaluations: int
    refinements: int
    overflow_points: int


def _inside(U: Region, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    if U.kind == "rectangle":
        return (np.abs(xs - U.center.real) <= U.half_width) & \
               (np.abs(ys - U.center.imag) <= U.half_height)
    return (xs - U.center.real) ** 2 + (ys - U.center.imag) ** 2 <= U.radius**2


def _bounding_box(U: Region):
    if U.kind == "rectangle":
        return (U.center.real - U.half_width, U.center.real + U.half_width,
                U.center.imag - U.half_height, U.center.imag + U.half_height)
    return (U.center.real - U.radius, U.center.real + U.radius,
            U.center.imag - U.radius, U.center.imag + U.radius)


def mu_sup(f, U: Region, n: int, grid: GridSpec) -> MuSupResult:
    """log sup of (f^n)^# over U by corner-spread adaptive refinement."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x0, x1, y0, y1 = _bounding_box(U)
    res = grid.base_resolution
    gx = np.linspace(x0, x1, res + 1)
    gy = np.linspace(y0, y1, res + 1)
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    lp, st = logphi_batch(f, X.ravel(), Y.ravel(), n)
    lp = lp.reshape(X.shape)
    st = st.reshape(X.shape)
    mask = _inside(U, X, Y)
    lp = np.where(mask, lp, np.nan)
    vals = lp[np.isfinite(lp)]
    overflow = int(((st != kernels.STATUS_OK) & mask).sum())
    evals = X.size
    if vals.size == 0:
        raise ValueError(f"every grid orbit overflows before n={n}; use smaller n")
    best = float(vals.max())
    best_chordal = _chordal_best(lp, X, Y)
    spread_ref = float(vals.max() - vals.min()) if vals.size > 1 else 0.0
    threshold = grid.rel_tol * max(spread_ref, 1.0)

    # cell corner coordinates for refinement
    cells = []
    corner = lambda i, j: lp[i, j]
    for i in range(res):
        for j in range(res):
            c = (corner(i, j), corner(i + 1, j), corner(i, j + 1), corner(i + 1, j + 1))
            fin = [v for v in c if math.isfinite(v)]
            if not fin:
                continue
            spread = max(fin) - min(fin) if len(fin) > 1 else math.inf
            if spread > threshold or len(fin) < 4:
                cells.append((gx[i], gx[i + 1], gy[j], gy[j + 1]))
    rounds = 0
    for _ in range(grid.max_refinements):
        if not cells:
            break
        rounds += 1
        xs = []
        ys = []
        idx = []
        for (a, b, c, d) in cells:
            sub_x = (a, (a + b) / 2, b)
            sub_y = (c, (c + d) / 2, d)
            for px in sub_x:
                for py in sub_y:
                    xs.append(px)
                    ys.append(py)
        xs = np.array(xs)
        ys = np.array(ys)
        lpv, stv = logphi_batch(f, xs, ys, n)
        inside = _inside(U, xs, ys)
        lpv = np.where(inside, lpv, np.nan)
        finite = np.isfinite(lpv)
        overflow += int(((stv != kernels.STATUS_OK) & inside).sum())
        evals += xs.size
        if finite.any():
            cand = float(lpv[finite].max())
            best = max(best, cand)
            best_chordal = max(best_chordal, _chordal_best(lpv, xs, ys))
        new_cells = []
        k = 0
        for (a, b, c, d) in cells:
            block = lpv[k:k + 9].reshape(3, 3)
            k += 9
            mids = ((a + b) / 2, (c + d) / 2)
            for (sa, sb) in ((a, mids[0]), (mids[0], b)):
                for (sc, sd) in ((c, mids[1]), (mids[1], d)):
                    # corner values of this subcell from the 3x3 block
                    i0 = 0 if sa == a else 1
                    j0 = 0 if sc == c else 1
                    cvals = [block[i0, j0], block[i0 + 1, j0],
                             block[i0, j0 + 1], block[i0 + 1, j0 + 1]]
                    fin = [v for v in cvals if math.isfinite(v)]
                    if not fin:
                        continue
                    spread = max(fin) - min(fin) if len(fin) > 1 else math.inf
                    near_top = max(fin) > best - 3.0 * max(spread_ref, 1.0)
                    if (spread > threshold or len(fin) < 4) and near_top:
                        new_cells.append((sa, sb, sc, sd))
        # refine only the most promising cells to bound the work
        new_cells.sort(key=lambda t: -(t[1] - t[0]))
        cells = new_cells[:4096]
    return MuSupResult(log_mu=best, log_mu_chordal=best_chordal,
                       evaluations=evals, refinements=rounds,
                       overflow_points=overflow)


def _chordal_best(lp: np.ndarray, X: np.ndarray, Y: np.ndarray) -> float:
    """Largest finite log chordal value lp + log(1+|z|^2), element-wise in any shape."""
    vals = lp + np.log1p(X * X + Y * Y)
    vals = vals[np.isfinite(vals)]
    return float(vals.max()) if vals.size else -math.inf


# ---------------------------------------------------------------------------
# spherical area


@dataclass
class AreaResult:
    value: float  # float value; inf if beyond double range
    log_value: float
    log_error: float
    unconverged: bool
    cells: int
    refinements: int
    overflow_cells: int


def _logsumexp_list(vals) -> float:
    vals = [v for v in vals if v != -math.inf]
    if not vals:
        return -math.inf
    m = max(vals)
    if not math.isfinite(m):
        return m
    return m + math.log(sum(math.exp(v - m) for v in vals))


def spherical_area(f, U: Region, n: int, grid: GridSpec) -> AreaResult:
    """(1/pi) integral over U of ((f^n)^#)^2, adaptive midpoint + Richardson.

    Disk regions integrate on polar cells, rectangles on cartesian cells.
    Every cell contributes its log value; totals combine by log-sum-exp.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if U.kind == "disk":
        cells = _polar_cells(U, grid.base_resolution)
        midpoint = _polar_midpoint
        split = _polar_split
    else:
        cells = _rect_cells(U, grid.base_resolution)
        midpoint = _rect_midpoint
        split = _rect_split

    total_logs = []
    err_logs = []
    overflow_cells = 0
    n_cells = 0
    refinements = 0
    active = [(c, 0) for c in cells]
    running_max = -math.inf
    force_bank = False

    # iterative deepening: each pass integrates active cells at midpoint
    # and their 4 children; converged cells bank the Richardson value
    while active:
        # batch all evaluation points for this pass
        pts = []
        for cell, _ in active:
            pts.append(midpoint(cell))
            for child in split(cell):
                pts.append(midpoint(child))
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        lp, st = logphi_batch(f, xs, ys, n)
        nxt = []
        k = 0
        for cell, depth in active:
            logc = _cell_log_contrib(lp[k], cell, midpoint, U)
            k += 1
            child_logs = []
            children = split(cell)
            for child in children:
                child_logs.append(_cell_log_contrib(lp[k], child, midpoint, U))
                k += 1
            logf = _logsumexp_list(child_logs)
            if logc == -math.inf and logf == -math.inf:
                n_cells += 1
                continue
            if math.isnan(logc) or math.isnan(logf):
                overflow_cells += 1
                n_cells += 1
                continue
            # Richardson for the O(h^2) midpoint rule
            diff = _log_abs_diff(logf, logc)
            running_max = max(running_max, logf)
            log_tol = math.log(grid.rel_tol)
            done = (force_bank
                    or logf < running_max - 45.0         # ~1e-19 of the total
                    or diff - logf <= log_tol            # cell itself converged
                    or diff < running_max + log_tol - 9.2  # error lost in total
                    or depth >= grid.max_refinements)
            if done:
                corrected = _log_richardson(logf, logc)
                total_logs.append(corrected)
                err_logs.append(diff - math.log(3.0))
                n_cells += 1
            else:
                refinements = max(refinements, depth + 1)
                for child in children:
                    nxt.append((child, depth + 1))
        force_bank = len(nxt) > 200_000  # runaway guard: bank everything next pass
        active = nxt

    log_value = _logsumexp_list(total_logs)
    log_err = _logsumexp_list(err_logs)
    unconverged = (log_err != -math.inf and log_value != -math.inf
                   and log_err > math.log(10.0 * grid.rel_tol) + log_value)
    if overflow_cells and log_value == -math.inf:
        raise ValueError("every cell overflowed; reduce n or the region")
    value = math.exp(log_value) if log_value < 700.0 else math.inf
    return AreaResult(value=value, log_value=log_value, log_error=log_err,
                      unconverged=unconverged or overflow_cells > 0,
                      cells=n_cells, refinements=refinements,
                      overflow_cells=overflow_cells)


def _log_abs_diff(a: float, b: float) -> float:
    """log|e^a - e^b| without overflow."""
    if a == b:
        return -math.inf
    hi, lo = (a, b) if a > b else (b, a)
    return hi + math.log1p(-math.exp(lo - hi))


def _log_richardson(logf: float, logc: float) -> float:
    """log((4 e^logf - e^logc)/3), clamped to logf when cancellation bites."""
    if logc - logf > math.log(4.0) - 1e-12:
        return logf  # coarse above 4x fine: fall back to the fine value
    return logf + math.log((4.0 - math.exp(logc - logf)) / 3.0)


# cell geometry helpers -------------------------------------------------------


def _rect_cells(U: Region, res: int):
    x0, x1, y0, y1 = _bounding_box(U)
    xs = np.linspace(x0, x1, res + 1)
    ys = np.linspace(y0, y1, res + 1)
    return [("r", xs[i], xs[i + 1], ys[j], ys[j + 1])
            for i in range(res) for j in range(res)]


def _rect_midpoint(cell):
    _, a, b, c, d = cell
    return ((a + b) / 2.0, (c + d) / 2.0)


def _rect_split(cell):
    # bisect the longer side to keep cell counts linear in depth
    _, a, b, c, d = cell
    if b - a >= d - c:
        mx = (a + b) / 2.0
        return [("r", a, mx, c, d), ("r", mx, b, c, d)]
    my = (c + d) / 2.0
    return [("r", a, b, c, my), ("r", a, b, my, d)]


def _rect_area(cell):
    _, a, b, c, d = cell
    return (b - a) * (d - c)


def _polar_cells(U: Region, res: int):
    # radial cells clustered toward both 0 and R via sqrt spacing in area
    rs = U.radius * np.sqrt(np.linspace(0.0, 1.0, res + 1))
    ths = np.linspace(0.0, 2.0 * math.pi, res + 1)
    return [("p", U.center.real, U.center.imag, rs[i], rs[i + 1], ths[j], ths[j + 1])
            for i in range(res) for j in range(res)]


def _polar_midpoint(cell):
    _, cx, cy, r0, r1, t0, t1 = cell
    rm = 0.5 * (r0 + r1)
    tm = 0.5 * (t0 + t1)
    return (cx + rm * math.cos(tm), cy + rm * math.sin(tm))


def _polar_split(cell):
    # bisect radially or angularly, whichever direction the cell is longer
    _, cx, cy, r0, r1, t0, t1 = cell
    rm = 0.5 * (r0 + r1)
    if r1 - r0 >= rm * (t1 - t0):
        return [("p", cx, cy, r0, rm, t0, t1), ("p", cx, cy, rm, r1, t0, t1)]
    tm = 0.5 * (t0 + t1)
    return [("p", cx, cy, r0, r1, t0, tm), ("p", cx, cy, r0, r1, tm, t1)]


def _polar_area(cell):
    _, _, _, r0, r1, t0, t1 = cell
    return 0.5 * (r1 * r1 - r0 * r0) * (t1 - t0)


def _cell_log_contrib(logphi: float, cell, midpoint, U: Region) -> float:
    """log of (1/pi) * (f^n)^#(mid)^2 * cell_area; -inf outside U, nan overflow."""
    if math.isnan(logphi):
        px, py = midpoint(cell)
        if not bool(_inside(U, np.array([px]), np.array([py]))[0]):
            return -math.inf
        return math.nan
    px, py = midpoint(cell)
    if not bool(_inside(U, np.array([px]), np.array([py]))[0]):
        return -math.inf
    area = _polar_area(cell) if cell[0] == "p" else _rect_area(cell)
    return 2.0 * logphi + math.log(area) - math.log(math.pi)


# ---------------------------------------------------------------------------
# characteristics


def nevanlinna_T(f, r: float, panels: int = 4096) -> float:
    """(1/2pi) circle mean of log+ |f|; kink-splitting trapezoid rule."""
    if r <= 0.0:
        raise ValueError("r must be positive")
    logr = math.log(r)

    def g(theta: float) -> float:
        lm, _ = fx.log_eval(f, (logr, theta))
        return lm

    thetas = np.linspace(0.0, 2.0 * math.pi, panels + 1)
    vals = np.array([g(t) for t in thetas])
    total = 0.0
    for i in range(panels):
        a, b = thetas[i], thetas[i + 1]
        va, vb = vals[i], vals[i + 1]
        if va <= 0.0 and vb <= 0.0:
            continue
        if va >= 0.0 and vb >= 0.0:
            total += 0.5 * (va + vb) * (b - a)
            continue
        # kink inside the panel: bisection on g to 1e-12
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


def ahlfors_shimizu_T0(f, r: float, grid: GridSpec) -> tuple:
    """(T0(r,f), unconverged) via 32-node quadrature of S(t)/t in log t."""
    if r < 1.0:
        raise ValueError("r must be >= 1")
    t_lo = r * 1e-6
    # composite 8-panel x 4-point Gauss-Legendre in u = log t
    gl_x = (-0.8611363115940526, -0.33998104358485626,
            0.33998104358485626, 0.8611363115940526)
    gl_w = (0.3478548451374538, 0.6521451548625461,
            0.6521451548625461, 0.3478548451374538)
    u0 = math.log(t_lo)
    u1 = math.log(r)
    total = 0.0
    unconverged = False
    for p in range(8):
        a = u0 + (u1 - u0) * p / 8.0
        b = u0 + (u1 - u0) * (p + 1) / 8.0
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        for xg, wg in zip(gl_x, gl_w):
            t = math.exp(mid + half * xg)
            res = spherical_area(f, Region.disk(0.0, t), 1, grid)
            unconverged |= res.unconverged
            total += wg * half * res.value
    # analytic small-t remainder: S(t) <= t^2 max_{|z|<=t_lo} (f^#)^2
    peak = _sup_logphi_smalldisk(f, t_lo)
    tail = 0.5 * t_lo * t_lo * math.exp(2.0 * peak) if peak < 300.0 else math.inf
    return total + tail, unconverged


def _sup_logphi_smalldisk(f, radius: float) -> float:
    th = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    best = -math.inf
    for rr in (0.0, 0.5 * radius, radius):
        xs = rr * np.cos(th)
        ys = rr * np.sin(th)
        lp, _ = logphi_batch(f, xs, ys, 1)
        fin = lp[np.isfinite(lp)]
        if fin.size:
            best = max(best, float(fin.max()))
    return best


def characteristic_sandwich_check(f, r: float, grid: GridSpec = GridSpec()) -> dict:
    """Standard inequalities tying T, T0, and S(r) together."""
    T = nevanlinna_T(f, r)
    T0, unconv = ahlfors_shimizu_T0(f, r, grid)
    f0 = abs(fx.eval_f(f, 0.0))
    logplus_f0 = max(math.log(f0), 0.0) if f0 > 0 else 0.0
    gap = abs(T - T0 - logplus_f0)
    bound = 0.5 * math.log(2.0) + 1e-2
    first = gap <= bound
    second = True
    lhs = rhs = s_r = math.nan
    if r > 1.0:
        T0_1, u1 = ahlfors_shimizu_T0(f, 1.0, grid)
        T0_r2, u2 = ahlfors_shimizu_T0(f, r * r, grid)
        unconv |= u1 or u2
        s_res = spherical_area(f, Region.disk(0.0, r), 1, grid)
        s_r = s_res.value
        unconv |= s_res.unconverged
        tol = 10.0 * grid.rel_tol * max(1.0, s_r)
        lhs = (T0 - T0_1) / math.log(r)
        rhs = T0_r2 / math.log(r)
        second = (lhs <= s_r + tol) and (s_r <= rhs + tol)
    return {"T": T, "T0": T0, "log_plus_f0": logplus_f0, "gap": gap,
            "gap_bound": bound, "first_holds": first,
            "sandwich_lhs": lhs, "S_r": s_r, "sandwich_rhs": rhs,
            "second_holds": second, "unconverged": unconv,
            "passed": first and second and not unconv}
