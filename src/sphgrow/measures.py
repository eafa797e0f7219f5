"""Supremum metric mu(U,f^n), spherical area S(U,f^n), characteristics.

All integrand work happens on log (f^n)^# values coming out of the batch
kernels, so quantities like S(U,f^4) ~ e^(hundreds) accumulate through
log-sum-exp instead of overflowing.  Reduction orders are fixed
(row-major) for reproducible output.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import dynamics as dy
from . import functions as fx


@dataclass(frozen=True)
class Region:
    """A disk or a rectangle: the open set U that the growth theorems measure.

    Its JSON form, bounding box, membership test and sampling rule live here,
    so no other module branches on its kind.
    """
    center: complex
    kind: str  # "rectangle" or "disk"
    half_width: float = 0.0
    half_height: float = 0.0
    radius: float = 0.0

    # each kind's size fields, in JSON order
    SIZES = {"disk": ("radius",), "rectangle": ("half_width", "half_height")}

    def __post_init__(self):
        if self.kind not in Region.SIZES:
            raise ValueError(f"unknown region kind {self.kind!r}")
        if not (math.isfinite(self.center.real) and math.isfinite(self.center.imag)):
            raise ValueError(f"{self.kind} center must be finite, not {self.center}")
        for name in Region.SIZES[self.kind]:
            size = getattr(self, name)
            if not 0.0 < size < math.inf:  # NaN fails too
                raise ValueError(f"{self.kind} {name} must be positive and finite, not {size}")

    @staticmethod
    def rectangle(center: complex, half_width: float, half_height: float) -> "Region":
        return Region(complex(center), "rectangle",
                      half_width=float(half_width), half_height=float(half_height))

    @staticmethod
    def disk(center: complex, radius: float) -> "Region":
        return Region(complex(center), "disk", radius=float(radius))

    @staticmethod
    def from_json(obj: dict) -> "Region":
        """The region {"kind": kind, "center": [re, im]} plus the kind's SIZES."""
        kind = obj.get("kind")
        if not isinstance(kind, str) or kind not in Region.SIZES:
            raise ValueError(f"unknown region kind {kind!r}")
        missing = [key for key in ("center", *Region.SIZES[kind]) if key not in obj]
        if missing:
            raise ValueError(f"{kind} region needs {', '.join(missing)}")
        center = obj["center"]
        if not fx.is_pair(center):
            raise ValueError(f"{kind} center must be [re, im], not {center!r}")
        for key in Region.SIZES[kind]:
            if not fx.is_number(obj[key]):
                raise ValueError(f"{kind} {key} must be a number, not {obj[key]!r}")
        return Region(complex(center[0], center[1]), kind,
                      **{key: float(obj[key]) for key in Region.SIZES[kind]})

    def to_json(self) -> dict:
        return {"kind": self.kind, "center": [self.center.real, self.center.imag],
                **{key: getattr(self, key) for key in Region.SIZES[self.kind]}}

    def bounds(self) -> tuple:
        """(x0, x1, y0, y1), the smallest box that holds the region."""
        hw, hh = ((self.radius, self.radius) if self.kind == "disk"
                  else (self.half_width, self.half_height))
        return (self.center.real - hw, self.center.real + hw,
                self.center.imag - hh, self.center.imag + hh)

    def contains(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Whether each point xs + i ys lies in the closed region."""
        if self.kind == "rectangle":
            return (np.abs(xs - self.center.real) <= self.half_width) & \
                   (np.abs(ys - self.center.imag) <= self.half_height)
        return (xs - self.center.real) ** 2 + (ys - self.center.imag) ** 2 <= self.radius**2

    def sample(self, rng) -> complex:
        """A uniform random point of the region, drawn from the numpy Generator rng."""
        if self.kind == "disk":
            r = self.radius * math.sqrt(rng.uniform(0.0, 1.0))
            t = rng.uniform(0.0, 2.0 * math.pi)
            return self.center + complex(r * math.cos(t), r * math.sin(t))
        return self.center + complex(rng.uniform(-self.half_width, self.half_width),
                                     rng.uniform(-self.half_height, self.half_height))


@dataclass(frozen=True)
class GridSpec:
    base_resolution: int = 32
    # depth cap only; converged cells bank long before it.  Huge domains
    # (say a 1e6-radius disk with all the mass near the unit circle) need
    # ~20 bisections before the interesting scale is even resolved.
    max_refinements: int = 24
    rel_tol: float = 1e-3

    def __post_init__(self):
        for name, least in (("base_resolution", 16), ("max_refinements", 0)):
            value = getattr(self, name)
            if not (fx.is_number(value, numbers.Integral) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, not {value!r}")
        if not (fx.is_number(self.rel_tol) and 0.0 < self.rel_tol <= 0.1):
            raise ValueError(f"rel_tol must be a number in (0, 0.1], not {self.rel_tol!r}")


# ---------------------------------------------------------------------------
# batched log (f^n)^# evaluation


def logphi_batch(f, xs: np.ndarray, ys: np.ndarray, n: int) -> np.ndarray:
    """log (f^n)^# over start points; NaN where the orbit left double range
    before step n."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    lp = f.logphi(xs, ys, n)
    if lp is None:  # the orbit table for variants without a batch kernel
        lp = dy.orbit_table(f, xs.ravel(), ys.ravel(), n).logphi.reshape(xs.shape)
    return lp


# ---------------------------------------------------------------------------
# supremum metric


@dataclass
class MuSupResult:
    log_mu: float
    evaluations: int  # grid and 3x3 block points examined, reused corners included
    refinements: int
    overflow_points: int  # of those, the ones inside U whose orbit overflowed


# Both refinement engines hold their cells as parallel arrays (u0, u1, v0, v1):
# x/y edges for rectangle cells, r/theta edges for polar cells.  Each pass makes
# one logphi_batch call on the points no earlier pass evaluated (mu_sup: those of
# the 4 edge midpoints and the centre per cell that lie inside U, and no call when
# none does; spherical_area: 2 child midpoints) and decides every cell with array
# operations, keeping cells in order.  spherical_area's passes are flat 1-D
# arrays: a pass's points go to the kernel in blocks (on the first pass the cells'
# own midpoints, then every child 0's, then every child 1's), and the next pass's
# cells are the growing cells' children, child 0 then child 1 of each.  mu_sup
# holds x and y edges with midpoints as (3, N) arrays and 3x3 blocks as (9, N):
# block position (x outer) on the rows, cells along the contiguous axis; row r is
# row _ROWS[r] of 4 corners over 5 new points.
_ROWS = [0, 4, 1, 5, 6, 7, 2, 8, 3]


def _grid_cells(us: np.ndarray, vs: np.ndarray):
    """Cells of the tensor grid with edges us x vs, u outer."""
    u0, v0 = np.meshgrid(us[:-1], vs[:-1], indexing="ij")
    u1, v1 = np.meshgrid(us[1:], vs[1:], indexing="ij")
    return u0.ravel(), u1.ravel(), v0.ravel(), v1.ravel()


def _window_test(g: np.ndarray, threshold: float):
    """Per 2x2 cell of the point grid g, x and y on its first two axes (cells
    laid out as g is, one shorter on both): (refine?, largest finite corner).

    A cell is refined when some corner is finite and either the finite
    corners spread by more than threshold or a corner is missing.
    """
    fin = np.isfinite(g)
    count = fin.view(np.int8)
    count = count[:, :-1] + count[:, 1:]
    count = count[:-1] + count[1:]
    top = np.where(fin, g, -np.inf)
    top = np.maximum(top[:, :-1], top[:, 1:])
    top = np.maximum(top[:-1], top[1:])
    low = np.minimum(g[:, :-1], g[:, 1:])
    low = np.minimum(low[:-1], low[1:])
    with np.errstate(invalid="ignore"):
        spread = top - low  # that of the finite corners wherever all 4 are
    return (count > 0) & ((spread > threshold) | (count < 4)), top


def _edges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The rows lo, (lo + hi) / 2, hi."""
    return np.stack([lo, (lo + hi) / 2, hi])


def _logphi_inside(f, xs: np.ndarray, ys: np.ndarray, inside: np.ndarray, n: int):
    """log (f^n)^# laid out on the mask inside, from the points xs + i ys
    where it holds: -inf elsewhere, so a NaN is a point of U whose orbit
    overflowed, and no kernel call when it holds nowhere."""
    lpi = logphi_batch(f, xs, ys, n) if xs.size else np.nan
    lp = np.full(inside.shape, -np.inf)  # formed after the kernel call, not alive in it
    lp[inside] = lpi
    return lp


def _subcells(xe, ye, block, threshold: float, floor: float):
    """(x edges, y edges, corner values) of the subcells to refine next: those
    the window test marks whose top corner is above floor, at most 4096, by
    descending x-width as rounded and in the order 4i + 2p + q among equal
    ones.  The two x-halves of a cell differ by how its midpoint rounded, so
    where more than 4096 of one depth compete that rounding picks the ones
    kept, not their size."""
    m = xe.shape[1]
    # subcell (p, q) of cell i, x half p outer, has corners block[p:p+2, q:q+2, i]
    refine, top = _window_test(block.reshape(3, 3, m), threshold)
    refine &= top > floor
    sub = np.flatnonzero(refine.reshape(4, m).T)  # 4i + 2p + q
    keep = np.argsort(-(xe[1:] - xe[:-1])[sub >> 1 & 1, sub >> 2], kind="stable")[:4096]
    sub = sub[keep]
    i, p, q = sub >> 2, sub >> 1 & 1, sub & 1
    corner = (3 * p + q) * m + i + np.array([[0], [m], [3 * m], [4 * m]])
    return (_edges(xe[p, i], xe[p + 1, i]), _edges(ye[q, i], ye[q + 1, i]),
            block.reshape(-1)[corner])


def mu_sup(f, U: Region, n: int, grid: GridSpec) -> MuSupResult:
    """log sup of (f^n)^# over U by corner-spread adaptive refinement."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x0, x1, y0, y1 = U.bounds()
    res = grid.base_resolution
    gx = np.linspace(x0, x1, res + 1)
    gy = np.linspace(y0, y1, res + 1)
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    mask = U.contains(X, Y)
    lp = _logphi_inside(f, X[mask], Y[mask], mask, n)
    vals = lp[np.isfinite(lp)]
    overflow = int(np.isnan(lp).sum())
    evals = X.size
    if vals.size == 0:
        raise ValueError(f"every grid orbit overflows before n={n}; use smaller n")
    best = float(vals.max())
    spread_ref = float(vals.max() - vals.min()) if vals.size > 1 else 0.0
    threshold = grid.rel_tol * max(spread_ref, 1.0)

    u, v = np.divmod(np.flatnonzero(_window_test(lp, threshold)[0]), res)
    xe, ye = _edges(gx[u], gx[u + 1]), _edges(gy[v], gy[v + 1])
    # each cell's corner values, from the pass that evaluated them
    corner = u * (res + 1) + v + np.array([[0], [1], [res + 1], [res + 2]])
    lpc = lp.reshape(-1)[corner]
    rounds = 0
    while xe.shape[1] and rounds < grid.max_refinements:
        rounds += 1
        # the new points, rows 1, 3, 4, 5, 7: (x0, ym), (xm, y0), (xm, ym), (xm, y1), (x1, ym)
        xs = xe[[0, 1, 1, 1, 2]].reshape(-1)
        ys = ye[[1, 0, 1, 2, 1]].reshape(-1)
        inside = U.contains(xs, ys)
        xs, ys = xs[inside], ys[inside]  # only the points in U stay alive in the kernel
        lpv = _logphi_inside(f, xs, ys, inside.reshape(5, -1), n)
        # the corners are in best already
        best = max(best, float(np.where(np.isfinite(lpv), lpv, -np.inf).max()))
        block = np.concatenate((lpc, lpv))[_ROWS]
        overflow += int(np.isnan(block).sum())
        evals += block.size
        if rounds == grid.max_refinements:
            break  # nothing reads the subcells of the last permitted round
        xe, ye, lpc = _subcells(xe, ye, block, threshold,
                                best - 3.0 * max(spread_ref, 1.0))  # near the top
        del block, lpv  # not alive in the next kernel call
    return MuSupResult(log_mu=best, evaluations=evals, refinements=rounds,
                       overflow_points=overflow)


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


def _logsumexp(vals: np.ndarray) -> float:
    """log of the sum of e^vals, -inf for no terms."""
    vals = vals[vals != -np.inf]
    if not vals.size:
        return -math.inf
    m = vals.max()
    if not math.isfinite(m):
        return float(m)
    return float(m + np.log(np.exp(vals - m).sum()))


def spherical_area(f, U: Region, n: int, grid: GridSpec) -> AreaResult:
    """(1/pi) integral over U of ((f^n)^#)^2, adaptive midpoint + Richardson.

    Disk regions integrate on polar cells, rectangles on cartesian cells.
    Every cell contributes its log value; totals combine by log-sum-exp.
    """
    return _area(f, U, n, grid, grid.base_resolution, None)


def _cell_logs(lp, inside, u0, u1, v0, v1, polar: bool, rho, weight_r):
    """log of (1/pi) (f^n)^#(mid)^2 area per cell, times log(weight_r/rho) at
    its midpoint radius rho unless weight_r is None: -inf outside U, nan on
    overflow."""
    area = 0.5 * (u1 * u1 - u0 * u0) * (v1 - v0) if polar else (u1 - u0) * (v1 - v0)
    logs = 2.0 * lp + np.log(area) - math.log(math.pi)
    if weight_r is not None:
        logs += np.log(np.log(weight_r / rho))
    return np.where(inside, logs, -np.inf)


def _pairs(a: np.ndarray, b: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """a[rows] and b[rows] interleaved: a[rows[0]], b[rows[0]], a[rows[1]], ..."""
    out = np.empty(2 * rows.size, dtype=a.dtype)
    out[0::2] = a[rows]
    out[1::2] = b[rows]
    return out


def _area(f, U: Region, n: int, grid: GridSpec, sectors: int, weight_r) -> AreaResult:
    """spherical_area on base_resolution x sectors base cells (sectors along
    theta for a disk, along y for a rectangle).  Unless weight_r is None (for
    a disk, weight_r >= its radius) the integrand carries the weight
    log(weight_r/rho) at each cell's midpoint radius rho, which is never 0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    res = grid.base_resolution
    polar = U.kind == "disk"
    if polar:
        # radial cells clustered toward both 0 and R via sqrt spacing in area
        u0, u1, v0, v1 = _grid_cells(U.radius * np.sqrt(np.linspace(0.0, 1.0, res + 1)),
                                     np.linspace(0.0, 2.0 * math.pi, sectors + 1))
    else:
        x0, x1, y0, y1 = U.bounds()
        u0, u1, v0, v1 = _grid_cells(np.linspace(x0, x1, res + 1),
                                     np.linspace(y0, y1, sectors + 1))
    depth = np.zeros(u0.size, dtype=np.int64)
    log_tol = math.log(grid.rel_tol)
    total_logs = []
    err_logs = []
    overflow_cells = 0
    n_cells = 0
    refinements = 0
    running_max = -math.inf
    force_bank = False
    logc = None  # each cell's own midpoint log value, once known

    # iterative deepening: each pass integrates active cells at midpoint
    # and their 2 children; converged cells bank the Richardson value
    while u0.size:
        m = u0.size
        um, vm = 0.5 * (u0 + u1), 0.5 * (v0 + v1)
        # bisect the longer side (radially or angularly for polar cells)
        along_u = u1 - u0 >= (um * (v1 - v0) if polar else v1 - v0)
        # the new midpoints in blocks: on the first pass the cells' own, then
        # every child 0's, then every child 1's (after the first pass a cell's
        # own midpoint was a child's the pass before)
        own = m if logc is None else 0  # points ahead of the children's
        mu = np.concatenate(([um] if own else [])
                            + [np.where(along_u, 0.5 * (u0 + um), um),
                               np.where(along_u, 0.5 * (um + u1), um)])
        mv = np.concatenate(([vm] if own else [])
                            + [np.where(along_u, vm, 0.5 * (v0 + vm)),
                               np.where(along_u, vm, 0.5 * (vm + v1))])
        if polar:
            xs = U.center.real + mu * np.cos(mv)
            ys = U.center.imag + mu * np.sin(mv)
        else:
            xs, ys = mu, mv
        inside = U.contains(xs, ys)
        # only the new points and their radii stay alive in the kernel
        del mv, um, vm
        lp = logphi_batch(f, xs, ys, n)
        del xs, ys
        um, vm = 0.5 * (u0 + u1), 0.5 * (v0 + v1)
        k0, k1 = slice(own, own + m), slice(own + m, None)
        # child 0 is [u0, cu1] x [v0, cv1], child 1 is [cu0, u1] x [cv0, v1]
        cu0, cu1 = np.where(along_u, um, u0), np.where(along_u, um, u1)
        cv0, cv1 = np.where(along_u, v0, vm), np.where(along_u, v1, vm)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if own:
                logc = _cell_logs(lp[:m], inside[:m], u0, u1, v0, v1, polar, um, weight_r)
            l0 = _cell_logs(lp[k0], inside[k0], u0, cu1, v0, cv1, polar, mu[k0], weight_r)
            l1 = _cell_logs(lp[k1], inside[k1], cu0, u1, cv0, v1, polar, mu[k1], weight_r)
            del lp, inside, mu, um, vm, along_u
            # logf = log(e^l0 + e^l1), the larger finite term factored out
            top = np.where((l0 == -np.inf) | (l1 > l0), l1, l0)
            logf = np.where(np.isfinite(top),
                            top + np.log(np.exp(l0 - top) + np.exp(l1 - top)), top)
            empty = (logc == -np.inf) & (logf == -np.inf)
            bad = ~empty & (np.isnan(logc) | np.isnan(logf))
            live = np.flatnonzero(~empty & ~bad)
            logc, logf, dep = logc[live], logf[live], depth[live]
            # Richardson for the O(h^2) midpoint rule; diff = log|e^logf - e^logc|
            hi = np.maximum(logf, logc)
            diff = np.where(logf == logc, -np.inf,
                            hi + np.log1p(-np.exp(np.minimum(logf, logc) - hi)))
            # each cell is judged against the running max of logf over itself and
            # every live cell before it, this pass and earlier ones
            run = np.maximum.accumulate(np.concatenate(([running_max], logf)))
            running_max = float(run[-1])
            run = run[1:]
            done = (force_bank
                    | (logf < run - 45.0)           # ~1e-19 of the total
                    | (diff - logf <= log_tol)      # cell itself converged
                    | (diff < run + log_tol - 9.2)  # error lost in total
                    | (dep >= grid.max_refinements))
            fc = logc[done] - logf[done]
            # log((4 e^logf - e^logc)/3), the fine value when coarse exceeds 4x fine
            total_logs.append(np.where(fc > math.log(4.0) - 1e-12, logf[done],
                                       logf[done] + np.log((4.0 - np.exp(fc)) / 3.0)))
            err_logs.append(diff[done] - math.log(3.0))
        overflow_cells += int(bad.sum())
        n_cells += int(empty.sum()) + int(bad.sum()) + int(done.sum())
        grow = ~done
        if grow.any():
            refinements = max(refinements, int(dep[grow].max()) + 1)
        # the growing cells' children, child 0 then child 1 of each, in cell order
        rows = live[grow]
        u0, u1, v0, v1, logc = (_pairs(a, b, rows) for a, b in (
            (u0, cu0), (cu1, u1), (v0, cv0), (cv1, v1), (l0, l1)))
        depth = np.repeat(dep[grow] + 1, 2)
        force_bank = u0.size > 200_000  # runaway guard: bank everything next pass
        # none of this pass's arrays is alive in the next kernel call
        del cu0, cu1, cv0, cv1, l0, l1, top, logf, empty, bad, live, dep, hi, diff
        del run, done, fc, grow, rows

    log_value = _logsumexp(np.concatenate(total_logs))
    log_err = _logsumexp(np.concatenate(err_logs))
    unconverged = (log_err != -math.inf and log_value != -math.inf
                   and log_err > math.log(10.0 * grid.rel_tol) + log_value)
    if overflow_cells and log_value == -math.inf:
        raise ValueError("every cell overflowed; reduce n or the region")
    value = math.exp(log_value) if log_value < 700.0 else math.inf
    return AreaResult(value=value, log_value=log_value, log_error=log_err,
                      unconverged=unconverged or overflow_cells > 0,
                      cells=n_cells, refinements=refinements,
                      overflow_cells=overflow_cells)


# ---------------------------------------------------------------------------
# characteristics


def nevanlinna_T(f, r: float) -> float:
    """(1/2pi) circle mean of log+ |f|; kink-splitting trapezoid rule."""
    if not 0.0 < r < math.inf:  # NaN fails too
        raise ValueError(f"r must be positive and finite, not {r}")
    logr = math.log(r)
    panels = 4096

    def g(theta: float) -> float:
        lm, _ = f.log_eval(logr, theta)
        return lm

    thetas = np.linspace(0.0, 2.0 * math.pi, panels + 1)
    vals = f.log_abs_on_circle(logr, thetas)
    va, vb = vals[:-1], vals[1:]
    zero = (va <= 0.0) & (vb <= 0.0)  # log+ |f| vanishes on the panel
    whole = ~zero & (va >= 0.0) & (vb >= 0.0)
    parts = np.where(whole, 0.5 * (va + vb) * np.diff(thetas), 0.0)  # each panel's share
    for i in np.flatnonzero(~zero & ~whole):
        a, b = thetas[i], thetas[i + 1]
        # kink inside the panel: bisection on g to 1e-12
        lo, hi = (a, b) if va[i] < 0.0 else (b, a)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if g(mid) < 0.0:
                lo = mid
            else:
                hi = mid
            if abs(hi - lo) < 1e-12:
                break
        t_star = 0.5 * (lo + hi)
        if va[i] > 0.0:
            parts[i] = 0.5 * va[i] * abs(t_star - a)
        else:
            parts[i] = 0.5 * vb[i] * abs(b - t_star)
    total = np.add.accumulate(parts)[-1]  # summed left to right, panel by panel
    return total / (2.0 * math.pi)


def ahlfors_shimizu_T0(f, r: float, grid: GridSpec) -> tuple:
    """(T0(r,f), unconverged): T0(r) = integral from 0 to r of S(t)/t dt.

    Swapping the integrals (Fubini) makes it one weighted area integral,
    T0(r) = (1/pi) integral over |z| < r of (f^#)^2 log(r/|z|) dx dy, which
    spherical_area's engine computes on 4 x base_resolution angular sectors:
    with base_resolution the single disk under-resolves the strips where an
    entire function's area concentrates (Re z ~ 0 for e^z) at large r.
    """
    if r < 1.0:
        raise ValueError("r must be >= 1")
    res = _area(f, Region.disk(0.0, r), 1, grid, 4 * grid.base_resolution, r)
    return res.value, res.unconverged


def characteristic_sandwich_check(f, r: float, grid: GridSpec = GridSpec()) -> dict:
    """Standard inequalities tying T, T0, and S(r) together."""
    T = nevanlinna_T(f, r)
    T0, unconv = ahlfors_shimizu_T0(f, r, grid)
    f0 = abs(f.eval(0j))
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
