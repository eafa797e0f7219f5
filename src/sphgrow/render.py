"""Escape-time rendering with fast-escaping overlay, written as binary PPM.

Pixels are colored by first-escape index; on top of that each pixel is
classified with the fast-escape test, read off the same orbit table that
gives the escape index.  Array comparisons in doubles decide almost every
entry; only near-ties and levels past double range pay for a tower
comparison.
"""

from __future__ import annotations

import math

import numpy as np

from . import dynamics as dy
from . import functions as fx
from . import kernels
from . import measures as ms
from .towers import TowerReal

MAX_RESOLUTION = 8192
# relative gap below which a float comparison is left to tower arithmetic
_TIE_REL = 1e-12


def render_escape(f, window: ms.Region, resolution, R: float,
                  l_max: int, n_max: int, out_path: str) -> dict:
    """Render the window to a P6 PPM file; returns classification stats."""
    if window.kind != "rectangle":
        raise ValueError("window must be a rectangle region")
    if isinstance(resolution, int):
        width = height = resolution
    else:
        width, height = resolution
    if not (1 <= width <= MAX_RESOLUTION and 1 <= height <= MAX_RESOLUTION):
        raise ValueError(f"resolution must be within 1..{MAX_RESOLUTION}")

    x0, x1, y0, y1 = window.bounds()
    xs = np.linspace(x0, x1, width) if width > 1 else np.array([window.center.real])
    ys = np.linspace(y1, y0, height) if height > 1 else np.array([window.center.imag])
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    flat_x = X.ravel()
    flat_y = Y.ravel()

    log_escape = math.log(max(R, 10.0))
    logmags, escape_step = _orbit_logmags(f, flat_x, flat_y, n_max, log_escape)

    table = fx.iterated_max_modulus(f, R, n_max)
    fast = _classify_fast(logmags, table, l_max, n_max)

    rgb = _colorize(escape_step, fast, n_max).reshape(height, width, 3)
    with open(out_path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(rgb.astype(np.uint8).tobytes())

    total = flat_x.size
    escaped = int((escape_step >= 0).sum())
    members = int(fast.sum())
    return {"path": out_path, "pixels": total,
            "escaped": escaped, "fast_members": members,
            "bounded": total - escaped,
            "fast_fraction": members / total}


def _orbit_logmags(f, xs, ys, n_max, log_escape):
    batch = f.logmags(xs, ys, n_max, log_escape)
    if batch is not None:
        return batch
    # the orbit table for variants without a batch kernel
    table = dy.orbit_table(f, xs, ys, n_max).log_mag
    return table, kernels.escape_index(table, log_escape)


def _classify_fast(logmags, table, l_max, n_max):
    """Fast-escape membership for the overlay, read off the orbit table.

    A pixel is a member when for some l <= l_max, |z_n| > M^(n-l)(R)
    strictly for every l <= n <= n_max.  Floats decide a comparison whose
    two sides are finite and clearly apart; exact tower arithmetic decides
    near-ties and levels past double range.  A NaN entry marks an orbit
    that grew out of log-polar range (past e^(e^709)); it is treated as
    keeping pace for the remaining steps.  That optimistic continuation is
    what makes off-axis pixels classifiable at all, and it only upgrades
    orbits that already beat every decidable comparison.
    """
    # float view of the tower table: log M^k where it fits, else +inf
    log_M = [t.log().value() for t in table.log_levels]
    fast = np.zeros(logmags.shape[0], dtype=bool)
    for l in range(l_max + 1):
        run = np.flatnonzero(~fast)  # the pixels still in the running for l
        for n in range(l, n_max + 1):
            col, v = logmags[run, n], log_M[n - l]
            beats = np.isnan(col) | (col > v)
            # floats cannot be trusted within the gap; it is absolute below
            # |v| = 1, where a tower holds e^v rather than v
            gap = _TIE_REL * np.maximum(np.maximum(np.abs(col), abs(v)), 1.0)
            near = np.isfinite(col) & ~(np.abs(col - v) > gap)
            for i in np.flatnonzero(near):
                beats[i] = TowerReal.from_log(col[i]) > table.log_levels[n - l]
            run = run[beats]
        fast[run] = True
    return fast


def _colorize(escape_step, fast, n_max):
    """Bounded: near-black blue; escaping: orbit-index gradient; A(f): white-hot."""
    m = escape_step.size
    rgb = np.zeros((m, 3), dtype=np.float64)
    bounded = escape_step < 0
    rgb[bounded] = (10.0, 10.0, 40.0)
    esc = ~bounded
    t = np.clip(escape_step[esc] / max(n_max, 1), 0.0, 1.0)
    rgb[esc, 0] = 60.0 + 170.0 * (1.0 - t)
    rgb[esc, 1] = 30.0 + 120.0 * (1.0 - t) ** 2
    rgb[esc, 2] = 90.0 * t
    rgb[fast] = (255.0, 244.0, 214.0)
    return np.clip(rgb, 0.0, 255.0)
