"""Escape-time rendering with fast-escaping overlay, written as binary PPM.

Pixels are colored by first-escape index; on top of that each pixel is
classified with the fast-escape test.  The image is computed and written a
fixed block of whole rows at a time, and both rules read a block's orbits
one step at a time, so the e^z render keeps no orbit table and its memory
grows with neither the resolution nor n_max.  Every rule is per pixel, so
the blocks give the bytes of one pass over all pixels.  Array comparisons
in doubles decide almost every entry; only near-ties and levels past double
range pay for a tower comparison.
"""

from __future__ import annotations

import math

import numpy as np

from . import dynamics as dy
from . import functions as fx
from . import measures as ms
from .towers import TowerReal

MAX_RESOLUTION = 8192
# pixels in one block of whole rows, the unit the image is computed and
# written in: at least 4 rows, since a row holds at most MAX_RESOLUTION
_BLOCK_PIXELS = 1 << 15
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
    levels = fx.iterated_max_modulus(f, R, n_max)
    rows = _BLOCK_PIXELS // width
    escaped = members = 0
    with open(out_path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        for r0 in range(0, height, rows):
            X, Y = np.meshgrid(xs, ys[r0:r0 + rows], indexing="xy")
            escape_step, fast = _escape_and_fast(f, X.ravel(), Y.ravel(), R, l_max, n_max,
                                                 levels)
            fh.write(_colorize(escape_step, fast, n_max).tobytes())
            escaped += int((escape_step >= 0).sum())
            members += int(fast.sum())

    total = width * height
    return {"path": out_path, "pixels": total,
            "escaped": escaped, "fast_members": members,
            "bounded": total - escaped,
            "fast_fraction": members / total}


def _escape_and_fast(f, xs, ys, R, l_max, n_max, levels):
    """Escape steps and fast mask, the orbits fed to the rules a step at a
    time; levels is iterated_max_modulus(f, R, n_max)."""
    rules = _StepRules(xs.size, math.log(max(R, 10.0)), levels, l_max)
    if not f.logmag_steps(xs, ys, n_max, rules.step):
        for col in dy.orbit_table(f, xs, ys, n_max).log_mag.T:
            rules.step(col)
    return rules.escape_step, rules.fast()


class _StepRules:
    """The escape and fast-escape rules, fed log|z_n| for n = 0, 1, ...

    Escape step: the first n >= 1 with log|z_n| > log_escape, or -1.  Fast
    escape: for some l <= l_max, |z_n| > M^(n-l)(R) strictly for every
    l <= n <= n_max; each l keeps an index array of the pixels still in the
    running, and only those are compared.  Floats decide a comparison whose
    sides are finite and clearly apart, exact tower arithmetic near-ties and
    levels past double range.  A NaN entry marks an orbit that grew out of
    range: it keeps pace for the remaining steps, an optimistic continuation
    that makes off-axis pixels classifiable at all and only upgrades orbits
    that already beat every decidable comparison.
    """

    def __init__(self, m, log_escape, levels, l_max):
        self.log_escape, self.levels, self.l_max = log_escape, levels, l_max
        # float view of the tower table: log M^k where it fits, else +inf
        self.log_M = [t.log().value() for t in self.levels]
        self.escape_step = np.full(m, -1, dtype=np.int64)
        self.runs, self.n = [], 0  # for each l <= n: the pixels still in the running

    def step(self, ll, live=None):
        """Step n's log|z_n| on the rows live (None: all, NaN past an orbit's
        end).  From n = l_max on, returns the mask of the rows that a later
        step can still change: unescaped, or in some l's run."""
        col, n = ll, self.n
        if live is not None and live.size < self.escape_step.size:
            col = np.full(self.escape_step.size, np.nan)
            col[live] = ll
        if n:
            self.escape_step[(col > self.log_escape) & (self.escape_step < 0)] = n
        if n <= self.l_max:
            self.runs.append(None)  # None: every pixel
        self.runs = [self._beating(run, col, n - l) for l, run in enumerate(self.runs)]
        self.n += 1
        if n < self.l_max:
            return None  # an l still to start reads every row
        wanted = self.escape_step < 0
        for run in self.runs:
            wanted[run] = True
        return wanted if live is None else wanted[live]

    def _beating(self, run, col, k):
        """The pixels of run with |z_n| > M^k(R)."""
        c = col if run is None else col[run]
        v = self.log_M[k]
        beats = np.isnan(c) | (c > v)
        # floats cannot be trusted within the gap; it is absolute below
        # |v| = 1, where a tower holds e^v rather than v
        gap = _TIE_REL * np.maximum(np.maximum(np.abs(c), abs(v)), 1.0)
        near = np.isfinite(c) & ~(np.abs(c - v) > gap)
        for i in np.flatnonzero(near):
            beats[i] = TowerReal.from_log(c[i]) > self.levels[k]
        return np.flatnonzero(beats) if run is None else run[beats]

    def fast(self):
        """The members; an l past the last step has nothing to beat."""
        fast = np.full(self.escape_step.size, self.l_max >= len(self.runs))
        for run in self.runs:
            fast[run] = True
        return fast


def _colorize(escape_step, fast, n_max):
    """Bounded: near-black blue; escaping: orbit-index gradient; A(f): white-hot."""
    palette = np.empty((n_max + 2, 3))  # row escape_step + 1; row 0: bounded
    palette[0] = (10.0, 10.0, 40.0)
    t = np.arange(n_max + 1) / max(n_max, 1)  # in (0, 1]: escapes happen at steps 1..n_max
    palette[1:, 0] = 60.0 + 170.0 * (1.0 - t)
    palette[1:, 1] = 30.0 + 120.0 * (1.0 - t) ** 2
    palette[1:, 2] = 90.0 * t
    rgb = palette.astype(np.uint8)[escape_step + 1]  # truncated once: entries in [0, 255]
    rgb[fast] = (255, 244, 214)
    return rgb
