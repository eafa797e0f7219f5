"""Entire-function descriptors with exact derivatives and max-modulus rules.

Variants: Polynomial, ExpAffine (lambda * e^z), CoshSqrt (cosh sqrt z,
the alpha=2 Mittag-Leffler), MittagLeffler(alpha), ScaledMittagLeffler
(eta * E_alpha with eta small enough that |f|, |f'| < 1 on the unit
circle).  Each knows its order/lower order, whether M(r,f) is attained on
the positive axis, and how its max modulus iterates in tower form.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import mittag
from .towers import TowerReal

# orbit/table entries switch from float arithmetic to tower recursions
# once values pass this magnitude
FLOAT_CEILING = 1e12


class EvalOverflow(Exception):
    """Value exceeds double range; carries the log-polar result."""

    def __init__(self, log_mag: float, arg: float):
        super().__init__(f"value overflows doubles: log|f| = {log_mag:.6g}")
        self.log_mag = log_mag
        self.arg = arg


class OrbitOverflow(Exception):
    """Log continuation not available for this variant at this scale."""


class NonEscalatingError(ValueError):
    """M(R,f) <= R: the max-modulus iteration will not escape from R."""


# ---------------------------------------------------------------------------
# descriptors


@dataclass(frozen=True)
class Polynomial:
    coefficients: tuple  # a_0 .. a_d, complex, d >= 2

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coefficients)
        if len(coeffs) < 3 or coeffs[-1] == 0:
            raise ValueError("polynomial degree must be >= 2")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    order = 0.0
    lower_order = 0.0

    @property
    def positive_axis_max(self) -> bool:
        return all(c.imag == 0.0 and c.real >= 0.0 for c in self.coefficients)


@dataclass(frozen=True)
class ExpAffine:
    lam: complex  # z -> lam * e^z

    def __post_init__(self):
        lam = complex(self.lam)
        if lam == 0:
            raise ValueError("lambda must be nonzero")
        object.__setattr__(self, "lam", lam)

    order = 1.0
    lower_order = 1.0
    positive_axis_max = True  # |lam e^z| peaks at z = r for every lam


@dataclass(frozen=True)
class CoshSqrt:
    """z -> cosh(sqrt z); entire of order 1/2, same function as E_2."""

    order = 0.5
    lower_order = 0.5
    positive_axis_max = True


@dataclass(frozen=True)
class MittagLeffler:
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError("alpha must be in (0, 2]")

    @property
    def order(self) -> float:
        return 1.0 / self.alpha

    @property
    def lower_order(self) -> float:
        return 1.0 / self.alpha

    positive_axis_max = True


@dataclass(frozen=True)
class ScaledMittagLeffler:
    alpha: float
    eta: float = None  # default: largest halving value passing the unit-circle scan

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError("alpha must be in (0, 2]")
        eta = self.eta
        if eta is None:
            eta = choose_eta(self.alpha)
        if not 0.0 < eta < 1.0:
            raise ValueError("eta must be in (0, 1)")
        object.__setattr__(self, "eta", float(eta))

    @property
    def order(self) -> float:
        return 1.0 / self.alpha

    @property
    def lower_order(self) -> float:
        return 1.0 / self.alpha

    positive_axis_max = True


@lru_cache(maxsize=None)
def choose_eta(alpha: float) -> float:
    """Largest eta in {0.5, 0.25, ...} with max(|f|,|f'|) < 0.99 on |z|=1.

    f = eta * E_alpha; by the maximum principle a boundary scan suffices.
    """
    theta = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    ring = np.exp(1j * theta)
    peak = 0.0
    for z in ring:
        peak = max(peak, abs(mittag.ml_eval(alpha, z)), abs(mittag.ml_derivative(alpha, z)))
    eta = 0.5
    while eta * peak >= 0.99:
        eta *= 0.5
        if eta < 1e-12:
            raise ValueError("no admissible eta")
    return eta


# ---------------------------------------------------------------------------
# pointwise evaluation


def _poly_leading_logpolar(f: Polynomial, log_mag: float, arg: float) -> tuple:
    """Log-polar value of f at z = e^(log_mag + i arg).

    Evaluates directly while the value fits doubles; beyond that the
    leading term a_d z^d dominates and the lower-order correction (when
    still visible) multiplies in as log(1 + corr).
    """
    d = f.degree
    lead = f.coefficients[-1]
    if d * log_mag + math.log(abs(lead)) < 700.0 and log_mag < 700.0:
        z = cmath.exp(complex(log_mag, arg))
        total = 0.0 + 0.0j
        for c in reversed(f.coefficients):
            total = total * z + c
        if total == 0:
            return (-math.inf, 0.0)
        return (math.log(abs(total)), cmath.phase(total))
    out_log = d * log_mag + math.log(abs(lead))
    out_arg = d * arg + cmath.phase(lead)
    if log_mag < 700.0:
        z = cmath.exp(complex(log_mag, arg))
        corr = 0.0 + 0.0j
        for k in range(d - 1, -1, -1):
            corr = corr / z + f.coefficients[k] / lead
        corr /= z
        if abs(corr) < 0.999:
            out_log += math.log(abs(1.0 + corr))
            out_arg += cmath.phase(1.0 + corr)
    return out_log, math.remainder(out_arg, 2.0 * math.pi)


def eval_f(f, z: complex) -> complex:
    """Value of f at z; EvalOverflow with log-polar payload when too large."""
    z = complex(z)
    if isinstance(f, Polynomial):
        d = f.degree
        if abs(z) > 1.0 and d * math.log(abs(z)) + math.log(abs(f.coefficients[-1])) > 705.0:
            lm, ar = _poly_leading_logpolar(f, math.log(abs(z)), cmath.phase(z))
            raise EvalOverflow(lm, ar)
        total = 0.0 + 0.0j
        for c in reversed(f.coefficients):
            total = total * z + c
        return total
    if isinstance(f, ExpAffine):
        lm = z.real + math.log(abs(f.lam))
        if lm > 705.0:
            raise EvalOverflow(lm, math.remainder(z.imag + cmath.phase(f.lam), 2.0 * math.pi))
        return f.lam * cmath.exp(z)
    if isinstance(f, CoshSqrt):
        s = cmath.sqrt(z)  # principal branch: Re s >= 0
        if s.real > 705.0:
            raise EvalOverflow(s.real - math.log(2.0),
                               math.remainder(s.imag, 2.0 * math.pi))
        return cmath.cosh(s)
    if isinstance(f, MittagLeffler):
        return _ml_checked(f.alpha, z, 0.0, derivative=False)
    if isinstance(f, ScaledMittagLeffler):
        return _ml_scaled(f, z, derivative=False)
    raise TypeError(f"not a function descriptor: {f!r}")


def _ml_checked(alpha: float, z: complex, log_scale: float, derivative: bool) -> complex:
    fn = mittag.ml_derivative if derivative else mittag.ml_eval
    try:
        v = fn(alpha, z)
    except OverflowError:
        p = 1.0 / alpha
        zp = cmath.exp(p * cmath.log(z))
        lm = zp.real + math.log(p) + log_scale
        if derivative:
            lm += math.log(p) + (p - 1.0) * math.log(abs(z))
        raise EvalOverflow(lm, math.remainder(zp.imag, 2.0 * math.pi)) from None
    if log_scale != 0.0:
        v *= math.exp(log_scale)
    return v


def _ml_scaled(f: ScaledMittagLeffler, z: complex, derivative: bool) -> complex:
    return _ml_checked(f.alpha, z, math.log(f.eta), derivative)


def derivative_f(f, z: complex) -> complex:
    """Exact analytic derivative of the variant at z."""
    z = complex(z)
    if isinstance(f, Polynomial):
        total = 0.0 + 0.0j
        for k in range(f.degree, 0, -1):
            total = total * z + k * f.coefficients[k]
        return total
    if isinstance(f, ExpAffine):
        return eval_f(f, z)  # (lam e^z)' = lam e^z
    if isinstance(f, CoshSqrt):
        # d/dz cosh sqrt z = sinh(sqrt z) / (2 sqrt z); entire (even series)
        s = cmath.sqrt(z)
        if abs(s) < 1e-8:
            return 0.5 + z / 12.0
        if s.real > 705.0:
            raise EvalOverflow(s.real - math.log(2.0) - math.log(2.0 * abs(s)),
                               math.remainder(s.imag - cmath.phase(s), 2.0 * math.pi))
        return cmath.sinh(s) / (2.0 * s)
    if isinstance(f, MittagLeffler):
        return _ml_checked(f.alpha, z, 0.0, derivative=True)
    if isinstance(f, ScaledMittagLeffler):
        return _ml_scaled(f, z, derivative=True)
    raise TypeError(f"not a function descriptor: {f!r}")


def log_eval(f, z_logpolar: tuple) -> tuple:
    """Log-polar (log_mag, arg) of f at z = e^(log_mag) * e^(i arg).

    Exact for ExpAffine whenever the rectangular form of z is available
    (log_mag small enough that e^log_mag fits a double); exact for
    Polynomial at large |z| via the leading term.  Other variants are
    supported only while the input itself fits doubles.
    """
    log_mag, arg = float(z_logpolar[0]), float(z_logpolar[1])
    if isinstance(f, ExpAffine):
        if log_mag > 709.0:
            raise OrbitOverflow("ExpAffine input beyond double magnitude")
        r = math.exp(log_mag)
        return (r * math.cos(arg) + math.log(abs(f.lam)),
                math.remainder(r * math.sin(arg) + cmath.phase(f.lam), 2.0 * math.pi))
    if isinstance(f, Polynomial):
        return _poly_leading_logpolar(f, log_mag, arg)
    if log_mag > 709.0:
        raise OrbitOverflow(f"{type(f).__name__} has no log continuation at tower scale")
    z = cmath.exp(complex(log_mag, arg))
    try:
        v = eval_f(f, z)
    except EvalOverflow as e:
        return (e.log_mag, e.arg)
    if v == 0:
        raise OrbitOverflow("zero value has no log-polar form")
    return (math.log(abs(v)), cmath.phase(v))


# ---------------------------------------------------------------------------
# maximum modulus


def _log_poly_circle_max(f: Polynomial, r: float) -> float:
    """log max |p| on |z| = r: 1024-point scan + golden-section refinement."""

    def lp(theta: float) -> float:
        lm, _ = _poly_leading_logpolar(f, math.log(r), theta)
        return lm

    n = 1024
    thetas = [2.0 * math.pi * i / n for i in range(n)]
    vals = [lp(t) for t in thetas]
    best = max(range(n), key=vals.__getitem__)
    # golden-section inside the bracket around the best sample
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a = thetas[best] - 2.0 * math.pi / n
    b = thetas[best] + 2.0 * math.pi / n
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = lp(c), lp(d)
    while b - a > 1e-13:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = lp(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = lp(d)
    return max(vals[best], fc, fd)


def log_max_modulus(f, r: float) -> float:
    """log M(r, f).  Exact positive-axis rule when the variant allows it."""
    if r <= 0.0:
        raise ValueError("r must be positive")
    if isinstance(f, ExpAffine):
        return r + math.log(abs(f.lam))
    if isinstance(f, CoshSqrt):
        s = math.sqrt(r)
        return s - math.log(2.0) + math.log1p(math.exp(-2.0 * s))
    if isinstance(f, MittagLeffler):
        return mittag.ml_log_abs(f.alpha, r)
    if isinstance(f, ScaledMittagLeffler):
        return mittag.ml_log_abs(f.alpha, r) + math.log(f.eta)
    if isinstance(f, Polynomial):
        if f.positive_axis_max:
            lm, _ = _poly_leading_logpolar(f, math.log(r), 0.0)
            return lm
        return _log_poly_circle_max(f, r)
    raise TypeError(f"not a function descriptor: {f!r}")


def _tower_log_max(f, t: TowerReal) -> TowerReal:
    """M(value of t, f) as a tower, for arguments beyond double range.

    Each variant's log M(r) is dominated by an explicit closed form once r
    is large: r + log|lam| (ExpAffine), d log r + log|a_d| (Polynomial),
    sqrt r - log 2 (CoshSqrt), r^(1/alpha) + log(1/alpha) (+ log eta).
    """
    if isinstance(f, ExpAffine):
        return t.add_const(math.log(abs(f.lam))).exp()
    if isinstance(f, Polynomial):
        return t.pow_const(float(f.degree)).mul_const(abs(f.coefficients[-1]))
    if isinstance(f, CoshSqrt):
        return t.pow_const(0.5).add_const(-math.log(2.0)).exp()
    if isinstance(f, (MittagLeffler, ScaledMittagLeffler)):
        p = 1.0 / f.alpha
        shift = math.log(p)
        if isinstance(f, ScaledMittagLeffler):
            shift += math.log(f.eta)
        return t.pow_const(p).add_const(shift).exp()
    raise TypeError(f"not a function descriptor: {f!r}")


@dataclass
class MaxModulusTable:
    """Iterated maximum modulus M^n(R0, f) held as towers."""

    R0: float
    log_levels: list  # entry n: TowerReal equal to M^n(R0, f)


def iterated_max_modulus(f, R: float, n_max: int) -> MaxModulusTable:
    """Table of M^n(R, f) for n = 0..n_max as TowerReal values."""
    if R <= 0.0:
        raise ValueError("R must be positive")
    if log_max_modulus(f, R) <= math.log(R):
        raise NonEscalatingError(
            f"M(R,f) <= R at R={R}; raise R until the iteration escapes")
    levels = [TowerReal.from_value(R)]
    for _ in range(n_max):
        t = levels[-1]
        v = t.value()
        if math.isfinite(v) and v <= FLOAT_CEILING:
            levels.append(TowerReal.from_log(log_max_modulus(f, v)))
        else:
            levels.append(_tower_log_max(f, t))
    return MaxModulusTable(R0=R, log_levels=levels)


# ---------------------------------------------------------------------------
# order estimation and convexity


def lower_order_estimate(f, r_grid) -> float:
    """min over the grid tail of log log M(r,f) / log r."""
    rs = [float(r) for r in r_grid]
    if len(rs) < 10:
        raise ValueError("need at least 10 grid points")
    if any(b <= a for a, b in zip(rs, rs[1:])):
        raise ValueError("grid must be increasing")
    if math.log10(rs[-1] / rs[0]) < 6.0:
        raise ValueError("grid must span at least 6 decades")
    tail = rs[len(rs) // 2:]
    best = math.inf
    for r in tail:
        lm = log_max_modulus(f, r)
        if lm <= 0.0:
            continue
        best = min(best, math.log(lm) / math.log(r))
    return best


def hadamard_convexity_check(f, r: float, c: float) -> bool:
    """log M(r^c, f) >= c log M(r, f) for c > 1 and r past the threshold."""
    if c <= 1.0:
        raise ValueError("c must exceed 1")
    return log_max_modulus(f, r**c) >= c * log_max_modulus(f, r)


# ---------------------------------------------------------------------------
# empirical derivative-growth constant C: |f'| <= C |z|^(rho-1) |f| on the
# sampled set {1 <= |z| <= 1e4, |f| >= 1}


_C_SAMPLES = 1_000_000
_C_SEED = 20260826


@lru_cache(maxsize=None)
def growth_constant(alpha: float) -> float:
    """1.05 x the sampled max of |E_a'| / (|z|^(rho-1) |E_a|)."""
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must be in (0, 2]")
    if alpha == 1.0:
        return 1.05  # E_1 = e^z: the ratio is identically 1
    rng = np.random.default_rng(_C_SEED)
    p = 1.0 / alpha
    best = 0.0
    for _ in range(_C_SAMPLES // 50_000):
        r = np.exp(rng.uniform(0.0, math.log(1e4), 50_000))
        th = rng.uniform(-math.pi, math.pi, 50_000)
        z = r * np.exp(1j * th)
        best = max(best, _ratio_block_max(alpha, p, z))
    return 1.05 * best


def _ratio_block_max(alpha: float, p: float, z: np.ndarray) -> float:
    """max |E'|/(|z|^(p-1)|E|) over the block, restricted to |E| >= 1."""
    r = np.abs(z)
    rs = mittag.switch_radius(alpha)
    edge = alpha * math.pi / 2.0 + mittag.SECTOR_DELTA
    out = np.zeros(z.shape)

    small = r <= rs
    if small.any():
        e, de = _ml_series_vec(alpha, z[small])
        ok = np.abs(e) >= 1.0
        vals = np.zeros(e.shape)
        vals[ok] = np.abs(de[ok]) / (r[small][ok] ** (p - 1.0) * np.abs(e[ok]))
        out[small] = vals

    large = ~small
    if large.any():
        zl = z[large]
        rl = r[large]
        zp = np.exp(p * np.log(zl))
        growth = np.abs(np.angle(zl)) <= edge
        # deep growth zone: the ratio collapses to p exactly
        deep = growth & (zp.real > 45.0)
        vals = np.zeros(zl.shape)
        vals[deep] = p
        mid = ~deep
        if mid.any():
            t, dt = _ml_tail_vec(alpha, zl[mid])
            e = t.copy()
            de = dt.copy()
            g = growth[mid] & (zp[mid].real <= 45.0)
            ez = np.exp(np.where(g, zp[mid], 0.0))
            e = np.where(g, p * ez + t, e)
            de = np.where(g, p * p * zl[mid] ** (p - 1.0) * ez + dt, de)
            ok = np.abs(e) >= 1.0
            mv = np.zeros(e.shape)
            mv[ok] = np.abs(de[ok]) / (rl[mid][ok] ** (p - 1.0) * np.abs(e[ok]))
            vals[mid] = mv
        out[large] = vals
    return float(out.max()) if out.size else 0.0


def _ml_series_vec(alpha: float, z: np.ndarray) -> tuple:
    """Vectorized (E_alpha, E_alpha') by the power series; |z| moderate."""
    e = np.ones(z.shape, dtype=np.complex128)
    de = np.full(z.shape, 1.0 / math.gamma(alpha + 1.0), dtype=np.complex128)
    term = np.ones(z.shape, dtype=np.complex128)
    for n in range(1, 400):
        term = term * z * math.exp(math.lgamma(alpha * (n - 1) + 1.0)
                                   - math.lgamma(alpha * n + 1.0))
        e += term
        if n > 1:  # the n=1 derivative term seeds de above
            de += n * term / z
        if float(np.abs(term).max()) < 1e-18:
            break
    return e, de


def _ml_tail_vec(alpha: float, z: np.ndarray) -> tuple:
    """Vectorized algebraic tail (-sum z^-k / Gamma(1 - alpha k)) and its
    derivative, truncated where terms start growing."""
    inv = 1.0 / z
    t = np.zeros(z.shape, dtype=np.complex128)
    dt = np.zeros(z.shape, dtype=np.complex128)
    zk = inv.copy()
    prev = np.full(z.shape, np.inf)
    alive = np.ones(z.shape, dtype=bool)
    for k in range(1, 80):
        g = 1.0 - alpha * k
        if g <= 0.0 and abs(g - round(g)) < 1e-12:
            coeff = 0.0
        else:
            coeff = 1.0 / math.gamma(g)
        term = -coeff * zk
        mag = np.abs(term)
        alive &= mag <= prev
        if not alive.any():
            break
        t = np.where(alive, t + term, t)
        dt = np.where(alive, dt + k * coeff * zk * inv, dt)
        prev = mag
        zk = zk * inv
    return t, dt


# ---------------------------------------------------------------------------
# JSON interface


def descriptor_from_json(obj) -> object:
    """Parse {"variant": ..., ...} (dict or JSON string) to a descriptor."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    variant = obj["variant"]
    if variant == "polynomial":
        return Polynomial(tuple(complex(re, im) for re, im in obj["coefficients"]))
    if variant == "exp_affine":
        re, im = obj["lambda"]
        return ExpAffine(complex(re, im))
    if variant == "cosh_sqrt":
        return CoshSqrt()
    if variant == "mittag_leffler":
        return MittagLeffler(float(obj["alpha"]))
    if variant == "scaled_mittag_leffler":
        return ScaledMittagLeffler(float(obj["alpha"]), obj.get("eta"))
    raise ValueError(f"unknown variant: {variant!r}")


def descriptor_to_json(f) -> dict:
    if isinstance(f, Polynomial):
        return {"variant": "polynomial",
                "coefficients": [[c.real, c.imag] for c in f.coefficients]}
    if isinstance(f, ExpAffine):
        return {"variant": "exp_affine", "lambda": [f.lam.real, f.lam.imag]}
    if isinstance(f, CoshSqrt):
        return {"variant": "cosh_sqrt"}
    if isinstance(f, MittagLeffler):
        return {"variant": "mittag_leffler", "alpha": f.alpha}
    if isinstance(f, ScaledMittagLeffler):
        return {"variant": "scaled_mittag_leffler", "alpha": f.alpha, "eta": f.eta}
    raise TypeError(f"not a function descriptor: {f!r}")
