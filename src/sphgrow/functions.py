"""Entire-function descriptors with exact derivatives and max-modulus rules.

Variants: Polynomial, ExpAffine (lambda * e^z), CoshSqrt (cosh sqrt z,
the alpha=2 Mittag-Leffler) and MittagLeffler (eta * E_alpha; eta < 1
small enough that |f|, |f'| < 1 on the unit circle gives the scaled
family of the growth scans).  Each variant owns its rules: pointwise
values and derivatives, the log-polar continuation (also on a whole
circle of angles at once), log M(r, f) and its tower form, its JSON form
and, where one exists, its batch kernel or its array evaluation.  Those
methods are the entry points callers use (f.eval(z), f.log_max_modulus(r));
the module-level functions below build on them.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
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


class Descriptor:
    """Rules every variant shares unless it knows better.

    Each variant defines eval, derivative, log_max_modulus, tower_log_max
    and to_json.  Generically, log-polar evaluation works only while the
    input fits doubles; there is no log-plane continuation of orbits and
    no batch kernel.
    """

    # orbits iterate past double range; such variants define
    # log_abs_derivative_polar(log_mag, arg), log|f'| at a log-polar point
    log_continuation = False

    def log_eval(self, log_mag: float, arg: float) -> tuple:
        """Log-polar (log|f|, arg f) at z = e^(log_mag + i arg): exact for
        ExpAffine while e^log_mag fits a double and for Polynomial at large
        |z| by its leading term; elsewhere only while z itself fits doubles."""
        if log_mag > 709.0:
            raise OrbitOverflow(f"{type(self).__name__} has no log continuation at tower scale")
        z = cmath.exp(complex(log_mag, arg))
        try:
            v = self.eval(z)
        except EvalOverflow as e:
            return (e.log_mag, e.arg)
        if v == 0:
            raise OrbitOverflow("zero value has no log-polar form")
        return (math.log(abs(v)), cmath.phase(v))

    def log_abs_on_circle(self, log_r: float, thetas: np.ndarray) -> np.ndarray:
        """log|f| at z = e^(log_r + i theta) for each angle theta of thetas."""
        return np.array([self.log_eval(log_r, float(t))[0] for t in thetas])

    def log_abs_derivative_underflow(self, z: complex) -> float:
        """log|f'(z)| where f'(z) rounded to 0 in doubles."""
        return -math.inf

    def orbit_follows_max_modulus(self, z0: complex) -> bool:
        """True when |f^n(z0)| = M^n(|z0|, f) exactly for every n."""
        return False

    def eval_arrays(self, x: np.ndarray, y: np.ndarray):
        """(Re f, Im f, Re f', Im f') at the points x + iy, bit for bit what
        eval and derivative return and NaN where they raise EvalOverflow;
        None when it has no array rule.  orbit_table reads log|f'| = -inf at
        f' = 0 and no log continuation here, so a variant with an array rule
        keeps the default log_abs_derivative_underflow and log_continuation."""
        return None

    def logphi(self, xs: np.ndarray, ys: np.ndarray, n: int):
        """log (f^n)^# from a batch kernel, NaN where the orbit left double
        range before step n; None when there is no kernel."""
        return None

    def logmag_steps(self, xs: np.ndarray, ys: np.ndarray, n_max: int, visit) -> bool:
        """Feeds visit(log|z_k| on the live rows, those rows) from a batch kernel, or False."""
        return False


@dataclass(frozen=True)
class Polynomial(Descriptor):
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
    log_continuation = True

    def eval(self, z: complex) -> complex:
        d = self.degree
        if abs(z) > 1.0 and d * math.log(abs(z)) + math.log(abs(self.coefficients[-1])) > 705.0:
            raise EvalOverflow(*self.log_eval(math.log(abs(z)), cmath.phase(z)))
        total = 0.0 + 0.0j
        for c in reversed(self.coefficients):
            total = total * z + c
        return total

    def derivative(self, z: complex) -> complex:
        total = 0.0 + 0.0j
        for k in range(self.degree, 0, -1):
            total = total * z + k * self.coefficients[k]
        return total

    def log_eval(self, log_mag: float, arg: float) -> tuple:
        """Evaluates directly while the value fits doubles; beyond that the
        leading term a_d z^d dominates and the lower-order correction (when
        still visible) multiplies in as log(1 + corr)."""
        d = self.degree
        lead = self.coefficients[-1]
        if d * log_mag + math.log(abs(lead)) < 700.0 and log_mag < 700.0:
            z = cmath.exp(complex(log_mag, arg))
            total = 0.0 + 0.0j
            for c in reversed(self.coefficients):
                total = total * z + c
            if total == 0:
                return (-math.inf, 0.0)
            return (math.log(abs(total)), cmath.phase(total))
        out_log = d * log_mag + math.log(abs(lead))
        out_arg = d * arg + cmath.phase(lead)
        if log_mag < 700.0:
            z = cmath.exp(complex(log_mag, arg))
            corr = 0.0 + 0.0j
            for k in range(d):  # Horner in 1/z: sum (c_k / a_d) z^(k - d)
                corr = corr / z + self.coefficients[k] / lead
            corr /= z
            if abs(corr) < 0.999:
                out_log += math.log(abs(1.0 + corr))
                out_arg += cmath.phase(1.0 + corr)
        return out_log, math.remainder(out_arg, 2.0 * math.pi)

    def log_abs_derivative_polar(self, log_mag: float, arg: float) -> float:
        d = self.degree
        return math.log(float(d)) + math.log(abs(self.coefficients[-1])) + (d - 1.0) * log_mag

    def log_max_modulus(self, r: float) -> float:
        if all(c.imag == 0.0 and c.real >= 0.0 for c in self.coefficients):
            lm, _ = self.log_eval(math.log(r), 0.0)  # M(r) attained at z = r
            return lm
        return self._log_circle_max(r)

    def _log_circle_max(self, r: float) -> float:
        """log max |p| on |z| = r: 1024-point scan + golden-section refinement."""

        def lp(theta: float) -> float:
            lm, _ = self.log_eval(math.log(r), theta)
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

    def tower_log_max(self, t: TowerReal) -> TowerReal:
        """M(r) ~ |a_d| r^d once r is large."""
        return t.pow_const(float(self.degree)).mul_const(abs(self.coefficients[-1]))

    def logphi(self, xs, ys, n):
        return kernels.poly_logphi(xs, ys, n, self.coefficients)[0]

    def to_json(self) -> dict:
        return {"variant": "polynomial",
                "coefficients": [[c.real, c.imag] for c in self.coefficients]}


@dataclass(frozen=True)
class ExpAffine(Descriptor):
    lam: complex  # z -> lam * e^z

    def __post_init__(self):
        lam = complex(self.lam)
        if lam == 0:
            raise ValueError("lambda must be nonzero")
        object.__setattr__(self, "lam", lam)

    order = 1.0
    log_continuation = True

    def eval(self, z: complex) -> complex:
        lm = z.real + math.log(abs(self.lam))
        if lm > 705.0:
            raise EvalOverflow(lm, math.remainder(z.imag + cmath.phase(self.lam), 2.0 * math.pi))
        return self.lam * cmath.exp(z)

    def derivative(self, z: complex) -> complex:
        return self.eval(z)  # (lam e^z)' = lam e^z

    def log_eval(self, log_mag: float, arg: float) -> tuple:
        """Exact whenever the rectangular form of z fits doubles."""
        if log_mag > 709.0:
            raise OrbitOverflow("ExpAffine input beyond double magnitude")
        r = math.exp(log_mag)
        return (r * math.cos(arg) + math.log(abs(self.lam)),
                math.remainder(r * math.sin(arg) + cmath.phase(self.lam), 2.0 * math.pi))

    def log_abs_on_circle(self, log_r, thetas):
        if log_r > 709.0:
            raise OrbitOverflow("ExpAffine input beyond double magnitude")
        return math.exp(log_r) * np.cos(thetas) + math.log(abs(self.lam))

    def log_abs_derivative_polar(self, log_mag: float, arg: float) -> float:
        if log_mag > 709.0:
            raise OrbitOverflow("Re z not recoverable")
        return math.exp(log_mag) * math.cos(arg) + math.log(abs(self.lam))

    def log_abs_derivative_underflow(self, z: complex) -> float:
        # lam e^z never vanishes; it only underflowed (Re z < -745)
        return z.real + math.log(abs(self.lam))

    def orbit_follows_max_modulus(self, z0: complex) -> bool:
        # real nonnegative orbit of a positive lam: z_{n+1} = lam e^{z_n} = M(z_n)
        return self.lam.real > 0 and self.lam.imag == 0 and z0.imag == 0 and z0.real >= 0

    def log_max_modulus(self, r: float) -> float:
        return r + math.log(abs(self.lam))  # |lam e^z| peaks at z = r

    def tower_log_max(self, t: TowerReal) -> TowerReal:
        return t.add_const(math.log(abs(self.lam))).exp()

    def logphi(self, xs, ys, n):
        return kernels.expaffine_logphi(
            xs, ys, n, math.log(abs(self.lam)), math.atan2(self.lam.imag, self.lam.real))[0]

    def logmag_steps(self, xs, ys, n_max, visit):
        kernels.expaffine_logmag_steps(xs, ys, n_max, math.log(abs(self.lam)),
                                       math.atan2(self.lam.imag, self.lam.real), visit)
        return True

    def to_json(self) -> dict:
        return {"variant": "exp_affine", "lambda": [self.lam.real, self.lam.imag]}


@dataclass(frozen=True)
class CoshSqrt(Descriptor):
    """z -> cosh(sqrt z); entire of order 1/2, same function as E_2."""

    order = 0.5

    def eval(self, z: complex) -> complex:
        s = cmath.sqrt(z)  # principal branch: Re s >= 0
        if s.real > 705.0:
            raise EvalOverflow(s.real - math.log(2.0),
                               math.remainder(s.imag, 2.0 * math.pi))
        # s = i inf at z = -inf + iy: C99 gives cosh and sinh NaN there, cmath raises
        return complex(math.nan, math.nan) if math.isinf(s.imag) else cmath.cosh(s)

    def derivative(self, z: complex) -> complex:
        # d/dz cosh sqrt z = sinh(sqrt z) / (2 sqrt z); entire (even series)
        s = cmath.sqrt(z)
        if abs(s) < 1e-8:
            return 0.5 + z / 12.0
        if s.real > 705.0:
            raise EvalOverflow(s.real - math.log(2.0) - math.log(2.0 * abs(s)),
                               math.remainder(s.imag - cmath.phase(s), 2.0 * math.pi))
        return complex(math.nan, math.nan) if math.isinf(s.imag) else cmath.sinh(s) / (2.0 * s)

    def log_max_modulus(self, r: float) -> float:
        s = math.sqrt(r)
        return s - math.log(2.0) + math.log1p(math.exp(-2.0 * s))

    def tower_log_max(self, t: TowerReal) -> TowerReal:
        """M(r) ~ e^(sqrt r) / 2 once r is large."""
        return t.pow_const(0.5).add_const(-math.log(2.0)).exp()

    def to_json(self) -> dict:
        return {"variant": "cosh_sqrt"}


@dataclass(frozen=True)
class MittagLeffler(Descriptor):
    """z -> eta * E_alpha(z); eta = 1 is E_alpha itself."""

    alpha: float
    eta: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError("alpha must be in (0, 2]")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
        object.__setattr__(self, "eta", float(self.eta))
        # _checked's scale, once per descriptor: e^(log eta), which may differ
        # from eta in the last bit
        object.__setattr__(self, "_log_scale", math.log(self.eta))
        object.__setattr__(self, "_scale", math.exp(self._log_scale))

    @property
    def order(self) -> float:
        return 1.0 / self.alpha

    def eval(self, z: complex) -> complex:
        return self._checked(z, derivative=False)

    def derivative(self, z: complex) -> complex:
        return self._checked(z, derivative=True)

    def _checked(self, z: complex, derivative: bool) -> complex:
        try:
            v = mittag.ml_eval(self.alpha, z)[derivative]
        except OverflowError:
            p = 1.0 / self.alpha
            zp = cmath.exp(p * cmath.log(z))
            lm = zp.real + math.log(p) + self._log_scale
            if derivative:
                lm += math.log(p) + (p - 1.0) * math.log(abs(z))
            raise EvalOverflow(lm, math.remainder(zp.imag, 2.0 * math.pi)) from None
        if self._log_scale != 0.0:
            v *= self._scale
        return v

    def eval_arrays(self, x, y):
        """NaN where E_alpha leaves double range, as ml_eval_arrays gives it."""
        er, ei, dr, di = mittag.ml_eval_arrays(self.alpha, x, y)
        if self._log_scale != 0.0:
            # _checked's v *= self._scale, a complex * float product
            er, ei = mittag.cmul(er, ei, self._scale, 0.0)
            dr, di = mittag.cmul(dr, di, self._scale, 0.0)
        return er, ei, dr, di

    def log_max_modulus(self, r: float) -> float:
        return mittag.ml_log_abs(self.alpha, r) + math.log(self.eta)

    def tower_log_max(self, t: TowerReal) -> TowerReal:
        """M(r) ~ eta p e^(r^p), p = 1/alpha, once r is large."""
        p = 1.0 / self.alpha
        return t.pow_const(p).add_const(math.log(p) + math.log(self.eta)).exp()

    def to_json(self) -> dict:
        if self.eta == 1.0:
            return {"variant": "mittag_leffler", "alpha": self.alpha}
        return {"variant": "scaled_mittag_leffler", "alpha": self.alpha, "eta": self.eta}


@lru_cache(maxsize=None)
def choose_eta(alpha: float) -> float:
    """Largest eta in {0.5, 0.25, ...} with max(|f|,|f'|) < 0.99 on |z|=1.

    f = eta * E_alpha; by the maximum principle a boundary scan suffices.
    """
    theta = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    ring = np.exp(1j * theta)
    er, ei, dr, di = mittag.ml_eval_arrays(alpha, ring.real, ring.imag)
    peak = float(np.hypot([er, dr], [ei, di]).max())  # |z| = 1 is inside switch_radius: no NaN
    eta = 0.5
    while eta * peak >= 0.99:
        eta *= 0.5
        if eta < 1e-12:
            raise ValueError("no admissible eta")
    return eta


# ---------------------------------------------------------------------------
# maximum modulus


def iterated_max_modulus(f, R: float, n_max: int) -> list:
    """The towers M^n(R, f), entry n for n = 0..n_max.

    Past FLOAT_CEILING each step uses the variant's tower form of M, whose
    explicit closed form dominates log M(r) once r is large.
    """
    if R <= 0.0:
        raise ValueError("R must be positive")
    if f.log_max_modulus(R) <= math.log(R):
        raise NonEscalatingError(
            f"M(R,f) <= R at R={R}; raise R until the iteration escapes")
    levels = [TowerReal.from_value(R)]
    for _ in range(n_max):
        t = levels[-1]
        v = t.value()
        if math.isfinite(v) and v <= FLOAT_CEILING:
            levels.append(TowerReal.from_log(f.log_max_modulus(v)))
        else:
            levels.append(f.tower_log_max(t))
    return levels


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
    edge = alpha * math.pi / 2.0 + mittag.SECTOR_DELTA
    best = 0.0
    for _ in range(_C_SAMPLES // 50_000):
        r = np.exp(rng.uniform(0.0, math.log(1e4), 50_000))
        th = rng.uniform(-math.pi, math.pi, 50_000)
        # deep in the growth sector, Re z^p > 45, the ratio is p to within e^-45
        deep = (np.abs(th) <= edge) & (r ** p * np.cos(p * th) > 45.0)
        r, th = r[~deep], th[~deep]
        er, ei, dr, di = mittag.ml_eval_arrays(alpha, r * np.cos(th), r * np.sin(th))
        e = np.hypot(er, ei)
        ok = e >= 1.0  # NaN, where E_alpha left double range, fails
        ratio = np.hypot(dr, di)[ok] / (r[ok] ** (p - 1.0) * e[ok])
        best = max(best, p if deep.any() else 0.0, ratio.max(initial=0.0))
    return 1.05 * float(best)


# ---------------------------------------------------------------------------
# JSON interface


def is_number(value, kind=numbers.Real) -> bool:
    """Whether value is a number of that kind; a bool is not one."""
    return isinstance(value, kind) and not isinstance(value, bool)


def is_pair(value) -> bool:
    """Whether value is [re, im], the JSON form of a complex number."""
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(map(is_number, value))


def descriptor_from_json(obj) -> Descriptor:
    """Parse {"variant": ..., ...} (dict or JSON string) to a descriptor.

    A value that is not an object, an unknown variant and a missing or
    mistyped key each raise a ValueError that names it.
    """
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, not {obj!r}")
    variant = obj.get("variant")

    def read(key, check, form):
        if key not in obj:
            raise ValueError(f"{variant} needs {key}")
        if not check(obj[key]):
            raise ValueError(f"{variant} {key} must be {form}, not {obj[key]!r}")
        return obj[key]

    if variant == "polynomial":
        coeffs = read("coefficients",
                      lambda v: isinstance(v, (list, tuple)) and all(map(is_pair, v)),
                      "a list of [re, im]")
        return Polynomial(tuple(complex(re, im) for re, im in coeffs))
    if variant == "exp_affine":
        re, im = read("lambda", is_pair, "[re, im]")
        return ExpAffine(complex(re, im))
    if variant == "cosh_sqrt":
        return CoshSqrt()
    if variant == "mittag_leffler":
        return MittagLeffler(float(read("alpha", is_number, "a number")))
    if variant == "scaled_mittag_leffler":
        alpha = float(read("alpha", is_number, "a number"))
        # default: largest halving value passing the unit-circle scan
        eta = (choose_eta(alpha) if obj.get("eta") is None
               else read("eta", is_number, "a number"))
        if not 0.0 < eta < 1.0:
            raise ValueError("eta must be in (0, 1)")
        return MittagLeffler(alpha, eta)
    raise ValueError(f"unknown variant: {variant!r}")
