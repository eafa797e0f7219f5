"""Tower-of-exponentials magnitudes.

Iterating an entire function, or iterating its maximum modulus M(r,f),
produces values like exp(exp(exp(20))) that no float can hold.  A
TowerReal stores such a magnitude as exp applied `depth` times to a float
`base`.  The constructor moves every (depth, base) into a canonical band, so
order, equality and hash are those of the (depth, base) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Canonical band for the base when depth >= 1: base in [ln(BAND_TOP), BAND_TOP).
# ln(1e8) ~ 18.4 leaves plenty of double headroom above for sums of logs.
BAND_TOP = 1e8
BAND_BOTTOM = math.log(BAND_TOP)

# Relative perturbations below this are invisible next to the representation
# error of a depth>=2 tower, whose base already carries the value's log-log.
_NEGLIGIBLE = 1e-30


class TowerDomainError(ValueError):
    """Log of a tower value <= 1 cannot be held by a (nonnegative) tower."""


@dataclass(frozen=True, order=True)
class TowerReal:
    """exp^depth(base), built canonical: base < BAND_TOP, and base in the
    band [BAND_BOTTOM, BAND_TOP) when depth >= 1."""

    depth: int
    base: float

    def __post_init__(self):
        depth, base = self.depth, self.base
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        if not math.isfinite(base):
            raise ValueError("base must be finite")
        if depth == 0 and base < 0.0:
            raise ValueError("tower values are nonnegative")
        if depth == 0 and base >= BAND_TOP:
            # promote so lexicographic order stays consistent across depths
            depth, base = 1, math.log(base)
        while depth >= 1 and base >= BAND_TOP:
            base = math.log(base)
            depth += 1
        while depth >= 1 and base < BAND_BOTTOM:
            base = math.exp(base)
            depth -= 1
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "base", base)

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_value(x: float) -> "TowerReal":
        if not math.isfinite(x) or x < 0.0:
            raise ValueError(f"not representable: {x!r}")
        return TowerReal(0, x)

    @staticmethod
    def from_log(log_value: float) -> "TowerReal":
        """Tower equal to exp(log_value), for any finite log_value."""
        if not math.isfinite(log_value):
            raise ValueError(f"log value must be finite: {log_value!r}")
        return TowerReal(1, log_value)

    # -- queries -----------------------------------------------------------

    def value(self) -> float:
        """Float value; inf when the tower exceeds double range."""
        v = self.base
        for _ in range(self.depth):
            if v > 709.0:
                return math.inf
            v = math.exp(v)
        return v

    def log(self) -> "TowerReal":
        """ln of the represented value, as a tower."""
        if self.depth >= 1:
            return TowerReal(self.depth - 1, self.base)
        if self.base < 1.0:
            raise TowerDomainError(
                f"log of {self.base} is negative; use plain floats"
            )
        return TowerReal(0, math.log(self.base))

    def exp(self) -> "TowerReal":
        return TowerReal(self.depth + 1, self.base)

    # -- arithmetic used by max-modulus recursions -------------------------
    #
    # Beyond depth 1 the base's double ULP already dwarfs any O(1) additive
    # or multiplicative adjustment of the value, so these return self there.

    def add_const(self, c: float) -> "TowerReal":
        """Tower of value + c (requires value + c >= 0)."""
        if self.depth == 0:
            return TowerReal.from_value(self.base + c)
        if self.depth == 1:
            # value = e^base; value + c = e^(base + log1p(c*e^-base))
            if self.base > 700.0:
                return self
            adj = c * math.exp(-self.base)
            if abs(adj) < _NEGLIGIBLE:
                return self
            return TowerReal(1, self.base + math.log1p(adj))
        return self

    def mul_const(self, k: float) -> "TowerReal":
        """Tower of value * k, k > 0."""
        if k <= 0.0:
            raise ValueError("factor must be positive")
        if self.depth == 0:
            if self.base == 0.0:
                return self
            return TowerReal.from_log(math.log(self.base) + math.log(k))
        if self.depth == 1:
            return TowerReal(1, self.base + math.log(k))
        return self

    def pow_const(self, p: float) -> "TowerReal":
        """Tower of value ** p, p > 0 (requires value > 0)."""
        if p <= 0.0:
            raise ValueError("exponent must be positive")
        if self.depth == 0:
            if self.base <= 0.0:
                raise ValueError("power of zero tower")
            return TowerReal.from_log(p * math.log(self.base))
        return self.log().mul_const(p).exp()

    # -- report form -------------------------------------------------------

    def __str__(self) -> str:
        return f"E^{self.depth}({self.base:.17g})"


def tower_compare(a: TowerReal, b: TowerReal) -> int:
    """-1, 0, 1 following real-number order of the represented values."""
    return (a > b) - (a < b)
