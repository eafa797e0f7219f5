"""Mittag-Leffler evaluation against closed forms and an extended-precision
series oracle.

The oracle keeps alpha as an mpf and forms alpha*n as an mpf product: the
series suffers catastrophic cancellation off the positive axis, and rounding
alpha*n in doubles perturbs the peak gamma term enough to wreck the result.
The oracle also always runs a fixed term count -- stopping early on a small
term mid-cancellation gives the wrong sum.
"""

import cmath
import functools
import math

import mpmath as mp
import numpy as np
import pytest

from sphgrow import mittag


@functools.lru_cache(maxsize=None)
def _oracle_gammas(alpha, terms, dps):
    """Gamma(alpha n + 1) for n < terms, each as the oracle computes it."""
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        return tuple(mp.gamma(a * n + 1) for n in range(terms))


def _ml_oracle(alpha, z, terms=400, dps=60):
    gammas = _oracle_gammas(alpha, terms, dps)
    with mp.workdps(dps):
        zz = mp.mpc(z)
        s = mp.mpc(0)
        p = mp.mpc(1)
        for g_n in gammas:
            s += p / g_n
            p *= zz
        return complex(s)


def test_alpha1_is_exp():
    assert abs(mittag.ml_eval(1.0, 1.0 + 0j) - math.e) <= 1e-12 * math.e
    rng = np.random.default_rng(0)
    for _ in range(100):
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        got = mittag.ml_eval(1.0, z)
        want = cmath.exp(z)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_alpha2_is_cosh_sqrt():
    rng = np.random.default_rng(1)
    for _ in range(100):
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        got = mittag.ml_eval(2.0, z)
        want = cmath.cosh(cmath.sqrt(z))
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_series_region_vs_oracle():
    alpha = 0.75
    r = 0.8 * mittag.switch_radius(alpha)
    rng = np.random.default_rng(2)
    for _ in range(50):
        z = r * rng.uniform(0.1, 1.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        got = mittag.ml_eval(alpha, z)
        want = _ml_oracle(alpha, z)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_asymptotic_vs_oracle_growth_sector():
    alpha = 0.75
    half_sector = alpha * math.pi / 2.0
    for theta in np.linspace(-half_sector + 0.12, half_sector - 0.12, 21):
        z = 20.0 * cmath.exp(1j * theta)
        got = mittag.ml_asymptotic(alpha, z)
        want = _ml_oracle(alpha, z)
        assert abs(got - want) <= 1e-4 * abs(want)


def test_decay_sector_bound():
    for x in [50.0, 100.0, 500.0, 1e4]:
        assert abs(mittag.ml_eval(0.75, -x)) <= 10.0 / x


def test_derivative_finite_difference():
    alpha = 0.75
    h = 1e-6
    rng = np.random.default_rng(3)
    for _ in range(30):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        got = mittag.ml_derivative(alpha, z)
        fd = (mittag.ml_eval(alpha, z + h) - mittag.ml_eval(alpha, z - h)) / (2 * h)
        assert abs(got - fd) <= 1e-6 * max(1.0, abs(got))


def test_switch_radius_sane():
    r = mittag.switch_radius(0.75)
    assert 2.0 < r < 20.0
    # at the switch radius both branches agree on the positive axis
    got_s = mittag.ml_series(0.75, complex(r, 0.0))
    got_a = mittag.ml_asymptotic(0.75, complex(r, 0.0))
    assert abs(got_s - got_a) <= 1e-6 * abs(got_s)


def test_log_abs_positive_axis():
    # log E_alpha(x) ~ x^(1/alpha) on the positive axis
    alpha = 0.75
    x = 1e6
    got = mittag.ml_log_abs(alpha, x)
    assert math.isclose(got, x ** (1.0 / alpha), rel_tol=0.05)


def test_alpha_validation():
    with pytest.raises(ValueError):
        mittag.ml_eval(0.0, 1.0)
    with pytest.raises(ValueError):
        mittag.ml_eval(2.5, 1.0)


def _series_per_term(alpha, z):
    """ml_series as it was first written: two lgamma calls per term."""
    total = term = 1.0 + 0.0j
    biggest = 1.0
    for n in range(1, mittag.MAX_SERIES_TERMS):
        term *= z * math.exp(math.lgamma(alpha * (n - 1) + 1.0) - math.lgamma(alpha * n + 1.0))
        total += term
        mag = abs(term)
        biggest = max(biggest, mag)
        if mag < 1e-18 * biggest and n > 3:
            break
    return total


def _series_derivative_per_term(alpha, z):
    total = term = 1.0 / math.gamma(alpha + 1.0) + 0.0j
    biggest = abs(total)
    for n in range(2, mittag.MAX_SERIES_TERMS):
        term *= z * (n / (n - 1)) * math.exp(
            math.lgamma(alpha * (n - 1) + 1.0) - math.lgamma(alpha * n + 1.0))
        total += term
        mag = abs(term)
        biggest = max(biggest, mag)
        if mag < 1e-18 * biggest and n > 3:
            break
    return total


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0, 1.5, 2.0])
def test_series_bit_identical_to_per_term_gamma(alpha):
    # the cached Gamma ratios must not move a single bit of either sum
    r = mittag.switch_radius(alpha)
    rng = np.random.default_rng(3)
    radii = np.concatenate([[0.0, 1e-3, 0.5 * r, r], rng.uniform(0.0, r, 40)])
    angles = rng.uniform(-math.pi, math.pi, radii.size)
    zs = [complex(t * math.cos(a), t * math.sin(a)) for t, a in zip(radii, angles)]
    zs += [complex(r, 0.0), complex(-r, 0.0), complex(0.0, r)]
    for z in zs:
        assert mittag.ml_series(alpha, z) == _series_per_term(alpha, z), z
        assert mittag.ml_series_derivative(alpha, z) == \
            _series_derivative_per_term(alpha, z), z
    # the vectorized series reads the same table, so it keeps its bits too
    zv = np.array(zs[1:21])  # z = 0 is left out: the derivative divides by z
    e, de = mittag.ml_series_vec(alpha, zv)
    term = np.ones(zv.shape, dtype=np.complex128)
    want_e = np.ones(zv.shape, dtype=np.complex128)
    want_de = np.full(zv.shape, 1.0 / math.gamma(alpha + 1.0), dtype=np.complex128)
    for n in range(1, 400):
        term = term * zv * math.exp(math.lgamma(alpha * (n - 1) + 1.0)
                                    - math.lgamma(alpha * n + 1.0))
        want_e += term
        if n > 1:
            want_de += n * term / zv
        if float(np.abs(term).max()) < 1e-18:
            break
    assert e.tobytes() == want_e.tobytes()
    assert de.tobytes() == want_de.tobytes()
