"""Spherical sup/area measures and characteristic functions against
closed forms and dense-grid oracles."""

import cmath
import math

import numpy as np
import pytest

from sphgrow import functions as fx
from sphgrow import measures as ms

EXP = fx.ExpAffine(1.0)
SQUARE = fx.Polynomial((0, 0, 1))
GRID = ms.GridSpec()


def _dense_mu_oracle(f, U, n, pts=400):
    """Brute-force sup of log (f^n)^# over a dense rectangle grid."""
    xs = np.linspace(U.center.real - U.half_width, U.center.real + U.half_width, pts)
    ys = np.linspace(U.center.imag - U.half_height, U.center.imag + U.half_height, pts)
    X, Y = np.meshgrid(xs, ys)
    logphi, status = ms.logphi_batch(f, X.ravel(), Y.ravel(), n)
    good = status == 0
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
    want = phi2.mean() * U.area() / math.pi
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


def test_sandwich_exp():
    out = ms.characteristic_sandwich_check(EXP, math.e, GRID)
    assert out["passed"]
    assert abs(out["T"] - math.e / math.pi) < 1e-3


def test_region_validation():
    with pytest.raises(ValueError):
        ms.Region.rectangle(0j, -1.0, 1.0)
    with pytest.raises(ValueError):
        ms.GridSpec(base_resolution=8)
    with pytest.raises(ValueError):
        ms.GridSpec(rel_tol=0.5)


def test_region_area():
    assert math.isclose(ms.Region.disk(0j, 2.0).area(), 4 * math.pi, rel_tol=1e-12)
    assert math.isclose(ms.Region.rectangle(0j, 2.0, 0.5).area(), 4.0, rel_tol=1e-12)


# Decisions of the refinement engine on fixed inputs: evaluation and cell
# counts and depths are exact, log_mu is bit-exact; log_value may differ in
# the last bits where numpy's vectorised exp/log and summation order differ
# from a scalar libm loop.
_PIN_DISK = ms.Region.disk(complex(0.318, 1.337), 0.5)
_PIN_MU = {  # n: (evaluations, refinements, overflow_points, log_mu)
    1: (799956, 24, 0, -0.6931471871994257),
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
