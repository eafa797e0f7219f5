"""Function descriptors: evaluation, derivatives, max modulus, serialization."""

import cmath
import math

import numpy as np
import pytest

from sphgrow import dynamics as dy
from sphgrow import functions as fx
from sphgrow import mittag
from sphgrow.towers import TowerReal, tower_compare

ALL_VARIANTS = [
    fx.Polynomial((0.0, 0.0, 1.0)),
    fx.Polynomial((1.0 + 0.5j, -2.0, 0.0, 0.25)),
    fx.ExpAffine(1.0),
    fx.ExpAffine(0.3 - 0.2j),
    fx.CoshSqrt(),
    fx.MittagLeffler(0.75),
    fx.MittagLeffler(1.0, 0.1),
]
VARIANT_IDS = ["Polynomial0", "Polynomial1", "ExpAffine0", "ExpAffine1", "CoshSqrt",
               "MittagLeffler", "ScaledMittagLeffler"]


@pytest.mark.parametrize("f", ALL_VARIANTS, ids=VARIANT_IDS)
def test_derivative_vs_central_difference(f):
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(100):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        d = fx.derivative_f(f, z)
        fd = (fx.eval_f(f, z + h) - fx.eval_f(f, z - h)) / (2 * h)
        assert abs(d - fd) <= 1e-6 * max(1.0, abs(d))


def test_eval_known_values():
    assert abs(fx.eval_f(fx.ExpAffine(2.0), 1.0 + 0j) - 2.0 * math.e) < 1e-14
    assert abs(fx.eval_f(fx.Polynomial((0, 0, 1)), 3.0 + 4.0j) - (3 + 4j) ** 2) < 1e-12
    z = 2.0 + 1.0j
    assert abs(fx.eval_f(fx.CoshSqrt(), z) - cmath.cosh(cmath.sqrt(z))) < 1e-12


def test_log_eval_matches_direct():
    for f in ALL_VARIANTS:
        z = 1.3 + 0.7j
        lm, arg = fx.log_eval(f, (math.log(abs(z)), cmath.phase(z)))
        w = fx.eval_f(f, z)
        assert math.isclose(lm, math.log(abs(w)), rel_tol=0, abs_tol=1e-10)
        assert abs(cmath.exp(1j * arg) - w / abs(w)) < 1e-9


@pytest.mark.parametrize("f", ALL_VARIANTS, ids=VARIANT_IDS)
def test_log_abs_on_circle_matches_log_eval(f):
    # ExpAffine computes the circle in one array operation; it must give the
    # scalar log_eval's bits, as every other variant's loop does
    thetas = np.linspace(0.0, 2.0 * math.pi, 257)
    for log_r in (-1.0, 0.0, 1.0, math.log(10.0)):
        want = np.array([f.log_eval(log_r, float(t))[0] for t in thetas])
        assert f.log_abs_on_circle(log_r, thetas).tobytes() == want.tobytes(), log_r


def test_log_abs_on_circle_beyond_double_range():
    with pytest.raises(fx.OrbitOverflow):
        fx.ExpAffine(1.0).log_abs_on_circle(710.0, np.zeros(3))


def test_mittag_leffler_scale_computed_once(monkeypatch):
    # eval and derivative multiply by e^(log eta), formed when the descriptor
    # is built: no math call per evaluation, and the same bits as before
    f = fx.MittagLeffler(1.0, 0.1)
    zs = (0.3 + 0.1j, -1.2j, 2.0)
    names = []

    class Counted:
        def __getattr__(self, name):
            names.append(name)
            return getattr(math, name)

    monkeypatch.setattr(fx, "math", Counted())
    got = [(f.eval(z), f.derivative(z)) for z in zs]
    assert names == []
    scale = math.exp(math.log(0.1))
    assert scale != 0.1
    assert got == [tuple(v * scale for v in mittag.ml_eval(1.0, z)) for z in zs]


def test_log_eval_large_argument():
    # f = e^z at z = e^300 on the positive axis: output log-mag is e^300
    f = fx.ExpAffine(1.0)
    lm, arg = fx.log_eval(f, (300.0, 0.0))
    assert math.isclose(lm, math.exp(300.0), rel_tol=1e-12)
    assert arg == 0.0
    # beyond double magnitude the rectangular part of z is unrecoverable
    with pytest.raises(fx.OrbitOverflow):
        fx.log_eval(f, (800.0, 0.0))


def test_polynomial_log_eval_correction_high_degree():
    # z^100 + 0.3 from z_0 = 1.1i: z_1 = 1.1^100 + 0.3 in doubles, and
    # log|z_2| = log|z_1^100 + 0.3| = 953.1039749910308 (mpmath, 50 digits)
    # is past double range, so it comes from Polynomial.log_eval, whose
    # correction must be 0.3 / z_1^100, not 0.3 / z_1
    f = fx.Polynomial((0.3,) + (0.0,) * 99 + (1.0,))
    orbit = dy.iterate_orbit(f, 1.1j, 2)
    assert orbit.length() == 3
    assert math.isclose(orbit.log_mag(2), 953.10397499103077, rel_tol=1e-12)
    # z^100 + z^99 at z = e^8: the correction is 1/z, not 1/z^100
    lead_and_next = fx.Polynomial((0.0,) * 99 + (1.0, 1.0))
    lm, _ = lead_and_next.log_eval(8.0, 0.0)
    assert math.isclose(lm, 800.0 + math.log1p(math.exp(-8.0)), rel_tol=1e-15)


def test_log_max_modulus_exp():
    for r in [1.0, 10.0, 500.0]:
        assert math.isclose(fx.log_max_modulus(fx.ExpAffine(2.0), r),
                            r + math.log(2.0), rel_tol=1e-12)


def test_log_max_modulus_poly():
    f = fx.Polynomial((0, 0, 1))
    for r in [2.0, 100.0]:
        assert math.isclose(fx.log_max_modulus(f, r), 2 * math.log(r), rel_tol=1e-10)


def test_iterated_max_modulus_exp():
    table = fx.iterated_max_modulus(fx.ExpAffine(1.0), 5.0, 3)
    # M(5) = e^5; M^2(5) = e^(e^5); log levels nest exactly
    assert math.isclose(table.log_levels[1].log().value(), 5.0, rel_tol=1e-12)
    lvl2_log = table.log_levels[2].log()
    assert math.isclose(lvl2_log.value(), math.exp(5.0), rel_tol=1e-12)
    assert tower_compare(table.log_levels[3],
                         table.log_levels[2]) == 1


def test_iterated_max_modulus_poly():
    table = fx.iterated_max_modulus(fx.Polynomial((0, 0, 1)), 10.0, 4)
    # M^n(10) = 10^(2^n)
    for n in range(5):
        assert math.isclose(table.log_levels[n].log().value(),
                            (2 ** n) * math.log(10.0), rel_tol=1e-10)


def test_non_escalating_rejected():
    with pytest.raises(fx.NonEscalatingError):
        fx.iterated_max_modulus(fx.Polynomial((0, 0, 1)), 0.5, 3)


def test_growth_constant():
    # 1.05 x the sampled ratio max; E_1 = e^z has the ratio identically 1
    assert math.isclose(fx.growth_constant(1.0), 1.05, rel_tol=1e-9)
    for alpha, want in ((0.5, 2.6024105722517175), (0.75, 1.5004665524558058),
                        (1.5, 0.8367863911693967), (2.0, 0.7424397189503502)):
        assert math.isclose(fx.growth_constant(alpha), want, rel_tol=1e-12), alpha


def test_choose_eta():
    eta = fx.choose_eta(1.0)
    assert 0.0 < eta < 1.0
    # admissibility: eta * max(|E|, |E'|) < 0.99 on the unit circle
    worst = 0.0
    for theta in np.linspace(0, 2 * math.pi, 256, endpoint=False):
        z = cmath.exp(1j * theta)
        worst = max(worst, abs(fx.eval_f(fx.MittagLeffler(1.0), z)))
    assert eta * worst < 0.99


def test_descriptor_json_roundtrip():
    for f in ALL_VARIANTS:
        g = fx.descriptor_from_json(f.to_json())
        assert type(g) is type(f)
        assert g.to_json() == f.to_json()
