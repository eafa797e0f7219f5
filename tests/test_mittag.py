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
import itertools
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
    assert abs(mittag.ml_eval(1.0, 1.0 + 0j)[0] - math.e) <= 1e-12 * math.e
    rng = np.random.default_rng(0)
    for _ in range(100):
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        got = mittag.ml_eval(1.0, z)[0]
        want = cmath.exp(z)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_alpha2_is_cosh_sqrt():
    rng = np.random.default_rng(1)
    for _ in range(100):
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        got = mittag.ml_eval(2.0, z)[0]
        want = cmath.cosh(cmath.sqrt(z))
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_series_region_vs_oracle():
    alpha = 0.75
    r = 0.8 * mittag.switch_radius(alpha)
    rng = np.random.default_rng(2)
    for _ in range(50):
        z = r * rng.uniform(0.1, 1.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        got = mittag.ml_eval(alpha, z)[0]
        want = _ml_oracle(alpha, z)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_asymptotic_vs_oracle_growth_sector():
    alpha = 0.75
    half_sector = alpha * math.pi / 2.0
    for theta in np.linspace(-half_sector + 0.12, half_sector - 0.12, 21):
        z = 20.0 * cmath.exp(1j * theta)
        got = mittag.ml_asymptotic(alpha, z)[0]
        want = _ml_oracle(alpha, z)
        assert abs(got - want) <= 1e-4 * abs(want)


def test_decay_sector_bound():
    for x in [50.0, 100.0, 500.0, 1e4]:
        assert abs(mittag.ml_eval(0.75, -x)[0]) <= 10.0 / x


def test_derivative_finite_difference():
    alpha = 0.75
    h = 1e-6
    rng = np.random.default_rng(3)
    for _ in range(30):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        got = mittag.ml_eval(alpha, z)[1]
        fd = (mittag.ml_eval(alpha, z + h)[0] - mittag.ml_eval(alpha, z - h)[0]) / (2 * h)
        assert abs(got - fd) <= 1e-6 * max(1.0, abs(got))


def test_switch_radius_sane():
    r = mittag.switch_radius(0.75)
    assert 2.0 < r < 20.0
    # at the switch radius both branches agree on the positive axis
    got_s = mittag.ml_series(0.75, complex(r, 0.0))[0]
    got_a = mittag.ml_asymptotic(0.75, complex(r, 0.0))[0]
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
        e, de = mittag.ml_series(alpha, z)
        assert e == _series_per_term(alpha, z), z
        assert de == _series_derivative_per_term(alpha, z), z


# ---------------------------------------------------------------------------
# bit-for-bit oracle of the sector expansion and its derivative, as they were
# written with one function per half (the series half is the per-term oracle
# above)


def _old_tail(alpha, z, derivative):
    inv = 1.0 / z
    total = 0.0 + 0.0j
    prev_mag = math.inf
    zk = inv
    for k in range(1, 121):
        g = 1.0 - alpha * k
        if g <= 0.0 and abs(g - round(g)) < 1e-12:
            coeff = 0.0
        else:
            coeff = 1.0 / math.gamma(g)
        if derivative:
            term = k * coeff * zk * inv
        else:
            term = -coeff * zk
        mag = abs(term)
        if mag > prev_mag:
            break
        total += term
        prev_mag = mag
        zk *= inv
        if mag < 1e-300:
            break
    return total


def _old_sector(alpha, z):
    edge = alpha * math.pi / 2.0 + 0.05 * math.pi
    return "growth" if abs(cmath.phase(z)) <= edge else "decay"


def _old_asymptotic(alpha, z):
    if alpha == 2.0:
        return cmath.cosh(cmath.sqrt(z))
    if alpha == 1.0:
        if z.real > 700.0:
            raise OverflowError("E_alpha overflows double range")
        return cmath.exp(z)
    sector = _old_sector(alpha, z)
    tail = _old_tail(alpha, z, derivative=False)
    if sector == "decay":
        return tail
    p = 1.0 / alpha
    zp = cmath.exp(p * cmath.log(z))
    if zp.real > 700.0:
        raise OverflowError("E_alpha overflows double range")
    return p * cmath.exp(zp) + tail


def _old_asymptotic_derivative(alpha, z):
    if alpha == 2.0:
        s = cmath.sqrt(z)
        if abs(s) < 1e-8:
            return 0.5 + z / 12.0
        return cmath.sinh(s) / (2.0 * s)
    if alpha == 1.0:
        if z.real > 700.0:
            raise OverflowError("E_alpha' overflows double range")
        return cmath.exp(z)
    sector = _old_sector(alpha, z)
    tail = _old_tail(alpha, z, derivative=True)
    if sector == "decay":
        return tail
    p = 1.0 / alpha
    zp = cmath.exp(p * cmath.log(z))
    if zp.real > 700.0:
        raise OverflowError("E_alpha' overflows double range")
    return p * p * cmath.exp((p - 1.0) * cmath.log(z)) * cmath.exp(zp) + tail


OVERFLOW = "overflow"


def _hex(v):
    return v.real.hex(), v.imag.hex()


def _outcome(fn, *args):
    """float.hex of both parts of fn(*args), or OVERFLOW if it raises."""
    try:
        v = fn(*args)
    except OverflowError:
        return OVERFLOW
    return _hex(v)


def _oracle_outcomes(alpha, z):
    if abs(z) <= mittag.switch_radius(alpha):
        return (_outcome(_series_per_term, alpha, z),
                _outcome(_series_derivative_per_term, alpha, z))
    return (_outcome(_old_asymptotic, alpha, z),
            _outcome(_old_asymptotic_derivative, alpha, z))


def _library_outcomes(alpha, z):
    try:
        pair = mittag.ml_eval(alpha, z)
    except OverflowError:
        return OVERFLOW, OVERFLOW
    return tuple(map(_hex, pair))


def _ulp_steps(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


def _regime_points(alpha, rng):
    """Series, sector-edge, growth and decay points for one alpha."""
    r_sw = mittag.switch_radius(alpha)
    edge = alpha * math.pi / 2.0 + mittag.SECTOR_DELTA
    layer = 0.02 * math.pi  # the band about the edge where ml_eval once summed the series
    polar = []
    for t in rng.uniform(0.0, 1.0, 12):
        polar.append((t * r_sw, rng.uniform(-math.pi, math.pi)))
    polar += [(r_sw, 0.0), (r_sw, math.pi)]
    for _ in range(12):  # |z|^p up to 600, within layer of the sector edge
        r = rng.uniform(r_sw, max(1.01 * r_sw, 600.0 ** alpha))
        polar.append((r, rng.choice([-1, 1]) * (edge + rng.uniform(-0.9, 0.9) * layer)))
    for _ in range(16):  # growth sector, below the overflow edge
        th = rng.uniform(-1.0, 1.0) * max(edge - 1.1 * layer, 0.0)
        polar.append((rng.uniform(r_sw, r_sw + 400.0 ** alpha), th))
    for _ in range(16 if edge + 1.1 * layer < math.pi else 0):  # decay, to |z| = 1e8
        th = rng.choice([-1, 1]) * rng.uniform(edge + 1.1 * layer, math.pi)
        polar.append((r_sw * 10.0 ** rng.uniform(0.0, 8.0 - math.log10(r_sw)), th))
    return [cmath.rect(r, th) for r, th in polar]


def _overflow_edge_points(alpha):
    """Points a few ulps either side of where E_alpha leaves double range."""
    zs = []
    steps = [-64, -8, -2, -1, 0, 1, 2, 8, 64]
    if alpha == 1.0:
        for y in (0.0, 3.0, -250.0, 1e4):
            zs += [complex(_ulp_steps(700.0, k), y) for k in steps]
    elif alpha == 2.0:
        # cosh(s) leaves double range at Re s ~ 710.4758600739439
        for b in (0.0, 1.0, -40.0, 300.0):
            zs += [complex(_ulp_steps(710.4758600739439, k), b) ** 2 for k in steps]
    else:
        p = 1.0 / alpha
        for th in np.linspace(-0.9, 0.9, 7) * alpha * math.pi / 2.0:
            r = (700.0 / math.cos(p * th)) ** alpha
            zs += [cmath.rect(_ulp_steps(r, k), th) for k in steps]
    return zs


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0, 1.5, 2.0])
def test_evaluator_bit_identical_to_split_oracle(alpha):
    # E_alpha and E_alpha' on every regime of the evaluator match the
    # one-function-per-half oracle bit for bit
    rng = np.random.default_rng(14)
    for z in _regime_points(alpha, rng):
        assert _library_outcomes(alpha, z) == _oracle_outcomes(alpha, z), z
    # at the overflow edge each half raises exactly where the oracle's does
    seen = set()
    for z in _overflow_edge_points(alpha):
        want = _oracle_outcomes(alpha, z)
        assert _library_outcomes(alpha, z) == want, z
        seen.add((want[0] == OVERFLOW, want[1] == OVERFLOW))
    assert (True, True) in seen and (False, False) in seen, seen


# ---------------------------------------------------------------------------
# bit-for-bit oracle of the scalar sums as they were written with the E and
# E' halves interleaved in one loop


def _interleaved_series(alpha, z):
    c = mittag._series_ratios(alpha)
    total = term = 1.0 + 0.0j
    term *= z * c[1]  # the n = 1 term of E; that of E' seeds d_total
    total += term
    biggest = max(1.0, abs(term))
    d_total = d_term = 1.0 / math.gamma(alpha + 1.0) + 0.0j
    d_biggest = abs(d_total)
    live = d_live = True
    for n in range(2, mittag.MAX_SERIES_TERMS):
        if live:
            term *= z * c[n]
            total += term
            mag = abs(term)
            if mag > biggest:
                biggest = mag
            elif mag < mittag._SERIES_STOP * biggest and n > 3:
                live = False
                if not d_live:
                    break
        if d_live:
            d_term *= z * (n / (n - 1)) * c[n]
            d_total += d_term
            mag = abs(d_term)
            if mag > d_biggest:
                d_biggest = mag
            elif mag < mittag._SERIES_STOP * d_biggest and n > 3:
                d_live = False
                if not live:
                    break
    return total, d_total


def _interleaved_tail(alpha, z):
    inv = 1.0 / z
    total = d_total = 0.0 + 0.0j
    prev_mag = d_prev_mag = math.inf
    live = d_live = True
    zk = inv
    for k in range(1, 121):
        coeff = mittag._tail_coeff(alpha, k)
        if live:
            term = -coeff * zk
            mag = abs(term)
            live = not mag > prev_mag
            if live:
                total += term
                prev_mag = mag
                live = not mag < 1e-300
        if d_live:
            term = k * coeff * zk * inv
            mag = abs(term)
            d_live = not mag > d_prev_mag
            if d_live:
                d_total += term
                d_prev_mag = mag
                d_live = not mag < 1e-300
        if not (live or d_live):
            break
        zk *= inv
    return total, d_total


def _interleaved_log_abs(alpha, x):
    if x <= mittag.switch_radius(alpha):
        return math.log(abs(_interleaved_series(alpha, x)[0]))
    p = 1.0 / alpha
    xp = p * math.log(x)
    if alpha == 2.0:
        s = math.sqrt(x)
        return s - math.log(2.0) + math.log1p(math.exp(-2.0 * s))
    lead = math.exp(xp)
    if lead < 600.0:
        tail = _interleaved_tail(alpha, complex(x))[0]
        return lead + math.log(p) + math.log1p(tail.real * math.exp(-lead) / p)
    return lead + math.log(p)


def _tail_halves(alpha, z):
    """The library's algebraic tail and its derivative at z."""
    inv = 1.0 / z
    return mittag._tail_sum(alpha, inv, False), mittag._tail_sum(alpha, inv, True)


def _seeded_points(rng, radii, size):
    """size points at radii(rng, size) and all angles, and points at
    radii(rng, 20) on both signs of both axes, with both signed zeros."""
    zs = [cmath.rect(r, th) for r, th in
          zip(radii(rng, size).tolist(), rng.uniform(-math.pi, math.pi, size).tolist())]
    for t in radii(rng, 20).tolist():
        zs += [complex(s * t, z0) for s in (1.0, -1.0) for z0 in (0.0, -0.0)]
        zs += [complex(z0, s * t) for s in (1.0, -1.0) for z0 in (0.0, -0.0)]
    return zs


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.75, 1.0, 1.5, 1.95, 2.0])
def test_sums_bit_identical_to_interleaved_oracle(alpha):
    # float.hex of both parts of E and E': == sees no signed zero
    rng = np.random.default_rng(30)
    r_sw = mittag.switch_radius(alpha)
    series_zs = _seeded_points(rng, lambda g, k: 1.1 * r_sw * np.sqrt(g.uniform(0.0, 1.0, k)),
                               2000)
    series_zs += [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
    for z in series_zs:
        got, want = mittag.ml_series(alpha, z), _interleaved_series(alpha, z)
        assert [_hex(v) for v in got] == [_hex(v) for v in want], z
    # the tail from inside the switch radius to 1e8; at alpha 0.5, 1 and 1.5
    # (and 2) it meets a zero coefficient, a pole of Gamma(1 - alpha k)
    tail_zs = _seeded_points(rng, lambda g, k: 10.0 ** g.uniform(-1.0, 8.0, k), 2000)
    for z in tail_zs:
        got, want = _tail_halves(alpha, z), _interleaved_tail(alpha, z)
        assert [_hex(v) for v in got] == [_hex(v) for v in want], z
    xs = [0.0, *rng.uniform(0.0, 1.2 * r_sw, 100).tolist(),
          *(10.0 ** rng.uniform(0.0, 8.0, 100)).tolist()]
    for x in xs:
        assert mittag.ml_log_abs(alpha, x).hex() == _interleaved_log_abs(alpha, x).hex(), x


def _layer_oracle(alpha, z):
    """E_alpha(z) by _ml_oracle with |z|^p / 2.3 + 40 digits, enough for the
    cancellation (the largest term is about e^(|z|^p)), and the terms run on
    until they fall below 1e-40."""
    zp = abs(z) ** (1.0 / alpha)
    terms = next(n for n in itertools.count(int(zp)) if
                 n * math.log(abs(z)) - math.lgamma(alpha * n + 1.0) < -92.0)
    return _ml_oracle(alpha, z, terms=terms, dps=int(zp / 2.3) + 40)


def test_sector_edge_vs_extended_series():
    # just inside the growth sector's edge with |z|^p < 690, ml_eval once
    # summed the series in doubles, wrong there by up to 1e120; the sector
    # expansion holds to 1e-2
    zs = [(0.5, complex(10.83, 13.74)), (1.5, cmath.rect(1000.0, 0.79 * math.pi))]
    zs += [(0.75, cmath.rect(16.8, t * math.pi)) for t in (0.41, 0.415, 0.42, 0.424)]
    for alpha, z in zs:
        want = _layer_oracle(alpha, z)
        assert abs(mittag.ml_eval(alpha, z)[0] - want) <= 1e-2 * abs(want), (alpha, z)


def test_orbit_step_makes_one_series_pass(monkeypatch):
    # iterate_orbit asks for f'(z_k) and then f(z_k): the memoised pair
    # answers the second from the first pass
    from sphgrow import dynamics, functions

    mittag.ml_eval(1.0, 0.0)  # the memo holds a point off the orbit
    calls = []
    for name in dir(mittag):  # every scalar series loop
        if name.startswith("ml_series"):
            fn = getattr(mittag, name)
            monkeypatch.setattr(mittag, name, lambda a, z, fn=fn: calls.append(z) or fn(a, z))
    orbit = dynamics.iterate_orbit(functions.MittagLeffler(1.0, 0.1), 0.3 + 0.2j, 25)
    assert orbit.status == dynamics.COMPLETE and len(orbit.points) == 26
    assert calls == orbit.points[:25]


def test_signed_zero_twins_share_one_value():
    # -500 +- 0j compare equal, so the memo answers both with one entry; the
    # evaluator reads -0.0 as +0.0, approaching the cut of log z from above
    # (where the growth sector of E_1.95 gives an imaginary part)
    z = complex(-500.0, 0.0)
    above = _library_outcomes(1.95, z)
    mittag.ml_eval(1.95, 1.0)  # the memo holds another point
    assert _library_outcomes(1.95, z.conjugate()) == above == _oracle_outcomes(1.95, z)
    assert mittag.ml_eval(1.95, z)[0].imag != 0.0


def _mixed_magnitudes(rng, size):
    """Signed doubles from 1e-320 (subnormal) to 1e300 (products overflow),
    with signed zeros."""
    v = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-320.0, 300.0, size)
    v[rng.random(size) < 0.05] = 0.0
    v[rng.random(size) < 0.05] = -0.0
    return v


def test_platform_rounds_complex_products_as_python():
    # orbit_table's array rows rest on these: cmul rounds as Python's
    # complex * complex and complex * float (a product with a 0.0 imaginary
    # part), and np.hypot is abs(complex).  A build that fuses the products
    # or rounds hypot differently must fail here, not move orbits silently.
    rng = np.random.default_rng(16)
    for mixed in (False, True):
        ar, ai, br, bi = (_mixed_magnitudes(rng, 20_000) if mixed else rng.normal(size=20_000)
                          for _ in range(4))
        with np.errstate(over="ignore", invalid="ignore"):
            pr, pi = mittag.cmul(ar, ai, br, bi)
            fr, fi = mittag.cmul(ar, ai, br, 0.0)
            hyp = np.hypot(ar, ai)
        a = [complex(*p) for p in zip(ar.tolist(), ai.tolist())]
        prod = [u * complex(*v) for u, v in zip(a, zip(br.tolist(), bi.tolist()))]
        scaled = [u * v for u, v in zip(a, br.tolist())]
        for got, want in (((pr, pi), prod), ((fr, fi), scaled)):
            assert got[0].tobytes() == np.array([w.real for w in want]).tobytes()
            assert got[1].tobytes() == np.array([w.imag for w in want]).tobytes()
        for u, h in zip(a, hyp.tolist()):
            try:
                assert float.hex(abs(u)) == float.hex(h), u
            except OverflowError:  # abs(complex) raises where hypot overflows
                assert h == math.inf
    # the mixed draw reached overflow, and subnormal results
    assert np.isinf(pr).any() and np.isnan(pr).any()
    assert ((pr != 0.0) & (np.abs(pr) < 2.2250738585072014e-308)).any()


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.75, 1.0, 1.5, 1.95, 2.0])
def test_eval_arrays_bit_identical_to_ml_eval(alpha):
    # NaN exactly at the points where ml_eval raises, and ml_eval's bits at
    # every other point, on either side of the switch radius
    rs = mittag.switch_radius(alpha)
    rng = np.random.default_rng(17)
    r = rs * np.sqrt(rng.uniform(0.0, 1.1, 3000))
    th = rng.uniform(-math.pi, math.pi, 3000)
    zs = [*map(complex, r * np.cos(th), r * np.sin(th)),
          *_regime_points(alpha, rng), *_overflow_edge_points(alpha)]
    x, y = np.array([z.real for z in zs]), np.array([z.imag for z in zs])
    x[:40:2], y[1:40:2] = -0.0, -0.0  # on the axes, with signed zeros
    x[40:50], y[40:50] = 0.0, 0.0
    er, ei, dr, di = mittag.ml_eval_arrays(alpha, x, y)
    want = {}
    for i in range(x.size):
        try:
            want[i] = mittag.ml_eval(alpha, complex(x[i], y[i]))
        except OverflowError:
            pass
    rows = np.array(list(want))
    raised = np.setdiff1d(np.arange(x.size), rows)
    assert raised.size > 0
    assert np.hypot(x[rows], y[rows]).max() > rs
    for got, part in ((er, lambda v: v[0].real), (ei, lambda v: v[0].imag),
                      (dr, lambda v: v[1].real), (di, lambda v: v[1].imag)):
        assert np.isnan(got[raised]).all()
        assert got[rows].tobytes() == np.array([part(v) for v in want.values()]).tobytes()


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.75, 1.0, 1.5, 1.8, 1.95, 2.0])
def test_a_nan_point_gives_nan_and_leaves_the_other_rows(alpha):
    # a NaN point's tail terms are all NaN, so no term is larger than the
    # last: without the stop on a non-finite term the sum runs on to the k
    # where Gamma(1 - alpha k) underflows (alpha 1.8 and 1.95), and 1/Gamma
    # raises ZeroDivisionError for the whole array
    nan = math.nan
    x = np.array([nan, 3.0, 0.0, nan, 2.0, -20.0, 0.1])
    y = np.array([0.0, 1.0, nan, nan, -6.0, 0.5, 0.1])
    out = mittag.ml_eval_arrays(alpha, x, y)
    for i in range(x.size):
        want = mittag.ml_eval(alpha, complex(x[i], y[i]))
        got = complex(out[0][i], out[1][i]), complex(out[2][i], out[3][i])
        if math.isnan(x[i]) or math.isnan(y[i]):
            assert all(map(cmath.isnan, (*want, *got))), i
        else:
            assert [_hex(v) for v in got] == [_hex(v) for v in want], i


def test_array_sector_test_decides_as_cmath_phase():
    # np.arctan2 differs from cmath.phase in the last bit on some points; a
    # point within a few ulps of the sector edge must still fall on the side
    # that ml_asymptotic's abs(cmath.phase(z)) puts it
    for alpha in (0.2, 0.5, 0.75, 1.5, 1.95):
        edge = alpha * math.pi / 2.0 + mittag.SECTOR_DELTA
        zs = [cmath.rect(r, s * _ulp_steps(edge, k)) for r in np.geomspace(1.0, 1e4, 40)
              for k in range(-6, 7) for s in (1, -1)]
        x, y = np.array([z.real for z in zs]), np.array([z.imag for z in zs])
        want = [abs(cmath.phase(z)) <= edge for z in zs]
        assert mittag._growth_sector(alpha, x, y).tolist() == want, alpha


def test_descriptor_eval_arrays_applies_the_scale():
    from sphgrow import functions as fx

    rng = np.random.default_rng(18)
    x, y = rng.uniform(-3.0, 3.0, (2, 500))
    for f in (fx.MittagLeffler(0.75), fx.MittagLeffler(0.75, 0.1), fx.MittagLeffler(0.5, 0.3)):
        er, ei, dr, di = f.eval_arrays(x, y)
        zs = [complex(x[i], y[i]) for i in range(x.size)]  # none leaves double range
        for (re, im), g in (((er, ei), f.eval), ((dr, di), f.derivative)):
            vals = [g(z) for z in zs]
            assert re.tobytes() == np.array([v.real for v in vals]).tobytes()
            assert im.tobytes() == np.array([v.imag for v in vals]).tobytes()
    assert fx.CoshSqrt().eval_arrays(x, y) is None
