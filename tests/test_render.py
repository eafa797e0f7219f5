"""Render's fast-escape overlay: the default image pinned byte for byte, and
the array membership rule checked against a scalar tower oracle.

The oracle is the rule the overlay has always drawn: a pixel is in A(f)
when, for some l <= l_max, |z_n| > M^(n-l)(R) strictly (TowerReal
comparison) for every l <= n <= n_max, where an orbit that grew out of
range before n_max counts as keeping pace from there on.
"""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from sphgrow import cli
from sphgrow import dynamics as dy
from sphgrow import functions as fx
from sphgrow import kernels
from sphgrow import measures as ms
from sphgrow import render as rd
from sphgrow.towers import TowerReal

DEFAULT_PPM_SHA256 = "7e97bdbd01012621ae06137e0458dd461c8fa258b95ac204681bae18defe9bce"


def test_default_render_ppm_pinned(tmp_path):
    out = tmp_path / "escape.ppm"
    stats = rd.render_escape(fx.ExpAffine(1.0), ms.Region.rectangle(1.0 + 0j, 3.0, 3.0),
                             512, 5.0, 3, 12, str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_PPM_SHA256
    assert stats["fast_members"] == 25672


@pytest.mark.parametrize("f, window, R, l_max, n_max, resolution", [
    # 700 x 97 = 67,900 pixels: at 2^15 pixels a block, two blocks of 46 rows
    # and a last one of 5
    (fx.ExpAffine(1.0), ms.Region.rectangle(1.0 + 0j, 3.0, 3.0), 5.0, 3, 12, [700, 97]),
    # 331 x 100 = 33,100 pixels: a block of 98 rows and one of 2 (the
    # polynomial takes dynamics.orbit_table's scalar steps, hence the size)
    (fx.Polynomial((-1, 0, 1)), ms.Region.rectangle(0j, 2.0, 1.5), 2.0, 1, 3, [331, 100]),
], ids=["exp", "poly"])
def test_render_matches_unblocked_reference(tmp_path, f, window, R, l_max, n_max, resolution):
    # the image and stats are those of the rules run on every pixel at once
    out = tmp_path / "img.ppm"
    stats = rd.render_escape(f, window, resolution, R, l_max, n_max, str(out))
    width, height = resolution
    x0, x1, y0, y1 = window.bounds()
    X, Y = np.meshgrid(np.linspace(x0, x1, width), np.linspace(y1, y0, height), indexing="xy")
    escape_step, fast = rd._escape_and_fast(f, X.ravel(), Y.ravel(), R, l_max, n_max)
    rgb = rd._colorize(escape_step, fast, n_max)
    assert out.read_bytes() == f"P6\n{width} {height}\n255\n".encode("ascii") + rgb.tobytes()
    escaped, members = int((escape_step >= 0).sum()), int(fast.sum())
    assert stats == {"path": str(out), "pixels": width * height, "escaped": escaped,
                     "fast_members": members, "bounded": width * height - escaped,
                     "fast_fraction": members / (width * height)}
    assert 0 < members < escaped < width * height


def _oracle_member(log_mags, table, l_max, n_max) -> bool:
    """log_mags: log|z_k| for the known part of the orbit (-inf for z_k = 0)."""
    avail = len(log_mags)
    for l in range(l_max + 1):
        ok = True
        for n in range(l, n_max + 1):
            if n >= avail:
                break  # grew out of range: keeps pace from here on
            lm = log_mags[n]
            if lm == -math.inf or not TowerReal.from_log(lm) > table.log_levels[n - l]:
                ok = False
                break
        if ok:
            return True
    return False


def _oracle_orbit(f, z0, table, l_max, n_max) -> bool:
    orbit = dy.iterate_orbit(f, z0, n_max)
    return _oracle_member([orbit.log_mag(k) for k in range(orbit.length())],
                          table, l_max, n_max)


def _pixels(window, size):
    xs = np.linspace(window.center.real - window.half_width,
                     window.center.real + window.half_width, size)
    ys = np.linspace(window.center.imag - window.half_height,
                     window.center.imag + window.half_height, size)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    return X.ravel(), Y.ravel()


CASES = [
    ("exp", fx.ExpAffine(1.0), ms.Region.rectangle(1.0 + 0j, 3.0, 3.0), 5.0, 24, 12),
    ("exp_complex", fx.ExpAffine(0.3 - 0.2j), ms.Region.rectangle(2.0 + 1.0j, 2.5, 2.5),
     2.0, 24, 8),
    ("poly", fx.Polynomial((0.25, 0, 1)), ms.Region.rectangle(0.5 + 0.5j, 4.0, 4.0),
     5.0, 16, 8),
    ("cosh_sqrt", fx.CoshSqrt(), ms.Region.rectangle(300.0 + 0j, 400.0, 400.0),
     20.0, 16, 6),
]


@pytest.mark.parametrize("name, f, window, R, size, n_max", CASES,
                         ids=[c[0] for c in CASES])
@pytest.mark.parametrize("l_max", [0, 1, 3])
def test_classify_fast_matches_scalar_oracle(name, f, window, R, size, n_max, l_max):
    xs, ys = _pixels(window, size)
    _, fast = rd._escape_and_fast(f, xs, ys, R, l_max, n_max)
    table = fx.iterated_max_modulus(f, R, n_max)
    expect = [_oracle_orbit(f, complex(x, y), table, l_max, n_max)
              for x, y in zip(xs, ys)]
    assert fast.tolist() == expect
    if l_max == 3:
        assert 0 < sum(expect) < len(expect)


def _hand_made_table(table, n_max):
    """Rows with exact float ties to log M^k, neighbours one ulp away,
    entries above 1e300, NaN tails and z_k = 0, plus random rows."""
    log_M = [t.log().value() for t in table.log_levels]
    up = [math.nextafter(v, math.inf) for v in log_M]
    down = [math.nextafter(v, -math.inf) for v in log_M]
    nan = math.nan
    rows = [
        up[:4] + [nan] * (n_max - 3),                        # NaN tail after 1 ulp wins
        log_M[:1] + up[1:4] + [nan] * (n_max - 3),           # exact tie at level 0
        up[:3] + log_M[3:4] + [nan] * (n_max - 3),           # exact tie at level 3
        up[:3] + [1e300] + [nan] * (n_max - 3),              # 1e300 beats level 3
        up[:3] + [1e300, 1e305] + [nan] * (n_max - 4),       # 1e305 against E^3
        down[:1] + up[1:4] + [nan] * (n_max - 3),            # one ulp short at level 0
        [-math.inf] + up[1:4] + [nan] * (n_max - 3),         # z_0 = 0
        [2.0, 6.0, 200.0, 1e70, 1e300, 1e306, 1.7e308][:n_max + 1],
        [2.0, 6.0, 200.0, 1e70, 1e300, nan, nan][:n_max + 1],
        [nan] * (n_max + 1),
        [1e-20] + up[1:4] + [nan] * (n_max - 3),             # just above log M^0 = 0 at R = 1
    ]
    rng = np.random.default_rng(5)
    finite = [v for v in log_M if math.isfinite(v)]
    for _ in range(400):
        row = []
        for k in range(n_max + 1):
            pick = rng.integers(6)
            base = finite[min(k, len(finite) - 1)]
            if pick == 0:
                row.append(base)
            elif pick == 1:
                row.append(math.nextafter(base, math.inf))
            elif pick == 2:
                row.append(base * float(rng.uniform(0.5, 2.0)))
            elif pick == 3:
                row.append(float(10.0 ** rng.uniform(250, 307)))
            else:
                row.append(base * float(rng.uniform(0.999, 1.2)))
        cut = int(rng.integers(1, n_max + 2))
        rows.append(row[:cut] + [nan] * (n_max + 1 - cut))
    return np.array(rows, dtype=float)


@pytest.mark.parametrize("l_max, R", [(0, 5.0), (1, 5.0), (3, 5.0), (0, 1.0), (1, 1.0)])
def test_classify_fast_hand_made_table(l_max, R):
    f, n_max = fx.ExpAffine(1.0), 6
    table = fx.iterated_max_modulus(f, R, n_max)
    logmags = _hand_made_table(table, n_max)
    m = logmags.shape[0]
    rows = [[v for v in row if not math.isnan(v)] for row in logmags]
    rules = rd._StepRules(m, math.log(10.0), table, l_max)
    for col in logmags.T:
        rules.step(col)
    fast = rules.fast()
    expect = [_oracle_member(row, table, l_max, n_max) for row in rows]
    assert fast.tolist() == expect
    assert 0 < sum(expect) < m


def test_exp_render_runs_no_scalar_orbits(tmp_path, monkeypatch):
    calls = []
    orbit = dy.iterate_orbit

    def counting(*args, **kwargs):
        calls.append(args)
        return orbit(*args, **kwargs)

    monkeypatch.setattr(dy, "iterate_orbit", counting)
    stats = rd.render_escape(fx.ExpAffine(1.0), ms.Region.rectangle(1.0 + 0j, 3.0, 3.0),
                             64, 5.0, 3, 12, str(tmp_path / "img.ppm"))
    assert stats["fast_members"] > 0
    assert calls == []


def test_exp_render_steps_no_settled_pixel(tmp_path, monkeypatch):
    # once every l has started, a pixel that has escaped and left every run
    # takes no further step: at the 512^2 default the kernel hands the rules
    # 1,448,604 rows over the 13 steps of each block, not 2,494,724
    calls = []
    kernel = kernels.expaffine_logmag_steps

    def counting(*args):
        *head, visit = args
        rows = []
        calls.append(rows)

        def counted(ll, live):
            rows.append(live.size)
            return visit(ll, live)

        return kernel(*head, counted)

    monkeypatch.setattr(kernels, "expaffine_logmag_steps", counting)
    stats = rd.render_escape(fx.ExpAffine(1.0), ms.Region.rectangle(1.0 + 0j, 3.0, 3.0),
                             512, 5.0, 3, 12, str(tmp_path / "img.ppm"))
    assert stats["fast_members"] == 25672
    assert len(calls) == 512 * 512 // rd._BLOCK_PIXELS
    assert all(len(rows) == 13 for rows in calls)
    assert sum(map(sum, calls)) == 1_448_604


def _render_peak_bytes(tmp_path, size, n_max):
    """tracemalloc's peak over one e^z render of the default window."""
    tracemalloc.start()
    try:
        rd.render_escape(fx.ExpAffine(1.0), ms.Region.rectangle(1.0 + 0j, 3.0, 3.0),
                         size, 5.0, 3, n_max, str(tmp_path / f"{size}-{n_max}.ppm"))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exp_render_memory_does_not_grow_with_n_max(tmp_path):
    # the orbits stream into the two rules a step at a time: the peak stays
    # below the (n_max + 1) m doubles an orbit table would take, and a
    # deeper render takes no more memory
    _render_peak_bytes(tmp_path, 8, 12)  # lazy set-up outside the measured calls
    m = 256 * 256
    peak_12 = _render_peak_bytes(tmp_path, 256, 12)
    peak_36 = _render_peak_bytes(tmp_path, 256, 36)
    assert peak_12 < (12 + 1) * m * 8
    assert peak_36 <= 1.1 * peak_12


def test_exp_render_memory_does_not_grow_with_resolution(tmp_path):
    # the image is computed and written a block of rows at a time: 16 times
    # the pixels take no more memory, and the 512^2 default stays far below
    # the 23 MB it took with every pixel's arrays held at once
    _render_peak_bytes(tmp_path, 8, 12)  # lazy set-up outside the measured calls
    peak_256 = _render_peak_bytes(tmp_path, 256, 12)
    peak_1024 = _render_peak_bytes(tmp_path, 1024, 12)
    assert peak_1024 <= 1.1 * peak_256
    assert _render_peak_bytes(tmp_path, 512, 12) < 6_000_000


def _orbit_logmags_per_point(f, xs, ys, n_max, log_escape):
    """render's scalar fallback as it was first written (its escape index
    counts a start beyond the escape radius as escaping at step 0)."""
    table = np.full((xs.size, n_max + 1), np.nan)
    esc = np.full(xs.size, -1, dtype=np.int64)
    for i in range(xs.size):
        orbit = dy.iterate_orbit(f, complex(xs[i], ys[i]), n_max)
        for k in range(orbit.length()):
            table[i, k] = orbit.log_mag(k)
            if esc[i] < 0 and table[i, k] > log_escape:
                esc[i] = k
    return table, esc


@pytest.mark.parametrize("name, f, window, R, n_max", [
    ("cosh_sqrt", fx.CoshSqrt(), ms.Region.rectangle(0j, 30.0, 30.0), 20.0, 6),
    ("ml_075", fx.MittagLeffler(0.75), ms.Region.rectangle(0j, 4.0, 4.0), 5.0, 4),
    ("poly", fx.Polynomial((0.25, 0, 1)), ms.Region.rectangle(0.5 + 0.5j, 4.0, 4.0), 5.0, 8),
], ids=["cosh_sqrt", "ml_075", "poly"])
def test_logmags_fallback_bit_identical_to_per_point(name, f, window, R, n_max):
    xs, ys = _pixels(window, 11)
    log_escape = math.log(max(R, 10.0))
    table = dy.orbit_table(f, xs, ys, n_max).log_mag
    esc, _ = rd._escape_and_fast(f, xs, ys, R, 0, n_max)
    want_table, want_esc = _orbit_logmags_per_point(f, xs, ys, n_max, log_escape)
    assert table.tobytes() == want_table.tobytes()
    # the two rules agree on every start inside the escape radius
    inside = ~(want_table[:, 0] > log_escape)
    assert esc[inside].tobytes() == want_esc[inside].tobytes()
    assert (want_esc[inside] >= 1).any() and (want_esc < 0).any()
    assert np.isnan(want_table[:, -1]).any() == (name != "poly")


def test_fallback_escape_rule_matches_kernel(monkeypatch):
    # one rule on both paths: the first step k >= 1 with |z_k| > the escape
    # radius, so a start beyond it does not escape at step 0
    # (R = 10: log_escape = log 10)
    xs, ys = np.array([30.0, -30.0]), np.zeros(2)
    assert rd._escape_and_fast(fx.Polynomial((0, 0, 1)), xs, ys, 10.0, 0, 6)[0].tolist() == [1, 1]
    assert rd._escape_and_fast(fx.CoshSqrt(), xs, ys, 10.0, 0, 6)[0].tolist() == [1, -1]
    f = fx.ExpAffine(1.0)
    xs = np.concatenate([xs, np.linspace(-3.0, 3.0, 25)])
    ys = np.concatenate([ys, np.linspace(2.0, -2.0, 25)])
    kernel = rd._escape_and_fast(f, xs, ys, 10.0, 3, 8)
    monkeypatch.setattr(fx.ExpAffine, "logmag_steps", fx.Descriptor.logmag_steps)
    fallback = rd._escape_and_fast(f, xs, ys, 10.0, 3, 8)
    assert kernel[0].tolist()[:2] == [1, 4]
    assert fallback[0].tobytes() == kernel[0].tobytes()
    assert fallback[1].tobytes() == kernel[1].tobytes()


def test_render_completes_when_orbits_overflow(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "function": {"variant": "mittag_leffler", "alpha": 0.2},
        "render": {"window": {"kind": "rectangle", "center": [-0.5, 0],
                              "half_width": 0.5, "half_height": 0.5},
                   "resolution": 3, "n_max": 6}}))
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "render"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["parameters"]["pixels"] == 9
    assert (tmp_path / "escape.ppm").stat().st_size > 0
