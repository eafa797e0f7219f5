"""End-to-end acceptance checks, one test per criterion.

Each test records a single summary line (printed after the run) stating the
criterion, its verdict, and the tolerances it was judged against, then
asserts.  Criterion 5's lower bounds are asymptotic in n, with a shift m
that depends on U; at desk scale (n <= 4) the literal shift m = 2 cannot
hold, because (f^n)^# <= |f f^2 ... f^(n-1)| / 2 for f = e^z.  The criterion
therefore asserts the certified outcome: every m = 2 row violates and a
cap on the true value, computed here independently of the library, lies
below the row's tower; the smallest working shift is 4; and no shift makes
the area lower bound checkable at n <= 4.  The comparisons are exact tower
arithmetic and the data are the criterion's own.
"""

import cmath
import json
import math
import pathlib
import time

import numpy as np

from conftest import record_criterion
from sphgrow import cli
from sphgrow import dynamics as dy
from sphgrow import experiments as ex
from sphgrow import functions as fx
from sphgrow import measures as ms
from sphgrow.towers import TowerReal, tower_compare

EXP = fx.ExpAffine(1.0)
SQUARE = fx.Polynomial((0, 0, 1))
FIXED_POINT = complex(0.318, 1.337)
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _report(num, title, ok, detail, elapsed, limit):
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    record_criterion(f"criterion {num:2d} [{verdict}] {title}: {detail} "
                     f"({elapsed:.1f}s / limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_special_functions():
    t0 = time.time()
    rep = ex.run_specfun_check(seed=0)
    ok = rep.verdict == ex.PASS
    _report(1, "special functions", ok,
            "E1(1)=e @1e-12, E2=cosh sqrt(z) @1e-10 x100, "
            "series-vs-asymptotic @1e-4 at |z|=20, decay |E(-x)|<=10/x",
            time.time() - t0, 10.0)


def test_criterion_02_derivative_oracle():
    t0 = time.time()
    variants = [SQUARE, fx.Polynomial((1.0 + 0.5j, -2.0, 0.0, 0.25)), EXP,
                fx.ExpAffine(0.3 - 0.2j), fx.CoshSqrt(),
                fx.MittagLeffler(0.75), fx.MittagLeffler(1.0, 0.1)]
    rng = np.random.default_rng(11)
    h = 1e-6
    worst = 0.0
    for f in variants:
        for _ in range(100):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            d = f.derivative(z)
            fd = (f.eval(z + h) - f.eval(z - h)) / (2 * h)
            worst = max(worst, abs(d - fd) / max(1.0, abs(d)))
    _report(2, "derivative oracle", worst <= 1e-6,
            f"analytic vs central difference rel err {worst:.2e} <= 1e-6, "
            "7 variants x 100 points", time.time() - t0, 5.0)


def test_criterion_03_characteristic_sandwich():
    t0 = time.time()
    grid = ms.GridSpec(rel_tol=1e-2)
    ok = True
    details = []
    for r in (math.e, math.e ** 2, 10.0):
        out = ms.characteristic_sandwich_check(EXP, r, grid)
        t_rel = abs(out["T"] - r / math.pi) / (r / math.pi)
        ok &= out["passed"] and t_rel <= 1e-4
        details.append(f"r={r:.3g}: gap {out['gap']:.3f}<={out['gap_bound']:.3f}, "
                       f"T rel err {t_rel:.1e}")
    _report(3, "characteristic sandwich", ok,
            "; ".join(details) + "; T vs r/pi @1e-4", time.time() - t0, 30.0)


def test_criterion_04_polynomial_area_law():
    t0 = time.time()
    grid = ms.GridSpec()
    res = ms.spherical_area(SQUARE, ms.Region.disk(0j, 1e6), 1, grid)
    ok = abs(res.value - 2.0) <= 1e-2 and not res.unconverged
    U = ms.Region.rectangle(1.0 + 0j, 0.25, 0.25)
    logs = {n: ms.spherical_area(SQUARE, U, n, grid).log_value
            for n in range(6, 11)}
    incs = [logs[n + 1] - logs[n] for n in range(6, 10)]
    ok &= all(abs(i - math.log(2.0)) <= 0.1 for i in incs)
    _report(4, "polynomial area law", ok,
            f"S(D(0,1e6),z^2)={res.value:.4f} (2 +- 1e-2); "
            f"log S increments {[f'{i:.3f}' for i in incs]} in log2 +- 0.1",
            time.time() - t0, 120.0)


def _parse_tower(text):
    """Inverse of str(TowerReal): 'E^k(v)' with v printed to 17 digits."""
    depth, base = text[2:-1].split("(")
    return TowerReal(int(depth), float(base))


def _exp_log_sup_caps(U, ns, points=201):
    """log C_n >= log sup over the disk U of (f^n)^#, f = e^z, plain numpy.

    (f^n)' = f^n f^(n-1) ... f and |w|/(1+|w|^2) <= 1/2, so (f^n)^# <= P/2
    with log P = Re(z + f + ... + f^(n-2)).  That is harmonic, with gradient
    modulus |1 + f + f f^2 + ...| <= L = 1 + M_1 + M_1 M_2 + ..., where
    M_1 = exp(max Re z) and M_(k+1) = exp(M_k) bound |f^k|.  Each point of U
    lies within h (half a grid diagonal) of a grid point of the disk grown
    by h, so the max of log P over those points plus L h caps log P on U.
    """
    t = np.linspace(-U.radius, U.radius, points)
    X, Y = np.meshgrid(U.center.real + t, U.center.imag + t, indexing="ij")
    h = (2 * U.radius / (points - 1)) / math.sqrt(2)
    z = (X + 1j * Y)[np.hypot(X - U.center.real, Y - U.center.imag)
                     <= U.radius + h]
    bounds = [math.exp(U.center.real + U.radius + h)]  # M_1, M_2, ...
    while len(bounds) < max(ns) - 2:
        bounds.append(math.exp(bounds[-1]))
    caps = {}
    for n in ns:
        log_p = np.zeros(z.shape)
        w = z
        for _ in range(n - 1):
            log_p += w.real
            w = np.exp(w)
        lip = 1.0 + sum(math.prod(bounds[:j]) for j in range(1, n - 1))
        caps[n] = float(log_p.max()) + lip * h - math.log(2.0)
    return caps


def test_criterion_05_tower_bounds_desk_scale():
    t0 = time.time()
    U = ms.Region.disk(FIXED_POINT, 0.5)
    r7 = ex.run_thm7(EXP, U, R=5.0, m=2, n_range=[1, 2, 3, 4])
    r56 = ex.run_thm5_thm6(EXP, U, 5.0, 5.0, 2, [1, 2, 3, 4])
    log_caps = _exp_log_sup_caps(U, (2, 3, 4))
    mu_rows = {row["n"]: row for row in r7.rows}
    s_rows = {row["n"]: row for row in r56.rows}
    ok = (r7.verdict == ex.FAIL and r56.verdict == ex.FAIL
          and r7.parameters["smallest_working_m"] == 4
          and r56.parameters["upper_witnessed"]
          and r56.parameters["upper_doublings"] == 0)
    details = []
    for n in (2, 3, 4):
        # S(U, f^n) <= (area of U / pi) * C_n^2 = r^2 C_n^2
        s_log_cap = 2.0 * math.log(U.radius) + 2.0 * log_caps[n]
        for rows, log_cap in ((mu_rows, log_caps[n]), (s_rows, s_log_cap)):
            row = rows[n]
            cap = TowerReal.from_log(log_cap)
            rhs = _parse_tower(row["rhs_tower"])
            # estimate <= cap < tower: a certified counterexample
            ok &= (not row["vacuous"] and row["violates"]
                   and tower_compare(_parse_tower(row["lhs_tower"]), cap) <= 0
                   and tower_compare(cap, rhs) < 0)
        rhs = _parse_tower(mu_rows[n]["rhs_tower"]).value()
        details.append(f"n={n}: mu<={math.exp(log_caps[n]):.3g}, "
                       f"S<={math.exp(s_log_cap):.3g} vs {rhs:.4g} (log margins "
                       f"{math.log(rhs) - log_caps[n]:.2f}, "
                       f"{math.log(rhs) - s_log_cap:.2f})")
    # log M^0(R) = log 5, the smallest target any shift can give: m = 4
    # works through the n = 4 sup row, while S(U, f^4) stays below it
    log_r = _parse_tower(mu_rows[2]["rhs_tower"])
    ok &= tower_compare(_parse_tower(mu_rows[4]["lhs_tower"]), log_r) >= 0
    s4 = _parse_tower(s_rows[4]["lhs_tower"])
    ok &= tower_compare(s4, log_r) < 0
    _report(5, "sup/area lower bounds vs towers", ok,
            f"m=2: mu {r7.verdict}, S {r56.verdict} (want Fail), certified "
            f"caps below the towers: {'; '.join(details)}; smallest "
            f"working m = {r7.parameters['smallest_working_m']} (want 4); "
            f"S(U,f^4)={s4.value():.3g} < log 5, so no shift makes the area "
            f"lower bound checkable at n<=4; upper witnessed after "
            f"{r56.parameters['upper_doublings']} doublings (want 0); "
            "tower comparisons exact", time.time() - t0, 180.0)


def test_criterion_06_slow_escape_construction():
    t0 = time.time()
    rep = ex.run_thm3(1.0, 26.0, 7, 256, x0_tier_a=1e6, n_tier_a=10_000)
    ok = rep.verdict == ex.PASS
    _report(6, "slow-escape orbit", ok,
            "tier-a slope log2 +- 1e-3 at n=1e4; tier-b |Re F^n(u) - x_n| "
            "<= 4pi for n<=7 and loglog statistic >= log2 - 0.15 at n=7",
            time.time() - t0, 120.0)


def test_criterion_07_upper_growth_law():
    t0 = time.time()
    f = fx.MittagLeffler(1.0, 0.1)
    rep = ex.run_thm4_scan(f, N=25, starts=1000, seed=0)
    ok = rep.verdict == ex.PASS and not rep.violating_rows()
    retained = rep.parameters.get("retained")
    _report(7, "scaled Mittag-Leffler growth cap", ok,
            f"1000 starts, horizon 25 ({retained} retained): loglog stat <= "
            "log(1+rho)+0.1, partial-sum induction exact, event rows <= C^n",
            time.time() - t0, 120.0)


def test_criterion_08_fast_escaping():
    t0 = time.time()
    m0, l0, _ = dy.fast_escaping_test(EXP, 10.0, R=5.0, l_max=3, n_max=12)
    pp = dy.find_periodic_point(EXP, 1, 1.0 + 1.0j)
    m1, l1, _ = dy.fast_escaping_test(EXP, pp.location, R=5.0, l_max=3, n_max=12)
    m2, l2, _ = dy.fast_escaping_test(EXP, 0.1, R=5.0, l_max=3, n_max=12)
    ok = (m0 and l0 == 0) and (not m1) and (m2 and l2 == 3)
    _report(8, "fast escaping classification", ok,
            f"z=10: member l={l0} (want 0); fixed point: member={m1} "
            f"(want False); z=0.1: member l={l2} (want 3)",
            time.time() - t0, 1.0)


def test_criterion_09_classical_suite():
    t0 = time.time()
    rep = ex.classical_suite(seed=0, samples=10_000)
    ok = rep.verdict == ex.PASS
    _report(9, "classical inequalities", ok,
            "Koebe ka/kb/kc + Harnack at 1e4 samples, equality cases @1e-9",
            time.time() - t0, 30.0)


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    # every subcommand, reduced sizes so two full passes stay inside the
    # whole-suite budget; byte-identical report.json per subcommand, and
    # the first run byte-identical to the committed golden in tests/golden
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "thm7": {"n_range": [1, 2], "grid": {"rel_tol": 0.01}},
        "thm56": {"n_range": [1, 2], "grid": {"rel_tol": 0.01}},
        "thm1scan": {"N": 3, "starts": 5, "grid": {"rel_tol": 0.01}},
        "thm3": {"n_max": 5, "n_tier_a": 100},
        "thm4scan": {"N": 10, "starts": 30},
        "classical": {"samples": 1000},
        "render": {"resolution": 32},
    }))
    subs = ["thm7", "thm56", "thm1scan", "thm3", "thm4scan", "classical",
            "render", "specfun-check"]
    ok = True
    drifted = []
    for sub in subs:
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / f"{sub}-{run}"
            cli.main(["--config", str(cfg), "--seed", "99",
                      "--out", str(out), sub])
            blobs.append((out / "report.json").read_bytes())
        ok &= blobs[0] == blobs[1]
        if blobs[0] != (GOLDEN_DIR / f"{sub}.report.json").read_bytes():
            drifted.append(sub)
    ok &= not drifted
    _report(10, "determinism", ok,
            "all 8 subcommands run twice with seed 99: report.json "
            "byte-identical, and identical to tests/golden "
            f"(drifted: {drifted or 'none'})", time.time() - t0, 300.0)
