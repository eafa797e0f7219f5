"""Experiment harness: verdicts, report serialization, determinism, render
output, and the CLI entry point."""

import dataclasses
import errno
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from sphgrow import cli
from sphgrow import dynamics as dy
from sphgrow import experiments as ex
from sphgrow import functions as fx
from sphgrow import measures as ms
from sphgrow import render

EXP = fx.ExpAffine(1.0)
SQUARE = fx.Polynomial((0, 0, 1))
FAST_GRID = ms.GridSpec(rel_tol=1e-2)


def test_specfun_check_passes():
    rep = ex.run_specfun_check(seed=0)
    assert rep.verdict == ex.PASS
    assert not rep.violating_rows()


def _ml_series_mpc(alpha, zs, terms=400, dps=60):
    """The series reference as first written: term by term in mpc arithmetic."""
    import mpmath as mp
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        gammas = [mp.gamma(a * n + 1) for n in range(terms)]
        out = []
        for z in zs:
            zz = mp.mpc(z)
            s = mp.mpc(0)
            p = mp.mpc(1)
            for g in gammas:
                s += p / g
                p *= zz
            out.append(complex(s))
        return out


def _bits(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


def _specfun_series_points():
    # the 41 points of run_specfun_check's series-vs-asymptotic row
    half_sector = 0.75 * math.pi / 2.0
    return [20.0 * complex(math.cos(th), math.sin(th))
            for th in np.linspace(-half_sector + 0.12, half_sector - 0.12, 41)]


def _random_series_points(alpha, radius, count=30):
    rng = np.random.default_rng(int(10 * alpha))
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    th = rng.uniform(0.0, 2.0 * math.pi, count)
    return [complex(z) for z in r * np.exp(1j * th)] + [
        0j, complex(-0.6 * radius, 0.0), complex(0.0, 0.4 * radius)]


def test_ml_series_highprec_bit_identical_on_specfun_points():
    zs = _specfun_series_points()
    assert _bits(ex._ml_series_highprec(0.75, zs)) == _bits(_ml_series_mpc(0.75, zs))


# radii keep the 400-term series converged and the cancellation well
# inside the 60-digit mpc oracle's precision
@pytest.mark.parametrize("alpha, radius", [(0.5, 5.0), (1.0, 10.0), (1.5, 20.0)])
def test_ml_series_highprec_bit_identical_on_random_points(alpha, radius):
    zs = _random_series_points(alpha, radius)
    assert _bits(ex._ml_series_highprec(alpha, zs)) == _bits(_ml_series_mpc(alpha, zs))


@pytest.mark.parametrize("alpha, z, message", [
    (0.75, complex(1e-100, 1.0), r"is not a multiple of 2\^-256"),
    (0.5, 20.0, "has not converged in 400 terms"),
], ids=["inexact-z", "truncated"])
def test_ml_series_highprec_refuses_unchecked_sums(alpha, z, message):
    # a reference it cannot vouch for would turn the specfun row into an
    # unchecked comparison
    with pytest.raises(ValueError, match=message):
        ex._ml_series_highprec(alpha, [z])


def test_classical_suite_passes():
    rep = ex.classical_suite(seed=0, samples=2000)
    assert rep.verdict == ex.PASS


def test_classical_suite_fails_on_one_failed_check(monkeypatch):
    monkeypatch.setattr(ex.lg, "harnack_check",
                        lambda samples, seed: {"passed": False, "axis_equality_gap": 1.0})
    rep = ex.classical_suite(seed=0, samples=200)
    assert [row["n"] for row in rep.violating_rows()] == ["harnack"]
    assert rep.verdict == ex.FAIL


def test_specfun_check_fails_on_one_failed_check(monkeypatch):
    # a zero series reference is off by 100% against the sector expansion
    monkeypatch.setattr(ex, "_ml_series_highprec", lambda alpha, zs: [0j] * len(zs))
    rep = ex.run_specfun_check(seed=0)
    assert [row["n"] for row in rep.violating_rows()] == ["E0.75-series-vs-asymptotic"]
    assert rep.verdict == ex.FAIL


def test_negative_control_fails():
    # mu over a region where z^2 is nearly constant cannot reach log M(10);
    # a harness that passes this comparison is broken
    U = ms.Region.disk(0.01 + 0j, 0.005)
    rep = ex.run_thm7(SQUARE, U, R=10.0, m=0, n_range=[1], grid=FAST_GRID)
    assert rep.verdict == ex.FAIL
    assert rep.violating_rows()


def test_thm7_exp_row_shape():
    # m = 2 leaves rows n = 2, 3 to compare, so the shape of a compared
    # row is checked too, not only that of vacuous ones
    U = ms.Region.disk(complex(0.318, 1.337), 0.5)
    rep = ex.run_thm7(EXP, U, R=5.0, m=2, n_range=[1, 2, 3], grid=FAST_GRID)
    for row in rep.rows:
        assert set(row) >= {"n", "lhs_tower", "rhs_tower", "margin_log"}
    compared = [row for row in rep.rows if not row["vacuous"]]
    assert compared
    for row in compared:
        assert row["rhs_tower"].startswith("E^")
        assert isinstance(row["margin_log"], float)
    csv = rep.rows_csv()
    assert csv.splitlines()[0] == "n,lhs_tower,rhs_tower,margin_log"
    assert "E^" in csv


def test_all_vacuous_rows_inconclusive():
    # m = 6 with n <= 2 leaves no row to compare: a check that checked
    # nothing is neither a Pass nor evidence of a working shift
    U = ms.Region.disk(complex(0.318, 1.337), 0.5)
    r7 = ex.run_thm7(EXP, U, R=5.0, m=6, n_range=[1, 2], grid=FAST_GRID)
    assert all(row["vacuous"] for row in r7.rows)
    assert r7.verdict == ex.INCONCLUSIVE
    assert r7.notes
    assert r7.parameters["smallest_working_m"] is None
    r56 = ex.run_thm5_thm6(EXP, U, 5.0, 5.0, 6, [1, 2], grid=FAST_GRID)
    assert all(row["vacuous"] for row in r56.rows)
    assert r56.parameters["upper_witnessed"]
    assert r56.verdict == ex.INCONCLUSIVE
    assert r56.notes


def test_thm56_unconverged_area_is_inconclusive(monkeypatch):
    # a lower-bound row violated by an area the quadrature did not settle
    # is no counterexample
    area = ms.AreaResult(value=math.exp(-5.0), log_value=-5.0, log_error=0.0,
                         unconverged=True, cells=1, refinements=0, overflow_cells=0)
    monkeypatch.setattr(ex.ms, "spherical_area", lambda *args: area)
    U = ms.Region.disk(complex(0.318, 1.337), 0.5)
    rep = ex.run_thm5_thm6(EXP, U, 5.0, 5.0, 0, [1, 2], grid=FAST_GRID)
    assert [row["n"] for row in rep.violating_rows()] == [1, 2]
    assert rep.parameters["upper_witnessed"]
    assert rep.verdict == ex.INCONCLUSIVE


def test_thm56_reports_the_last_radius_tried(monkeypatch):
    # no tower bounds an area of e^(1e9): the search tries R_upper 2^k for
    # k = 0..20 and reports the last of them, not one doubling more
    area = ms.AreaResult(value=math.inf, log_value=1e9, log_error=0.0,
                         unconverged=False, cells=1, refinements=0, overflow_cells=0)
    monkeypatch.setattr(ex.ms, "spherical_area", lambda *args: area)
    tried, tower = [], ex.fx.iterated_max_modulus
    monkeypatch.setattr(ex.fx, "iterated_max_modulus",
                        lambda f, R, n: tried.append(R) or tower(f, R, n))
    U = ms.Region.disk(complex(0.318, 1.337), 0.5)
    rep = ex.run_thm5_thm6(EXP, U, 5.0, 5.0, 2, [1, 2], grid=FAST_GRID)
    assert tried[1:] == [5.0 * 2.0 ** k for k in range(21)]
    assert not rep.parameters["upper_witnessed"]
    assert rep.parameters["R_upper_final"] == tried[-1] == 5242880.0
    assert rep.parameters["upper_doublings"] == 20
    assert rep.verdict == ex.FAIL


def test_report_json_deterministic():
    a = ex.classical_suite(seed=7, samples=500).to_json()
    b = ex.classical_suite(seed=7, samples=500).to_json()
    assert a == b
    parsed = json.loads(a)  # valid strict JSON, no NaN/Infinity literals
    assert parsed["verdict"] == "Pass"


def test_report_json_seed_sensitivity():
    a = ex.classical_suite(seed=7, samples=500).to_json()
    b = ex.classical_suite(seed=8, samples=500).to_json()
    assert a != b


@pytest.mark.parametrize("value", [np.float32(0.5), np.int64(3), np.bool_(True)])
def test_report_json_refuses_numpy_scalars(value):
    # json writes a float64 (a float subclass) itself; any other numpy scalar
    # is an error, never a quoted string such as "0.5"
    report = ex.ExperimentReport(experiment_id="x", function={}, parameters={"v": value},
                                 rows=[], verdict=ex.PASS, tolerances={})
    with pytest.raises(TypeError, match="not JSON serializable"):
        report.to_json()


def test_thm3_tier_b():
    rep = ex.run_thm3(1.0, 26.0, 7, x0_tier_a=1e6, n_tier_a=1000)
    assert rep.verdict == ex.PASS
    assert any("partial-sum" in note for note in rep.notes)


def test_thm3_notes_schedule_failures_of_both_tiers():
    # each tier's schedule invariant failures are noted, tier b's first
    rep = ex.run_thm3(1.0, 26.0, 3, x0_tier_a=1e6, n_tier_a=100)
    assert rep.notes == [
        "tier b schedule invariant failures: partial-sum inequality at n=2; "
        "partial-sum inequality at n=3",
        "tier a schedule invariant failures: partial-sum inequality at n=2"]


@pytest.mark.parametrize("n_tier_a, expect", [(100, [10, 100]), (1000, [10, 100, 1000]),
                                              (50, [10, 50]), (5, [5])])
def test_thm3_tier_a_rows_distinct(n_tier_a, expect):
    rep = ex.run_thm3(1.0, 26.0, 3, x0_tier_a=1e6, n_tier_a=n_tier_a)
    assert [row["n"] for row in rep.rows if row["tier"] == "a"] == expect


def test_thm3_rejects_zero_lambda(tmp_path):
    with pytest.raises(ValueError, match="lam must be nonzero"):
        ex.run_thm3(0j, 26.0, 7)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thm3": {"lambda": 0.0}}))
    with pytest.raises(ValueError, match="lam must be nonzero"):
        cli.main(["--config", str(cfg), "--out", str(tmp_path), "thm3"])
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("key, value, message", [
    ("n_tier_a", 0, "^n_tier_a=0 must be >= 1$"),
    ("x0_tier_a", 5.0, r"^x0_tier_a=5.0 must exceed 25.132741 \(8\*pi\)$"),
    pytest.param("x0_tier_a", math.inf, "^x0_tier_a=inf must be finite$",
                 id="x0_tier_a-inf"),
    pytest.param("x0", math.inf, "^x0=inf must be finite$", id="x0-inf"),
    pytest.param("x0", 10.0, r"^x0=10.0 must exceed 25.132741 \(binding bound: 8\*pi\)$",
                 id="x0"),
    pytest.param("n_max", -1, "^n_max=-1 must be >= 0$", id="n_max"),
    # tier b judges only its row n = n_max, from n = 2 on; before, n_max 0
    # and 1 judged no row and reported Pass
    pytest.param("n_max", 0, "^n_max=0 must be >= 2$", id="n_max-0"),
    pytest.param("n_max", 1, "^n_max=1 must be >= 2$", id="n_max-1"),
])
def test_thm3_rejects_bad_tier_a(tmp_path, key, value, message):
    # a bad tier-b start fails as loudly as a bad tier-a one: no report at all
    args = {"lam": 1.0, "x0": 26.0, "n_max": 3, key: value}
    with pytest.raises(ValueError, match=message):
        ex.run_thm3(**args)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thm3": {key: value}}))
    if value == math.inf:  # the CLI rejects JSON's Infinity for any number key
        message = f"^thm3.{key} must be a finite number, not inf$"
    with pytest.raises(ValueError, match=message):
        cli.main(["--config", str(cfg), "--out", str(tmp_path), "thm3"])
    assert not (tmp_path / "report.json").exists()


def test_thm3_rejects_infinite_tier_a_before_tier_b(monkeypatch):
    # a bad tier-a start is refused before any tier-b work is done
    calls = []
    monkeypatch.setattr(ex.lg, "slow_orbit_construct",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="^x0_tier_a=inf must be finite$"):
        ex.run_thm3(1.0, 26.0, 3, x0_tier_a=math.inf)
    assert not calls


def test_thm4_small_scan():
    f = fx.MittagLeffler(1.0, 0.1)
    rep = ex.run_thm4_scan(f, N=15, starts=50, seed=0)
    assert rep.verdict == ex.PASS
    assert not rep.violating_rows()


def test_unit_disk_check_rejects_nan_on_the_ring(monkeypatch):
    # a ring point where eta * E_alpha left double range comes back NaN from
    # eval_arrays, and the check must refuse it: Python's max(NaN, x) is NaN,
    # and NaN >= 1.0 is False
    f = fx.MittagLeffler(1.0, 0.1)
    ex._check_unit_disk_contraction(f)
    eval_arrays = type(f).eval_arrays

    def one_nan(self, x, y):
        parts = eval_arrays(self, x, y)
        for part in parts:
            part[7] = np.nan
        return parts

    monkeypatch.setattr(type(f), "eval_arrays", one_nan)
    with pytest.raises(ValueError, match="unit-disk contraction"):
        ex._check_unit_disk_contraction(f)


# run_thm4_scan as it was with one iterate_orbit per start: the oracle of
# the batched scan, kept with the two checks it called


def _thm4_scan_per_start(f, N, starts, seed):
    ex._check_unit_disk_contraction(f)
    rho = f.order
    C = fx.growth_constant(f.alpha)
    log_C = math.log(C)
    margin = 0.1
    rng = np.random.default_rng(seed)
    rows = []
    all_ok = True
    retained = 0
    shrinking = 0
    for idx in range(starts):
        r = math.sqrt(rng.uniform(0.0, 1.0)) * 20.0
        th = rng.uniform(0.0, 2.0 * math.pi)
        z0 = complex(r * math.cos(th), r * math.sin(th))
        orbit = dy.iterate_orbit(f, z0, N)
        horizon = orbit.length() - 1
        t = [orbit.log_mag(k) for k in range(horizon + 1)]
        entered = next((k for k, tk in enumerate(t) if tk <= 0.0), None)
        if entered is not None:
            ok = _shrinking_tail_per_start(orbit, entered)
            shrinking += 1
            all_ok &= ok
            if not ok:
                rows.append({"n": idx, "lhs_tower": "", "rhs_tower": "",
                             "margin_log": None, "violates": True,
                             "kind": "unit-disk-tail"})
            continue
        if horizon < 3:
            continue
        retained += 1
        ok, worst_stat, events = _growth_chain_per_start(
            orbit, t, horizon, rho, log_C, margin)
        all_ok &= ok
        rows.append({"n": idx,
                     "lhs_tower": f"E^0({ex._fmt(worst_stat)})",
                     "rhs_tower": f"E^0({ex._fmt(math.log(1.0 + rho) + margin)})",
                     "margin_log": ex._clean(math.log(1.0 + rho) + margin - worst_stat),
                     "retained_horizon": horizon, "growth_cap_events": events,
                     "violates": not ok, "kind": "retained"})
    verdict = ex.PASS if all_ok and retained > 0 else (
        ex.INCONCLUSIVE if retained == 0 else ex.FAIL)
    return ex.ExperimentReport(
        experiment_id="thm4-ml-upper-growth", function=f.to_json(),
        parameters={"N": N, "starts": starts, "seed": seed, "rho": rho,
                    "growth_constant": C, "retained": retained,
                    "unit_disk_orbits": shrinking},
        rows=rows, verdict=verdict,
        tolerances={"loglog_margin": margin})


def _shrinking_tail_per_start(orbit, entered):
    horizon = orbit.length() - 1
    prev = None
    for n in range(max(entered, 1), horizon + 1):
        cur = dy.log_spherical_derivative(orbit, n)
        if prev is not None and cur > prev + 1e-9:
            return False
        prev = cur
    return True


def _growth_chain_per_start(orbit, t, horizon, rho, log_C, margin):
    ok = True
    worst_stat = -math.inf
    events = 0
    partial = [t[0]]
    for k in range(1, horizon + 1):
        partial.append(partial[-1] + t[k])
    n0 = next((k for k in range(1, horizon + 1)
               if t[k] <= rho * partial[k - 1]), None)
    c0 = None
    if n0 is not None:
        c0 = (1.0 + rho) ** (-n0 + 1) * partial[n0 - 1]
    chain_alive = n0 is not None
    for n in range(1, horizon + 1):
        log_sharp = dy.log_spherical_derivative(orbit, n)
        if t[n] > rho * partial[n - 1]:
            if n >= n0 if n0 is not None else True:
                chain_alive = False
            events += 1
            if log_sharp > n * log_C + 1e-9:
                ok = False
        elif chain_alive and n0 is not None and n >= n0 - 1:
            if partial[n] > c0 * (1.0 + rho) ** n * (1.0 + 1e-12):
                ok = False
        if n >= 3 and log_sharp > 1.0:
            stat = math.log(log_sharp) / n
            worst_stat = max(worst_stat, stat)
            if stat > math.log(1.0 + rho) + margin:
                ok = False
    return ok, worst_stat, events


# rho = 1, C = 1 and margin 0.1, so the cap is log 2 + 0.1; past
# LOG_SQUARE_CUT = 350, log (f^n)^# is d[n] - 2 t[n] exactly
@pytest.mark.parametrize("t, d, want", [
    # n = 1 is an event (500 > 400): (f^1)^# = e^0 is within C^1, e^1 is not
    pytest.param([400, 500], [0, 1000], (True, -math.inf, 1), id="event-within-C^n"),
    pytest.param([400, 500], [0, 1001], (False, -math.inf, 1), id="event-above-C^n"),
    # on a retained orbit every t > 0, and each non-event step gives
    # partial[n] <= 2 partial[n-1], so the chain bound holds by induction;
    # with partial[0] = -1 the bound c0 2^n is negative, and its (1 + 1e-12)
    # slack moves it below partial[1] = -2
    pytest.param([-1, -1], [0, 0], (False, -math.inf, 0), id="chain-below-zero"),
    # n = 1..3 are non-events; log (f^3)^# = d[3] - 800
    pytest.param([400] * 4, [0, 0, 0, 801], (True, -math.inf, 0), id="loglog-not-evaluated"),
    pytest.param([400] * 4, [0, 0, 0, 808], (True, math.log(2), 0), id="loglog-within-cap"),
    pytest.param([400] * 4, [0, 0, 0, 827], (False, math.log(3), 0), id="loglog-above-cap"),
])
def test_check_growth_chain_branches(t, d, want):
    ok, worst_stat, events = ex._check_growth_chain(t, d, 1.0, 0.0, 0.1)
    assert (ok, events) == (want[0], want[2])
    assert worst_stat == pytest.approx(want[1], rel=1e-15)


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.5, 2.0])
def test_thm4_scan_bit_identical_to_per_start_scan(alpha):
    f = fx.MittagLeffler(alpha, fx.choose_eta(alpha))
    got = ex.run_thm4_scan(f, N=25, starts=500, seed=3)
    want = _thm4_scan_per_start(f, 25, 500, 3)
    assert got.to_json() == want.to_json()
    assert got.rows_csv() == want.rows_csv()
    # the unit-disk check runs at every alpha; at 0.5, 0.75 and 2 no orbit
    # outside the disk lasts the 3 steps the growth chain needs
    assert got.parameters["unit_disk_orbits"] > 0
    assert (got.parameters["retained"] > 0) == (alpha == 1.5)


def test_thm4_scan_without_retained_orbits_is_inconclusive(monkeypatch):
    # at the thm4scan golden's config no orbit is retained: a failed
    # unit-disk tail is reported as a row, but the scan checked no growth
    # chain, so it is no Fail
    monkeypatch.setattr(ex, "_check_shrinking_tail", lambda t, d, entered: False)
    rep = ex.run_thm4_scan(fx.MittagLeffler(1.0, 0.1), N=10, starts=30, seed=99)
    assert rep.parameters["retained"] == 0
    tails = rep.violating_rows()
    assert len(tails) == rep.parameters["unit_disk_orbits"] == 28
    assert all(row["kind"] == "unit-disk-tail" and row["margin_log"] is None
               for row in tails)
    assert rep.verdict == ex.INCONCLUSIVE


def test_thm3_inconclusive_when_construction_cannot_run(monkeypatch):
    # no tier-b row was checked: that is no counterexample, so no Fail
    def fails(*args):
        raise ex.lg.ScheduleInfeasible("no positive-side branch at level 3")

    monkeypatch.setattr(ex.lg, "slow_orbit_construct", fails)
    rep = ex.run_thm3(1.0, 26.0, 7, x0_tier_a=1e6, n_tier_a=1000)
    assert rep.verdict == ex.INCONCLUSIVE
    assert [row["tier"] for row in rep.rows] == ["a", "a", "a"]
    assert not any(row["violates"] for row in rep.rows)
    assert ("construction failed: no positive-side branch at level 3; tier b is unchecked, "
            "so the verdict is at best Inconclusive") in rep.notes


def test_thm3_tier_a_row_below_floor_fails(monkeypatch):
    # the floors at n = 10 and 100 are log 2 - 3 log(n)/n > 0
    monkeypatch.setattr(ex.lg, "schedule_growth_statistic", lambda sched, n: 0.0)
    rep = ex.run_thm3(1.0, 26.0, 7, x0_tier_a=1e6, n_tier_a=100)
    assert [(row["tier"], row["n"]) for row in rep.violating_rows()] == [("a", 10), ("a", 100)]
    assert rep.verdict == ex.FAIL


def test_thm4_scan_rejects_negative_starts():
    with pytest.raises(ValueError, match="^starts=-1 must be >= 0$"):
        ex.run_thm4_scan(fx.MittagLeffler(1.0, 0.1), N=25, starts=-1)


def test_thm1_scan_rejects_negative_starts(tmp_path):
    # before, a negative count ran the scan and reported it with no starts
    U = ms.Region.disk(complex(0.318, 1.337), 0.5)
    with pytest.raises(ValueError, match="^starts=-3 must be >= 0$"):
        ex.run_thm1_growth_scan(EXP, U, N=5, starts=-3, grid=FAST_GRID)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thm1scan": {"starts": -3}}))
    with pytest.raises(ValueError, match="^starts=-3 must be >= 0$"):
        cli.main(["--config", str(cfg), "--out", str(tmp_path), "thm1scan"])
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("sub", ["thm7", "thm56"])
def test_lower_bound_runners_reject_a_negative_shift(tmp_path, sub):
    # before, a negative m indexed past the tower table: an IndexError, exit 1
    U = ms.Region.disk(complex(0.318, 1.337), 0.5)
    run = {"thm7": lambda: ex.run_thm7(EXP, U, 5.0, -3, [1], FAST_GRID),
           "thm56": lambda: ex.run_thm5_thm6(EXP, U, 5.0, 5.0, -3, [1], FAST_GRID)}[sub]
    with pytest.raises(ValueError, match="^m=-3 must be >= 0$"):
        run()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({sub: {"m": -3, "n_max": 1}}))
    with pytest.raises(ValueError, match="^m=-3 must be >= 0$"):
        cli.main(["--config", str(cfg), "--out", str(tmp_path), sub])
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("N", [1, -7])
def test_thm1_scan_rejects_fewer_than_two_iterates(N):
    # before, N < 2 reported Inconclusive with no rows and a note that
    # overflow stopped the scan
    U = ms.Region.disk(complex(0.318, 1.337), 0.5)
    with pytest.raises(ValueError, match=f"^N={N} must be >= 2$"):
        ex.run_thm1_growth_scan(EXP, U, N=N, starts=5, grid=FAST_GRID)


def test_thm1_scan_notes_overflow_only_where_it_stopped_the_scan(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thm1scan": {"N": 2}}))
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "thm1scan"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert [row["n"] for row in report["rows"]] == [2]
    assert not any("overflow-dominated" in note for note in report["notes"])
    # e^z on a disk around 800: every grid orbit overflows before n = 2
    U = ms.Region.disk(800.0 + 0j, 0.5)
    rep = ex.run_thm1_growth_scan(EXP, U, N=3, starts=1, grid=FAST_GRID)
    assert "overflow-dominated; deepest usable n = 1" in rep.notes


@pytest.mark.parametrize("sub, given, message", [
    ("thm1scan", {"N": 1}, "N=1 must be >= 2"),
    ("thm4scan", {"N": 0}, "N=0 must be >= 1"),
    ("thm7", {"n_min": 5, "n_max": 2}, "thm7: n_min=5 must be <= n_max=2"),
    ("thm56", {"n_min": 5, "n_max": 2}, "thm56: n_min=5 must be <= n_max=2"),
    ("classical", {"samples": 0}, "samples=0 must be >= 1"),
    ("thm3", {"n_max": 1}, "n_max=1 must be >= 2"),
    ("render", {"n_max": 0, "resolution": 4}, "n_max=0 must be >= 1"),
    ("render", {"l_max": -1, "resolution": 4}, "l_max=-1 must be >= 0"),
    ("thm7", {"n_min": 0}, "thm7: n_min=0 must be >= 1"),
    ("thm56", {"n_range": [0, 1]}, "n=0 in n_range must be >= 1"),
    ("thm7", {"R": -1}, "R=-1 must be positive"),
    ("thm56", {"R_lower": 0}, "R_lower=0 must be positive"),
    ("thm56", {"R_upper": 0}, "R_upper=0 must be positive"),
    ("thm56", {"R_upper": -5}, "R_upper=-5 must be positive"),
    ("render", {"R": 0, "resolution": 4}, "R=0 must be positive"),
], ids=["thm1scan-N", "thm4scan-N", "thm7-empty-range", "thm56-empty-range",
        "classical-samples", "thm3-n_max", "render-n_max", "render-l_max", "thm7-n_min",
        "thm56-n_range", "thm7-R", "thm56-R_lower", "thm56-R_upper-0", "thm56-R_upper-neg",
        "render-R"])
def test_console_names_the_rejected_key(tmp_path, capsys, sub, given, message):
    # before, each exited 2 naming another key (n_max) or none ("max() arg
    # is an empty sequence", "zero-size array to reduction operation", "n
    # must be >= 1", "R must be positive"), or (thm3 n_max, render n_max and
    # l_max) ran with nothing to check and reported Pass
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({sub: given}))
    assert cli.console(["--config", str(cfg), "--out", str(tmp_path), sub]) == 2
    assert capsys.readouterr().err == f"sphgrow: {message}\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("sub", ["thm7", "thm56"])
def test_lower_bound_runners_reject_an_empty_n_range(sub):
    U = ms.Region.disk(complex(0.318, 1.337), 0.5)
    run = {"thm7": lambda: ex.run_thm7(EXP, U, 5.0, 2, [], FAST_GRID),
           "thm56": lambda: ex.run_thm5_thm6(EXP, U, 5.0, 5.0, 2, range(5, 3), FAST_GRID)}[sub]
    with pytest.raises(ValueError, match="^n_range must not be empty$"):
        run()


@pytest.mark.parametrize("R_upper", [0.0, -5.0])
def test_thm56_rejects_a_nonpositive_upper_radius_before_any_area(monkeypatch, R_upper):
    # R_upper is checked before the areas and the doubling loop, which reads a
    # NonEscalatingError as "not witnessed" and would turn it into Fail
    calls = []
    monkeypatch.setattr(ex.ms, "spherical_area", lambda *args: calls.append(args))
    U = ms.Region.disk(complex(0.318, 1.337), 0.5)
    with pytest.raises(ValueError, match=f"^R_upper={R_upper} must be positive$"):
        ex.run_thm5_thm6(EXP, U, 5.0, R_upper, 2, [1, 2], FAST_GRID)
    assert not calls


def test_thm1_scan_signature():
    U = ms.Region.disk(complex(0.318, 1.337), 0.5)
    rep = ex.run_thm1_growth_scan(EXP, U, N=5, starts=5, seed=0, grid=FAST_GRID)
    assert rep.verdict in (ex.PASS, ex.INCONCLUSIVE)


def test_thm1_scan_without_starts_keeps_the_growth_rows(tmp_path):
    # the rows and the verdict come from mu_sup alone, and the starts feed
    # only max_finite_horizon_chi; before, starts = 0 returned early with no
    # rows, the note "no starts" and an Inconclusive verdict
    reports = []
    for starts in (0, 5):  # criterion 10's thm1scan config and seed
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"thm1scan": {"N": 3, "starts": starts,
                                                "grid": {"rel_tol": 0.01}}}))
        out = tmp_path / str(starts)
        cli.main(["--config", str(cfg), "--seed", "99", "--out", str(out), "thm1scan"])
        reports.append(json.loads((out / "report.json").read_text()))
    none, some = reports
    assert [row["n"] for row in none["rows"]] == [2, 3]
    assert (none["rows"], none["verdict"], none["notes"]) == (
        some["rows"], "Pass", some["notes"])
    assert none["parameters"]["max_finite_horizon_chi"] is None
    assert some["parameters"]["max_finite_horizon_chi"] is not None


@pytest.mark.parametrize("lam", [[0, 3], [-3, 0]])
def test_thm1_scan_without_signature_is_inconclusive(tmp_path, lam):
    # on the default region (a disk around a repelling fixed point) the per-n
    # log mu at n = 2 is negative, so there is no doubling signature; a
    # finite scan cannot refute unbounded growth, so this is no Fail
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"function": {"variant": "exp_affine", "lambda": lam}}))
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "thm1scan"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "Inconclusive"
    assert report["rows"][0]["n"] == 2 and report["rows"][0]["per_n_log_mu"] < 0
    assert not any(row["violates"] for row in report["rows"])
    assert any("cannot refute unbounded growth" in note for note in report["notes"])


def test_render_ppm(tmp_path):
    out = tmp_path / "img.ppm"
    stats = render.render_escape(EXP, ms.Region.rectangle(1.0 + 0j, 3.0, 3.0),
                                 64, R=5.0, l_max=3, n_max=12, out_path=str(out))
    data = out.read_bytes()
    assert data.startswith(b"P6\n64 64\n255\n")
    assert len(data) == 13 + 64 * 64 * 3
    assert stats["pixels"] == 64 * 64
    assert stats["fast_fraction"] >= 0.01
    assert stats["escaped"] + stats["bounded"] == stats["pixels"]


def test_render_single_pixel(tmp_path):
    out = tmp_path / "one.ppm"
    render.render_escape(SQUARE, ms.Region.rectangle(0j, 0.1, 0.1),
                         (1, 1), R=10.0, l_max=1, n_max=8, out_path=str(out))
    data = out.read_bytes()
    assert data.startswith(b"P6\n1 1\n255\n")
    assert len(data) == 11 + 3


def test_cli_specfun(tmp_path):
    rc = cli.main(["--out", str(tmp_path), "--seed", "1", "specfun-check"])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "Pass"
    assert (tmp_path / "rows.csv").read_text().startswith(
        "n,lhs_tower,rhs_tower,margin_log")


# sha256 of report.json and rows.csv at CLI defaults with --seed 7.  The
# goldens run other configs, and the thm4scan golden has no rows, so these
# are what catch a last-bit change in the orbit-level experiments.
DEFAULT_OUTPUT_SHA256 = {
    "thm3": ("cb2e9322715d0f8e33e3a61c862c876670766ea5adbb52877ea432936bb90257",
             "deb38e1712661e23cd0138917db24320b5e453b27d11c104b1b16eda718bdd20"),
    "thm4scan": ("b6448b27e4696cf73d826dbaa56f8b40edc1bd95b83662718b472b4e159c35e8",
                 "ed4c109e0b623c81ecb48145d20697c1b0f31b6086388e45cef315c38b089989"),
    "specfun-check": ("923f5c38d2bd5832f988e957a23868226ba5e7819ef4bc7e0cadb5d4bc029a32",
                      "34238fdbbf7709f5d9bbfc9bbe22800520d0fbeedce455992f19b6a886fb120c"),
}


@pytest.mark.parametrize("sub", sorted(DEFAULT_OUTPUT_SHA256))
def test_default_cli_outputs_pinned(tmp_path, sub):
    assert cli.main(["--seed", "7", "--out", str(tmp_path), sub]) == 0
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("report.json", "rows.csv"))
    assert digests == DEFAULT_OUTPUT_SHA256[sub]


def test_cli_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        rc = cli.main(["--out", str(d), "--seed", "42", "classical"])
        assert rc == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "rows.csv").read_bytes() == (b / "rows.csv").read_bytes()


def test_cli_config_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"classical": {"samples": 600}}))
    rc = cli.main(["--config", str(cfg), "--out", str(tmp_path), "classical"])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["parameters"]["samples"] == 600


def test_cli_fail_exit_code(tmp_path):
    # desk-scale thm7 at m=2 is a certified violation (criterion 5), so the
    # verdict is Fail and the exit code must be 1; m=4 is the smallest shift
    # that leaves a row to check and makes every checked row hold
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thm7": {"m": 2, "n_range": [1, 2, 3, 4],
                                        "grid": {"rel_tol": 0.01}}}))
    rc = cli.main(["--config", str(cfg), "--out", str(tmp_path), "thm7"])
    assert rc == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "Fail"
    assert report["parameters"]["smallest_working_m"] == 4


@pytest.mark.parametrize("sub", ["thm7", "thm56"])
def test_cli_n_range_honoured(tmp_path, sub):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({sub: {"n_range": [1, 2], "grid": {"rel_tol": 0.01}}}))
    cli.main(["--config", str(cfg), "--out", str(tmp_path), sub])
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["parameters"]["n_range"] == [1, 2]
    assert [row["n"] for row in report["rows"]] == [1, 2]


def test_cli_n_range_excludes_n_min_n_max(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thm7": {"n_range": [1, 2], "n_max": 4}}))
    with pytest.raises(ValueError, match="not both"):
        cli.main(["--config", str(cfg), "--out", str(tmp_path), "thm7"])


@pytest.mark.parametrize("config, path", [
    ({"thm7": {"auto_center": True, "bogus": 1}}, "thm7.auto_center, thm7.bogus"),
    ({"thm8": {}}, "thm8"),
    ({"thm56": {"grid": {"rel_tol": 0.01, "tol": 1}}}, "thm56.grid.tol"),
    ({"thm1scan": {"region": {"kind": "disk", "center": [0, 0], "radius": 1,
                              "r": 2}}}, "thm1scan.region.r"),
    ({"render": {"window": {"size": 1}}}, "render.window.size"),
    ({"function": {"variant": "mittag_leffler", "alpha": 0.75, "eta": 0.5}},
     "function.eta"),
    ({"thm7": {"region": {"kind": "disk", "center": [0, 0], "radius": 1,
                          "half_width": 1}}}, "thm7.region.half_width"),
    ({"render": {"window": {"kind": "rectangle", "center": [1, 0], "half_width": 3,
                            "half_height": 3, "radius": 1}}}, "render.window.radius"),
    # thm3 runs at logplane.PRECISION_BITS; the key that once set it is gone
    ({"thm3": {"precision_bits": 256}}, "thm3.precision_bits"),
])
def test_cli_rejects_unknown_config_keys(tmp_path, config, path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(ValueError, match=f"unknown config keys: {path}$"):
        cli.main(["--config", str(cfg), "--out", str(tmp_path), "classical"])
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("config, message", [
    ({"thm7": {"region": {"kind": "circle", "center": [0, 0], "radius": 1}}},
     "thm7.region.kind: 'circle' is not a region kind"),
    ({"render": {"window": {"center": [1, 0], "half_width": 3, "half_height": 3}}},
     "render.window.kind: None is not a region kind"),
    ({"thm56": {"region": {"kind": ["disk"], "center": [0, 0], "radius": 1}}},
     r"thm56.region.kind: \['disk'\] is not a region kind"),
], ids=["circle", "missing", "list"])
def test_cli_rejects_unknown_region_kind(tmp_path, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(ValueError, match=message):
        cli.main(["--config", str(cfg), "--out", str(tmp_path), "classical"])
    assert not (tmp_path / "report.json").exists()


def test_cli_default_region_needs_a_repelling_fixed_point(tmp_path):
    # for lambda = 0.3 Newton finds the attracting fixed point 0.489: a disk
    # around it lies in the Fatou set, where shrinking rows are no counterexample
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"function": {"variant": "exp_affine", "lambda": [0.3, 0.0]}}))
    with pytest.raises(ValueError, match=r"thm7\.region: .*repelling.*\|multiplier\| 0\.489"):
        cli.main(["--config", str(cfg), "--out", str(tmp_path), "thm7"])
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("sub, config, message", [
    ("thm7", {"thm7": {"region": {"kind": "disk", "center": [0.318, 1.337],
                                  "radius": math.nan}}},
     r"thm7\.region: disk radius must be positive and finite, not nan"),
    ("thm7", {"thm7": {"region": {"kind": "disk", "center": [math.nan, 1.337],
                                  "radius": 0.5}}},
     r"thm7\.region: disk center must be finite"),
    ("thm7", {"thm7": {"region": {"kind": "disk", "center": [0.318, 1.337]}}},
     r"thm7\.region: disk region needs radius"),
    ("thm56", {"thm56": {"region": {"kind": "rectangle", "center": [0.3, 1.3],
                                    "half_width": math.inf, "half_height": 0.5}}},
     r"thm56\.region: rectangle half_width must be positive and finite, not inf"),
    ("render", {"render": {"window": {"kind": "rectangle", "center": [1.0, 0.0],
                                      "half_width": math.nan, "half_height": 3.0},
                           "resolution": 4}},
     r"render\.window: rectangle half_width must be positive and finite, not nan"),
    ("thm7", {"thm7": {"region": 5}}, r"thm7\.region: expected a JSON object, not 5"),
    ("thm7", {"thm7": {"region": {"kind": "disk", "center": 0.5, "radius": 0.5}}},
     r"thm7\.region: disk center must be \[re, im\], not 0\.5"),
    ("render", {"render": {"window": [1.0, 0.0]}},
     r"render\.window: expected a JSON object, not \[1\.0, 0\.0\]"),
    ("thm56", {"thm56": {"region": {"kind": "rectangle", "center": [0.3, 1.3],
                                    "half_width": "1", "half_height": 0.5}}},
     r"thm56\.region: rectangle half_width must be a number, not '1'"),
], ids=["nan-radius", "nan-center", "no-radius", "inf-half-width", "render-nan",
        "scalar-region", "scalar-center", "list-window", "string-half-width"])
def test_cli_rejects_bad_region_values(tmp_path, sub, config, message):
    # json.load accepts NaN and Infinity; the region names the bad value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(ValueError, match=message):
        cli.main(["--config", str(cfg), "--out", str(tmp_path), sub])
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("sub, config, message", [
    ("thm7", {"thm7": {"n_range": [1, 2], "grid": {"max_refinements": math.nan,
                                                   "rel_tol": 0.01}}},
     r"thm7\.grid: max_refinements must be an integer >= 0, not nan"),
    ("thm7", {"thm7": {"n_range": [1, 2], "grid": {"base_resolution": math.nan}}},
     r"thm7\.grid: base_resolution must be an integer >= 16, not nan"),
    ("thm56", {"thm56": {"grid": {"base_resolution": 16.5}}},
     r"thm56\.grid: base_resolution must be an integer >= 16, not 16\.5"),
    ("thm1scan", {"thm1scan": {"grid": {"max_refinements": True}}},
     r"thm1scan\.grid: max_refinements must be an integer >= 0, not True"),
    ("thm7", {"thm7": {"grid": 3}}, r"thm7\.grid: expected a JSON object, not 3"),
    ("thm56", {"thm56": {"grid": {"rel_tol": "0.01"}}},
     r"thm56\.grid: rel_tol must be a number in \(0, 0\.1\], not '0\.01'"),
], ids=["nan-max-refinements", "nan-base-resolution", "fractional", "bool", "scalar-grid",
        "string-rel-tol"])
def test_cli_rejects_bad_grid_values(tmp_path, sub, config, message):
    # before, a NaN max_refinements ran the experiment and then failed
    # writing report.json; a NaN base_resolution failed inside np.linspace
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(ValueError, match=message):
        cli.main(["--config", str(cfg), "--out", str(tmp_path), sub])
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("config, message", [
    ([1], r"^config: expected a JSON object, not \[1\]$"),
    ({"function": 5}, r"^function: expected a JSON object, not 5$"),
    ({"function": {}}, r"^function: unknown variant: None$"),
    ({"function": {"variant": "exp_affine"}}, r"^function: exp_affine needs lambda$"),
    ({"function": {"variant": "exp_affine", "lambda": 2.0}},
     r"^function: exp_affine lambda must be \[re, im\], not 2\.0$"),
    ({"function": {"variant": "polynomial", "coefficients": [[0, 0], [1]]}},
     r"^function: polynomial coefficients must be a list of \[re, im\]"),
    ({"function": {"variant": "mittag_leffler", "alpha": "1"}},
     r"^function: mittag_leffler alpha must be a number, not '1'$"),
], ids=["list-config", "scalar-function", "no-variant", "no-lambda", "scalar-lambda",
        "short-coefficient", "string-alpha"])
def test_cli_rejects_malformed_config_shapes(tmp_path, config, message):
    # each of these once escaped as a bare AttributeError, TypeError or KeyError
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(ValueError, match=message):
        cli.main(["--config", str(cfg), "--out", str(tmp_path), "classical"])
    assert not (tmp_path / "report.json").exists()


def test_cli_null_section_reads_as_empty(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"classical": None}))
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "classical"]) == 0
    assert (tmp_path / "report.json").exists()


@pytest.mark.parametrize("section, key, value, rule", [
    ("thm7", "R", "abc", "a number"),
    ("thm7", "m", True, "an integer"),
    ("thm7", "n_max", 4.0, "an integer"),
    ("thm56", "R_lower", True, "a number"),
    ("thm56", "R_upper", "5", "a number"),
    ("thm56", "m", 2.0, "an integer"),
    ("thm1scan", "N", "5", "an integer"),
    ("thm1scan", "starts", False, "an integer"),
    ("thm1scan", "starts", 20.0, "an integer"),
    ("thm3", "x0", "26", "a number"),
    ("thm3", "lambda", False, "a number"),
    ("thm3", "n_tier_a", 10000.0, "an integer"),
    ("thm4scan", "alpha", True, "a number"),
    ("thm4scan", "eta", "0.1", "a number or null"),
    ("thm4scan", "starts", 1000.0, "an integer"),
    ("classical", "samples", "many", "an integer"),
    ("classical", "samples", True, "an integer"),
    ("classical", "samples", 600.0, "an integer"),
    ("render", "R", "5", "a number"),
    ("render", "l_max", True, "an integer"),
    ("render", "n_max", 12.0, "an integer"),
    ("render", "resolution", "big", "an integer or [w, h]"),
    ("render", "resolution", [64], "an integer or [w, h]"),
    ("render", "resolution", [64, True], "an integer or [w, h]"),
    ("thm7", "R", math.nan, "a finite number"),
    ("thm7", "R", math.inf, "a finite number"),
    ("thm56", "R_upper", -math.inf, "a finite number"),
    ("thm4scan", "alpha", math.nan, "a finite number"),
    ("thm4scan", "eta", math.nan, "a finite number"),
    ("render", "R", math.inf, "a finite number"),
])
def test_cli_rejects_mistyped_values(tmp_path, section, key, value, rule):
    # a value takes its default's type; before, "abc" for thm7.R ended in a
    # bare TypeError, true for thm7.m ran as m = 1, and 256.0 for
    # thm3.precision_bits (a key since removed) ran.  JSON's NaN and
    # Infinity once passed as numbers and failed later with errors that
    # named no key
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {key: value}}))
    message = f"^{section}.{key} must be {re.escape(rule)}, not {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        cli.main(["--config", str(cfg), "--out", str(tmp_path), section])
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("sub, n_range", [("thm7", [1, True]), ("thm56", [True]),
                                          ("thm7", 2), ("thm56", "12")])
def test_cli_rejects_mistyped_n_range(tmp_path, sub, n_range):
    # a bool is no n, and a number or a string no list
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({sub: {"n_range": n_range}}))
    with pytest.raises(ValueError, match=f"^{sub}.n_range must be a non-empty list of integers$"):
        cli.main(["--config", str(cfg), "--out", str(tmp_path), sub])
    assert not (tmp_path / "report.json").exists()


def test_cli_null_n_range_reads_as_n_min_n_max(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thm7": {"n_range": None, "n_max": 2,
                                        "grid": {"rel_tol": 0.01}}}))
    cli.main(["--config", str(cfg), "--out", str(tmp_path), "thm7"])
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["parameters"]["n_range"] == [1, 2]


def test_cli_null_eta_is_chosen_from_alpha(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thm4scan": {"eta": None, "N": 5, "starts": 10}}))
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "thm4scan"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["function"]["eta"] == fx.choose_eta(1.0)


@pytest.mark.parametrize("section, key", [("thm7", "R"), ("thm56", "R_lower"),
                                          ("render", "R")])
def test_cli_names_a_non_escalating_radius(tmp_path, section, key):
    # M(5) = cosh sqrt 5 < 5, so no tower table starts from R = 5; before,
    # this ended in a bare NonEscalatingError traceback
    window = {"kind": "rectangle", "center": [10.0, 0.0], "half_width": 1.0,
              "half_height": 1.0}
    given = ({"window": window, "resolution": 4} if section == "render" else
             {"region": {"kind": "disk", "center": [10.0, 0.0], "radius": 0.5}})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"function": {"variant": "cosh_sqrt"}, section: given}))
    with pytest.raises(ValueError, match=rf"^{section}\.{key}: M\(R,f\) <= R at R=5\.0"):
        cli.main(["--config", str(cfg), "--out", str(tmp_path), section])
    assert not (tmp_path / "report.json").exists()


def _sphgrow(args, tmp_path):
    """The sphgrow command in a fresh interpreter, as a shell would run it."""
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "sphgrow.cli", "--out", str(tmp_path), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_console_exit_codes(tmp_path):
    # a rejected input exits 2 with one line on stderr; 1 stays a Fail verdict
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thm7": {"bogus": 1}}))
    done = _sphgrow(["--config", str(cfg), "thm7"], tmp_path)
    assert done.returncode == 2
    assert done.stderr == "sphgrow: unknown config keys: thm7.bogus\n"
    assert not (tmp_path / "report.json").exists()
    # criterion 5's thm7 config: a certified violation at m = 2
    cfg.write_text(json.dumps({"thm7": {
        "region": {"kind": "disk", "center": [0.318, 1.337], "radius": 0.5}, "R": 5.0,
        "m": 2, "n_min": 1, "n_max": 4, "grid": {"max_refinements": 24}}}))
    done = _sphgrow(["--config", str(cfg), "thm7"], tmp_path)
    assert done.returncode == 1, done.stderr
    assert json.loads((tmp_path / "report.json").read_text())["verdict"] == "Fail"
    (tmp_path / "report.json").unlink()
    # the default region: Newton from 1+i meets a singular step at 1 for
    # z^2 - z, and goes on to the repelling fixed point 2 (multiplier 3)
    cfg.write_text(json.dumps({"function": {"variant": "polynomial",
                                            "coefficients": [[0, 0], [-1, 0], [1, 0]]}}))
    done = _sphgrow(["--config", str(cfg), "thm7"], tmp_path)
    assert done.returncode == 0, done.stderr
    region = json.loads((tmp_path / "report.json").read_text())["parameters"]["region"]
    assert region["center"][0] == pytest.approx(2.0) and region["radius"] == 0.5
    (tmp_path / "report.json").unlink()
    # no seed converges for 1e300 e^z: a rejected input, named by its key
    cfg.write_text(json.dumps({"function": {"variant": "exp_affine", "lambda": [1e300, 0]}}))
    done = _sphgrow(["--config", str(cfg), "thm7"], tmp_path)
    assert done.returncode == 2
    assert done.stderr.startswith("sphgrow: thm7.region: ")
    assert not (tmp_path / "report.json").exists()
    # a left side below e^-745 is the tower E^0(0), a valid row and a Fail;
    # before, its log raised and the run exited 2 naming no key
    region = {"kind": "disk", "center": [1e50, 0], "radius": 1e49}
    cfg.write_text(json.dumps({
        "function": {"variant": "polynomial", "coefficients": [[0, 0], [0, 0], [1e-200, 0]]},
        "thm7": {"region": region, "R": 1e201, "m": 0, "n_range": [1, 2]},
        "thm56": {"region": region, "R_lower": 1e201, "R_upper": 1e201, "m": 0,
                  "n_range": [1, 2]}}))
    for sub in ("thm7", "thm56"):
        done = _sphgrow(["--config", str(cfg), sub], tmp_path)
        assert done.returncode == 1, done.stderr
        assert json.loads((tmp_path / "report.json").read_text())["verdict"] == "Fail"
        rows = (tmp_path / "rows.csv").read_text().splitlines()
        assert rows[-1] == "2,E^0(0),E^0(469.72735897078462),-inf"


@pytest.mark.parametrize("sub", [*cli.SECTIONS, "specfun-check"])
def test_console_rejects_a_negative_seed(tmp_path, capsys, sub):
    # every subcommand takes --seed, and those that sample hand it to numpy,
    # whose own error names no option
    assert cli.console(["--seed", "-1", "--out", str(tmp_path), sub]) == 2
    assert capsys.readouterr().err == "sphgrow: --seed=-1 must be >= 0\n"
    assert not (tmp_path / "report.json").exists()


def test_console_config_file_not_read(tmp_path, capsys):
    # a config file that cannot be opened is a rejected input: exit 2, one line
    for path, code in ((tmp_path / "missing.json", errno.ENOENT), (tmp_path, errno.EISDIR)):
        assert cli.console(["--config", str(path), "--out", str(tmp_path), "thm7"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"sphgrow: --config: [Errno {code}] {os.strerror(code)}: '{path}'\n"
    assert not (tmp_path / "report.json").exists()


def test_console_is_the_installed_command():
    pyproject = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
    assert scripts == 'sphgrow = "sphgrow.cli:console"'


def test_cli_docstring_schema_matches_sections():
    # the schema a user reads is the table the CLI reads: the same sections,
    # keys, order and defaults, each default of the same JSON type
    doc = cli.__doc__
    block = doc[doc.index("\n{\n") + 1:doc.index("\n}\n") + 2]
    schema = json.loads(re.sub(r"\b(REGION|GRID)\b", "null", block))
    assert schema.pop("function") == cli.DEFAULT_FUNCTION
    table = {name: {key: None if isinstance(default, dict) else default
                    for key, default in section.items()}
             for name, section in cli.SECTIONS.items()}
    assert json.dumps(schema) == json.dumps(table)
    grid = json.loads(re.search(r"^GRID: +(\{.*\})$", doc, re.M).group(1))
    assert grid == dataclasses.asdict(cli._grid({}, "thm7"))
