"""Experiment runners producing deterministic, serializable reports.

Each runner compares a measured growth quantity against iterated
maximum-modulus towers (or closed-form targets) and emits an
ExperimentReport whose JSON is byte-identical across runs with the same
seed: fixed reduction orders, sorted keys, no timestamps.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import dynamics as dy
from . import functions as fx
from . import logplane as lg
from . import measures as ms
from .towers import TowerReal, tower_compare

PASS = "Pass"
FAIL = "Fail"
INCONCLUSIVE = "Inconclusive"


@dataclass
class ExperimentReport:
    experiment_id: str
    function: dict
    parameters: dict
    rows: list
    verdict: str
    tolerances: dict
    notes: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=1, allow_nan=False)

    def rows_csv(self) -> str:
        buf = io.StringIO()
        buf.write("n,lhs_tower,rhs_tower,margin_log\n")
        for row in self.rows:
            buf.write(f"{row.get('n', '')},{row.get('lhs_tower', '')},"
                      f"{row.get('rhs_tower', '')},{_fmt(row.get('margin_log'))}\n")
        return buf.getvalue()

    def violating_rows(self) -> list:
        return [r for r in self.rows if r.get("violates")]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.17g}"
    return str(v)


def _clean(v):
    """Round-trip floats through repr so json stays nan/inf free."""
    if isinstance(v, float) and not math.isfinite(v):
        return "inf" if v > 0 else ("-inf" if v < 0 else "nan")
    return v


def _row(n, violates, lhs="", rhs="", margin=None, **extra) -> dict:
    """The one report row: n, the two sides as tower strings, a signed log
    margin (None when nothing was compared), whether the row breaks its
    claim, and the experiment's own keys."""
    return {"n": n, "lhs_tower": lhs, "rhs_tower": rhs, "margin_log": _clean(margin),
            "violates": violates, **extra}


def _verdict(rows, checked: bool) -> str:
    """Fail on any violated row, else Pass when something was checked, else
    Inconclusive."""
    if any(r["violates"] for r in rows):
        return FAIL
    return PASS if checked else INCONCLUSIVE


def _safe_log_value(t: TowerReal) -> float:
    v = t.value()
    if math.isfinite(v) and v > 0.0:
        return math.log(v)
    return t.log().value() if v else -math.inf  # v = 0 only for E^0(0)


def _tower_margin_log(lhs: TowerReal, rhs: TowerReal) -> float:
    """log(lhs) - log(rhs) when both fit doubles, else signed inf."""
    a = _safe_log_value(lhs)
    b = _safe_log_value(rhs)
    if math.isfinite(a) and math.isfinite(b):
        return a - b
    return math.inf * tower_compare(lhs, rhs) if tower_compare(lhs, rhs) != 0 else 0.0


# ---------------------------------------------------------------------------
# sup-metric growth vs iterated maximum modulus


def run_thm7(f, U: ms.Region, R: float, m: int, n_range,
             grid: ms.GridSpec = None) -> ExperimentReport:
    """Check mu(U, f^n) >= log M^(n-m)(R, f), with a search for the best m.

    Rows with n < m are vacuous; when every row is, nothing was checked and
    the verdict is Inconclusive.
    """
    ns = _checked_ns(m, n_range)
    _check_radii(R=R)
    grid = grid or ms.GridSpec()
    levels = fx.iterated_max_modulus(f, R, max(ns))
    log_mus = [ms.mu_sup(f, U, n, grid).log_mu for n in ns]

    def rows_at(m_try):
        return [_lower_bound_row(n, v, levels, m_try) for n, v in zip(ns, log_mus)]

    # smallest m in [0, 6] that leaves at least one non-vacuous row and
    # makes every non-vacuous row hold; a shift that checks nothing is not
    # a working shift
    best_m = next((mm for mm in range(0, min(6, ns[-1]) + 1)
                   if _verdict(rows_at(mm), True) == PASS), None)
    rows = rows_at(m)
    checked, notes = _lower_bound_checked(rows, m)
    return ExperimentReport(
        experiment_id="thm7-sup-metric-vs-tower", function=f.to_json(),
        parameters={"region": U.to_json(), "R": R, "m": m,
                    "n_range": ns, "grid": asdict(grid),
                    "smallest_working_m": best_m},
        rows=rows, verdict=_verdict(rows, checked),
        tolerances={"comparison": "exact tower order"}, notes=notes)


def run_thm5_thm6(f, U: ms.Region, R_lower: float, R_upper: float, m: int,
                  n_range, grid: ms.GridSpec = None) -> ExperimentReport:
    """log M^(n-m)(R_lower) <= S(U, f^n) <= log M^n(R_upper).

    As in run_thm7, a run whose lower-bound rows are all vacuous (n < m)
    is Inconclusive.  Two cases overrule the rows: an unconverged area
    makes the run Inconclusive, and an upper bound that no radius
    R_upper 2^k, k <= 20, witnesses makes it Fail.  R_upper_final is the
    last radius tried.
    """
    ns = _checked_ns(m, n_range)
    _check_radii(R_lower=R_lower, R_upper=R_upper)  # R_upper before the doubling loop
    grid = grid or ms.GridSpec()
    low_levels = fx.iterated_max_modulus(f, R_lower, max(ns))
    areas = {n: ms.spherical_area(f, U, n, grid) for n in ns}
    # raise R_upper (doubling, <= 20 times) until the upper bound holds
    R_up, doublings = R_upper, 0
    while True:
        try:
            up_levels = fx.iterated_max_modulus(f, R_up, max(ns))
        except fx.NonEscalatingError:
            up_levels = None
        upper_ok = up_levels is not None and all(
            tower_compare(TowerReal.from_log(areas[n].log_value),
                          up_levels[n].log()) <= 0
            for n in ns if areas[n].log_value != -math.inf)
        if upper_ok or doublings == 20:
            break
        R_up *= 2.0
        doublings += 1
    rows = []
    for n in ns:
        row = _lower_bound_row(n, areas[n].log_value, low_levels, m)
        if upper_ok and not row["vacuous"]:
            up = up_levels[n].log()
            row["upper_tower"] = str(up)
            row["upper_margin_log"] = _clean(_tower_margin_log(
                up, TowerReal.from_log(areas[n].log_value)))
        rows.append(row)
    checked, notes = _lower_bound_checked(rows, m)
    verdict = (INCONCLUSIVE if any(a.unconverged for a in areas.values())
               else _verdict(rows, checked) if upper_ok else FAIL)
    return ExperimentReport(
        experiment_id="thm5-thm6-area-vs-tower", function=f.to_json(),
        parameters={"region": U.to_json(), "R_lower": R_lower,
                    "R_upper_initial": R_upper, "R_upper_final": R_up,
                    "upper_doublings": doublings, "m": m, "n_range": ns,
                    "grid": asdict(grid), "upper_witnessed": upper_ok},
        rows=rows, verdict=verdict,
        tolerances={"comparison": "exact tower order",
                    "quadrature_rel_tol": grid.rel_tol}, notes=notes)


def _checked_ns(m: int, n_range) -> list:
    """n_range sorted; a negative shift m, an empty n_range or an n < 1 in it
    is rejected."""
    if m < 0:
        raise ValueError(f"m={m} must be >= 0")
    if not n_range:
        raise ValueError("n_range must not be empty")
    ns = sorted(n_range)
    if ns[0] < 1:
        raise ValueError(f"n={ns[0]} in n_range must be >= 1")
    return ns


def _check_radii(**radii):
    """Reject each radius that is not positive, by its key."""
    for key, R in radii.items():
        if not R > 0.0:
            raise ValueError(f"{key}={R} must be positive")


def _lower_bound_row(n: int, log_lhs: float, levels, m: int) -> dict:
    """Row comparing e^log_lhs with levels[n - m]; vacuous when n < m."""
    lhs = TowerReal.from_log(log_lhs)
    if n < m:
        return _row(n, False, str(lhs), vacuous=True)
    rhs = levels[n - m].log()
    return _row(n, tower_compare(lhs, rhs) < 0, str(lhs), str(rhs),
                _tower_margin_log(lhs, rhs), vacuous=False)


def _lower_bound_checked(rows, m: int) -> tuple:
    """(checked, notes): whether some row had n >= m and so was compared."""
    if all(r["vacuous"] for r in rows):
        return False, [f"every n < m = {m}: no lower-bound row was checked"]
    return True, []


# ---------------------------------------------------------------------------
# growth scan (superexponential signature)


def run_thm1_growth_scan(f, U: ms.Region, N: int, starts: int,
                         seed: int = 0, grid: ms.GridSpec = None) -> ExperimentReport:
    """Probe for unbounded per-iterate growth of (1/n) log mu(U, f^n)."""
    if N < 2:
        raise ValueError(f"N={N} must be >= 2")
    if starts < 0:
        raise ValueError(f"starts={starts} must be >= 0")
    grid = grid or ms.GridSpec()
    notes = ["evidence-grade probe: density of chi = infinity points is "
             "not falsifiable at finite horizon"]
    seq = {}
    deepest = 1
    rows = []
    for n in range(2, N + 1):
        try:
            res = ms.mu_sup(f, U, n, grid)
        except ValueError:
            break
        seq[n] = res.log_mu / n
        deepest = n
        rows.append(_row(n, False, str(TowerReal.from_log(res.log_mu)), margin=seq[n],
                         per_n_log_mu=_clean(seq[n])))
    # finite-horizon upper Lyapunov statistics over sampled starts
    rng = np.random.default_rng(seed)
    chis = []
    for _ in range(starts):
        z0 = U.sample(rng)
        try:
            est = dy.lyapunov_estimate(f, z0, min(N + 10, 40))
            chis.append(est.upper)
        except (ValueError, fx.OrbitOverflow):
            continue
    max_chi = max(chis) if chis else None
    usable = 2 in seq and len(seq) >= 2
    signature = usable and seq[2] > 0 and any(v >= 2.0 * seq[2] for v in seq.values())
    if not usable and deepest < N:  # mu_sup stopped the scan
        notes.append(f"overflow-dominated; deepest usable n = {deepest}")
    elif not signature:
        notes.append(f"no doubling signature up to n = {deepest} (n = 2 value "
                     f"{seq[2]:.6g}); a finite scan cannot refute unbounded growth")
    return ExperimentReport(
        experiment_id="thm1-growth-scan", function=f.to_json(),
        parameters={"region": U.to_json(), "N": N, "starts": starts,
                    "seed": seed, "grid": asdict(grid),
                    "max_finite_horizon_chi": _clean(max_chi)
                    if max_chi is not None else None},
        rows=rows, verdict=_verdict(rows, signature),
        tolerances={"signature_factor": 2.0}, notes=notes)


# ---------------------------------------------------------------------------
# Mittag-Leffler scan: upper Lyapunov bound log(1 + rho)


def run_thm4_scan(f, N: int, starts: int, seed: int = 0) -> ExperimentReport:
    """Scan eta*E_alpha orbits for the log(1+rho) upper growth law.

    A scan that retained no orbit checked no growth chain, so it is
    Inconclusive even when a unit-disk tail fails.
    """
    if not isinstance(f, fx.MittagLeffler):
        raise ValueError("run_thm4_scan expects a MittagLeffler eta * E_alpha")
    if N < 1:
        raise ValueError(f"N={N} must be >= 1")
    if starts < 0:
        raise ValueError(f"starts={starts} must be >= 0")
    _check_unit_disk_contraction(f)
    rho = f.order
    C = fx.growth_constant(f.alpha)
    log_C = math.log(C)
    margin = 0.1
    rng = np.random.default_rng(seed)
    disk = ms.Region.disk(0j, 20.0)
    zs = np.array([disk.sample(rng) for _ in range(starts)], dtype=complex)
    orbits = dy.orbit_table(f, zs.real, zs.imag, N)
    cap = math.log(1.0 + rho) + margin
    rows = []
    retained = 0
    shrinking = 0
    for idx in range(starts):
        horizon = int(orbits.length[idx]) - 1
        t = orbits.log_mag[idx, :horizon + 1].tolist()
        d = orbits.log_deriv[idx, :horizon + 1].tolist()
        entered = next((k for k, tk in enumerate(t) if tk <= 0.0), None)
        if entered is not None:
            shrinking += 1
            if not _check_shrinking_tail(t, d, entered):
                rows.append(_row(idx, True, kind="unit-disk-tail"))
            continue
        if horizon < 3:
            continue
        retained += 1
        ok, worst_stat, events = _check_growth_chain(t, d, rho, log_C, margin)
        rows.append(_row(idx, not ok, f"E^0({_fmt(worst_stat)})", f"E^0({_fmt(cap)})",
                         cap - worst_stat, retained_horizon=horizon,
                         growth_cap_events=events, kind="retained"))
    return ExperimentReport(
        experiment_id="thm4-ml-upper-growth", function=f.to_json(),
        parameters={"N": N, "starts": starts, "seed": seed, "rho": rho,
                    "growth_constant": C, "retained": retained,
                    "unit_disk_orbits": shrinking},
        rows=rows, verdict=_verdict(rows, True) if retained else INCONCLUSIVE,
        tolerances={"loglog_margin": margin})


def _check_unit_disk_contraction(f) -> None:
    ring = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False))
    er, ei, dr, di = f.eval_arrays(ring.real, ring.imag)
    # written so a NaN (E_alpha past double range) fails, which Python's max would pass
    if not (np.hypot(er, ei).max() < 1.0 and np.hypot(dr, di).max() < 1.0):
        raise ValueError("eta fails the unit-disk contraction requirement")


def _check_shrinking_tail(t, d, entered: int) -> bool:
    """After entering the unit disk the derivative product must shrink; t and
    d are an orbit's log|z_k| and log|(f^k)'(z_0)| rows."""
    prev = None
    for n in range(max(entered, 1), len(t)):
        cur = dy.log_spherical(d[n], t[n])
        if prev is not None and cur > prev + 1e-9:
            return False
        prev = cur
    return True


def _check_growth_chain(t, d, rho, log_C, margin):
    """Partial-sum induction, per-event C^n branch, and loglog bound."""
    horizon = len(t) - 1
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
        log_sharp = dy.log_spherical(d[n], t[n])
        if t[n] > rho * partial[n - 1]:
            chain_alive = chain_alive and n < n0
            events += 1
            # any such event forces (f^n)^# <= C^n
            if log_sharp > n * log_C + 1e-9:
                ok = False
        elif chain_alive:
            if partial[n] > c0 * (1.0 + rho) ** n * (1.0 + 1e-12):
                ok = False
        if n >= 3 and log_sharp > 1.0:
            stat = math.log(log_sharp) / n
            worst_stat = max(worst_stat, stat)
            if stat > math.log(1.0 + rho) + margin:
                ok = False
    return ok, worst_stat, events


# ---------------------------------------------------------------------------
# slow-escape lower bound (log plane)


def run_thm3(lam: complex, x0: float, n_max: int, x0_tier_a: float = 1e6,
             n_tier_a: int = 10_000) -> ExperimentReport:
    """Two-tier slow-escape verification of the log(1 + lambda) lower bound."""
    if n_tier_a < 1:
        raise ValueError(f"n_tier_a={n_tier_a} must be >= 1")
    if not math.isfinite(x0_tier_a):
        raise ValueError(f"x0_tier_a={x0_tier_a} must be finite")
    if not x0_tier_a > lg.X0_FLOOR:
        raise ValueError(f"x0_tier_a={x0_tier_a} must exceed {lg.X0_FLOOR:.6f} (8*pi)")
    target = math.log(1.0 + 1.0)  # lambda(f) = 1 for the exponential family
    tol = 0.15
    rows = []
    # the first step: schedule_build rejects a bad x0 or a negative n_max by
    # name; tier b judges only its row n = n_max, so n_max < 2 judges none
    sched = lg.schedule_build(x0, n_max)
    if n_max < 2:
        raise ValueError(f"n_max={n_max} must be >= 2")
    sched_a = lg.schedule_build(x0_tier_a, n_tier_a)
    notes = [f"tier {tier} schedule invariant failures: " + "; ".join(s.invariant_failures)
             for tier, s in (("b", sched), ("a", sched_a)) if s.invariant_failures]
    constructed = False
    try:
        trace = lg.slow_orbit_construct(lam, sched)
        for n in range(2, n_max + 1):
            bound = lg.log_sph_deriv_from_logplane(trace, n)
            stat = math.log(bound) / n if bound > 1.0 else -math.inf
            ok = (n < n_max) or stat >= target - tol
            rows.append(_row(n, not ok, f"E^0({_fmt(stat)})", f"E^0({_fmt(target - tol)})",
                             stat - (target - tol), tier="b"))
        constructed = True
    except lg.ScheduleInfeasible as exc:
        notes.append(f"construction failed: {exc}; tier b is "
                     "unchecked, so the verdict is at best Inconclusive")
    # tier a: pure schedule arithmetic out to n_tier_a
    for n in sorted({n for n in (10, 100, 1000, n_tier_a) if n <= n_tier_a}):
        stat = lg.schedule_growth_statistic(sched_a, n)
        floor = target - 3.0 * math.log(n) / n
        rows.append(_row(n, not stat >= floor, f"E^0({_fmt(stat)})", f"E^0({_fmt(floor)})",
                         stat - floor, tier="a"))
    return ExperimentReport(
        experiment_id="thm3-slow-escape", function=fx.ExpAffine(lam).to_json(),
        parameters={"x0": x0, "n_max": n_max, "precision_bits": lg.PRECISION_BITS,
                    "x0_tier_a": x0_tier_a, "n_tier_a": n_tier_a},
        rows=rows, verdict=_verdict(rows, constructed),
        tolerances={"slope_tol": tol, "tier_a_slack": "3 log(n)/n"},
        notes=notes)


# ---------------------------------------------------------------------------
# classical inequalities


def classical_suite(seed: int = 0, samples: int = 10_000) -> ExperimentReport:
    """Koebe distortion/growth/quarter checks plus the Harnack bounds."""
    if samples < 1:
        raise ValueError(f"samples={samples} must be >= 1")
    rng = np.random.default_rng(seed)
    rows = []

    rho = rng.uniform(0.01, 0.99, samples)
    th = rng.uniform(0.0, 2.0 * math.pi, samples)
    z = rho * np.exp(1j * th)

    def record(name, ok, margin):
        rows.append(_row(name, not ok, margin=float(margin)))

    def bounded(name, v, lo, hi, eps=1e-12):
        record(name, bool(np.all((v >= lo * (1 - eps)) & (v <= hi * (1 + eps)))),
               np.min(np.minimum(v - lo, hi - v)))

    # (ka) growth and (kb) derivative bounds for the extremal map z/(1-z)^2
    g = z / (1.0 - z) ** 2
    gp = (1.0 + z) / (1.0 - z) ** 3
    ka_lo = rho / (1.0 + rho) ** 2
    ka_hi = rho / (1.0 - rho) ** 2
    kb_lo = (1.0 - rho) / (1.0 + rho) ** 3
    kb_hi = (1.0 + rho) / (1.0 - rho) ** 3
    bounded("ka-bounds", np.abs(g), ka_lo, ka_hi)
    bounded("kb-bounds", np.abs(gp), kb_lo, kb_hi)
    # equality at real z
    r_eq = 0.73
    gap = abs(abs((r_eq + 0j) / (1.0 - (r_eq + 0j)) ** 2) - r_eq / (1.0 - r_eq) ** 2)
    record("ka-equality-real-axis", gap <= 1e-9, 1e-9 - gap)
    gap_d = abs(abs((1.0 + (r_eq + 0j)) / (1.0 - (r_eq + 0j)) ** 3)
                - (1.0 + r_eq) / (1.0 - r_eq) ** 3)
    record("kb-equality-real-axis", gap_d <= 1e-9, 1e-9 - gap_d)
    # identity map sits strictly inside the bounds
    bounded("ka-identity", rho, ka_lo, ka_hi, eps=0.0)
    # g(z) = z/(1-z) holds with slack
    bounded("ka-half-plane-map", np.abs(z / (1.0 - z)), ka_lo, ka_hi)
    # (kc) quarter theorem on 360 rays: w with |w| < 1/4 has a preimage
    for name, inv in (("kc-koebe", _koebe_preimage),
                      ("kc-identity", lambda w: w),
                      ("kc-half-plane-map", lambda w: w / (1.0 + w))):
        phis = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
        radius = 0.25 * (1.0 - 1e-9)
        ok = True
        worst = math.inf
        for phi in phis:
            w = radius * complex(math.cos(phi), math.sin(phi))
            zz = inv(w)
            worst = min(worst, 1.0 - abs(zz))
            ok &= abs(zz) < 1.0
        record(name, ok, worst)
    har = lg.harnack_check(samples=samples, seed=seed)
    record("harnack", har["passed"], -har["axis_equality_gap"])
    return ExperimentReport(
        experiment_id="classical-inequalities",
        function={"variant": "suite"},
        parameters={"seed": seed, "samples": samples},
        rows=rows, verdict=_verdict(rows, True),
        tolerances={"equality": 1e-9, "bounds_rel": 1e-12})


def _koebe_preimage(w: complex) -> complex:
    # solve w z^2 - (2w+1) z + w = 0 for the root inside the unit disk
    if w == 0:
        return 0.0 + 0.0j
    b = 2.0 * w + 1.0
    disc = np.sqrt(b * b - 4.0 * w * w)
    r1 = (b - disc) / (2.0 * w)
    r2 = (b + disc) / (2.0 * w)
    return r1 if abs(r1) < abs(r2) else r2


# ---------------------------------------------------------------------------
# special-function battery


def run_specfun_check(seed: int = 0) -> ExperimentReport:
    """Identity and dual-route checks for the Mittag-Leffler evaluator."""
    from . import mittag as ml
    rng = np.random.default_rng(seed)
    rows = []

    def record(name, err, tol):
        rows.append(_row(name, not err <= tol, margin=float(tol - err),
                         error=_clean(float(err)), tol=tol))

    record("E1(1)-equals-e", abs(ml.ml_eval(1.0, 1.0)[0] - math.e) / math.e, 1e-12)

    zs = rng.uniform(-10, 10, 100) + 1j * rng.uniform(-10, 10, 100)
    zs = zs[np.abs(zs) <= 10.0]
    worst = 0.0
    for z in zs:
        z = complex(z)
        ref = np.cosh(np.sqrt(complex(z)))
        worst = max(worst, abs(ml.ml_eval(2.0, z)[0] - ref) / max(abs(ref), 1e-30))
    record("E2-vs-cosh-sqrt", worst, 1e-10)

    # series vs asymptotic agreement for alpha = 0.75 at |z| = 20; the
    # series reference runs in extended precision because the double
    # series loses ~23 digits to cancellation near the sector edge
    half_sector = 0.75 * math.pi / 2.0
    zs = [20.0 * complex(math.cos(th), math.sin(th))
          for th in np.linspace(-half_sector + 0.12, half_sector - 0.12, 41)]
    worst = 0.0
    for z, a in zip(zs, _ml_series_highprec(0.75, zs)):
        b = ml.ml_asymptotic(0.75, z)[0]
        worst = max(worst, abs(a - b) / max(abs(b), 1e-30))
    record("E0.75-series-vs-asymptotic", worst, 1e-4)

    worst = 0.0
    for x in np.linspace(50.0, 1000.0, 60):
        bound = 10.0 / x
        val = abs(ml.ml_eval(0.75, -x)[0])
        worst = max(worst, val / bound)
    record("E0.75-decay-bound", worst, 1.0)

    return ExperimentReport(
        experiment_id="specfun-check",
        function={"variant": "mittag_leffler_family"},
        parameters={"seed": seed},
        rows=rows, verdict=_verdict(rows, True),
        tolerances={"E1": 1e-12, "E2": 1e-10,
                    "series_vs_asymptotic": 1e-4, "decay": "10/x"})


def _ml_series_highprec(alpha: float, zs) -> list:
    """Power-series reference at each z in zs, summed exactly in integers.

    The coefficients 1/Gamma(alpha n + 1) come from mpmath at dps digits
    (alpha*n formed as an mpf product: in doubles its rounding error,
    scaled by the peak gamma term, wrecks the cancellation).  Each is kept
    as a P = 256-bit mantissa M_n and a shift s_n, c_n = M_n 2^-s_n; a
    fixed-point c_n would keep only ~11 digits by n ~ 100.  z^n is carried
    as a pair of ints with P fraction bits, each term is the exact product
    z^n M_n shifted down by s_n, and one correctly rounded int division
    turns the sum into a double.  So the errors are gamma's (~2^-200
    relative per coefficient) and one unit of 2^-P per shift, which z^n
    carries forward at most terms times: below ~2^-190 times the sum of
    c_n max(1, |z|)^n.  At the specfun points (alpha = 0.75, |z| = 20)
    that sum is ~5e23 and the value above 7e3, so 30 digits are exact,
    against the 17 a double needs.  Plain ints do each step in a few
    operations where mpc arithmetic wrapped every one in new objects; the
    doubles out are the same.

    Raises ValueError when a component of z is not a multiple of 2^-P,
    and when the last term is not below 2^-P of the largest (compared in
    the 1-norm), that is when terms is too few for the series to converge.
    """
    import mpmath as mp
    P, terms, dps = 256, 400, 60  # fraction bits, series terms, gamma's digits
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        coeffs = []
        for n in range(terms):
            _, man, exp, bc = mp.libmp.mpf_div(
                mp.libmp.fone, mp.gamma(a * n + 1)._mpf_, P, "n")
            coeffs.append((man << (P - bc), P - bc - exp))
    one = 1 << P
    out = []
    for z in zs:
        x, y, k = _dyadic(complex(z), P)
        pr, pi = one, 0                   # z^n, P fraction bits
        sr = si = peak = 0
        for m, s in coeffs:
            tr, ti = (pr * m) >> s, (pi * m) >> s
            sr += tr
            si += ti
            peak = max(peak, abs(tr) + abs(ti))
            # the P-bit fixed-point product by z, with z's exact numerators
            pr, pi = (pr * x - pi * y) >> k, (pr * y + pi * x) >> k
        if (abs(tr) + abs(ti)) << P >= peak:
            raise ValueError(f"series at z={z} has not converged in {terms} terms")
        out.append(complex(sr / one, si / one))
    return out


def _dyadic(z: complex, bits: int) -> tuple:
    """(x, y, k) with z = (x + iy) 2^-k exactly; ValueError if k > bits."""
    (x, dx), (y, dy) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    k = max(dx, dy).bit_length() - 1
    if k > bits:
        raise ValueError(f"z={z} is not a multiple of 2^-{bits}")
    return x * ((1 << k) // dx), y * ((1 << k) // dy), k
