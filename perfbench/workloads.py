"""The four benchmark workloads: what one pass runs and how it is checked.

Every workload is fixed data.  One op is one experiment call; it fails when
it raises or when its output check finds a problem.  Ops that go through
the CLI also check the config echo: `report.json` `parameters` must equal
what the workload asked for, because the CLI silently ignores unknown keys.
The checks use the tolerances of the acceptance criteria the configs come
from (tests/test_acceptance.py).

Library calls go through module attributes (`ms.spherical_area`, ...) at
call time so the tracer's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os

from sphgrow import cli
from sphgrow import functions as fx
from sphgrow import measures as ms

FAIL, PASS = "Fail", "Pass"

# criterion 5: f = e^z, disk around the repelling fixed point
TOWER_REGION = {"kind": "disk", "center": [0.318, 1.337], "radius": 0.5}
TOWER_GRID = {"base_resolution": 32, "max_refinements": 24, "rel_tol": 1e-3}
TOWER_CONFIG = {
    "thm7": {"region": TOWER_REGION, "R": 5.0, "m": 2, "n_min": 1, "n_max": 4,
             "grid": TOWER_GRID},
    "thm56": {"region": TOWER_REGION, "R_lower": 5.0, "R_upper": 5.0, "m": 2,
              "n_min": 1, "n_max": 4, "grid": TOWER_GRID},
}
TOWER_ECHO = {"region": TOWER_REGION, "grid": TOWER_GRID, "n_range": [1, 2, 3, 4],
              "m": 2}

# CLI defaults equal the configs of criteria 6 (thm3), 7 (thm4scan) and 1
# (specfun-check); render runs at its 512x512 default
ORBIT_ECHO = {
    "thm3": lambda seed: {"x0": 26.0, "n_max": 7, "precision_bits": 256,
                          "x0_tier_a": 1e6, "n_tier_a": 10_000},
    "thm4scan": lambda seed: {"N": 25, "starts": 1000, "seed": seed},
    "render": lambda seed: {"pixels": 512 * 512},
    "specfun-check": lambda seed: {"seed": seed},
}

EXP = fx.ExpAffine(1.0)
SQUARE = fx.Polynomial((0, 0, 1))


@dataclasses.dataclass
class Op:
    name: str
    run: object      # () -> output
    check: object    # (output, outputs by op name) -> (problems, digest)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _value_digest(obj) -> str:
    return _sha(json.dumps(obj, sort_keys=True, default=repr).encode())


def _cli_op(sub, seed, out_dir, config_path, expect):
    op_dir = os.path.join(out_dir, sub)
    argv = ["--seed", str(seed), "--out", op_dir, sub]
    if config_path:
        argv = ["--config", config_path] + argv

    def check(rc, outs):
        with open(os.path.join(op_dir, "report.json"), "rb") as fh:
            blob = fh.read()
        report = json.loads(blob)
        params = report["parameters"]
        problems = [f"{sub}: parameters.{k} = {params.get(k)!r}, expected {v!r}"
                    for k, v in expect["params"].items() if params.get(k) != v]
        if report["verdict"] != expect["verdict"]:
            problems.append(f"{sub}: verdict {report['verdict']}, "
                            f"expected {expect['verdict']}")
        if rc != (1 if report["verdict"] == FAIL else 0):
            problems.append(f"{sub}: exit code {rc} for verdict {report['verdict']}")
        return problems, _sha(blob)

    return Op(sub, lambda: cli.main(argv), check)


def tower_bounds(seed, out_dir):
    """thm7 + thm56 at the criterion-5 config; both verdicts are Fail."""
    path = os.path.join(out_dir, "tower-config.json")
    with open(path, "w") as fh:
        json.dump(TOWER_CONFIG, fh)
    # criterion 5 fails honestly at desk scale: the Fail verdicts and
    # smallest working shift m = 4 are the expected output
    return [
        _cli_op("thm7", seed, out_dir, path,
                {"params": {**TOWER_ECHO, "smallest_working_m": 4}, "verdict": FAIL}),
        _cli_op("thm56", seed, out_dir, path,
                {"params": TOWER_ECHO, "verdict": FAIL}),
    ]


def characteristics(seed, out_dir):
    """Criterion 3: the characteristic sandwich at r = e, e^2, 10."""
    grid = ms.GridSpec(rel_tol=1e-2)

    def op(r):
        def check(out, outs):
            t_rel = abs(out["T"] - r / math.pi) / (r / math.pi)
            problems = []
            if not out["passed"]:
                problems.append(f"r={r:.4g}: sandwich failed")
            if not t_rel <= 1e-4:
                problems.append(f"r={r:.4g}: T rel err {t_rel:.2e} > 1e-4")
            return problems, _value_digest(out)
        return Op(f"sandwich-r{r:.4g}",
                  lambda: ms.characteristic_sandwich_check(EXP, r, grid), check)

    return [op(r) for r in (math.e, math.e ** 2, 10.0)]


def deep_area(seed, out_dir):
    """Criterion 4: S(D(0,1e6), z^2) = 2 and log S doubling on a rectangle."""
    grid = ms.GridSpec()
    rect = ms.Region.rectangle(1.0 + 0j, 0.25, 0.25)

    def disk_check(res, outs):
        problems = []
        if not abs(res.value - 2.0) <= 1e-2 or res.unconverged:
            problems.append(f"S(D(0,1e6)) = {res.value!r} (unconverged "
                            f"{res.unconverged}), expected 2 +- 1e-2")
        return problems, _value_digest(dataclasses.asdict(res))

    def rect_op(n):
        def check(res, outs):
            problems = []
            prev = outs.get(f"rect-n{n - 1}")
            if n > 6 and prev is not None:
                inc = res.log_value - prev.log_value
                if not abs(inc - math.log(2.0)) <= 0.1:
                    problems.append(f"log S increment n={n - 1}->{n} is "
                                    f"{inc:.4f}, expected log 2 +- 0.1")
            return problems, _value_digest(dataclasses.asdict(res))
        return Op(f"rect-n{n}", lambda: ms.spherical_area(SQUARE, rect, n, grid),
                  check)

    disk = Op("disk-1e6",
              lambda: ms.spherical_area(SQUARE, ms.Region.disk(0j, 1e6), 1, grid),
              disk_check)
    return [disk] + [rect_op(n) for n in range(6, 11)]


def orbits(seed, out_dir):
    """thm3, thm4scan, render, specfun-check at their CLI defaults."""
    return [_cli_op(sub, seed, out_dir, None,
                    {"params": ORBIT_ECHO[sub](seed), "verdict": PASS})
            for sub in ("thm3", "thm4scan", "render", "specfun-check")]


# name -> (function building the ops, whether the seed changes the inputs)
WORKLOADS = {
    "tower-bounds": (tower_bounds, False),
    "characteristics": (characteristics, False),
    "deep-area": (deep_area, False),
    "orbits": (orbits, True),
}
