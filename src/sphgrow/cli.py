"""Command-line laboratory for the growth experiments.

Usage:
    sphgrow [--config FILE] [--seed N] [--out DIR] SUBCOMMAND

Subcommands: thm7, thm56, thm1scan, thm3, thm4scan, classical, render,
specfun-check.  Each writes report.json and rows.csv to --out (plus a
.ppm for render).  Reports are byte-identical across runs with the same
config and seed.

Config JSON schema (every key optional; the values shown are the
defaults; a key the CLI does not read is an error):
{
  "function": {"variant": "exp_affine", "lambda": [1.0, 0.0]},
  "thm7":     {"region": REGION, "R": 5.0, "m": 2, "n_min": 1, "n_max": 4,
               "grid": GRID},
  "thm56":    {"region": REGION, "R_lower": 5.0, "R_upper": 5.0, "m": 2,
               "n_min": 1, "n_max": 3, "grid": GRID},
  "thm1scan": {"region": REGION, "N": 5, "starts": 20, "grid": GRID},
  "thm3":     {"lambda": 1.0, "x0": 26.0, "n_max": 7, "precision_bits": 256,
               "x0_tier_a": 1e6, "n_tier_a": 10000},
  "thm4scan": {"alpha": 1.0, "eta": 0.1, "N": 25, "starts": 1000},
  "classical": {"samples": 10000},
  "render":   {"window": REGION, "resolution": 512, "R": 5.0,
               "l_max": 3, "n_max": 12}
}
REGION: {"kind": "disk", "center": [re, im], "radius": r}
     or {"kind": "rectangle", "center": [re, im],
         "half_width": w, "half_height": h}
GRID:   {"base_resolution": 32, "max_refinements": 8, "rel_tol": 1e-3}
Region centres and sizes must be finite, and sizes positive.  thm7 and
thm56 take either "n_range" (a list of n, e.g. [1, 2]) or n_min/n_max, not
both.  Without a region, thm7, thm56 and thm1scan use a disk of radius 0.5
around the fixed point of f that Newton's method finds from 1+i; when that
point is not repelling, they stop with an error that asks for a region.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import dynamics as dy
from . import experiments as ex
from . import functions as fx
from . import measures as ms
from . import render as rd

DEFAULT_FUNCTION = {"variant": "exp_affine", "lambda": [1.0, 0.0]}

# the keys each section reads; None marks a leaf, a dict a nested object,
# _REGION a region, whose keys depend on its kind.  The function object is
# checked against the JSON of the descriptor it parses to.
_REGION_KINDS = {kind: dict.fromkeys(("kind", "center", *sizes))
                 for kind, sizes in ms.Region.SIZES.items()}
_REGION = {key: None for keys in _REGION_KINDS.values() for key in keys}
_GRID = dict.fromkeys(field.name for field in dataclasses.fields(ms.GridSpec))
_N = dict.fromkeys(("n_range", "n_min", "n_max"))
CONFIG_KEYS = {
    "function": None,
    "thm7": {"region": _REGION, "R": None, "m": None, **_N, "grid": _GRID},
    "thm56": {"region": _REGION, "R_lower": None, "R_upper": None, "m": None, **_N,
              "grid": _GRID},
    "thm1scan": {"region": _REGION, "N": None, "starts": None, "grid": _GRID},
    "thm3": dict.fromkeys(("lambda", "x0", "n_max", "precision_bits", "x0_tier_a",
                           "n_tier_a")),
    "thm4scan": dict.fromkeys(("alpha", "eta", "N", "starts")),
    "classical": {"samples": None},
    "render": {"window": _REGION, "resolution": None, "R": None, "l_max": None,
               "n_max": None},
}


def _unknown_keys(obj: dict, known: dict, path: str = "") -> list:
    """Dotted paths of the keys in obj that nothing reads."""
    if not isinstance(obj, dict):
        raise ValueError(f"{path[:-1]}: expected a JSON object, not {obj!r}")
    out = []
    for key, value in obj.items():
        if key not in known:
            out.append(path + key)
        elif known[key] is _REGION:
            kind = value.get("kind") if isinstance(value, dict) else None
            keys = _REGION_KINDS.get(kind) if isinstance(kind, str) else None
            bad = _unknown_keys(value, keys or _REGION, f"{path}{key}.")
            if keys is None and not bad:
                raise ValueError(f"{path}{key}.kind: {kind!r} is not a region kind "
                                 f"({', '.join(_REGION_KINDS)})")
            out += bad
        elif known[key] is not None:
            out += _unknown_keys({} if value is None else value, known[key], f"{path}{key}.")
    return out


def _named(path: str, build):
    """build(), its ValueError named by the config path it reads."""
    try:
        return build()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _grid(section: dict, name: str) -> ms.GridSpec:
    obj = {"max_refinements": 8, **(section.get("grid") or {})}  # GridSpec's is 24
    return _named(f"{name}.grid", lambda: ms.GridSpec(**obj))


def _load_section(config: dict, name: str) -> dict:
    return dict(config.get(name) or {})


def _n_values(section: dict, name: str, n_max: int):
    """n_range as given, else n_min..n_max; the two forms exclude each other."""
    if "n_range" not in section:
        return range(section.get("n_min", 1), section.get("n_max", n_max) + 1)
    if "n_min" in section or "n_max" in section:
        raise ValueError(f"{name}: give n_range or n_min/n_max, not both")
    ns = section["n_range"]
    if not ns or not all(isinstance(n, int) for n in ns):
        raise ValueError(f"{name}.n_range must be a non-empty list of integers")
    return ns


def _resolve_region(section: dict, name: str, f) -> ms.Region:
    if "region" in section:
        return _named(f"{name}.region", lambda: ms.Region.from_json(section["region"]))
    # a disk around a repelling fixed point of f, which lies in J(f)
    p = dy.find_periodic_point(f, 1, complex(1.0, 1.0))
    if not abs(p.multiplier) > 1.0:
        raise ValueError(f"{name}.region: the default disk needs a repelling fixed point, "
                         f"but the one found at {p.location:.6g} has |multiplier| "
                         f"{abs(p.multiplier):.3g}; give a region that meets J(f)")
    return ms.Region.disk(p.location, 0.5)


def _write_outputs(report, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "wb") as fh:
        fh.write(report.to_json().encode("utf-8"))
    with open(os.path.join(out_dir, "rows.csv"), "wb") as fh:
        fh.write(report.rows_csv().encode("utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sphgrow",
        description="Numerical laboratory for spherical-derivative growth "
                    "of entire functions under iteration.")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all sampling (u64)")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("thm7", "thm56", "thm1scan", "thm3", "thm4scan",
                 "classical", "render", "specfun-check"):
        sub.add_parser(name)
    args = parser.parse_args(argv)

    config = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config: expected a JSON object, not {config!r}")
    function = config.get("function", DEFAULT_FUNCTION)
    f = _named("function", lambda: fx.descriptor_from_json(function))
    read = fx.descriptor_to_json(f)  # holds every key the variant reads
    unknown = _unknown_keys(config, CONFIG_KEYS) + [
        f"function.{key}" for key in function if key not in read]
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    seed = args.seed

    if args.command == "thm7":
        c = _load_section(config, "thm7")
        report = ex.run_thm7(
            f, _resolve_region(c, "thm7", f), c.get("R", 5.0), c.get("m", 2),
            _n_values(c, "thm7", 4),
            _grid(c, "thm7"))
    elif args.command == "thm56":
        c = _load_section(config, "thm56")
        report = ex.run_thm5_thm6(
            f, _resolve_region(c, "thm56", f), c.get("R_lower", 5.0),
            c.get("R_upper", 5.0), c.get("m", 2),
            _n_values(c, "thm56", 3),
            _grid(c, "thm56"))
    elif args.command == "thm1scan":
        c = _load_section(config, "thm1scan")
        report = ex.run_thm1_growth_scan(
            f, _resolve_region(c, "thm1scan", f), c.get("N", 5), c.get("starts", 20),
            seed=seed, grid=_grid(c, "thm1scan"))
    elif args.command == "thm3":
        c = _load_section(config, "thm3")
        report = ex.run_thm3(
            complex(c.get("lambda", 1.0)), c.get("x0", 26.0),
            c.get("n_max", 7), c.get("precision_bits", 256),
            x0_tier_a=c.get("x0_tier_a", 1e6),
            n_tier_a=c.get("n_tier_a", 10_000))
    elif args.command == "thm4scan":
        c = _load_section(config, "thm4scan")
        ml = fx.descriptor_from_json({"variant": "scaled_mittag_leffler",
                                      "alpha": c.get("alpha", 1.0),
                                      "eta": c.get("eta", 0.1)})
        report = ex.run_thm4_scan(ml, c.get("N", 25), c.get("starts", 1000),
                                  seed=seed)
    elif args.command == "classical":
        c = _load_section(config, "classical")
        report = ex.classical_suite(seed=seed, samples=c.get("samples", 10_000))
    elif args.command == "specfun-check":
        report = ex.run_specfun_check(seed=seed)
    elif args.command == "render":
        c = _load_section(config, "render")
        window = (_named("render.window", lambda: ms.Region.from_json(c["window"]))
                  if "window" in c else ms.Region.rectangle(complex(1.0, 0.0), 3.0, 3.0))
        os.makedirs(args.out, exist_ok=True)
        ppm = os.path.join(args.out, "escape.ppm")
        stats = rd.render_escape(
            f, window, c.get("resolution", 512), c.get("R", 5.0),
            c.get("l_max", 3), c.get("n_max", 12), ppm)
        report = ex.ExperimentReport(
            experiment_id="render-escape", function=fx.descriptor_to_json(f),
            parameters={k: v for k, v in stats.items() if k != "path"},
            rows=[], verdict=ex.PASS, tolerances={})
    else:  # pragma: no cover - argparse guards this
        raise ValueError(args.command)

    _write_outputs(report, args.out)
    print(f"{report.experiment_id}: {report.verdict} "
          f"(report.json, rows.csv in {args.out})")
    return 0 if report.verdict != ex.FAIL else 1


if __name__ == "__main__":
    sys.exit(main())
