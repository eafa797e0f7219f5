"""Command-line laboratory for the growth experiments.

Usage:
    sphgrow [--config FILE] [--seed N] [--out DIR] SUBCOMMAND

Subcommands: thm7, thm56, thm1scan, thm3, thm4scan, classical, render,
specfun-check.  Each writes report.json and rows.csv to --out (plus a
.ppm for render).  Reports are byte-identical across runs with the same
config and seed.  The exit code is 0 for Pass or Inconclusive, 1 for
Fail and 2 for a rejected input.

Config JSON schema (every key optional; the values shown are the
defaults and give each value's type; a key the CLI does not read is an
error):
{
  "function": {"variant": "exp_affine", "lambda": [1.0, 0.0]},
  "thm7":     {"region": REGION, "R": 5.0, "m": 2, "n_range": null,
               "n_min": 1, "n_max": 4, "grid": GRID},
  "thm56":    {"region": REGION, "R_lower": 5.0, "R_upper": 5.0, "m": 2,
               "n_range": null, "n_min": 1, "n_max": 3, "grid": GRID},
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
An integer default asks for an integer and a number default for a finite
number; thm4scan.eta may also be null (chosen from alpha), and
render.resolution [w, h].  Region centres and sizes must be finite, and
sizes positive.  thm7 and thm56 take either
"n_range" (a list of n, e.g. [1, 2]) or n_min/n_max, not both.  Without a
region, thm7, thm56 and thm1scan use a disk of radius 0.5 around the fixed
point of f that Newton's method finds from 1+i; when that point is not
repelling, they stop with an error that asks for a region.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import numbers
import os
import sys

from . import dynamics as dy
from . import experiments as ex
from . import functions as fx
from . import measures as ms
from . import render as rd

DEFAULT_FUNCTION = {"variant": "exp_affine", "lambda": [1.0, 0.0]}

# section -> {key: default}: _REGION marks a region (its keys depend on its kind),
# _GRID a GridSpec, None no default.  "function" is checked against its descriptor.
_REGION_KINDS = {kind: dict.fromkeys(("kind", "center", *sizes))
                 for kind, sizes in ms.Region.SIZES.items()}
_REGION = {key: None for keys in _REGION_KINDS.values() for key in keys}
_GRID = dict.fromkeys(field.name for field in dataclasses.fields(ms.GridSpec))
SECTIONS = {
    "thm7": {"region": _REGION, "R": 5.0, "m": 2, "n_range": None, "n_min": 1,
             "n_max": 4, "grid": _GRID},
    "thm56": {"region": _REGION, "R_lower": 5.0, "R_upper": 5.0, "m": 2,
              "n_range": None, "n_min": 1, "n_max": 3, "grid": _GRID},
    "thm1scan": {"region": _REGION, "N": 5, "starts": 20, "grid": _GRID},
    "thm3": {"lambda": 1.0, "x0": 26.0, "n_max": 7, "precision_bits": 256,
             "x0_tier_a": 1e6, "n_tier_a": 10_000},
    "thm4scan": {"alpha": 1.0, "eta": 0.1, "N": 25, "starts": 1000},
    "classical": {"samples": 10_000},
    "render": {"window": _REGION, "resolution": 512, "R": 5.0, "l_max": 3,
               "n_max": 12},
}
CONFIG_KEYS = {"function": None, **SECTIONS}


def _is_int(value) -> bool:
    return fx.is_number(value, numbers.Integral)


# what a value must be, by its path, else by its default's type
_RULES = {float: ("a number", fx.is_number), int: ("an integer", _is_int),
          "thm4scan.eta": ("a number or null", lambda v: v is None or fx.is_number(v)),
          "render.resolution": ("an integer or [w, h]", lambda v: _is_int(v) or (
              isinstance(v, list) and len(v) == 2 and all(map(_is_int, v))))}


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
        elif isinstance(known[key], dict):
            out += _unknown_keys({} if value is None else value, known[key], f"{path}{key}.")
    return out


def _named(path: str, build, error=ValueError):
    """build(), its error named by the config path it reads."""
    try:
        return build()
    except error as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _grid(given: dict, name: str) -> ms.GridSpec:
    obj = {"max_refinements": 8, **(given.get("grid") or {})}  # GridSpec's is 24
    return _named(f"{name}.grid", lambda: ms.GridSpec(**obj))


def _n_values(c: dict, given: dict, name: str):
    """n_range as given, else n_min..n_max; the two forms exclude each other."""
    if c["n_range"] is None:
        if c["n_min"] > c["n_max"]:
            raise ValueError(f"{name}: n_min={c['n_min']} must be <= n_max={c['n_max']}")
        return range(c["n_min"], c["n_max"] + 1)
    if "n_min" in given or "n_max" in given:
        raise ValueError(f"{name}: give n_range or n_min/n_max, not both")
    ns = c["n_range"]
    if not (isinstance(ns, list) and ns and all(map(_is_int, ns))):
        raise ValueError(f"{name}.n_range must be a non-empty list of integers")
    return ns


def _resolve_region(given: dict, name: str, f) -> ms.Region:
    if "region" in given:
        return _named(f"{name}.region", lambda: ms.Region.from_json(given["region"]))
    # a disk around a repelling fixed point of f, which lies in J(f)
    p = dy.find_periodic_point(f, 1, complex(1.0, 1.0))
    if not abs(p.multiplier) > 1.0:
        raise ValueError(f"{name}.region: the default disk needs a repelling fixed point, "
                         f"but the one found at {p.location:.6g} has |multiplier| "
                         f"{abs(p.multiplier):.3g}; give a region that meets J(f)")
    return ms.Region.disk(p.location, 0.5)


def _parse_args(argv):
    """The command line, parsed; the parser goes with this call's frame."""
    parser = argparse.ArgumentParser(
        prog="sphgrow", description="Numerical laboratory for spherical-derivative "
                                    "growth of entire functions under iteration.")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=0, help="seed for all sampling (u64)")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*SECTIONS, "specfun-check"):
        sub.add_parser(name)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)

    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except OSError as exc:
            raise ValueError(f"--config: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError(f"config: expected a JSON object, not {config!r}")
    function = config.get("function", DEFAULT_FUNCTION)
    f = _named("function", lambda: fx.descriptor_from_json(function))
    read = f.to_json()  # holds every key the variant reads
    unknown = _unknown_keys(config, CONFIG_KEYS) + [
        f"function.{key}" for key in function if key not in read]
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    for name, section in SECTIONS.items():
        for key, value in (config.get(name) or {}).items():
            rule = _RULES.get(f"{name}.{key}") or _RULES.get(type(section[key]))
            if rule and not rule[1](value):
                raise ValueError(f"{name}.{key} must be {rule[0]}, not {value!r}")
            if isinstance(value, float) and not math.isfinite(value):  # JSON's NaN, Infinity
                raise ValueError(f"{name}.{key} must be a finite number, not {value!r}")
    cmd, seed, given = args.command, args.seed, config.get(args.command) or {}
    c = {**SECTIONS.get(cmd, {}), **given}

    if cmd == "thm7":
        report = _named("thm7.R", lambda: ex.run_thm7(
            f, _resolve_region(given, cmd, f), c["R"], c["m"], _n_values(c, given, cmd),
            _grid(given, cmd)), fx.NonEscalatingError)
    elif cmd == "thm56":
        report = _named("thm56.R_lower", lambda: ex.run_thm5_thm6(
            f, _resolve_region(given, cmd, f), c["R_lower"], c["R_upper"], c["m"],
            _n_values(c, given, cmd), _grid(given, cmd)), fx.NonEscalatingError)
    elif cmd == "thm1scan":
        report = ex.run_thm1_growth_scan(f, _resolve_region(given, cmd, f), c["N"], c["starts"],
                                         seed=seed, grid=_grid(given, cmd))
    elif cmd == "thm3":
        report = ex.run_thm3(complex(c["lambda"]), c["x0"], c["n_max"], c["precision_bits"],
                             x0_tier_a=c["x0_tier_a"], n_tier_a=c["n_tier_a"])
    elif cmd == "thm4scan":
        ml = fx.descriptor_from_json({"variant": "scaled_mittag_leffler",
                                      "alpha": c["alpha"], "eta": c["eta"]})
        report = ex.run_thm4_scan(ml, c["N"], c["starts"], seed=seed)
    elif cmd == "classical":
        report = ex.classical_suite(seed=seed, samples=c["samples"])
    elif cmd == "specfun-check":
        report = ex.run_specfun_check(seed=seed)
    else:  # render; argparse allows no other command
        window = (_named("render.window", lambda: ms.Region.from_json(given["window"]))
                  if "window" in given else ms.Region.rectangle(complex(1.0, 0.0), 3.0, 3.0))
        os.makedirs(args.out, exist_ok=True)
        stats = _named("render.R", lambda: rd.render_escape(
            f, window, c["resolution"], c["R"], c["l_max"], c["n_max"],
            os.path.join(args.out, "escape.ppm")), fx.NonEscalatingError)
        report = ex.ExperimentReport(
            experiment_id="render-escape", function=f.to_json(),
            parameters={k: v for k, v in stats.items() if k != "path"},
            rows=[], verdict=ex.PASS, tolerances={})

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "report.json"), "wb") as fh:
        fh.write(report.to_json().encode("utf-8"))
    with open(os.path.join(args.out, "rows.csv"), "wb") as fh:
        fh.write(report.rows_csv().encode("utf-8"))
    print(f"{report.experiment_id}: {report.verdict} (report.json, rows.csv in {args.out})")
    return 0 if report.verdict != ex.FAIL else 1


def console(argv=None) -> int:
    """The sphgrow command: main, a rejected input reported on stderr, exit 2."""
    try:
        return main(argv)
    except ValueError as exc:
        print(f"sphgrow: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(console())
