"""Bit-exact lock on every function variant's pointwise and batch rules.

Each variant is built from its JSON form and probed on fixed points:
serialization, eval_f, derivative_f, log_eval, log_max_modulus, the
iterated max-modulus towers, logphi_batch, forward orbits, the fast-escape
test and a tiny render.  Floats are compared through float.hex, so any
change in the last bit fails.  The expected values live in
tests/golden/descriptors.json; regenerate them (only for a deliberate
change) with

    PYTHONPATH=src python tests/test_descriptors.py
"""

import ast
import hashlib
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from sphgrow import dynamics as dy
from sphgrow import functions as fx
from sphgrow import measures as ms
from sphgrow import render as rd

GOLDEN = pathlib.Path(__file__).parent / "golden" / "descriptors.json"
SRC = pathlib.Path(fx.__file__).parent

VARIANTS = {
    "square": {"variant": "polynomial", "coefficients": [[0, 0], [0, 0], [1, 0]]},
    "cubic": {"variant": "polynomial",
              "coefficients": [[1.0, 0.5], [-2.0, 0.0], [0.0, 0.0], [0.25, 0.0]]},
    "exp": {"variant": "exp_affine", "lambda": [1.0, 0.0]},
    "exp_complex": {"variant": "exp_affine", "lambda": [0.3, -0.2]},
    "cosh_sqrt": {"variant": "cosh_sqrt"},
    "ml_075": {"variant": "mittag_leffler", "alpha": 0.75},
    "ml_150": {"variant": "mittag_leffler", "alpha": 1.5},
    "eta_e1": {"variant": "scaled_mittag_leffler", "alpha": 1.0, "eta": 0.1},
    "eta_auto": {"variant": "scaled_mittag_leffler", "alpha": 0.5},
}

POINTS = [0.5 + 0.25j, -3.0 + 2.0j, 1.3 + 0.7j, 40.0 + 0.0j, -800.0 + 5.0j,
          800.0 + 0.0j, 1e200 + 0.0j]
LOG_POINTS = [(0.3, 1.0), (5.0, -2.0), (300.0, 0.0), (750.0, 0.5)]
RADII = [0.5, 2.0, 30.0, 1e4]
BATCH_X = [0.1, -0.5, 1.0, 2.5, 0.3, -1.2]
BATCH_Y = [0.2, 1.0, -1.5, 0.0, 3.0, -0.4]
ORBIT_STARTS = [0.5 + 0.5j, 3.0 + 1.0j, 0.5 + 0.0j]


def _h(x):
    return float(x).hex()


def _c(z):
    return [_h(z.real), _h(z.imag)]


def _probe(fn):
    """fn() with exceptions recorded by type (and payload for overflow)."""
    try:
        return fn()
    except fx.EvalOverflow as e:
        return {"raises": "EvalOverflow", "log_mag": _h(e.log_mag), "arg": _h(e.arg)}
    except (ArithmeticError, ValueError, fx.OrbitOverflow) as e:
        return {"raises": type(e).__name__}


def _towers(f, R, n_max):
    table = fx.iterated_max_modulus(f, R, n_max)
    return [[t.depth, _h(t.base)] for t in table.log_levels]


def _batch(f, n):
    lp = ms.logphi_batch(f, np.array(BATCH_X), np.array(BATCH_Y), n)
    return {"logphi": [_h(v) for v in lp], "status": [int(s) for s in np.isnan(lp)]}


def _orbit(f, z0):
    o = dy.iterate_orbit(f, z0, 8)
    return {"status": o.status, "escalated_at": o.escalated_at,
            "overflow_at": o.overflow_at,
            "prefix": [_h(v) for v in o.log_deriv_prefix],
            "log_mag": [_h(o.log_mag(k)) for k in range(o.length())]}


def _fast(f, z0):
    member, l, failures = dy.fast_escaping_test(f, z0, 20.0, 3, 5)
    return [member, l, sorted(failures.items())]


def _render(f, path):
    window = ms.Region.rectangle(0.5 + 0.5j, 2.0, 2.0)
    stats = rd.render_escape(f, window, 4, 20.0, 2, 5, str(path))
    digest = hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
    return {k: v for k, v in stats.items() if k != "path"} | {"ppm_sha256": digest}


def snapshot(obj, tmp_dir) -> dict:
    f = fx.descriptor_from_json(obj)
    out = {"json": json.dumps(f.to_json())}
    out["eval"] = [_probe(lambda z=z: _c(fx.eval_f(f, z))) for z in POINTS]
    out["derivative"] = [_probe(lambda z=z: _c(fx.derivative_f(f, z))) for z in POINTS]
    out["log_eval"] = [_probe(lambda p=p: [_h(v) for v in fx.log_eval(f, p)])
                       for p in LOG_POINTS]
    out["log_max_modulus"] = [_probe(lambda r=r: _h(fx.log_max_modulus(f, r)))
                              for r in RADII]
    out["towers"] = [_probe(lambda R=R: _towers(f, R, 5)) for R in (5.0, 20.0)]
    out["logphi_batch"] = [_batch(f, n) for n in (1, 3)]
    out["orbits"] = [_probe(lambda z=z: _orbit(f, z)) for z in ORBIT_STARTS]
    out["fast_escape"] = [_probe(lambda z=z: _fast(f, z)) for z in (10.0, 0.5 + 0.5j)]
    out["render"] = _probe(lambda: _render(f, pathlib.Path(tmp_dir) / "lock.ppm"))
    return out


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_variant_rules_bit_exact(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    got = json.loads(json.dumps(snapshot(VARIANTS[name], tmp_path)))
    for key in expected:
        assert got[key] == expected[key], f"{name}: {key} moved"
    assert set(got) == set(expected)


def _descriptor_type_checks(path: pathlib.Path) -> list:
    """Lines of isinstance calls that name a descriptor class."""
    classes = {cls.__name__ for cls in vars(fx).values()
               if isinstance(cls, type) and issubclass(cls, fx.Descriptor)}
    hits = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            names = {getattr(n, "attr", getattr(n, "id", None))
                     for arg in node.args[1:] for n in ast.walk(arg)}
            if names & classes:
                hits.append(node.lineno)
    return hits


@pytest.mark.parametrize("module", ["dynamics", "measures", "render", "cli",
                                    "logplane", "kernels", "mittag", "towers"])
def test_no_variant_dispatch_outside_functions(module):
    # each variant's rules live on its class in functions.py; other modules
    # ask the descriptor instead of testing its type
    assert _descriptor_type_checks(SRC / f"{module}.py") == []


def _region_field_reads(path: pathlib.Path) -> list:
    """(field, how) for each attribute read of a Region field in path; how is
    "refusal" for a `.kind != "rectangle"` test and "read" otherwise."""
    tree = ast.parse(path.read_text())
    refusals = {id(node.left) for node in ast.walk(tree) if isinstance(node, ast.Compare)
                and [type(op) for op in node.ops] == [ast.NotEq]
                and getattr(node.comparators[0], "value", None) == "rectangle"}
    return [(node.attr, "refusal" if id(node) in refusals else "read")
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and node.attr in ("kind", "radius", "half_width", "half_height")]


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")
                                          if p.stem != "measures"))
def test_no_region_rules_outside_region(module):
    # a region's JSON form, box, membership and sampling rule live on
    # measures.Region; render may only refuse a window that is not a rectangle
    want = [("kind", "refusal")] if module == "render" else []
    assert _region_field_reads(SRC / f"{module}.py") == want


STATUS_CODES = {"STATUS_OK", "STATUS_OVERFLOW"}


def _status_code_names(path: pathlib.Path) -> list:
    """Lines of path that name a kernel status code, as a name, an attribute
    or an import."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if STATUS_CODES & {getattr(node, key, None) for key in ("id", "attr", "name")}]


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")
                                          if p.stem != "kernels"))
def test_no_status_codes_above_the_kernels(module):
    # above the kernels a NaN marks an orbit or value that left double range
    # and -inf a point off U; only the kernels still return status codes
    assert _status_code_names(SRC / f"{module}.py") == []


ROW_FORMAT_OWNERS = {"_row", "_verdict", "rows_csv", "violating_rows"}


def _row_key_literals(path: pathlib.Path) -> list:
    """(function, line) of each "violates" or "margin_log" string literal in
    path that no function of ROW_FORMAT_OWNERS holds; function is the
    innermost enclosing one, or None at module level."""
    hits = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Constant) and node.value in ("violates", "margin_log")
                and owner not in ROW_FORMAT_OWNERS):
            hits.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text()), None)
    return hits


def test_row_format_has_one_owner():
    # experiments._row writes every report row and experiments._verdict
    # reads them; a runner that spells a row key itself has its own format
    hits = {path.stem: found for path in sorted(SRC.glob("*.py"))
            if (found := _row_key_literals(path))}
    assert hits == {}


def _unreached_public_functions() -> list:
    """Public functions and methods of the library that no library module,
    perfbench file or acceptance test names.  A method counts as named only
    through attribute access (`.area`), so a local variable or a function of
    the same name does not hide it."""
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined.setdefault((node.name, id(node) in methods), f"{path.stem}.{node.name}")
    root = pathlib.Path(__file__).parents[1]
    callers = [*SRC.glob("*.py"), *(root / "perfbench").glob("*.py"),
               root / "tests" / "test_acceptance.py"]
    attrs, names = set(), set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            attrs.add(getattr(node, "attr", None))
            names.add(getattr(node, "id", None))
    return sorted(where for (name, method), where in defined.items()
                  if name not in attrs and (method or name not in names))


def test_every_public_function_has_a_caller():
    # a function only its own unit test calls checks nothing the CLI,
    # the experiments or the benchmark reports
    assert _unreached_public_functions() == []


def test_benchmark_tracer_selftest_passes():
    # the benchmark's tracer wraps library functions by name, so renaming or
    # deleting one must leave its own self-test passing
    selftest = pathlib.Path(__file__).parents[1] / "perfbench" / "selftest.py"
    done = subprocess.run([sys.executable, str(selftest)], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = {name: snapshot(obj, tmp) for name, obj in sorted(VARIANTS.items())}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
