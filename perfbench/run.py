"""sphgrow benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout that holds `src/sphgrow`.  This parent
process starts one fresh worker process per pass (perfbench/worker.py),
strictly one after another: a single client in a closed loop, BLAS and
OpenMP threads pinned to 1.  It runs MIN_PASSES passes, then starts another
only while that one is expected to end within S seconds of the start, and
reports medians:

    wall_s       wall time of one pass after set-up; cold lru_caches stay
                 inside, because a CLI user pays them on every invocation
    setup_s      interpreter start plus `import sphgrow.cli, sphgrow.experiments`,
                 over every worker start in the run (at least MIN_SETUPS,
                 topped up with set-up-only workers)
    peak_rss_mb  peak resident set of a worker

Both times are in reference seconds: each is multiplied by the speed the
worker's probe measured around it (see perfbench/worker.py), because this
box's speed drifts by up to 1.5x for minutes at a time.  The raw seconds
and speeds are in the info line.

With --trace 1 one more pass runs under the tracer (perfbench/tracing.py)
and the per-layer metrics are printed instead, in plain seconds of that
pass; trace.overhead_s is its wall minus the untraced median at its speed.
Every op's output is checked (see perfbench/workloads.py).  The line before
the result holds the environment stamp, per-op sha256 digests (information,
not a gate) and the raw samples.  The last line is the result: {"correct",
"attempted", "failed", "metrics"}, where `attempted` counts ops (one op is
one experiment call) and `failed` the ops that raised or failed their check.

Self-test of the tracer: python3 perfbench/selftest.py
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("tower-bounds", "characteristics", "deep-area", "orbits")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_PASSES = 2
MIN_SETUPS = 9
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def spawn(args, env, started):
    """Run one worker; returns (parsed last stdout line, set-up seconds)."""
    budget = DEADLINE_S - (time.monotonic() - started)
    if budget <= 0:
        raise BenchError("out of time before the next worker")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {args} printed nothing:\n{proc.stderr}")
    out = json.loads(lines[-1])
    return out, out["t_ready"] - t_spawn


def env_stamp(worker_env_info):
    stamp = {"python": platform.python_version(), **worker_env_info,
             "nproc": os.cpu_count(),
             "affinity": len(os.sched_getaffinity(0)),
             "thread_env": {k: "1" for k in THREAD_VARS},
             "git_sha": None, "git_dirty": None,
             "src_lines": src_line_count()}
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                                 capture_output=True, text=True, timeout=30)
            dirty = subprocess.run(["git", "status", "--porcelain", "-uno"], cwd=ROOT,
                                   env=git_env, capture_output=True, text=True,
                                   timeout=30)
        except subprocess.TimeoutExpired:
            return stamp
        if sha.returncode == 0:
            stamp["git_sha"] = sha.stdout.strip()
            stamp["git_dirty"] = bool(dirty.stdout.strip())
    return stamp


def src_line_count():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sphgrow", "cli.py")):
        print(f"perfbench: no sphgrow sources under {ROOT}/src", file=sys.stderr)
        return 2

    started = time.monotonic()
    env = worker_env()
    os.makedirs(OUT_ROOT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=OUT_ROOT)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    passes, setups, spans = [], [], []
    try:
        while len(passes) < MIN_PASSES or (
                time.monotonic() - started + statistics.median(spans) <= args.seconds):
            out_dir = os.path.join(run_dir, f"pass{len(passes)}")
            t0 = time.monotonic()
            out, setup = spawn(common + ["--out", out_dir, "--trace", "0"], env, started)
            spans.append(time.monotonic() - t0)
            passes.append(out)
            setups.append((setup, out["setup_speed"]))
        while len(setups) < MIN_SETUPS:
            out, setup = spawn(["--setup-only"], env, started)
            setups.append((setup, out["setup_speed"]))
        wall = statistics.median(p["wall_s"] * p["speed"] for p in passes)
        traced = None
        if args.trace:
            traced, _ = spawn(common + ["--out", os.path.join(run_dir, "traced"),
                                        "--trace", "1", "--untraced-wall", repr(wall)],
                              env, started)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(OUT_ROOT)
        except OSError:
            pass

    checked = passes + ([traced] if traced else [])
    attempted = sum(len(p["ops"]) for p in checked)
    failed = sum(len(p["problems"]) for p in checked)
    invariants = sorted({msg for p in checked for msg in p["invariants"]})
    digests = {}
    for p in checked:
        for name, d in p["digests"].items():
            digests.setdefault(name, set()).add(d)
    info = {"workload": args.workload, "seed": args.seed,
            "seed_changes_inputs": passes[0]["seeded"],
            "passes": len(passes), "pass_wall_s": [p["wall_s"] for p in passes],
            "pass_cpu_s": [p["cpu_s"] for p in passes],
            "pass_speed": [p["speed"] for p in passes],
            "setup_s_samples": [s for s, _ in setups],
            "setup_speed": [v for _, v in setups],
            "peak_rss_mb_samples": [p["peak_rss_mb"] for p in passes],
            "problems": {k: v for p in checked for k, v in p["problems"].items()},
            "invariants": invariants,
            "digests": {k: sorted(v) for k, v in digests.items()},
            "digests_stable": all(len(v) == 1 for v in digests.values()),
            "env": env_stamp(passes[0]["env"])}
    if traced:
        metrics = traced["layers"]
    else:
        values = {"wall_s": wall, "setup_s": statistics.median(s * v for s, v in setups),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    print("perfbench: " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not invariants,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
