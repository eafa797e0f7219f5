"""One benchmark pass in a fresh interpreter; prints one JSON line.

Set-up (interpreter start plus `import sphgrow.cli, sphgrow.experiments`)
ends at `t_ready`, a CLOCK_MONOTONIC reading run.py subtracts its spawn
time from.  With --setup-only the worker stops there.  Otherwise it runs
the workload's ops once, timed, then checks their outputs outside the
timed region.  With --trace 1 the pass runs under the tracer, which is
removed again before the checks.

Speed probe: the speed of a shared box swings by up to 1.5x for minutes at
a time, more than any run length averages out.  So the worker times a
fixed mix of interpreter work (`spin`, about 3 ms) 20 times right after
set-up and every 0.2 s during an untraced pass (from SIGALRM, its own time
taken off the pass), and reports `speed` = REF_SPIN_S / median spin.  A time
multiplied by its speed is in reference seconds: seconds on this box when
it runs at the reference speed.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR --trace 0|1
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import sphgrow.cli  # noqa: E402,F401  (part of the timed set-up)
import sphgrow.experiments  # noqa: E402,F401

T_READY = time.monotonic()

# spin()'s median on an idle 2-core Xeon; fixed, so that reference seconds
# compare across commits
REF_SPIN_S = 0.003


def spin() -> float:
    """Seconds for a fixed mix of interpreter work like sphgrow's cell
    bookkeeping: an integer loop, a sorted list of tuples, dict inserts."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i * i
    cells = [(i * 0.618 % 1.0, i, -i) for i in range(3000)]
    cells.sort(key=lambda c: -c[0])
    table = {}
    for i in range(3000):
        table[(i * 7919) % 100003] = i
    return time.perf_counter() - t0


SETUP_SPINS = [spin() for _ in range(20)]

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import mpmath  # noqa: E402
import numpy  # noqa: E402
from sphgrow import kernels  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


class SpeedProbe:
    """Samples `spin()` every `interval` seconds from SIGALRM; `spent` is
    the handler's own time, to be taken off the timed region."""

    def __init__(self, interval=0.2):
        self.interval = interval
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(spin())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)


def run_pass(ops, tracer):
    """Run every op once; returns (wall seconds, outputs, errors)."""
    outputs, errors = {}, {}

    def body():
        for op in ops:
            try:
                outputs[op.name] = op.run()
            except Exception:  # an op that raises is a failed op, not a crash
                errors[op.name] = traceback.format_exc()
                print(errors[op.name], file=sys.stderr)

    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            t0 = time.perf_counter()
            body()
            wall = time.perf_counter() - t0
        else:
            tracer.install()
            try:
                tracer.run(body)
            finally:
                tracer.restore()
            wall = tracer.wall
    return wall, outputs, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--untraced-wall", type=float, default=0.0,
                    help="untraced median wall in reference seconds, for "
                         "trace.overhead_s")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    setup_speed = REF_SPIN_S / statistics.median(SETUP_SPINS)
    if args.setup_only:
        print(json.dumps({"t_ready": T_READY, "setup_speed": setup_speed}))
        return 0

    build, seeded = workloads.WORKLOADS[args.workload]
    os.makedirs(args.out, exist_ok=True)
    ops = build(args.seed, args.out)
    tracer = tracing.Tracer() if args.trace else None
    cpu0 = time.process_time()
    if tracer is None:
        with SpeedProbe() as probe:
            wall, outputs, errors = run_pass(ops, None)
        wall -= probe.spent
        speed = REF_SPIN_S / statistics.median(probe.samples or SETUP_SPINS)
    else:  # no probe ticks inside traced spans; set-up speed stands in
        wall, outputs, errors = run_pass(ops, tracer)
        speed = setup_speed
    cpu = time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = {name: [err.strip().splitlines()[-1]] for name, err in errors.items()}
    digests = {}
    for op in ops:
        if op.name not in outputs:
            continue
        try:
            found, digests[op.name] = op.check(outputs[op.name], outputs)
        except Exception as exc:  # e.g. a report that cannot be read back
            found = [f"check raised {exc!r}"]
        if found:
            problems[op.name] = found
    leftover = tracing.find_wrappers()
    invariants = [f"wrapper left in place: {w}" for w in leftover]
    result = {"t_ready": T_READY, "setup_speed": setup_speed, "wall_s": wall,
              "speed": speed, "cpu_s": cpu, "peak_rss_mb": rss_mb,
              "ops": [op.name for op in ops], "seeded": seeded, "problems": problems,
              "digests": digests,
              "env": {"numpy": numpy.__version__, "mpmath": mpmath.__version__,
                      "using_numba": bool(kernels.USING_NUMBA)}}
    if tracer is not None:
        gap = tracer.wall - (tracer.total_self() + tracer.unattributed)
        if abs(gap) > 1e-6 * max(1.0, tracer.wall):
            invariants.append(f"self times + unattributed miss the wall by {gap!r} s")
        result["layers"] = tracing.layer_metrics(
            tracer, overhead_s=tracer.wall - args.untraced_wall / speed)
    result["invariants"] = invariants
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
