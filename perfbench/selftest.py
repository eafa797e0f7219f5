"""Self-test of the benchmark's tracer and bookkeeping (a few seconds).

    python3 perfbench/selftest.py

Checks that:
1. `Tracer.install` wraps a function in every sphgrow namespace holding it
   (`experiments.tower_compare` as well as `towers.tower_compare`), and
   `Tracer.restore` puts back the very same objects, so an untraced pass
   carries no wrapper;
2. on a small traced thm7 run, self times plus trace.unattributed_s equal
   the traced wall, calls through an imported alias are counted, and an
   exception leaves the span stack balanced;
3. the names in BENCHMARK.json match what run.py and the tracer print.
Exits 1 and names the failed check otherwise.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from sphgrow import experiments as ex  # noqa: E402
from sphgrow import functions as fx  # noqa: E402
from sphgrow import measures as ms  # noqa: E402
from sphgrow import towers  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def namespaces():
    """id of every attribute of every sphgrow module, plus the traced method."""
    snap = {(m.__name__, k): id(v) for m in tracing._sphgrow_modules()
            for k, v in vars(m).items()}
    snap["from_log"] = id(towers.TowerReal.__dict__["from_log"])
    return snap


def main() -> int:
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)

    before = namespaces()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        expect(hasattr(ex.tower_compare, tracing.MARK), "experiments.tower_compare not wrapped")
        expect(hasattr(towers.tower_compare, tracing.MARK), "towers.tower_compare not wrapped")
        expect(hasattr(towers.TowerReal.from_log, tracing.MARK), "TowerReal.from_log not wrapped")
        expect(not hasattr(towers.TowerReal, tracing.MARK), "a class was wrapped")

        def body():
            ex.run_thm7(fx.ExpAffine(1.0), ms.Region.disk(0.318 + 1.337j, 0.5), 5.0, 2,
                        [1, 2], ms.GridSpec(max_refinements=2, rel_tol=1e-2))
            try:
                ms.mu_sup(fx.ExpAffine(1.0), ms.Region.disk(0j, 1.0), 0, ms.GridSpec())
            except ValueError:
                pass
            else:
                failures.append("mu_sup(n=0) did not raise through the wrapper")

        tracer.run(body)
        patched = len(tracer.patches)
    finally:
        tracer.restore()

    expect(namespaces() == before, "restore() did not put every original back")
    expect(tracing.find_wrappers() == [], "wrappers left after restore()")
    gap = tracer.wall - tracer.total_self() - tracer.unattributed
    expect(abs(gap) <= 1e-9 * max(tracer.wall, 1.0),
           f"self times + unattributed differ from the wall by {gap!r} s")
    expect(tracer.stats["experiments.run_thm7"].calls == 1, "run_thm7 not counted once")
    expect(tracer.stats["towers.tower_compare"].calls > 0, "tower_compare calls missed")
    expect(tracer.stats["measures.mu_sup"].calls == 3, "mu_sup calls miscounted")
    expect(all(st.depth == 0 for st in tracer.stats.values()), "unbalanced span stack")
    expect(tracer._stack == [], "root span left open")
    metrics = tracing.layer_metrics(tracer, overhead_s=0.0)
    expect(metrics["measures.mu_sup.kernel_frac"]["value"] > 0, "no kernel time under mu_sup")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expect([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
           == [(n, u, b) for n, u, b, _ in tracing.METRICS],
           "BENCHMARK.json per_layer differs from tracing.METRICS")
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
           == list(workloads.WORKLOADS), "workload names differ")

    for msg in failures:
        print(f"selftest FAILED: {msg}")
    if not failures:
        print(f"selftest ok: {patched} names patched and restored, "
              f"traced wall {tracer.wall:.3f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
