"""surfbraid benchmark: one closed-loop client, one process, no threads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see ``workloads.py`` for the operation lists):

* ``lattice_scan``    make_bieberbach + torsion_scan over small (n, g, bound);
* ``flat_invariants`` what ``surfbraid invariants`` does, dim 4 to 64;
* ``word_session``    single library calls of a user session at n = 32;
* ``cli_readme``      one ``python -m surfbraid.cli`` subprocess per README command.

``--trace 0`` sets up several times (compile, import, input generation,
warm-up), reports the median as ``setup_s``, then runs whole passes over
the operation list until ``--seconds`` have elapsed and the workload's
minimum pass count is reached, timing each operation and checking its
output.  It reports ``ops_per_s`` (operations over their summed
latencies), ``op_p50_ms``, ``op_tail_ms`` (the highest percentile with at
least ten samples beyond it; percentile and sample count are printed next
to it), ``setup_s`` and ``peak_rss_mb`` (this process, or the largest child
for ``cli_readme``).  Operations that raise or fail their check count in
``failed``; ``fail_ratio`` = failed / attempted is printed as well.

Every end-to-end time is in reference seconds: the wall time of the
operation (or set-up) times 1 ms over the mean time of a fixed calibration
kernel run just before and just after it.  The kernel is the benchmark's
own reference model (:func:`oracle.mul`, which never imports surfbraid),
sized to take about 1 ms on an uncontended core of a 2-vCPU cloud VM with
Python 3.11.  On shared hosts the same process runs up to 1.8 times slower
for a minute or more at a time, and the kernel slows with it, so the
scaled times measure the program rather than its neighbours.  The unscaled
wall-time figures and the kernel's median time are printed as ``#`` lines.

``--trace 1`` sets up once, times the CLI start-up costs, runs one pass
untraced and the same pass traced (the README commands run in-process
through ``cli.main`` for ``cli_readme``), and reports per-layer counts and
self times (wall time; ``trace.overhead_ratio`` compares scaled rates);
it writes the spans to ``bench/out/``.

The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import ROOT, SRC, Op  # noqa: E402

SETUP_REPEATS = 15
CLI_REPEATS = 5
OUT_DIR = Path(__file__).resolve().parent / "out"


def tail(samples):
    """Value at the highest percentile with at least ten samples beyond it:
    returns (value, percentile, sample count)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"need at least 11 samples for the tail, got {n}")
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def import_package():
    """Import surfbraid from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "surfbraid" or m.startswith("surfbraid.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("surfbraid")
    importlib.import_module("surfbraid.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "surfbraid":
        raise ImportError(f"surfbraid imported from {pkg.__file__}, not from {SRC}")
    return pkg


# Calibration kernel: CAL_PRODUCTS products of two fixed n = 4 elements in
# the reference model; one sample is the fastest of CAL_REPEATS runs, so a
# single interrupt does not set it.
CAL_X = ((3, 1, 4, 2), ((1, -2), (0, 3), (2, 2), (-1, 0)))
CAL_Y = ((2, 4, 1, 3), ((0, 1), (1, 1), (-3, 0), (2, -1)))
CAL_PRODUCTS = 200
CAL_REPEATS = 3
CAL_EVERY_S = 0.1
REFERENCE_S = 1e-3


def kernel_seconds():
    best = math.inf
    for _ in range(CAL_REPEATS):
        x = CAL_X
        t0 = perf_counter()
        for _ in range(CAL_PRODUCTS):
            x = oracle.mul(x, CAL_Y, (0, 0))
        best = min(best, perf_counter() - t0)
    return best


class Timeline:
    """Wall-clock latencies with calibration samples between them, one at
    least every ``every`` seconds, so each latency has a sample taken just
    before it and one taken just after it."""

    def __init__(self, every=CAL_EVERY_S):
        self.every = every
        self.cal = []
        self.lat = []
        self.before = []        # index in ``cal`` of the sample before each latency
        self.calibrate()

    def calibrate(self):
        self.cal.append(kernel_seconds())
        self.last = perf_counter()

    def add(self, dt):
        self.lat.append(dt)
        self.before.append(len(self.cal) - 1)
        if perf_counter() - self.last >= self.every:
            self.calibrate()

    def scaled(self):
        """Latencies in reference seconds: each wall time times REFERENCE_S
        over the mean of the calibration samples around it."""
        if self.before and self.before[-1] == len(self.cal) - 1:
            self.calibrate()
        return [dt * 2 * REFERENCE_S / (self.cal[j] + self.cal[j + 1])
                for dt, j in zip(self.lat, self.before)]


def run_op(op: Op):
    """Time one call; returns (seconds, ok).  Errors and wrong outputs fail."""
    t0 = perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # an operation that raises counts as failed
        dt = perf_counter() - t0
        print(f"# {op.kind} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return dt, False
    dt = perf_counter() - t0
    try:
        ok = bool(op.check(result))
    except Exception as exc:  # a malformed result fails its check
        print(f"# {op.kind} check raised {type(exc).__name__}: {exc}", file=sys.stderr)
        ok = False
    if not ok:
        print(f"# {op.kind} returned a wrong result", file=sys.stderr)
    return dt, ok


def settle_heap():
    """Collect the garbage of earlier set-ups and move every surviving object
    into the permanent generation, so that collections during the timed
    operations scan only what the operations themselves allocate, not the
    benchmark's stored inputs."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def setup(workload, seed):
    settle_heap()
    t0 = perf_counter()
    compileall.compile_dir(str(SRC / "surfbraid"), quiet=1)
    import_package()
    ops, warm = workloads.WORKLOADS[workload](seed)
    for op in warm:  # a failure here also shows in the timed passes
        run_op(op)
    return perf_counter() - t0, ops


def timed_pass(ops, timeline, tracer=None):
    """One pass over ``ops``, latencies added to ``timeline``; returns the
    number of operations that failed."""
    failed = 0
    for op_id, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = op_id
        dt, ok = run_op(op)
        timeline.add(dt)
        failed += not ok
    return failed


def run_passes(ops, seconds, min_passes, opening=0):
    """Whole passes until ``seconds`` have elapsed and ``min_passes`` are
    done; the first ``opening`` operations run in the first pass only."""
    timeline, failed, passes = Timeline(), 0, 0
    t_end = perf_counter() + seconds
    while passes < min_passes or perf_counter() < t_end:
        failed += timed_pass(ops[opening:] if passes else ops, timeline)
        passes += 1
    return timeline, failed, passes


def metric(value, unit):
    return {"value": value, "unit": unit}


def latency_metrics(lat, setup_times, rss_mb):
    tail_s, pct, count = tail(lat)
    return {
        "ops_per_s": metric(len(lat) / sum(lat), "1/s"),
        "op_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": metric(tail_s * 1e3, "ms"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }, pct, count


def end_to_end(args):
    setups = Timeline(every=0)
    for _ in range(SETUP_REPEATS):
        dt, ops = setup(args.workload, args.seed)
        setups.add(dt)
    settle_heap()
    opening = workloads.OPENING.get(args.workload, 0)
    timeline, failed, passes = run_passes(ops, args.seconds, workloads.MIN_PASSES[args.workload], opening)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_readme" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024
    lat = timeline.scaled()
    metrics, pct, count = latency_metrics(lat, setups.scaled(), rss_mb)
    wall, _, _ = latency_metrics(timeline.lat, setups.lat, rss_mb)
    print(f"# workload={args.workload} seed={args.seed} passes={passes} "
          f"ops_per_pass={len(ops) - opening} opening_ops={opening}")
    print(f"# op_tail_ms is p{pct:.2f} of {count} samples")
    print(f"# fail_ratio {failed / len(lat):.6f} ({failed} of {len(lat)})")
    print(f"# calibration kernel: median {statistics.median(timeline.cal) * 1e3:.4f} ms "
          f"over {len(timeline.cal)} samples (reference {REFERENCE_S * 1e3:g} ms)")
    for name, m in wall.items():
        if m["unit"] != "MB":
            print(f"# unscaled wall time {name} = {m['value']} {m['unit']}")
    return len(lat), failed, metrics


IMPORT_PROBE = ("import time; t = time.perf_counter(); import surfbraid.cli; "
                "print(time.perf_counter() - t)")


def cli_costs():
    """Medians of: a bare ``python -c pass``; ``import surfbraid.cli`` timed
    inside a child, which is the import cost on top of the bare start; and
    one in-process ``cli.main`` pass over the README commands (stdout
    captured)."""
    env = workloads.child_env()
    starts, imports, mains = [], [], []
    for _ in range(CLI_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True, timeout=60)
        starts.append(perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env, check=True,
                             timeout=60, capture_output=True, text=True).stdout
        imports.append(float(out))
    for _ in range(3):
        ops = workloads.cli_inprocess(0)
        t0 = perf_counter()
        for op in ops:
            op.call()
        mains.append(perf_counter() - t0)
    return statistics.median(starts), statistics.median(imports), statistics.median(mains)


# (span, counter, amount per call) for counts that need a call's arguments
# or result; intmatrix.mul_adds is computed from the matrix shapes.
ARGUMENT_COUNTS = (
    ("words.normalize", "words.letters_normalized", lambda args, result: len(args[1].letters)),
    ("words.check_relations", "words.relations_checked", lambda args, result: result.checked),
    ("bieberbach.BieberbachDescriptor.torsion_scan", "bieberbach.elements_scanned",
     lambda args, result: result.scanned),
    ("intmatrix.IntMatrix.__mul__", "intmatrix.mul_adds",
     lambda args, result: args[0].nrows * args[0].ncols * args[1].ncols),
)
OBSERVERS = {span: (counter, amount) for span, counter, amount in ARGUMENT_COUNTS}
SPAN_COUNTS = {
    "permutations.constructed": "permutations.Permutation.__init__",
    "core.elements_constructed": "core.Element.__init__",
    "core.mul_calls": "core.Element.__mul__",
    "core.pow_calls": "core.Element.__pow__",
    "torsion.order_calls": "torsion.order",
    "intmatrix.matmul_calls": "intmatrix.IntMatrix.__mul__",
    "intmatrix.char_poly_calls": "intmatrix.IntMatrix.char_poly",
    "nonorientable.mixed_mul_calls": "nonorientable.MixedElement.__mul__",
}


def layer_metrics(tr: tracing.Tracer):
    summary = tr.summary()
    by_name = summary["by_name"]
    metrics = {}
    for layer, rec in summary["layers"].items():
        metrics[f"{layer}.calls"] = metric(rec["calls"], "count")
        metrics[f"{layer}.self_s"] = metric(rec["self_s"], "s")
    for key, name in SPAN_COUNTS.items():
        metrics[key] = metric(by_name.get(name, {}).get("calls", 0), "count")
    for _, key, _ in ARGUMENT_COUNTS:
        metrics[key] = metric(tr.counters[key], "count")
    scanned = tr.counters["bieberbach.elements_scanned"]
    scan_products = tr.calls_within("core.Element.__mul__", "bieberbach.BieberbachDescriptor.torsion_scan")
    metrics["bieberbach.products_per_scanned"] = metric(scan_products / scanned if scanned else 0.0, "ratio")
    reports = by_name.get("invariants.invariant_report", {}).get("calls", 0)
    report_matmuls = tr.calls_within("intmatrix.IntMatrix.__mul__", "invariants.invariant_report")
    metrics["invariants.matmul_per_report"] = metric(report_matmuls / reports if reports else 0.0, "ratio")
    return metrics, summary


def traced(args):
    _, ops = setup(args.workload, args.seed)
    interp_s, import_s, main_s = cli_costs()
    if args.workload == "cli_readme":
        ops = workloads.cli_inprocess(args.seed)
    settle_heap()
    plain = Timeline()
    plain_failed = timed_pass(ops, plain)
    plain_lat = plain.scaled()
    traced_run = Timeline()
    tr = tracing.Tracer()
    tr.install(OBSERVERS)
    try:
        traced_failed = timed_pass(ops, traced_run, tr)
    finally:
        tr.uninstall()
    traced_lat = traced_run.scaled()
    plain_ops_s = len(plain_lat) / sum(plain_lat)
    traced_ops_s = len(traced_lat) / sum(traced_lat)
    metrics, summary = layer_metrics(tr)
    metrics["cli.interp_start_s"] = metric(interp_s, "s")
    metrics["cli.import_s"] = metric(import_s, "s")
    metrics["cli.main_s"] = metric(main_s, "s")
    metrics["trace.overhead_ratio"] = metric(traced_ops_s / plain_ops_s, "ratio")
    path = tr.write(OUT_DIR, f"trace_{args.workload}", {
        "workload": args.workload, "seed": args.seed, "ops": len(ops),
        "untraced_ops_per_s": plain_ops_s, "traced_ops_per_s": traced_ops_s,
        "layers": summary["layers"], "by_name": summary["by_name"],
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "computed": ["intmatrix.mul_adds: rows x inner x cols of each IntMatrix product"],
    })
    print(f"# workload={args.workload} seed={args.seed} ops={len(ops)} spans={len(tr)} -> {path}")
    print(f"# trace.overhead_ratio = traced {traced_ops_s:.3f} ops/s / untraced {plain_ops_s:.3f} ops/s")
    print("# intmatrix.mul_adds is computed from matrix shapes, not counted")
    return 2 * len(ops), plain_failed + traced_failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "surfbraid" / "__init__.py").is_file():
        print(f"bench: no surfbraid sources under {SRC}", file=sys.stderr)
        return 2
    attempted, failed, metrics = (traced if args.trace else end_to_end)(args)
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    ok = failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
