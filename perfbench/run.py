"""smoothfem benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload lshape-sfem8 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Passes run back to back in one process (a closed loop, one
client) until ``--seconds`` have elapsed, at least one pass.  Every pass is
checked against the recorded reference outputs.

--trace 0 reports the end-to-end metrics: the median pass time, set-up time
(median of fresh processes that import the package and build the workload's
configs) and the process's peak resident memory.  --trace 1 alternates
untraced and traced passes, reports the per-layer metrics of the traced ones
and the tracing overhead, and writes the spans to ``perfbench/out/``.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

SETUP_PROBES = 3

END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _per_layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("us_per_element"):
        return "us"
    if name.endswith(("_frac", "_ratio", "residual_rel")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def import_package():
    """Import smoothfem from this checkout's src/; exit 2 if it is not there."""
    if not (SRC / "smoothfem" / "__init__.py").is_file():
        print(f"error: no smoothfem package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import smoothfem

    if pathlib.Path(smoothfem.__file__).resolve().parent != SRC / "smoothfem":
        print(f"error: imported smoothfem from {smoothfem.__file__}", file=sys.stderr)
        sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument(
        "--setup-probe", action="store_true",
        help="import and set up only, print 'ready' and exit (times setup_s)",
    )
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def measure_setup(args):
    """Seconds from spawning a fresh process until its first pass could begin."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "1", "--trace", "0",
    ]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def run_passes(workload, seconds, tracer, null_tracer):
    """Run passes until `seconds` elapse; returns (pass_id, traced, seconds).

    Without a tracer every pass is untraced; with one, untraced and traced
    passes alternate, untraced first, and the run ends on a traced pass.
    """
    trace = tracer is not None
    reference = workload.reference()
    records = []  # (pass_id, traced, seconds or None on failure)
    start = time.perf_counter()
    pass_id = 0
    while True:
        traced = trace and pass_id % 2 == 1
        tr = tracer if traced else null_tracer
        gc.collect()
        try:
            t0 = time.perf_counter()
            with tr.run_pass(pass_id):
                outputs = workload.run_pass(tr)
            elapsed = time.perf_counter() - t0
            bad = workload.check(outputs, reference)
        except Exception:
            traceback.print_exc()
            elapsed, bad = None, ["raised"]
        if bad:
            print(f"pass {pass_id} failed the output check: {bad[:5]}", file=sys.stderr)
            elapsed = None
        records.append((pass_id, traced, elapsed))
        pass_id += 1
        done = time.perf_counter() - start >= seconds
        if done and (not trace or pass_id % 2 == 0):
            return records


def main(argv=None):
    args = parse_args(argv)
    import_package()
    sys.path.insert(0, str(HERE))
    import workloads
    import tracing

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    workload = workloads.setup(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    if not args.trace:
        setup_s = statistics.median(measure_setup(args) for _ in range(SETUP_PROBES))
    tracer = tracing.Tracer() if args.trace else None
    records = run_passes(workload, args.seconds, tracer, tracing.NULL_TRACER)
    attempted = len(records)
    failed = sum(1 for r in records if r[2] is None)
    untraced = [r[2] for r in records if not r[1] and r[2] is not None]
    pass_s = statistics.median(untraced) if untraced else None

    print(f"workload {args.workload} seed {args.seed}: {attempted} passes, "
          f"{failed} failed (failed_frac {failed / attempted:.3g})")
    print("  pass times (s): " + " ".join(
        "failed" if r[2] is None else f"{r[2]:.3f}{'T' if r[1] else ''}" for r in records))
    if args.trace:
        traced_ids = [r[0] for r in records if r[1] and r[2] is not None]
        metrics = {}
        if traced_ids and pass_s is not None:
            metrics, _ = tracing.layer_metrics(tracer, traced_ids)
            metrics["trace.overhead_frac"] = (metrics["trace.pass_s"] - pass_s) / pass_s
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        units = {k: _per_layer_unit(k) for k in metrics}
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        if pass_s is not None:
            metrics["pass_s"] = pass_s
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
