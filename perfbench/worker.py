"""Runs one workload in this process and prints its raw results as JSON.

One client, closed loop: each op starts when the previous one returns.  An
op is one call of quadcone.cli.main(argv) with the spec on stdin and the
report captured from stdout, then checked against the recorded truth.

The workload's inputs form a fixed pass; passes repeat as long as another
one fits in --seconds, and only whole passes count, so failure counts and
per-op work counts are exact functions of the seed.  run.py starts this
file in a process of its own; see README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WARMUP_OPS = 12


def _import_program():
    sys.path.insert(0, SRC)
    import quadcone.cli

    if not os.path.abspath(quadcone.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported quadcone from {quadcone.cli.__file__}, not from {SRC}")
    return quadcone


def run_op(quadcone, op):
    """(CPU seconds, exit code, parsed report, escaped exception) of one CLI call.

    The time is the calling thread's CPU time: ops are single-threaded and
    do no I/O, so it is their service time, without the preemption by other
    processes that wall-clock time on a shared machine picks up.
    """
    out = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(op.spec or "")
    code = exc = None
    try:
        t0 = time.thread_time()
        with contextlib.redirect_stdout(out):
            try:
                code = quadcone.cli.main(list(op.argv))
            except Exception as err:  # an escaped exception is a failure cause, not a crash
                exc = err
        dt = time.thread_time() - t0
    finally:
        sys.stdin = saved_stdin
    try:
        report = json.loads(out.getvalue())
    except json.JSONDecodeError:
        report = None
    return dt, code, report, exc


def run_passes(quadcone, ops, seconds: float, on_op=None):
    """Whole passes over ops for at most `seconds`, and at least one pass.

    Returns a dict: per input its CPU times ("raw_s") and its times at
    reference speed ("ref_s", see calibrate.py), the first pass's failures
    by input, the failure count over all passes, the pass count, and the
    wall and CPU seconds the passes took.
    """
    import calibrate
    import check

    speed = calibrate.SpeedLog()
    runs = []
    failures = {}
    failed = passes = 0
    start, cpu_start = time.perf_counter(), time.process_time()
    # stop before a pass that would end after `seconds`, judged by the mean pass so far
    while passes == 0 or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        for i, op in enumerate(ops):
            seq = passes * len(ops) + i
            if on_op is not None:
                on_op(seq)
            dt, code, report, exc = run_op(quadcone, op)
            speed.after_op(seq, dt)
            runs.append((i, seq, dt))
            bad = check.check(op, code, report, exc)
            if bad is not None:
                failed += 1
                if passes == 0:
                    failures[i] = bad
        passes += 1
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    raw = [[] for _ in ops]
    ref = [[] for _ in ops]
    for i, seq, dt in runs:
        raw[i].append(dt)
        ref[i].append(dt * speed.scale(seq))
    return {"raw_s": raw, "ref_s": ref, "failures": failures, "failed": failed,
            "passes": passes, "wall_s": wall, "cpu_s": cpu, "reference_samples": len(speed.cost)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="where the traced run writes its spans")
    ap.add_argument("--census", action="store_true", help="inputs over the full defect-showing scale range")
    args = ap.parse_args(argv)

    quadcone = _import_program()
    import numpy as np

    import tracing
    import workloads

    u_range = workloads.CENSUS_U_RANGE if args.census else workloads.U_RANGE
    ops = workloads.WORKLOADS[args.workload](args.seed, u_range)
    for op in ops[:WARMUP_OPS]:
        run_op(quadcone, op)

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_per_pass": len(ops),
        "classes": [op.cls for op in ops],
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }
    if args.trace:
        # an untraced pass over the first quarter of the inputs: the baseline of the tracing overhead
        untraced = run_passes(quadcone, ops[: len(ops) // 4], 0.0)["ref_s"]
        out["untraced_ref_s"] = untraced + [[] for _ in ops[len(untraced):]]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            res = run_passes(quadcone, ops, args.seconds, on_op=lambda k: setattr(tracer, "op", k))
        finally:
            tracer.uninstall()
        op_class = {k: ops[k % len(ops)].cls for k in range(res["passes"] * len(ops))}
        out["layers"] = tracing.layer_metrics(tracer.spans, op_class, res["passes"])
        out["span_count"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    else:
        res = run_passes(quadcone, ops, args.seconds)
    res["failures"] = {str(i): list(bad) for i, bad in res["failures"].items()}
    out.update(res)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
