"""End-to-end benchmark of the quadcone command line.

    python3 perfbench/run.py --workload planar_decide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload planar_decide --seed 1 --census

Run from the repository root.  Prints every metric by name with its unit,
the correctness result and the failures by cause, then, as the last line,
one JSON object {"correct", "attempted", "failed", "metrics"}.  --trace 0
gives the end-to-end metrics, --trace 1 the per-layer ones from a traced
run.  --census runs one untimed pass over inputs scaled across 1e-20..1e20,
where the program has known defects, and prints the failures by cause.
The workloads, metrics and their meaning are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKER_TIMEOUT_S = 170
SETUP_LAUNCHES = 11

# Latency classes behind op_ms_* and heavy_ms_p50, per workload.
CLASSES = {
    "planar_decide": {"op": ("decide_onesided", "decide_twosided"), "heavy": ("decide_twosided",)},
    "witness_sampling": {"op": ("verify",), "heavy": ("jump",)},
    "nd_slice": {"op": ("slice_onesided",), "heavy": ("slice_twosided",)},
}
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0)
# Wrong answers the program gives at the commit that introduced this
# benchmark, in the census range (see README.md, "Failure census"); any
# other wrong answer or an escaped exception makes the run incorrect.
# Non-zero exits on valid inputs are failures, counted in `failed`.
KNOWN_WRONG_ANSWERS = {
    ("nd_slice", "wrong_verdict", "two-sided product cone given a one-sided slice"),
}
def child_env() -> dict:
    """This process's environment with BLAS and OpenMP pinned to one thread."""
    env = dict(os.environ)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONPATH"] = SRC
    return env


def measure_setup(env) -> tuple[list[float], list[float]]:
    """Launch-to-return seconds of `import quadcone.cli` in fresh interpreters.

    Returns the wall times and the same times at reference speed, scaled by
    the median of reference work run in this process between the launches.
    """
    import calibrate

    cmd = [sys.executable, "-c", "import quadcone.cli"]
    wall, cal = [], []
    for k in range(SETUP_LAUNCHES + 1):
        cal.append(calibrate.measure())
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
        # wait() without a timeout blocks in waitpid; a timeout would poll in 50 ms steps
        guard = threading.Timer(60.0, proc.kill)
        guard.start()
        try:
            code = proc.wait()
        finally:
            guard.cancel()
        dt = time.perf_counter() - t0
        if code != 0:
            raise SystemExit(f"import quadcone.cli failed with exit code {code}")
        if k > 0:  # the first launch also compiles bytecode
            wall.append(dt)
    cal.append(calibrate.measure())
    scale = calibrate.REF_S / statistics.median(cal)
    return wall, [w * scale for w in wall]


def run_worker(args, env) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.census:
        cmd.append("--census")
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.tsv.gz")]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    v = sorted(values)
    return v[max(0, math.ceil(p / 100.0 * len(v)) - 1)]


def per_input_ms(res, classes, key="ref_s") -> list[float]:
    """Median latency over the passes of each verified input of the given classes, in ms."""
    return [1e3 * statistics.median(t) for i, (t, c) in enumerate(zip(res[key], res["classes"]))
            if c in classes and str(i) not in res["failures"]]


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with ten samples beyond it."""
    for p in TAIL_LADDER:
        if len(values) * (1.0 - p / 100.0) >= 10:
            return p, percentile(values, p)
    return 50.0, statistics.median(values)


def end_to_end(res, setup) -> tuple[dict, list[str]]:
    cls = CLASSES[res["workload"]]
    n_pass = res["ops_per_pass"]
    op = per_input_ms(res, cls["op"])
    heavy = per_input_ms(res, cls["heavy"])
    p_tail, v_tail = tail(op)
    m = {
        "setup_s": statistics.median(setup[1]),
        # per pass, from each input's median time: verified ops per second of service time
        "verified_ops_per_s": (n_pass - len(res["failures"]))
        / sum(statistics.median(t) for t in res["ref_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "op_ms_p50": statistics.median(op),
        "op_ms_tail": v_tail,
        "heavy_ms_p50": statistics.median(heavy),
    }
    notes = [
        f"setup_s: median of {len(setup[1])} launches; wall s: " + " ".join(f"{s:.4f}" for s in setup[0]),
        f"raw CPU ms: op p50 {statistics.median(per_input_ms(res, cls['op'], 'raw_s')):.4f}, "
        f"heavy p50 {statistics.median(per_input_ms(res, cls['heavy'], 'raw_s')):.4f}; "
        f"{res['reference_samples']} reference samples",
        f"op_ms_*: classes {'+'.join(cls['op'])}, {len(op)} verified inputs, tail = p{p_tail:g} "
        f"({sum(1 for v in op if v > v_tail)} inputs beyond it)",
        f"heavy_ms_p50: classes {'+'.join(cls['heavy'])}, {len(heavy)} verified inputs",
        f"latency of an input: median of its {res['passes']} passes",
    ]
    return m, notes


def traced(res) -> dict:
    """Per-layer metrics, and the traced over the untraced p50 of the main class.

    The untraced pass covers the first quarter of the inputs; both sides of
    the ratio are taken over those inputs.
    """
    cls = CLASSES[res["workload"]]["op"]
    base = [(t, u) for i, (t, u, c) in enumerate(zip(res["ref_s"], res["untraced_ref_s"], res["classes"]))
            if u and c in cls and str(i) not in res["failures"]]
    m = dict(res["layers"])
    m["trace.overhead_ratio"] = (statistics.median(statistics.median(t) for t, _ in base)
                                 / statistics.median(statistics.median(u) for _, u in base))
    return m


def census_lines(res) -> tuple[bool, list[str]]:
    counts = {}
    for bad in res["failures"].values():
        counts[tuple(bad)] = counts.get(tuple(bad), 0) + 1
    correct = True
    lines = []
    for (cause, detail), k in sorted(counts.items(), key=lambda kv: -kv[1]):
        known = cause == "exit_code" or (res["workload"], cause, detail) in KNOWN_WRONG_ANSWERS
        correct = correct and known
        lines.append(f"  {k:4d}  {cause:13s} {detail}{'' if known else '   <-- NEW WRONG ANSWER'}")
    return correct, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(CLASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--census", action="store_true", help="one untimed pass over 1e-20..1e20 scales")
    args = ap.parse_args(argv)
    if args.census:
        args.seconds, args.trace = 0, 0
    elif args.seconds is None:
        ap.error("--seconds is required")
    if not os.path.isfile(os.path.join(SRC, "quadcone", "cli.py")):
        sys.stderr.write(f"no quadcone sources under {SRC}\n")
        return 2

    env = child_env()
    if args.census:
        res = run_worker(args, env)
        correct, census = census_lines(res)
        print(f"census {args.workload}  seed {args.seed}: {len(res['failures'])} of "
              f"{res['ops_per_pass']} inputs failed, correct {correct}")
        for line in census:
            print(line)
        return 0
    setup = None if args.trace else measure_setup(env)
    res = run_worker(args, env)
    if args.trace:
        metrics, notes = traced(res), [f"spans recorded: {res['span_count']}"]
    else:
        metrics, notes = end_to_end(res, setup)
    correct, census = census_lines(res)
    attempted = res["passes"] * res["ops_per_pass"]
    failed = res["failed"]
    if failed != res["passes"] * len(res["failures"]):
        correct = False
        notes.append("failures differ between passes of the same inputs")

    e = res["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {e['python']}  numpy {e['numpy']}  nproc {e['nproc']}  threads {e['threads']}")
    print(f"passes {res['passes']} x {res['ops_per_pass']} ops in {res['wall_s']:.2f} s wall, "
          f"{res['cpu_s']:.2f} s CPU")
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise SystemExit(f"metrics {sorted(metrics)} do not match {SPEC}: {sorted(units)}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    for line in notes:
        print(f"  # {line}")
    print(f"correct {correct}: {len(res['failures'])} of {res['ops_per_pass']} inputs failed per pass")
    for line in census:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
