"""In-process CPU times of the jump-demo point pipeline and of the n >= 3 slice op, for two source trees.

    python3 scripts/kernel_time.py PARENT_SRC CHANGE_SRC [-n 40] [--json PATH]

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts.  One
interpreter per tree imports quadcone from it and runs the calls of CALLS
one at a time on request, N times each on seeds 0..N-1 after one uncounted
warm-up round, timed by its thread CPU time.  A jump-demo call is one call
at seed s.  A slice call runs over the one-sided inputs of perfbench's
nd_slice workload at seed s (this checkout's `perfbench/workloads.py`, so
both trees read the same specs), each input timed on its own and the
inputs' times summed, and counts as their mean: `parse_spec` of the spec,
`find_good_slice` of a cone parsed before the clock starts (so no
signature is kept from an earlier call), and `main(["slice", "-"])` with
the spec on stdin.  The trees alternate call by call, and which goes first
alternates round by round, so a drift of the machine's speed reaches both
alike.  BLAS and OpenMP run on one thread, as in perfbench.  Prints the
best and median ms per call and tree and the change's best over the
parent's; --json also writes them to PATH.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from launch_time import _env  # scripts/, beside this file: the tree on PYTHONPATH, BLAS on one thread

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
CALLS = (
    "sample_points(example_m(), s, 10_000)",
    "jump_demo(s, 10_000)",
    "jump-demo --samples 10000 --seed s",
    "parse_spec, nd_slice seed s one-sided",
    "find_good_slice, nd_slice seed s one-sided",
    "slice -, nd_slice seed s one-sided",
)
CHILD = """\
import contextlib, io, sys, time
sys.path.insert(0, {perfbench!r})
import workloads
from quadcone.cli import main, parse_spec
from quadcone.decider import jump_demo
from quadcone.fixtures import example_m
from quadcone.quadform import sample_points
from quadcone.slicer import find_good_slice
clock = time.thread_time
specs = {{}}


def timed(f, *args):
    t0 = clock(); f(*args); return clock() - t0


def one_sided(s):
    if s not in specs:
        specs[s] = [op.spec for op in workloads.nd_slice(s) if op.cls == "slice_onesided"]
    return specs[s]


def slice_op(spec):
    sys.stdin = io.StringIO(spec)
    return timed(main, ["slice", "-"])


RUN = (
    lambda s: timed(sample_points, example_m(), s, 10_000),
    lambda s: timed(jump_demo, s, 10_000),
    lambda s: timed(main, ["jump-demo", "--samples", "10000", "--seed", str(s)]),
    lambda s: sum(timed(parse_spec, spec) for spec in one_sided(s)) / len(one_sided(s)),
    lambda s: sum(timed(find_good_slice, parse_spec(spec).cone) for spec in one_sided(s)) / len(one_sided(s)),
    lambda s: sum(slice_op(spec) for spec in one_sided(s)) / len(one_sided(s)),
)
for line in sys.stdin:
    call, s = map(int, line.split())
    with contextlib.redirect_stdout(io.StringIO()):
        dt = RUN[call](s)
    print(dt, flush=True)
"""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("-n", type=int, default=40, help="counted calls per call kind and tree")
    ap.add_argument("--json", default=None, help="also write the figures to this path")
    args = ap.parse_args()
    child = CHILD.format(perfbench=PERFBENCH)
    procs = {tree: subprocess.Popen([sys.executable, "-c", child], env=_env(src), text=True,
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE)
             for tree, src in (("parent", args.parent_src), ("change", args.change_src))}
    ms = {(call, tree): [] for call in range(len(CALLS)) for tree in procs}
    for k in range(-1, args.n):  # k = -1: the warm-up round, not counted
        for call in range(len(CALLS)):
            for tree in list(procs)[:: 1 if k % 2 == 0 else -1]:
                print(call, max(k, 0), file=procs[tree].stdin, flush=True)
                t = 1e3 * float(procs[tree].stdout.readline())
                ms[call, tree] += [t] if k >= 0 else []
    for proc in procs.values():
        proc.communicate()
    out = {"calls": args.n, "python": sys.version.split()[0], "clock": "thread CPU", "ms": {}}
    print(f"{'call':44s} {'tree':7s} {'best ms':>8s} {'median ms':>10s}")
    for call, name in enumerate(CALLS):
        figs = out["ms"][name] = {tree: {"best": min(ms[call, tree]), "median": statistics.median(ms[call, tree])}
                                  for tree in procs}
        for tree, fig in figs.items():
            print(f"{name:44s} {tree:7s} {fig['best']:8.3f} {fig['median']:10.3f}")
        print(f"{'':44s} change/parent best {figs['change']['best'] / figs['parent']['best']:.3f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
