"""In-process CPU times of the jump-demo point pipeline, for two source trees.

    python3 scripts/kernel_time.py PARENT_SRC CHANGE_SRC [-n 40] [--json PATH]

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts.  One
interpreter per tree imports quadcone from it and runs the calls of CALLS
one at a time on request, N times each on seeds 0..N-1 after one uncounted
warm-up round, timed by its thread CPU time.  The trees alternate call by
call, and which goes first alternates round by round, so a drift of the
machine's speed reaches both alike.  BLAS and OpenMP run on one thread, as
in perfbench.  Prints the best and median ms per call and tree and the
change's best over the parent's; --json also writes them to PATH.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from launch_time import _env  # scripts/, beside this file: the tree on PYTHONPATH, BLAS on one thread

CALLS = ("sample_points(example_m(), s, 10_000)", "jump_demo(s, 10_000)", "jump-demo --samples 10000 --seed s")
CHILD = (
    "import contextlib, io, sys, time\n"
    "from quadcone.cli import main\n"
    "from quadcone.decider import jump_demo\n"
    "from quadcone.fixtures import example_m\n"
    "from quadcone.quadform import sample_points\n"
    "RUN = (lambda s: sample_points(example_m(), s, 10_000), lambda s: jump_demo(s, 10_000),\n"
    "       lambda s: main(['jump-demo', '--samples', '10000', '--seed', str(s)]))\n"
    "for line in sys.stdin:\n"
    "    call, s = map(int, line.split())\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        t0 = time.thread_time(); RUN[call](s); dt = time.thread_time() - t0\n"
    "    print(dt, flush=True)\n"
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("-n", type=int, default=40, help="counted calls per call kind and tree")
    ap.add_argument("--json", default=None, help="also write the figures to this path")
    args = ap.parse_args()
    procs = {tree: subprocess.Popen([sys.executable, "-c", CHILD], env=_env(src), text=True,
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
    print(f"{'call':40s} {'tree':7s} {'best ms':>8s} {'median ms':>10s}")
    for call, name in enumerate(CALLS):
        figs = out["ms"][name] = {tree: {"best": min(ms[call, tree]), "median": statistics.median(ms[call, tree])}
                                  for tree in procs}
        for tree, fig in figs.items():
            print(f"{name:40s} {tree:7s} {fig['best']:8.3f} {fig['median']:10.3f}")
        print(f"{'':40s} change/parent best {figs['change']['best'] / figs['parent']['best']:.3f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
