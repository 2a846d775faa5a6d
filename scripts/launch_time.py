"""Launch times of the CLI in fresh interpreters, for two source trees.

    python3 scripts/launch_time.py PARENT_SRC CHANGE_SRC [-n 30] [--json PATH]

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts.  Each
command of COMMANDS runs N times per tree as `python -m quadcone.cli ARGS`
(`import quadcone.cli` for the first), with stdout discarded, the trees
alternating launch by launch and the tree that goes first alternating round
by round.  One launch per command and tree comes first and is not counted:
it writes the bytecode cache that the counted launches read.  Under
PYTHONDONTWRITEBYTECODE=1 (as perfbench runs) nothing is cached and every
launch compiles the package; the script prints which mode ran.  For each
command and tree the script prints the median wall time, the median CPU
time of the child process (user + system, from `resource.RUSAGE_CHILDREN`),
and which of WATCHED were in `sys.modules` when the command returned (one
more launch that runs `quadcone.cli.main` and then looks).  BLAS and OpenMP
are pinned to one thread, as perfbench pins them.  With --json the figures
are also written to PATH.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

COMMANDS = {
    "import quadcone.cli": None,
    "classify --fixture m20": ["classify", "--fixture", "m20"],
    "decide --fixture m20": ["decide", "--fixture", "m20"],
    "verify --fixture m20": ["verify", "--fixture", "m20"],
    "slice --fixture slice_pi2_axis": ["slice", "--fixture", "slice_pi2_axis"],
}
# modules an n = 2 launch should not load
WATCHED = ("numpy", "dataclasses", "inspect")
PROBE = (
    "import contextlib, io, sys\n"
    "import quadcone.cli\n"
    "argv = {argv!r}\n"
    "if argv is not None:\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        quadcone.cli.main(argv)\n"
    "sys.stderr.write(' '.join(m for m in {watched!r} if m in sys.modules))\n"
)


def _env(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def _cmd(argv) -> list:
    if argv is None:
        return [sys.executable, "-c", "import quadcone.cli"]
    return [sys.executable, "-m", "quadcone.cli", *argv]


def launch(argv, env) -> tuple[float, float]:
    """(wall s, child CPU s) of one launch; the exit code is not checked (verify may exit 3)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    subprocess.run(_cmd(argv), env=env, stdout=subprocess.DEVNULL, check=False)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return wall, (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def loaded(argv, env) -> list:
    """The modules of WATCHED in sys.modules after the command returned."""
    proc = subprocess.run([sys.executable, "-c", PROBE.format(argv=argv, watched=WATCHED)], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stderr.split()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("-n", type=int, default=30, help="counted launches per command and tree")
    ap.add_argument("--json", default=None, help="also write the figures to this path")
    args = ap.parse_args()
    trees = {"parent": _env(args.parent_src), "change": _env(args.change_src)}
    for env in trees.values():
        for argv in COMMANDS.values():
            launch(argv, env)  # writes the bytecode cache, unless PYTHONDONTWRITEBYTECODE is set
    times = {(name, tree): [] for name in COMMANDS for tree in trees}
    for k in range(args.n):
        order = list(trees) if k % 2 == 0 else list(trees)[::-1]
        for name, argv in COMMANDS.items():
            for tree in order:
                times[name, tree].append(launch(argv, trees[tree]))
    cached = not os.environ.get("PYTHONDONTWRITEBYTECODE")
    out = {"launches": args.n, "python": sys.version.split()[0], "bytecode_cached": cached, "commands": {}}
    print("bytecode: " + ("cached" if cached else "compiled at every launch (PYTHONDONTWRITEBYTECODE)"))
    print(f"{'command':34s} {'tree':7s} {'wall s':>8s} {'cpu s':>8s}  loaded of {', '.join(WATCHED)}")
    for name, argv in COMMANDS.items():
        out["commands"][name] = {}
        for tree, env in trees.items():
            wall = statistics.median(t[0] for t in times[name, tree])
            cpu = statistics.median(t[1] for t in times[name, tree])
            mods = loaded(argv, env)
            out["commands"][name][tree] = {"wall_s_median": wall, "cpu_s_median": cpu, "loaded": mods}
            print(f"{name:34s} {tree:7s} {wall:8.4f} {cpu:8.4f}  {' '.join(mods) or '-'}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
