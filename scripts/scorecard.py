"""Count right and wrong verdicts on hard inputs whose verdict is known by construction.

    python3 scripts/scorecard.py [SRC]

Runs `quadcone.cli.main` in-process, from the `src` directory SRC (default:
this checkout's), with each input's spec on stdin, and prints one row per
class: the number of inputs, the right answers, the exit-0 answers with the
wrong verdict, exits 2, 3 and 5, and everything else (another exit code, or
an exception that escapes `main`).

The classes sit on or near the stratum boundaries and at the parameter
spreads that perfbench's workloads keep clear of:

- planar classes, each a normal form of `perfbench/workloads.py` pulled back
  with `pull_back(S, H, random_gl(2, default_rng(s)), 1.0, 1)` for s = 0..4
  and run as `decide -`.  An answer is right when it exits 0 with
  `planar_verdict`'s outcome and side:
  - M11_1 with A = 2 + d, B = 2; with A = 0.5 + d, B = 0.5; and with
    A = 1 + d and A = 1 - d, B = 0.5, on either side of A = 1; for
    d = 10^-4..10^-14;
  - M11_2 with A = d + i for d = 10^-4..10^-14, near det P = 0 (there
    det P = Re(A)^2), and two-sided;
  - M20 with A = 10^k, B = 0.5; M10_1 with A = 10^k; and M11_1 with
    A = 10^k, B = A/2; for k = 1..15;
  - the `UnclassifiedBoundary` stratum S = [[1, i], [i, 0]],
    H = [[0, i/2], [-i/2, 0]], which contains the complex line {z1 = 0}
    and so is two-sided;
- the n = 2 fixtures of `quadcone.fixtures` (the table's rows of
  PLANAR_FIXTURES), each with S and H times 2^k for k = +-300, +-600 and
  +-1000, run as `decide -` with the row's `planar_verdict` as the truth.
  Beyond 2^+-500 (`quadform.PRESCALE_BAND`) they read prescaled
  signatures;
- one n = 3 class, run as given with `slice -`: S = [[A, 0, 0],
  [0, 0.5, A], [0, A, 0]], H = I, A = 10^k for k = 1..17.  Its axis plane
  restricts it to the one-sided M20 (A, 0.5), so an answer is right when it
  exits 0 with a slice.

The inputs depend on numpy and `perfbench/workloads.py` only, never on the
quadcone package, so every source tree is scored on the same specs.
`scripts/compare_reports.py` compares the reports of these inputs, and
`tests/test_scorecard.py` holds the counts to a ratchet.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import sys
from collections import Counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTCOMES = ("right", "exit 0 wrong", "exit 2", "exit 3", "exit 5", "other")
SEEDS = range(5)
SLICE = "slice"  # the truth of an n >= 3 input: a certified one-sided slice
# the n = 2 fixtures as rows of the table (example_m is the M11_1 row's cone)
PLANAR_FIXTURES = {
    "example_m": ("M11_1", 0.5, 1.0 / 3.0), "m20": ("M20", 2.0, 0.5), "m11_1": ("M11_1", 0.5, 1.0 / 3.0),
    "m11_2": ("M11_2", 1.0 + 1.0j, None), "m11_3": ("M11_3", None, None), "m10_1": ("M10_1", 0.5, None),
    "m10_2": ("M10_2", None, None), "m00_1": ("M00_1", None, None),
}
FIXTURE_SCALES = (300, -300, 600, -600, 1000, -1000)
# the UnclassifiedBoundary stratum: rho = Re(z1^2 + 2i z1 z2) + Im(z1 conj z2)
BOUNDARY_S = np.array([[1.0, 1j], [1j, 0.0]])
BOUNDARY_H = np.array([[0.0, 0.5j], [-0.5j, 0.0]])


def load_workloads():
    """perfbench/workloads.py of this checkout, imported from its path."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _planar_classes(wl):
    """(class name, [(S, H, truth)]) of every planar class, before the pull-back."""
    def row(tag, a, b=None):
        S, H = wl.normal_form(tag, a, b)
        return S, H, wl.planar_verdict(tag, a, b)

    ds = [10.0**-j for j in range(4, 15)]
    big = [10.0**k for k in range(1, 16)]
    yield "M11_1, A = 2 + d", [row("M11_1", 2.0 + d, 2.0) for d in ds]
    yield "M11_1, A = 0.5 + d", [row("M11_1", 0.5 + d, 0.5) for d in ds]
    yield "M11_1, A = 1 + d", [row("M11_1", 1.0 + d, 0.5) for d in ds]
    yield "M11_1, A = 1 - d", [row("M11_1", 1.0 - d, 0.5) for d in ds]
    yield "M11_2, A = d + i", [row("M11_2", complex(d, 1.0)) for d in ds]
    yield "M20, A = 10^k", [row("M20", a, 0.5) for a in big]
    yield "M10_1, A = 10^k", [row("M10_1", a) for a in big]
    yield "M11_1, A = 10^k, B = A/2", [row("M11_1", a, a / 2) for a in big]
    yield "UnclassifiedBoundary stratum", [(BOUNDARY_S, BOUNDARY_H, ("two_sided", None))]


def inputs():
    """(class name, argv, stdin text, truth) of every scored input, in a fixed order."""
    wl = load_workloads()
    for name, rows in _planar_classes(wl):
        for S, H, truth in rows:
            for s in SEEDS:
                T = wl.random_gl(2, np.random.default_rng(s))
                yield name, ["decide", "-"], wl.spec_json(*wl.pull_back(S, H, T, 1.0, 1)), truth
    for tag, a, b in PLANAR_FIXTURES.values():
        S, H = wl.normal_form(tag, a, b)
        for k in FIXTURE_SCALES:
            S2, H2 = (np.ldexp(M.real, k) + 1j * np.ldexp(M.imag, k) for M in (S, H))
            yield "n = 2 fixtures at 2^k", ["decide", "-"], wl.spec_json(S2, H2), wl.planar_verdict(tag, a, b)
    for k in range(1, 18):
        A = 10.0**k
        S = np.array([[A, 0, 0], [0, 0.5, A], [0, A, 0]], dtype=complex)
        yield "n = 3 class", ["slice", "-"], wl.spec_json(S, np.eye(3, dtype=complex)), SLICE


def run(main, argv, text):
    """(exit code, parsed report or None) of main(argv) with text on stdin; code None if it raised."""
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except (Exception, SystemExit):  # an escaped exception or an argparse exit: "other"
        return None, None
    finally:
        sys.stdin = saved
    try:
        return code, json.loads(out.getvalue())
    except json.JSONDecodeError:
        return code, None


def judge(code, report, truth) -> str:
    """The OUTCOMES entry of one answer."""
    if code == 0 and isinstance(report, dict):
        if truth == SLICE:
            right = report.get("slice") is not None
        else:
            verdict = report.get("verdict") or {}
            right = (verdict.get("outcome"), verdict.get("side")) == truth
        return "right" if right else "exit 0 wrong"
    return {2: "exit 2", 3: "exit 3", 5: "exit 5"}.get(code, "other")


def score(main) -> dict[str, Counter]:
    """Class name -> Counter of OUTCOMES over its inputs, in input order."""
    table: dict[str, Counter] = {}
    for name, argv, text, truth in inputs():
        table.setdefault(name, Counter())[judge(*run(main, argv, text), truth)] += 1
    return table


def table_text(table: dict[str, Counter]) -> str:
    """The table as markdown, one row per class and a total."""
    lines = ["| class | inputs | " + " | ".join(OUTCOMES) + " |", "|---" * (len(OUTCOMES) + 2) + "|"]
    for name, counts in [*table.items(), ("total", sum(table.values(), Counter()))]:
        lines.append(f"| {name} | {sum(counts.values())} | " + " | ".join(str(counts[o]) for o in OUTCOMES) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    src = os.path.abspath(argv[0] if argv else os.path.join(ROOT, "src"))
    sys.path.insert(0, src)
    import quadcone.cli

    if not os.path.abspath(quadcone.cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported quadcone from {quadcone.cli.__file__}, not from {src}")
    print(table_text(score(quadcone.cli.main)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
