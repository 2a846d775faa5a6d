"""Compare the CLI reports of two source trees, input by input.

    python3 scripts/compare_reports.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts.  Each
tree runs in a subprocess of its own over the same inputs:

- every fixture: `classify`, `decide` and `verify` when n = 2, `slice` when
  n >= 3;
- `atlas` for each of the seven tags;
- every seed-1 op of the three workloads in `perfbench/workloads.py`, in
  its `U_RANGE` and its `CENSUS_U_RANGE`;
- the inputs of EXTRA: a polynomial spec, an M11_1 spec inside decide2's
  A = 1 band whose supporting line dips below the cone, an `atlas` grid
  with such a cell, specs with JSON booleans in place of numbers,
  `--tol-overrides` on `decide`, `--fixture` given with an input path,
  fixtures of the wrong dimension for `classify`, `decide`, `verify` and
  `slice`, a degenerate cone under `verify` and `decide`, `atlas` grids
  with values outside the tag's range and with an M11_1 cell a rounding
  away from A = B, a polynomial whose real form's sums overflow
  unless halved first, specs with asymmetric S and H (a nonzero
  symmetrization adjustment) under `decide` and `verify`, a spec with an
  entry 1e400 (it parses to inf), two-sided specs at 1e300 and 1e-300
  under `decide` and `verify`, one-sided specs at 1e300 and 1e-300
  under `verify`, and one `verify` per disc family shape (the M20 and
  M10_1 level sets, the M11_1 affine line) at an eps beyond the family's
  reach, where no disc points exist.

The workload inputs come from this checkout's `perfbench/workloads.py`,
which uses numpy only, so both trees see the same specs.  Each input is
compared twice, apart from the report's `timings` values: as parsed JSON,
and as the raw stdout text, so that a change of spacing, escaping or float
spelling (`1e-05` vs `1e-5`) shows even where the parsed values agree.
An argparse exit (`SystemExit`) is a result as well: its code and its
stderr text are compared.  Prints every input whose exit code, report or
raw text differs, with the differing fields or the first differing line,
then a count per input group, the inputs whose raw text alone differs, and
a tally of the differing inputs by field path (list indices as `[]`) and by
exit-code transition.  Exits 1 on any difference, 0 when every report, raw
text and exit code is the same.

A field whose two values are floats also gets its relative difference:
|old - new| over the largest float magnitude in the object that holds it,
in either report.  That object is the matrix or vector for an entry of one
(the real and imaginary parts of a complex entry included), and otherwise
the dict that holds the field: a normal form, a verification block.  The
fields of UNIT_FIELDS are already divided by the cone's scale, so their
difference is measured against 1 instead.  The
field-path tally shows the largest relative difference of each path, and
an input whose exit code is the same and whose every differing field is a
float pair with a relative difference below ROUNDING_REL counts as
differing by rounding only.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAX_FIELDS = 8  # differing fields printed per input
ROUNDING_REL = 1e-10  # a float difference below this, relative to its object, is rounding
# verify_support's line values, normalized by |z|^2 * scale: on a line inside
# the cone they are rounding residues of 0, which their own dict cannot measure
UNIT_FIELDS = {("verification", "plus_min"), ("verification", "minus_max")}
TIMINGS = re.compile(r'("timings": \{)([^{}]*)(\})')
TIMING_VALUE = re.compile(r'(": )[^,\n]+')
# M11_1 with A = 1 + 5e-10: two-sided by decide2's A = 1 band, and the line
# {z2 = 0} dips below the cone by 5e-10, relative
A_ONE_BAND = '{"n": 2, "S": [[1.0000000005, 0], [0, 0.5]], "H": [[1, 0], [0, -1]]}'
POLY = (
    '{"n": 2, "poly": [{"vars": ["x1", "x1"], "coeff": 1.5}, {"vars": ["y1", "y1"], "coeff": 0.5},'
    ' {"vars": ["x2", "x2"], "coeff": -0.6}, {"vars": ["y2", "y2"], "coeff": -1.4},'
    ' {"vars": ["x1", "y2"], "coeff": {"re": 0.25}}]}'
)
BOOL_ENTRY = '{"n":2,"S":[[true,{"re":false}],[{},{"re":0.5}]],"H":[[1,0],[0,-1]]}'
DEGENERATE = '{"n": 2, "S": [[0, 0], [0, 0]], "H": [[1, 0], [0, 1]]}'  # definite: a point cone
# Re(1.7e308 z1^2): Gxx - Gyy of its real form is 3.4e308
HUGE_POLY = (
    '{"n": 2, "poly": [{"vars": ["x1", "x1"], "coeff": 1.7e308},'
    ' {"vars": ["y1", "y1"], "coeff": -1.7e308}]}'
)
# S and H off their symmetric and hermitian forms: parse_spec symmetrizes and reports by how much
ASYMMETRIC = (
    '{"n": 2, "S": [[0.5, 0.25], [0.15, 0.3]],'
    ' "H": [[1, {"re": 0.2, "im": 0.1}], [{"re": 0.3, "im": -0.1}, -1]]}'
)
NON_FINITE = '{"n": 2, "S": [[1e400, 0], [0, 1]], "H": [[1, 0], [0, -1]]}'
# M11_1 with A = 2, B = 0.5: its disc family is the affine line w1 = i eps, within reach for eps <= 1
AFFINE_LINE = '{"n": 2, "S": [[2, 0], [0, 0.5]], "H": [[1, 0], [0, -1]]}'


def _two_sided_at(s: str) -> str:
    """S = [[0, s], [s, 0]], H = diag(s, -s): M11_2 with A = 1/2 at any scale s."""
    return f'{{"n": 2, "S": [[0, {s}], [{s}, 0]], "H": [[{s}, 0], [0, -{s}]]}}'


def _one_sided_at(s: str) -> str:
    """S = diag(s, s), H = diag(s, 0): M10_1 with A = 1, one-sided, at any scale s."""
    return f'{{"n": 2, "S": [[{s}, 0], [0, {s}]], "H": [[{s}, 0], [0, 0]]}}'


BOOL_COEFF = '{"n": 2, "poly": [{"vars": ["x1", "x1"], "coeff": true}, {"vars": ["y2", "y2"], "coeff": -1}]}'
EXTRA = (
    ("poly/classify", ["classify", "-"], POLY),
    ("poly/decide", ["decide", "-"], POLY),
    ("poly/verify", ["verify", "-"], POLY),
    ("a_one_band/decide", ["decide", "-"], A_ONE_BAND),
    ("a_one_band/verify", ["verify", "-"], A_ONE_BAND),
    ("a_one_band/verify_support_rel", ["verify", "-", "--tol-overrides", "support_rel=1e-9"], A_ONE_BAND),
    ("a_one_band/atlas", ["atlas", "--tag", "M11_1", "--grid", "1.0000000005,0.5"], None),
    ("bool_entry/classify", ["classify", "-"], BOOL_ENTRY),
    ("bool_coeff/classify", ["classify", "-"], BOOL_COEFF),
    ("tol_overrides/decide", ["decide", "--fixture", "example_m", "--tol-overrides", "support_rel=1e-9"], None),
    ("fixture_and_input/decide", ["decide", "--fixture", "m20", "does_not_exist.json"], None),
    ("n_mismatch/classify", ["classify", "--fixture", "slice_pi2_axis"], None),
    ("n_mismatch/decide", ["decide", "--fixture", "slice_pi2_axis"], None),
    ("n_mismatch/verify", ["verify", "--fixture", "slice_pi2_axis"], None),
    ("n_mismatch/slice", ["slice", "--fixture", "m20"], None),
    ("degenerate/verify", ["verify", "-"], DEGENERATE),
    ("degenerate/decide", ["decide", "-"], DEGENERATE),
    ("out_of_range/atlas_M20", ["atlas", "--tag", "M20", "--grid=-1,0.5,3"], None),
    ("out_of_range/atlas_M11_1", ["atlas", "--tag", "M11_1", "--grid=-1,0.5,3"], None),
    ("out_of_range/atlas_M10_1", ["atlas", "--tag", "M10_1", "--grid=-1,0.5,3"], None),
    ("out_of_range/atlas_M11_2", ["atlas", "--tag", "M11_2", "--grid", "0,1,2"], None),
    ("near_equal/atlas", ["atlas", "--tag", "M11_1", "--grid=0.25,1,1.0000000000001,2"], None),
    ("huge_poly/classify", ["classify", "-"], HUGE_POLY),
    ("asymmetric/decide", ["decide", "-"], ASYMMETRIC),
    ("asymmetric/verify", ["verify", "-"], ASYMMETRIC),
    ("non_finite/decide", ["decide", "-"], NON_FINITE),
    ("two_sided_1e300/decide", ["decide", "-"], _two_sided_at("1e300")),
    ("two_sided_1e300/verify", ["verify", "-"], _two_sided_at("1e300")),
    ("two_sided_1e-300/decide", ["decide", "-"], _two_sided_at("1e-300")),
    ("two_sided_1e-300/verify", ["verify", "-"], _two_sided_at("1e-300")),
    ("one_sided_1e300/verify", ["verify", "-"], _one_sided_at("1e300")),
    ("one_sided_1e-300/verify", ["verify", "-"], _one_sided_at("1e-300")),
    ("reach/m20_level_set", ["verify", "--fixture", "m20", "--eps", "5"], None),
    ("reach/m10_1_level_set", ["verify", "--fixture", "m10_1", "--eps", "2"], None),
    ("reach/m11_1_affine_line", ["verify", "-", "--eps", "1.5"], AFFINE_LINE),
)


def _workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def inputs(fixtures: dict, tags: tuple):
    """(name, argv, stdin text or None) of every compared CLI call, in a fixed order."""
    for name in sorted(fixtures):
        commands = ("classify", "decide", "verify") if fixtures[name]().n == 2 else ("slice",)
        for command in commands:
            yield f"fixture/{name}/{command}", [command, "--fixture", name], None
    for tag in tags:
        yield f"atlas/{tag}", ["atlas", "--tag", tag], None
    wl = _workloads()
    for range_name, u_range in (("timed", wl.U_RANGE), ("census", wl.CENSUS_U_RANGE)):
        for workload, make in wl.WORKLOADS.items():
            for k, op in enumerate(make(1, u_range)):
                yield f"{workload}/{range_name}/{k}/{op.kind}", list(op.argv), op.spec
    for name, argv, text in EXTRA:
        yield f"extra/{name}", argv, text


def run_tree(src: str) -> None:
    """Print one JSON line per input: its name, exit code and report without `timings`."""
    sys.path.insert(0, src)
    import quadcone.cli
    from quadcone.fixtures import FIXTURES
    from quadcone.normalform import TAGS

    if not os.path.abspath(quadcone.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"imported quadcone from {quadcone.cli.__file__}, not from {src}")
    for name, argv, text in inputs(FIXTURES, TAGS):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(text or "")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = quadcone.cli.main(argv)
        except SystemExit as exc:  # argparse's usage error, a result to compare
            code, out = exc.code, io.StringIO(json.dumps({"system_exit": err.getvalue()}))
        except Exception as exc:  # an escaped exception is a result to compare
            code, out = None, io.StringIO(json.dumps({"exception": repr(exc)}))
        finally:
            sys.stdin = saved
        raw = out.getvalue()
        try:
            report = json.loads(raw)
        except json.JSONDecodeError:
            report = {"unparsed": raw}
        if isinstance(report, dict):
            report.pop("timings", None)
        row = {"name": name, "code": code, "report": report, "raw": _mask_timings(raw)}
        print(json.dumps(row, sort_keys=True))


def _mask_timings(raw: str) -> str:
    """raw with each value of its (flat) `timings` object replaced by `#`."""
    return TIMINGS.sub(lambda m: m[1] + TIMING_VALUE.sub(r"\1#", m[2]) + m[3], raw)


def _collect(src: str) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--run", src]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"running the tree {src} failed")
    rows = (json.loads(line) for line in proc.stdout.splitlines())
    return {row["name"]: row for row in rows}


def _diff(a, b, path: tuple = ()):
    """Paths (tuples of keys and list indices) at which two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                yield path + (key,), a.get(key, "<absent>"), b.get(key, "<absent>")
            else:
                yield from _diff(a[key], b[key], path + (key,))
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _diff(x, y, path + (i,))
    elif json.dumps(a) != json.dumps(b):
        yield path, a, b


def _path_text(path: tuple) -> str:
    """A path as dotted text, list indices in brackets: `classification.T[0][1].re`."""
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else (f".{key}" if text else key)
    return text


def _floats(value):
    """Every float in a JSON value."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, (dict, list)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _floats(item)


def _holder(report, path: tuple):
    """The object that holds the field at path: its matrix or vector, else its dict."""
    path = list(path)
    while path and (isinstance(path[-1], int) or path[-1] in ("re", "im")):
        path.pop()
    parent, obj = None, report
    for key in path:
        try:
            parent, obj = obj, obj[key]
        except (KeyError, IndexError, TypeError):  # absent from this report
            parent, obj = obj, None
    return obj if isinstance(obj, list) else parent


def _relative(parent: dict, change: dict, path: tuple, x, y) -> float | None:
    """|x - y| over the largest |float| in the field's holder in either report, or over 1 for UNIT_FIELDS.

    None unless both are floats.
    """
    if not (type(x) is float and type(y) is float):
        return None
    if x == y:  # 0.0 and -0.0
        return 0.0
    if path in UNIT_FIELDS:
        scale = 1.0
    else:
        scale = max((abs(v) for r in (parent, change) for v in _floats(_holder(r, path))), default=0.0)
    rel = abs(x - y) / scale if scale else math.inf
    return rel if rel == rel else math.inf


def _first_differing_line(a: str, b: str) -> str:
    a_lines, b_lines = a.splitlines(), b.splitlines()
    for x, y in zip(a_lines, b_lines):
        if x != y:
            return f"{x[:200]!r} -> {y[:200]!r}"
    return f"{len(a_lines)} -> {len(b_lines)} lines"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_src", nargs="?")
    ap.add_argument("change_src", nargs="?")
    ap.add_argument("--run", metavar="SRC", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.run:
        run_tree(args.run)
        return 0
    if not (args.parent_src and args.change_src):
        ap.error("give PARENT_SRC and CHANGE_SRC")
    parent, change = _collect(args.parent_src), _collect(args.change_src)
    if list(parent) != list(change):
        print("the two trees ran different inputs")
        return 1
    total, differ, raw_only, paths, exits = Counter(), Counter(), Counter(), Counter(), Counter()
    rounding, worst = Counter(), {}
    for name, p in parent.items():
        c = change[name]
        group = name.split("/")[0] + "/" + name.split("/")[-1]
        total[group] += 1
        fields = list(_diff(p["report"], c["report"]))
        if p["code"] == c["code"] and not fields:
            if p["raw"] != c["raw"]:
                differ[group] += 1
                raw_only[group] += 1
                print(f"{name}: raw text only")
                print(f"  {_first_differing_line(p['raw'], c['raw'])}")
            continue
        differ[group] += 1
        exits[f"exit {p['code']} -> {c['code']}"] += 1
        rels = [_relative(p["report"], c["report"], path, x, y) for path, x, y in fields]
        tallied = {}
        for (path, _, _), rel in zip(fields, rels):
            key = re.sub(r"\[\d+\]", "[]", _path_text(path))
            tallied[key] = max(tallied.get(key, 0.0), math.inf if rel is None else rel)
        paths.update(tallied.keys())
        for key, rel in tallied.items():
            worst[key] = max(worst.get(key, 0.0), rel)
        if p["code"] == c["code"] and all(rel is not None and rel < ROUNDING_REL for rel in rels):
            rounding[group] += 1
        print(f"{name}: exit {p['code']} -> {c['code']}")
        for (path, x, y), rel in list(zip(fields, rels))[:MAX_FIELDS]:
            note = "" if rel is None else f"  (relative {rel:.1e})"
            print(f"  {_path_text(path)}: {json.dumps(x)[:200]} -> {json.dumps(y)[:200]}{note}")
        if len(fields) > MAX_FIELDS:
            print(f"  ... {len(fields) - MAX_FIELDS} more fields")
    print()
    for group in sorted(total):
        print(f"{group}: {total[group] - differ[group]} of {total[group]} identical")
    print(f"all: {sum(total.values()) - sum(differ.values())} of {sum(total.values())} identical")
    print("\ninputs whose raw text alone differs (parsed report and exit code the same):")
    for group in sorted(raw_only):
        print(f"  {group}: {raw_only[group]}")
    print(f"  all: {sum(raw_only.values())}")
    print(f"\ninputs that differ by rounding only (same exit code, every differing field a float pair "
          f"within {ROUNDING_REL:g} of its object's largest magnitude):")
    for group in sorted(rounding):
        print(f"  {group}: {rounding[group]}")
    print(f"  all: {sum(rounding.values())} of {sum(differ.values()) - sum(raw_only.values())}")
    print("\ndiffering inputs by field path, with the largest relative difference:")
    for key, count in sorted(paths.items()):
        rel = "not a finite float pair" if worst[key] == math.inf else f"{worst[key]:.1e}"
        print(f"  {key}: {count}, {rel}")
    print("\ndiffering inputs by exit code:")
    for key, count in sorted(exits.items()):
        print(f"  {key}: {count}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
