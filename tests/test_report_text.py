"""The CLI's report writer spells every report as json.dumps(indent=2, sort_keys=True) does.

A complex leaf is spelled as json's default={"re": z.real, "im": z.imag} would spell it.
"""

from __future__ import annotations

import importlib.util
import io
import json
import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadcone import cli
from quadcone.fixtures import FIXTURES
from quadcone.normalform import TAGS


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=lambda z: {"re": z.real, "im": z.imag})


def _cli_argvs():
    for name in sorted(FIXTURES):
        commands = ("classify", "decide", "verify") if FIXTURES[name]().n == 2 else ("slice",)
        for command in commands:
            yield [command, "--fixture", name]
    for tag in TAGS:
        yield ["atlas", "--tag", tag]


@pytest.mark.parametrize("argv", list(_cli_argvs()), ids=" ".join)
def test_cli_reports_are_spelled_as_json_spells_them(monkeypatch, capsys, argv):
    written, write = [], cli.report_text

    def recording(obj):
        written.append(obj)
        return write(obj)

    monkeypatch.setattr(cli, "report_text", recording)
    cli.main(argv)
    (report,) = written
    assert capsys.readouterr().out == reference(report) + "\n"


def _nd_slice_sample() -> list:
    """(n, class, spec) of the first one-sided and two-sided nd_slice seed-1 input of each n = 3..8."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up here
    try:
        spec.loader.exec_module(workloads)
        ops = workloads.nd_slice(1)
    finally:
        del sys.modules[spec.name]
    sample = {}
    for op in ops:
        sample.setdefault((json.loads(op.spec)["n"], op.cls), op.spec)
    return [pytest.param(n, cls, sample[n, cls], id=f"n={n} {cls}")
            for n in range(3, 9) for cls in ("slice_onesided", "slice_twosided")]


@pytest.mark.parametrize("n, cls, spec", _nd_slice_sample())
def test_nd_slice_reports_are_spelled_as_json_spells_them(monkeypatch, capsys, n, cls, spec):
    # the fixtures stop at n = 4: these are the benchmark's slice reports up to n = 8, of both classes
    written, write = [], cli.report_text

    def recording(obj):
        written.append(obj)
        return write(obj)

    monkeypatch.setattr(cli, "report_text", recording)
    monkeypatch.setattr(sys, "stdin", io.StringIO(spec))
    assert cli.main(["slice", "-"]) == cli.EXIT_OK
    (report,) = written
    assert report["input"]["n"] == n and (report["slice"] is None) == (cls == "slice_twosided")
    assert capsys.readouterr().out == reference(report) + "\n"


def test_error_reports_are_spelled_as_json_spells_them(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"n": 2, "poly": "\\u00e9"}'))
    assert cli.main(["decide", "-"]) == cli.EXIT_SCHEMA
    out = capsys.readouterr().out
    assert out == reference(json.loads(out)) + "\n"


class SubFloat(float):
    def __repr__(self):
        return "not json"


class SubInt(int):
    def __repr__(self):
        return "not json"


class SubStr(str):
    pass


TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x01\x1f\x7f\n\r\té €\U0001f600'), st.characters()),
    max_size=6,
)
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 2.5e-310, 1.7e308, -1.7e308, 1e-5, 1e16, math.nan, math.inf, -math.inf]),
)
# the parts of a drawn complex leaf
PARTS = st.sampled_from([0.5, -0.0, 1e-05, 5e-324, math.nan, math.inf, -math.inf])
COMPLEX = st.builds(complex, PARTS, PARTS)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    FLOATS,
    FLOATS.map(np.float64),
    FLOATS.map(SubFloat),
    st.integers().map(SubInt),
    TEXT,
    TEXT.map(SubStr),
    COMPLEX,
    COMPLEX.map(np.complex128),
    st.builds(complex, FLOATS, FLOATS),
    # dicts that look like a complex leaf
    st.fixed_dictionaries({"re": FLOATS, "im": FLOATS}),
    st.fixed_dictionaries({"re": st.one_of(st.integers(), st.booleans(), FLOATS), "im": FLOATS}),
    st.fixed_dictionaries({"re": FLOATS, "im": FLOATS, "x": st.integers()}),
    st.sampled_from([{"re": 1, "im": 2.0}, {"re": 1.0, "im": 2.0, "x": 0}, {"re": 1.0}, {"im": True, "re": 0.5}]),
)
TREES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    ),
    max_leaves=16,
)


@settings(max_examples=100, deadline=None)
@given(TREES)
def test_writer_matches_json_on_json_like_trees(tree):
    assert cli.report_text(tree) == reference(tree)


# parts of a complex leaf, and of a dict that looks like one: the writer spells
# a complex of two finite parts with one f-string, and every other leaf as json does
LEAF_PARTS = [0.5, -0.0, 1e-05, 5e-324, math.nan, math.inf, -math.inf, np.float64(0.25), SubFloat(0.75), 1, True]
LEAF_IDS = ["0.5", "-0.0", "1e-05", "5e-324", "nan", "inf", "-inf", "float64", "SubFloat", "int", "bool"]


@pytest.mark.parametrize("im", LEAF_PARTS, ids=LEAF_IDS)
@pytest.mark.parametrize("re", LEAF_PARTS, ids=LEAF_IDS)
def test_complex_leaves_are_spelled_as_json_spells_them(re, im):
    leaf = {"re": re, "im": im}
    z = complex(re, im)
    third = {"im": im, "re": re, "x": 1.5}
    for tree in (
        [z, z],  # list items, which matrices and vectors are made of
        [[z, -1.0], [None, leaf]],
        {"z": z, "w": (z, leaf)},  # a member, and a tuple as a list
        z,
        [leaf, leaf],
        [[leaf, -1.0], [None, leaf]],
        [third, {"re": re, "x": im}, {"im": im, "x": re}],  # a third key, or a key other than re or im
        {"z": leaf, "w": [leaf], "v": third},  # a leaf that stands alone as a member
        leaf,
        third,
    ):
        assert cli.report_text(tree) == reference(tree)


@pytest.mark.parametrize(
    "obj",
    [object(), {"a": [1, object()]}, {"a": {1, 2}}, [np.int64(1)], {1: 2.0}],
    ids=["object", "nested object", "set", "numpy int", "int key"],
)
def test_unsupported_values_raise_type_error(obj):
    with pytest.raises(TypeError):
        cli.report_text(obj)
