"""CLI surface: schema, round trips, exit codes, determinism, atlas."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from quadcone.cli import (
    DEFAULT_EPS,
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_UNRESOLVED,
    ConeSpec,
    SchemaError,
    _asymmetry,
    _complex_json,
    main,
    parse_spec,
    spec_to_json,
)
from quadcone.fixtures import FIXTURES
from quadcone.quadform import NonHomogeneous, NonReal, QuadraticCone, rho_at
from quadcone.slicer import classify_two_sided_nd, find_good_slice

EXAMPLE_M = (
    '{"n":2,"S":[[{"re":0.5},{}],[{},{"re":0.3333333333}]],'
    '"H":[[{"re":1},{}],[{},{"re":-1}]]}'
)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_cli_stdin(capsys, text, argv):
    """The CLI on argv with `text` on stdin."""
    import io, sys

    old = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        return run_cli(capsys, argv)
    finally:
        sys.stdin = old


def run_slice_stdin(capsys, S, H, argv):
    """`slice -` on the cone (S, H), fed as a JSON spec on stdin."""
    n = S.shape[0]
    spec = {
        "n": n,
        "S": [[{"re": S[i, j].real, "im": S[i, j].imag} for j in range(n)] for i in range(n)],
        "H": [[{"re": H[i, j].real, "im": H[i, j].imag} for j in range(n)] for i in range(n)],
    }
    return run_cli_stdin(capsys, json.dumps(spec), ["slice", "-", *argv])


# --- parsing ------------------------------------------------------------------


def test_parse_example_m():
    spec = parse_spec(EXAMPLE_M)
    assert spec.cone.n == 2
    np.testing.assert_allclose(spec.cone.S, np.diag([0.5, 0.3333333333]))
    np.testing.assert_allclose(spec.cone.H, np.diag([1.0, -1.0]))
    assert spec.s_adjustment == 0.0


def test_parse_round_trip():
    spec = parse_spec(EXAMPLE_M)
    again = parse_spec(json.dumps(spec_to_json(spec), default=_complex_json))
    np.testing.assert_allclose(again.cone.S, spec.cone.S)
    np.testing.assert_allclose(again.cone.H, spec.cone.H)


def test_parse_poly_form():
    text = json.dumps(
        {
            "n": 2,
            "poly": [
                {"vars": ["x1", "x1"], "coeff": 1.0},
                {"vars": ["y1", "y1"], "coeff": 1.0},
            ],
        }
    )
    spec = parse_spec(text)
    np.testing.assert_allclose(spec.cone.H, np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(spec.cone.S, np.zeros((2, 2)), atol=1e-14)


def test_parse_symmetrization_reported():
    text = json.dumps(
        {"n": 2, "S": [[1.0, 0.2], [0.0, 1.0]], "H": [[1.0, 0.0], [0.0, 1.0]]}
    )
    spec = parse_spec(text)
    assert spec.s_adjustment > 0
    np.testing.assert_allclose(spec.cone.S, [[1.0, 0.1], [0.1, 1.0]])


def test_parse_errors_have_paths():
    with pytest.raises(SchemaError, match="n"):
        parse_spec('{"S": [], "H": []}')
    with pytest.raises(SchemaError, match=r"S\[0\]"):
        parse_spec('{"n":2,"S":[[1],[2,3]],"H":[[1,0],[0,1]]}')
    with pytest.raises(SchemaError, match=r"S\[0\]\[1\]"):
        parse_spec('{"n":2,"S":[[1,"x"],[0,1]],"H":[[1,0],[0,1]]}')
    with pytest.raises(NonHomogeneous):
        parse_spec('{"n":2,"poly":[{"vars":["x1"],"coeff":1}]}')
    with pytest.raises(NonReal):
        parse_spec('{"n":2,"poly":[{"vars":["x1","x1"],"coeff":{"re":1,"im":2}}]}')


def _json_entry(z: complex, style: int):
    """z as a spec entry of one of the reader's shapes; the styles past 0 hold only some z (see _spec_value)."""
    if style == 0:
        return {"re": z.real, "im": z.imag}
    if style == 1:  # a bare float
        return z.real
    if style == 2:  # a bare int
        return int(z.real)
    if style == 3:  # re only
        return {"re": z.real}
    if style == 4:  # im only
        return {"im": z.imag}
    return {"im": z.imag, "re": int(z.real)}  # an int re, keys in the other order


def _spec_value(z: complex, style: int) -> complex:
    """The value that entry style `style` can hold nearest z, as the reader makes it."""
    return [z, complex(z.real), complex(int(z.real)), complex(z.real, 0.0), complex(0.0, z.imag),
            complex(int(z.real), z.imag)][style]


def test_parse_spec_cone_equals_the_checked_constructor():
    # parse_spec builds its cone without the constructor's checks; the bits
    # are those of the checked constructor on the symmetrized matrices,
    # signed zeros included.  The first matrices of each n are {re, im}
    # objects with signed zeros where the two agree on every sign; the others
    # mix every shape an entry may take (an {re, im} object, a bare float or
    # int, an object with re or im missing, an int re) with signed zeros
    # anywhere, whose signs are those of the one symmetrization parse_spec
    # applies, the halves' sum
    rng = np.random.default_rng(5)
    zeros = [complex(-0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0), 0j]
    for n in range(2, 9):
        for rep in range(4):
            S = rng.standard_normal((n, n)) * 4 + 1j * rng.standard_normal((n, n))
            H = rng.standard_normal((n, n)) * 4 + 1j * rng.standard_normal((n, n))
            S[0, 1] = S[1, 0] = complex(-0.0, -1.0)
            H[0, 1], H[1, 0] = complex(-0.0, -2.0), complex(-0.0, 2.0)
            H[0, 0] = complex(-0.0, -0.0)
            entries = {}
            for M, name in ((S, "S"), (H, "H")):
                for (i, j), z in np.ndenumerate(M):
                    style = 0 if rep == 0 or (i, j) in ((0, 1), (1, 0), (0, 0)) else int(rng.integers(6))
                    if style and rng.random() < 0.15:
                        z, style = zeros[rng.integers(4)], 0
                    M[i, j] = _spec_value(complex(z), style)
                    entries[name, i, j] = _json_entry(complex(M[i, j]), style)
            text = json.dumps({
                "n": n,
                **{name: [[entries[name, i, j] for j in range(n)] for i in range(n)] for name in "SH"},
            })
            half_S, half_H = 0.5 * S, 0.5 * H  # symmetrization adds halves
            checked = QuadraticCone(half_S + half_S.T, half_H + half_H.conj().T)
            spec = parse_spec(text)
            cone = spec.cone
            assert cone == checked
            if rep == 0:
                assert np.array_equal(np.signbit(cone.S.real), np.signbit(checked.S.real))
                assert np.array_equal(np.signbit(cone.H.real), np.signbit(checked.H.real))
                assert np.array_equal(np.signbit(cone.H.imag), np.signbit(checked.H.imag))
            for got, want in ((cone.S, half_S + half_S.T), (cone.H, half_H + half_H.conj().T)):
                assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))
            # the one-pass reader's adjustments are those of the rows read entry by entry
            assert spec.s_adjustment == _asymmetry(S.tolist(), False)
            assert spec.h_adjustment == _asymmetry(H.tolist(), True)
            assert n == 2 or spec.s_adjustment > 0 and spec.h_adjustment > 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "S, H, path",
    [
        ('[[{"re": NaN}, 0], [0, 1]]', "[[1, 0], [0, -1]]", r"S\[0\]\[0\]"),
        ('[[1, {"im": Infinity}], [0, 1]]', "[[1, 0], [0, -1]]", r"S\[0\]\[1\]"),
        ("[[1, 0], [0, 1]]", "[[1, 0], [-Infinity, -1]]", r"H\[0\]\[1\]"),
    ],
)
def test_parse_rejects_non_finite_matrices(capsys, S, H, path):
    text = f'{{"n": 2, "S": {S}, "H": {H}}}'
    with pytest.raises(SchemaError, match=path):
        parse_spec(text)
    code, report = run_cli_stdin(capsys, text, ["decide", "-"])
    assert code == EXIT_SCHEMA
    assert report["error"]["kind"] == "schema"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "terms, path",
    [
        ('[{"vars": ["x1", "x1"], "coeff": NaN}]', r"poly\[0\]\.coeff"),
        ('[{"vars": ["x1", "y2"], "coeff": {"re": -Infinity}}]', r"poly\[0\]\.coeff"),
        # finite coefficients whose sum overflows
        ('[{"vars": ["x1", "x1"], "coeff": 1.7e308}, {"vars": ["x1", "x1"], "coeff": 1.7e308},'
         ' {"vars": ["x1", "x1"], "coeff": 1.7e308}]', "poly"),
    ],
)
def test_parse_rejects_non_finite_polynomials(capsys, terms, path):
    text = f'{{"n": 2, "poly": {terms}}}'
    with pytest.raises(SchemaError, match=path):
        parse_spec(text)
    code, report = run_cli_stdin(capsys, text, ["classify", "-"])
    assert code == EXIT_SCHEMA
    assert report["error"]["kind"] == "schema"


BEYOND_FLOAT = "1" + "0" * 400  # a JSON integer that no float holds; json.loads keeps it an int


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "text, message",
    [
        (f'{{"n": 2, "S": [[{BEYOND_FLOAT}, 0], [0, 1]], "H": [[1, 0], [0, -1]]}}',
         "S[0][0]: entry is not finite after symmetrization"),
        (f'{{"n": 2, "S": [[1, 0], [0, 1]], "H": [[1, {{"im": -{BEYOND_FLOAT}}}], [0, -1]]}}',
         "H[0][1]: entry is not finite after symmetrization"),
        (f'{{"n": 2, "poly": [{{"vars": ["x1", "x1"], "coeff": {BEYOND_FLOAT}}}]}}',
         "poly[0].coeff: must be finite"),
        (f'{{"n": 2, "poly": [{{"vars": ["x1", "x1"], "coeff": {{"re": -{BEYOND_FLOAT}}}}}]}}',
         "poly[0].coeff: must be finite"),
    ],
    ids=["S", "H_im", "poly", "poly_re"],
)
def test_an_integer_beyond_the_float_range_is_a_non_finite_entry(capsys, text, message):
    # the conversion to float raises OverflowError; the entry reads as inf, as 1e400 does
    code, report = run_cli_stdin(capsys, text, ["decide", "-"])
    assert code == EXIT_SCHEMA
    assert report["error"] == {"kind": "schema", "message": message}


@pytest.mark.parametrize("s", ["5e-324", "1e-310", "1.7e308"])
def test_decide_reads_an_m11_2_cone_at_the_ends_of_the_float_range(capsys, s):
    # S = [[0, s], [s, 0]], H = diag(s, -s) is M11_2 with A = 1/2 at every scale s,
    # the smallest subnormal included: its symmetric entries are stored as given
    text = f'{{"n": 2, "S": [[0, {s}], [{s}, 0]], "H": [[{s}, 0], [0, -{s}]]}}'
    code, report = run_cli_stdin(capsys, text, ["decide", "-"])
    assert code == EXIT_OK
    assert report["signatures"] == {"hermitian": [1, 1], "real": [2, 2]}
    assert report["classification"]["normal_form"]["tag"] == "M11_2"
    assert report["verdict"]["outcome"] == "two_sided"


def test_a_subnormal_cone_classifies_like_its_normal_twin(capsys):
    # 2^-1074 times S = diag(2, 1), H = diag(2, -2): a halves-first symmetrization
    # would round S11 = 5e-324 to 0 and read B = 0 with no adjustment reported
    tiny = '{"n": 2, "S": [[1e-323, 0], [0, 5e-324]], "H": [[1e-323, 0], [0, -1e-323]]}'
    twin = '{"n": 2, "S": [[1, 0], [0, 0.5]], "H": [[1, 0], [0, -1]]}'
    assert parse_spec(tiny).cone.s2 == ((1e-323 + 0j, 0j), (0j, 5e-324 + 0j))
    (code, report), (twin_code, twin_report) = (run_cli_stdin(capsys, t, ["decide", "-"]) for t in (tiny, twin))
    assert code == twin_code == EXIT_OK
    assert report["input"]["symmetrization_adjustment"] == {"S": 0.0, "H": 0.0}
    assert report["input"]["S"][1][1] == {"re": 5e-324, "im": 0.0}
    nf, twin_nf = report["classification"]["normal_form"], twin_report["classification"]["normal_form"]
    assert nf["tag"] == twin_nf["tag"] == "M11_1"
    assert twin_nf["A"] == 1.0 and twin_nf["B"] == 0.5
    assert nf["A"] == pytest.approx(1.0, rel=1e-12) and nf["B"] == pytest.approx(0.5, rel=1e-12)
    assert report["verdict"]["outcome"] == twin_report["verdict"]["outcome"]


@pytest.mark.parametrize(
    "text, entry, value",
    [
        ('{"n": 2, "S": [[1.7e308, 0], [0, 1]], "H": [[1, 0], [0, -1]]}', ("S", 0, 0), 1.7e308),
        ('{"n": 2, "S": [[1, 1e308], [1e308, 1]], "H": [[1, 0], [0, -1]]}', ("S", 0, 1), 1e308),
        ('{"n": 2, "S": [[1, 0], [0, 1]], "H": [[1.7e308, 0], [0, -1]]}', ("H", 0, 0), 1.7e308),
        ('{"n": 2, "poly": [{"vars": ["x1", "x1"], "coeff": 1.7e308}]}', ("H", 0, 0), 0.85e308),
        # rho = Re(1.7e308 z1^2): the real form's halves are taken before their difference
        ('{"n": 2, "poly": [{"vars": ["x1", "x1"], "coeff": 1.7e308},'
         ' {"vars": ["y1", "y1"], "coeff": -1.7e308}]}', ("S", 0, 0), 1.7e308),
    ],
)
def test_parse_keeps_finite_entries_near_the_float_limit(capsys, text, entry, value):
    # symmetrization adds halves, so a finite symmetric entry stays finite
    name, i, j = entry
    assert getattr(parse_spec(text).cone, name)[i, j] == value
    code, report = run_cli_stdin(capsys, text, ["classify", "-"])
    assert code != EXIT_SCHEMA and "error" not in report
    assert "classification" in report


@pytest.mark.parametrize("command", ["classify", "decide"])
@pytest.mark.parametrize("scale", [1e150, 1e154, 1e155, 1e200, 1e300])
def test_a_large_harmonic_part_gets_a_report_not_an_overflow(capsys, command, scale):
    # the (1,1) det S and det P tests and sl2_reduce_sym's determinant read
    # the entries times a power of two, so S up to 1e300 times H classifies
    text = json.dumps({"n": 2, "S": [[0, scale], [scale, 0]], "H": [[1, 0], [0, -1]]})
    code, report = run_cli_stdin(capsys, text, [command, "-"])
    assert code == EXIT_OK
    assert report["classification"]["normal_form"]["tag"] == "M11_2"


@pytest.mark.parametrize(
    "text, path",
    [
        ('{"n":2,"S":[[true,{"re":false}],[{},{"re":0.5}]],"H":[[1,0],[0,-1]]}', r"S\[0\]\[0\]"),
        ('{"n":2,"S":[[1,0],[0,0.5]],"H":[[1,{"im":true}],[0,-1]]}', r"H\[0\]\[1\]"),
        ('{"n":2,"poly":[{"vars":["x1","x1"],"coeff":true}]}', r"poly\[0\]\.coeff"),
        ('{"n":2,"poly":[{"vars":["x1","y1"],"coeff":{"re":false}}]}', r"poly\[0\]\.coeff"),
    ],
    ids=["entry", "im", "coeff", "coeff_re"],
)
def test_parse_rejects_booleans_as_numbers(capsys, text, path):
    # JSON true and false parse to bool, a subclass of int; they are not numbers
    with pytest.raises(SchemaError, match=path):
        parse_spec(text)
    code, report = run_cli_stdin(capsys, text, ["classify", "-"])
    assert code == EXIT_SCHEMA
    assert report["error"]["kind"] == "schema"


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n": 2, "S": [[{"x": 1}, 0], [0, 1]], "H": [[1, 0], [0, -1]]}', "S[0][0]: unknown keys ['x']"),
        ('{"n": 2, "S": [[1, 0]], "H": [[1, 0], [0, -1]]}', "S: expected 2 rows"),
        ("[1, 2]", "$: top level must be an object"),
        ('{"n": 2, "S": [[1, 0], [0, 1]], "H": [[1, 0], [0, -1]], "T": 0}', "$: unknown keys ['T']"),
        ('{"n": 2, "poly": [], "S": [[1, 0], [0, 1]]}', "$: give either poly or S/H, not both"),
        ('{"n": 2, "poly": [{"vars": ["x1", "x1"], "coeff": 1, "x": 0}]}', "poly[0]: term must be {vars, coeff}"),
        ('{"n": 2, "poly": [{"vars": "x1 x1", "coeff": 1}]}', "poly[0].vars: must be a list of variable names"),
        ('{"n": 2, "S": [[1, 0], [0, 1]]}', "$: need S and H matrices (or poly)"),
    ],
    ids=["entry_key", "rows", "top_level", "top_key", "poly_and_matrices", "term_key", "vars", "no_H"],
)
def test_parse_spec_rejections_are_schema_errors(capsys, text, message):
    code, report = run_cli_stdin(capsys, text, ["classify", "-"])
    assert code == EXIT_SCHEMA
    assert report["error"] == {"kind": "schema", "message": message}


@pytest.mark.parametrize(
    "text, adjustment",
    [
        ('{"n": 2, "S": [[1, 1e308], [-1e308, 1]], "H": [[1, 0], [0, -1]]}',
         {"S": 1.4142135623730951e308, "H": 0.0}),
        ('{"n": 2, "S": [[1, 0], [0, 1]], "H": [[1, {"im": 1e308}], [{"im": 1e308}, -1]]}',
         {"S": 0.0, "H": 1.4142135623730951e308}),
    ],
    ids=["S", "H"],
)
def test_the_symmetrization_adjustment_is_finite_where_a_difference_would_overflow(capsys, text, adjustment):
    # ||M - M^T||_F / 2 from the halves: z - mirror = 2e308 overflows, z/2 - mirror/2 does not
    code, report = run_cli_stdin(capsys, text, ["classify", "-"])
    assert code != EXIT_SCHEMA and "error" not in report
    assert report["input"]["symmetrization_adjustment"] == adjustment


@pytest.mark.parametrize(
    "text, adjustment",
    [
        ('{"n": 2, "S": [[1, 5e-324], [0, 0.5]], "H": [[1, 0], [0, -1]]}', {"S": 5e-324, "H": 0.0}),
        ('{"n": 2, "S": [[1, 1e-310], [0, 0.5]], "H": [[1, 0], [0, -1]]}', {"S": 7.0710678118656e-311, "H": 0.0}),
        ('{"n": 2, "S": [[1, 0], [0, 0.5]], "H": [[1, {"im": 5e-324}], [0, -1]]}', {"S": 0.0, "H": 5e-324}),
    ],
    ids=["S_5e-324", "S_1e-310", "H_5e-324"],
)
def test_the_symmetrization_adjustment_is_correctly_rounded_below_the_normal_range(capsys, text, adjustment):
    # ||S - S^T||_F / 2 of the first is 5e-324 / sqrt(2) = 3.5e-324, which
    # rounds to 5e-324; halving 5e-324 before the norm rounds it to 0
    code, report = run_cli_stdin(capsys, text, ["classify", "-"])
    assert code == EXIT_OK
    assert report["input"]["symmetrization_adjustment"] == adjustment
    if adjustment["S"] == 5e-324:  # the stored entry is the rounded half, as before
        assert report["input"]["S"][0][1] == report["input"]["S"][1][0] == {"re": 0.0, "im": 0.0}


def _halves_first_asymmetry(rows, conj):
    """||M - M^T||_F / 2 from the halved entries, as parse_spec reported it where no half rounds."""
    return math.hypot(*(x for i, row in enumerate(rows) for j, z in enumerate(row)
                        for d in [0.5 * z - 0.5 * (rows[j][i].conjugate() if conj else rows[j][i])]
                        for x in (d.real, d.imag)))


def test_the_asymmetry_is_correctly_rounded_and_unchanged_where_no_half_rounds():
    from fractions import Fraction

    from mpmath import mp

    rng = np.random.default_rng(35)
    for _ in range(400):  # parts k 2^-1074: every halving may round, the result is subnormal
        n, conj = int(rng.integers(2, 5)), bool(rng.integers(2))
        ks = rng.integers(-(2**20), 2**20, size=(n, n, 2)) * (rng.random((n, n, 2)) < 0.6)
        rows = [[complex(math.ldexp(int(re), -1074), math.ldexp(int(im), -1074)) for re, im in row] for row in ks]
        sq = 0
        for i, row in enumerate(rows):
            for j, z in enumerate(row):
                w = rows[j][i].conjugate() if conj else rows[j][i]
                sq += sum(int((Fraction(x) - Fraction(y)) * 2**1074) ** 2 for x, y in ((z.real, w.real), (z.imag, w.imag)))
        with mp.workprec(200):  # the half of sqrt(sq), in units of 2^-1074, to the nearest unit
            want = math.ldexp(int(mp.floor(mp.sqrt(sq) / 2 + mp.mpf(0.5))), -1074)
        assert _asymmetry(rows, conj) == want, (rows, conj)
    for _ in range(400):  # parts 0 or at least 2^-1021: no half rounds, and the value is the halves' norm
        n, conj = int(rng.integers(2, 5)), bool(rng.integers(2))
        exps = rng.integers(-1020, 1021, size=(n, n, 2)) * (rng.random((n, n, 2)) < 0.5)
        parts = rng.standard_normal((n, n, 2)) * np.exp2(exps) * (rng.random((n, n, 2)) > 0.2)
        parts = np.where(np.abs(parts) < 2.0**-1021, np.sign(parts) * 2.0**-1021, parts)
        rows = [[complex(re, im) for re, im in row] for row in parts.tolist()]
        if rng.random() < 0.5:  # mirrors equal, or an ulp apart
            for i in range(n):
                for j in range(i):
                    rows[j][i] = rows[i][j].conjugate() if conj else rows[i][j]
                    rows[j][i] += math.ulp(rows[j][i].real) * int(rng.integers(-1, 2)) * (rows[j][i].real != 0)
        with np.errstate(over="ignore"):
            want = _halves_first_asymmetry(rows, conj)
        if want >= 2.0**-1021:
            assert _asymmetry(rows, conj) == want, (rows, conj)


# --- commands and exit codes ----------------------------------------------------


def test_cmd_decide_example_m(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(EXAMPLE_M, encoding="utf-8")
    code, report = run_cli(capsys, ["decide", str(path)])
    assert code == EXIT_OK
    assert report["verdict"]["outcome"] == "two_sided"
    labels = {
        report["verdict"]["witness"]["a_plus"]["label"],
        report["verdict"]["witness"]["a_minus"]["label"],
    }
    assert labels == {"{z2 = 0}", "{z1 = 0}"}
    nf = report["classification"]["normal_form"]
    assert nf["tag"] == "M11_1"
    assert nf["A"] == pytest.approx(0.5, abs=1e-8)
    assert nf["B"] == pytest.approx(1 / 3, abs=1e-6)


def test_cmd_classify_zero_cone_exit_degenerate(capsys):
    spec = json.dumps({"n": 2, "S": [[0, 0], [0, 0]], "H": [[0, 0], [0, 0]]})
    import io, sys

    old = sys.stdin
    sys.stdin = io.StringIO(spec)
    try:
        code, report = run_cli(capsys, ["classify", "-"])
    finally:
        sys.stdin = old
    assert code == EXIT_DEGENERATE
    assert report["classification"]["degenerate"]["reason"] == "DimensionDeficient"


def test_cmd_decide_zero_harmonic_part_is_m11_1_at_the_origin(capsys):
    # rho = Im(z1 conj(z2)): S = 0 against the hermitian frame is M11_1 with
    # A = B = 0, which contains complex lines and is two-sided
    spec = '{"n":2,"S":[[0,0],[0,0]],"H":[[0,{"re":0,"im":0.5}],[{"re":0,"im":-0.5},0]]}'
    code, report = run_cli_stdin(capsys, spec, ["decide", "-"])
    assert code == EXIT_OK
    assert report["classification"]["normal_form"] == {"tag": "M11_1", "A": 0.0, "B": 0.0}
    assert report["verdict"]["outcome"] == "two_sided"
    assert report["verdict"]["witness"]["kind"] == "nonminimal"


def test_cmd_classify_schema_error(capsys):
    import io, sys

    old = sys.stdin
    sys.stdin = io.StringIO("not json")
    try:
        code, report = run_cli(capsys, ["classify", "-"])
    finally:
        sys.stdin = old
    assert code == EXIT_SCHEMA
    assert report["error"]["kind"] == "schema"


def test_cmd_verify_fixture(capsys):
    code, report = run_cli(capsys, ["verify", "--fixture", "m20"])
    assert code == EXIT_OK
    assert report["verification"]["min_margin"] > 0


@pytest.mark.parametrize("command", ["decide", "verify"])
def test_cmd_degenerate_exit_code(capsys, command):
    # the classification alone reports a degenerate cone: no verdict
    spec = '{"n": 2, "S": [[0, 0], [0, 0]], "H": [[1, 0], [0, 1]]}'
    code, report = run_cli_stdin(capsys, spec, [command, "-"])
    assert code == EXIT_DEGENERATE
    assert report["classification"]["degenerate"] == {
        "reason": "PointCone", "detail": "rho is definite: the rendered set is {0}"
    }
    assert "verdict" not in report and "verification" not in report


@pytest.mark.parametrize(
    "command, fixture, error",
    [
        ("classify", "slice_pi2_axis", "classify handles n = 2; use the slice command for n >= 3"),
        ("decide", "slice_pi2_axis", "decide handles n = 2; use the slice command for n >= 3"),
        ("verify", "slice_pi2_axis", "verify handles n = 2; use the slice command for n >= 3"),
        ("slice", "m20", "slice handles n >= 3; use classify/decide for n = 2"),
    ],
)
def test_a_cone_of_the_wrong_dimension_exits_schema(capsys, command, fixture, error):
    report = assert_schema_exit(capsys, [command, "--fixture", fixture], "n")
    assert report == {"error": {"kind": "schema", "message": "n: " + error}}


@pytest.mark.parametrize("path", ["does_not_exist.json", "-"])
def test_fixture_with_an_input_path_exits_schema(capsys, path):
    report = assert_schema_exit(capsys, ["decide", "--fixture", "m20", path], "--fixture")
    assert repr(path) in report["error"]["message"]


PLANAR_FIXTURES = [name for name, make in sorted(FIXTURES.items()) if make().n == 2]


@pytest.mark.parametrize("fixture", PLANAR_FIXTURES)
def test_cmd_verify_csv_rows_are_the_checked_points(tmp_path, capsys, fixture):
    import csv

    csv_path = tmp_path / "pts.csv"
    code, report = run_cli(capsys, ["verify", "--fixture", fixture, "--csv", str(csv_path)])
    assert code == EXIT_OK and report["csv"] == str(csv_path)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["eps", "re_z1", "im_z1", "re_z2", "im_z2", "rho"]
    ver = report["verification"]
    assert len(rows) == ver["points_checked"]
    rows = np.array(rows, dtype=float)
    eps, rho = rows[:, 0], rows[:, 5]
    Z = rows[:, 1:5:2] + 1j * rows[:, 2:5:2]
    cone = FIXTURES[fixture]()
    np.testing.assert_array_equal(rho, rho_at(cone, Z))
    verdict = report["verdict"]
    if verdict["outcome"] == "one_sided":
        # one row per eps of the grid, then one per line of the limit disc
        k = len(DEFAULT_EPS)
        assert list(eps) == [*DEFAULT_EPS, *[0.0] * (len(rows) - k)]
        side_rho = verdict["side"] * rho
        assert (side_rho[:k] >= ver["min_margin"]).all()
        assert (side_rho[k:] >= ver["touch_residual"]).all()
    else:
        # the maximum and minimum point of A+, then of A-
        assert len(rows) == 4 and (eps == 0.0).all()
        normalized = rho / (np.linalg.norm(Z, axis=1) ** 2 * max(cone.scale, 1e-300))
        assert normalized[1] == ver["plus_min"] and normalized[2] == ver["minus_max"]


def test_cmd_slice_fixture(capsys):
    code, report = run_cli(capsys, ["slice", "--fixture", "slice_pi2_axis", "--budget", "64"])
    assert code == EXIT_OK
    assert report["slice"]["classification"]["normal_form"]["tag"] == "M20"
    assert report["slice"]["verdict"]["outcome"] == "one_sided"


def test_cmd_slice_reaches_the_shear_fallback_when_the_axis_slice_fails(capsys):
    # the axis slice restricts this cone to an M20 whose disc certificate fails
    # at large A (its bound is about -106 at eps = 1e-2), so the search goes on
    # to the shears; a change that makes the axis slice certify it updates this
    S = np.diag([1e16, 1e8, 1.0]).astype(complex)
    code, report = run_slice_stdin(capsys, S, np.eye(3, dtype=complex), [])
    assert code == EXIT_OK
    assert report["slice"]["description"] == "shear slice z3 = a z1, a = 16+0j"
    assert report["slice"]["disc_verification"]["min_margin"] > 0


def test_cmd_slice_two_sided_forms(capsys):
    code, report = run_cli(capsys, ["slice", "--fixture", "ts1_k3", "--budget", "24"])
    assert code == EXIT_OK
    assert report["slice"] is None
    assert report["two_sided_form"]["kind"] == "ts1"
    assert report["two_sided_form"]["k"] == 3


@pytest.mark.parametrize(
    "fixture, kind, k, inner_tag",
    [("product_example_m", "product", None, "M11_1"), ("ts1_k3", "ts1", 3, None), ("ts2", "ts2", None, None)],
)
def test_cmd_slice_skips_the_search_on_certified_two_sided_shapes(
    capsys, monkeypatch, fixture, kind, k, inner_tag
):
    # only the product carries a checked witness, its C^2 factor's lines; ts1
    # and ts2 rest on a fit, so the search runs on them and finds no slice
    searched = []

    def search(cone, budget):
        assert kind != "product", "find_good_slice called on a certified two-sided cone"
        searched.append(find_good_slice(cone, budget=budget))
        return searched[-1]

    monkeypatch.setattr("quadcone.cli.find_good_slice", search)
    code, report = run_cli(capsys, ["slice", "--fixture", fixture])
    assert searched == ([] if kind == "product" else [None])
    assert code == EXIT_OK
    assert report["slice"] is None
    form = report["two_sided_form"]
    assert form["kind"] == kind and form["k"] == k
    assert form.get("inner", {}).get("normal_form", {}).get("tag") == inner_tag


@pytest.mark.parametrize(
    "fixture, fitted",
    [("slice_pi2_axis", False), ("slice_oneone_r_z1z3", False), ("product_example_m", True),
     ("ts1_k3", True), ("ts2", True)],
)
def test_cmd_slice_fits_two_sided_shapes_only_when_the_search_finds_nothing(
    capsys, monkeypatch, fixture, fitted
):
    # the product test comes first; the ts1 and ts2 fits run after a search
    # that found no slice, and one SVD of [S; H] serves the whole op
    import quadcone.cli as cli

    n = FIXTURES[fixture]().n
    fits, stacked = [], []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        if a.shape == (2 * n, n):
            stacked.append(a.shape)
        return svd(a, *args, **kwargs)

    def fit(cone, product):
        fits.append(product.kdim)
        return classify_two_sided_nd(cone, product)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(cli, "classify_two_sided_nd", fit)
    code, report = run_cli(capsys, ["slice", "--fixture", fixture])
    assert code == EXIT_OK
    assert (report["slice"] is None) == fitted
    assert len(fits) == int(fitted)
    assert len(stacked) == 1


@pytest.mark.parametrize(
    "tag, S2, H2",
    [
        ("M11_1", np.diag([0.5, 1.0 / 3.0]), np.diag([1.0, -1.0])),
        ("M11_2", np.diag([1.0 + 1.0j, 1.0 - 1.0j]), np.array([[0.0, 0.5j], [-0.5j, 0.0]])),
        ("M11_3", np.diag([1.0, 0.0]), np.array([[0.0, 0.5j], [-0.5j, 0.0]])),
    ],
)
def test_cmd_slice_large_scale_two_sided_product_gets_no_slice(capsys, tag, S2, H2):
    # a two-sided C^2 factor times an inert z3, under a fixed GL(3,C) change at
    # scale 1e7: the slice search alone accepts a slice here whose restricted
    # cone is rounding noise, as a one-sided slice
    rng = np.random.default_rng(1)
    while True:
        T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        if np.linalg.cond(T) <= 8.0:
            break
    S0 = np.zeros((3, 3), dtype=complex)
    H0 = np.zeros((3, 3), dtype=complex)
    S0[:2, :2], H0[:2, :2] = S2, H2
    code, report = run_slice_stdin(capsys, 1e7 * T.T @ S0 @ T, 1e7 * T.conj().T @ H0 @ T, [])
    assert code == EXIT_OK
    assert report["slice"] is None
    assert report["two_sided_form"]["kind"] == "product"
    assert report["two_sided_form"]["inner"]["normal_form"]["tag"] == tag


@pytest.mark.parametrize(
    "S, H",
    [
        (
            np.diag([8.266e15, -3.944e5 - 1.791e5j, 0, 5.616e6 - 1.226e5j, 0, 6.905e13 - 4.65e13j]),
            np.diag([0.1756, 2.753, 2.554, -8.773, -0.3132, -1.295]),
        ),
        (
            np.diag([-33.6 + 13.92j, 3.222e5 + 1.105e5j, 0, -6.423e4 + 2.979e4j, 115.7 - 395.9j, 2.036e14]),
            np.diag([4.759, 0.1619, 1.779, 1.032, 2.922, 0.0]),
        ),
    ],
)
def test_cmd_slice_certifies_the_axis_slice_of_a_spread_harmonic_part(capsys, S, H):
    # harmonic coefficients spread over 1e10 and more: the axis plane restricts
    # the cone to below 1e-10 of its scale, and the discs certified on the
    # input itself show it one-sided
    code, report = run_slice_stdin(capsys, S, H, [])
    assert code == EXIT_OK
    assert report["slice"]["description"] == "axis slice z_j = 0, j = 3..n"
    assert report["slice"]["verdict"]["outcome"] == "one_sided"
    assert report["slice"]["disc_verification"]["min_margin"] > 0


def test_cmd_slice_unknown_exit_code(capsys):
    # near-dependent bilinear-factor data sitting in the conditioning gap
    # between the product-kernel and fit-independence thresholds: the cone is
    # two-sided (non-minimal) but no recognizer may claim it, so the contract
    # is "no slice found and form unknown"
    delta = 3e-9
    a = np.array([1.0, 0, 0])
    l = np.array([0, 1.0, 0])
    m = np.array([1.0, 0, delta])
    S = 0.5 * (np.outer(a, l) + np.outer(l, a))
    H = 0.5 * (np.outer(m.conj(), a) + np.outer(a.conj(), m))
    code, report = run_slice_stdin(capsys, S, H, ["--budget", "12"])
    assert code == EXIT_UNRESOLVED
    assert report["two_sided_form"]["kind"] == "unknown"


def test_cmd_slice_degenerate_precheck(capsys):
    code, report = run_slice_stdin(capsys, np.zeros((3, 3)), np.eye(3), [])
    assert code == EXIT_DEGENERATE
    assert report["classification"]["degenerate"]["reason"] == "PointCone"


def test_cmd_verify_failure_exit_code(capsys):
    # an eps far outside the unit-ball truncation leaves the level variety
    # empty, which the verifier reports as a failure (exit 3)
    from quadcone.cli import EXIT_VERIFICATION

    code, report = run_cli(capsys, ["verify", "--fixture", "m20", "--eps", "50"])
    assert code == EXIT_VERIFICATION
    assert "failed" in report["verification"]


def test_cmd_verify_reports_an_eps_beyond_the_affine_lines_reach(capsys):
    # M11_1 (2, 0.5): D_eps = {w1 = i eps, |w| <= 1} is empty for eps > 1
    from quadcone.cli import EXIT_VERIFICATION

    spec = '{"n": 2, "S": [[2, 0], [0, 0.5]], "H": [[1, 0], [0, -1]]}'
    code, report = run_cli_stdin(capsys, spec, ["verify", "-", "--eps", "1.5"])
    assert code == EXIT_VERIFICATION
    assert report["verdict"]["disc_family"]["kind"] == "affine_line"
    assert report["verification"] == {"failed": "no disc points found at eps=1.5"}


def test_cmd_verify_tol_override_echoed(capsys):
    code, report = run_cli(
        capsys,
        ["verify", "--fixture", "m11_2", "--tol-overrides", "support_rel=1e-10"],
    )
    assert code == EXIT_OK
    assert report["tolerances"]["overrides"] == {"support_rel": 1e-10}


def assert_schema_exit(capsys, argv, option):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_SCHEMA
    assert captured.err == ""  # no argparse usage text
    report = json.loads(captured.out)
    assert report["error"]["kind"] == "schema"
    assert report["error"]["message"].startswith(option + ":")
    return report


@pytest.mark.parametrize("value", ["-1", "0,0.1", "x", "", "1e-2,nan", "inf"])
def test_bad_eps_exits_schema(capsys, value):
    assert_schema_exit(capsys, ["verify", "--fixture", "example_m", "--eps", value], "--eps")


@pytest.mark.parametrize(
    "value",
    ["support_rel", "support_rel=x", "support_rel=1e-9,=2",
     "support_rel=nan", "support_rel=inf", "support_rel=-1"],
)
def test_bad_tol_overrides_exits_schema(capsys, value):
    assert_schema_exit(
        capsys, ["verify", "--fixture", "example_m", "--tol-overrides", value], "--tol-overrides"
    )


@pytest.mark.parametrize("value", ["a,b", "0.5,", "nan", "0.5,-inf"])
def test_bad_grid_exits_schema(capsys, value):
    assert_schema_exit(capsys, ["atlas", "--tag", "M20", "--grid", value], "--grid")


@pytest.mark.parametrize("value", ["0", "-5", "x", "1.5", ""])
def test_bad_samples_exits_schema(capsys, value):
    assert_schema_exit(capsys, ["jump-demo", "--samples", value], "--samples")


@pytest.mark.parametrize("value", ["0", "-1", "x", "2.0"])
def test_bad_budget_exits_schema(capsys, value):
    assert_schema_exit(capsys, ["slice", "--fixture", "ts2", "--budget", value], "--budget")


@pytest.mark.parametrize("value", ["-1", "x", "1.5", ""])
def test_bad_seed_exits_schema(capsys, value):
    assert_schema_exit(capsys, ["jump-demo", "--seed", value], "--seed")


@pytest.mark.parametrize("option", ["--seed", "--samples"])
@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--fixture", "example_m"],
        ["decide", "--fixture", "example_m"],
        ["verify", "--fixture", "example_m", "--csv", "unused.csv"],
        ["slice", "--fixture", "ts2"],
        ["atlas", "--tag", "M20"],
    ],
    ids=lambda argv: argv[0],
)
def test_only_jump_demo_takes_seed_and_samples(capsys, tmp_path, monkeypatch, argv, option):
    # jump-demo is the one command that samples; the others refuse the
    # options as a usage error (exit 4), a valid value included
    monkeypatch.chdir(tmp_path)  # where verify would write its CSV
    report = assert_schema_exit(capsys, [*argv, option, "1"], "quadcone")
    assert f"unrecognized arguments: {option}" in report["error"]["message"]
    assert not (tmp_path / "unused.csv").exists()


# The options each sub-command reads, as build_parser() declares them; a
# command refuses any other option as a usage error.
COMMAND_OPTIONS = {
    "classify": {"input", "--fixture"},
    "decide": {"input", "--fixture"},
    "verify": {"input", "--fixture", "--eps", "--tol-overrides", "--csv"},
    "slice": {"input", "--fixture", "--budget"},
    "jump-demo": {"--seed", "--samples"},
    "atlas": {"--tag", "--grid", "--csv"},
}


def parser_options() -> dict:
    """{sub-command: its positional names and first option strings}, help left out."""
    import argparse

    from quadcone.cli import build_parser

    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {a.option_strings[0] if a.option_strings else a.dest
               for a in p._actions if not isinstance(a, argparse._HelpAction)}
        for name, p in sub.choices.items()
    }


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_each_command_declares_only_the_options_it_reads(command):
    assert parser_options()[command] == COMMAND_OPTIONS[command]


def test_the_commands_declare_seventeen_options_in_all():
    options = parser_options()
    assert set(options) == set(COMMAND_OPTIONS)
    assert sum(map(len, options.values())) == 17


def test_count_options_accept_one(capsys):
    code, report = run_cli(capsys, ["jump-demo", "--samples", "1"])
    assert code == EXIT_OK and report["samples"] == 1 and report["jump"]["points_checked"] == 1
    code, report = run_cli(capsys, ["slice", "--fixture", "slice_pi2_axis", "--budget", "1"])
    assert code == EXIT_OK


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--fixture", "example_m"],
        ["decide", "--fixture", "example_m"],
        ["slice", "--fixture", "ts2"],
        ["jump-demo"],
        ["atlas", "--tag", "M20"],
    ],
    ids=lambda argv: argv[0],
)
def test_only_verify_takes_tol_overrides(capsys, argv):
    # verify's line check is the one place a support_rel override is enforced;
    # the usage error exits 4, not 2, the code of a degenerate cone
    report = assert_schema_exit(capsys, [*argv, "--tol-overrides", "support_rel=1e-9"], "quadcone")
    assert "unrecognized arguments: --tol-overrides" in report["error"]["message"]


def test_tol_overrides_rejects_unknown_keys(capsys):
    # support_rel is the only tolerance verify enforces; any other key would
    # be echoed under tolerances.overrides and then ignored
    report = assert_schema_exit(
        capsys,
        ["verify", "--fixture", "example_m", "--tol-overrides", "eigenvalue_zero_rel=0.5"],
        "--tol-overrides",
    )
    assert "eigenvalue_zero_rel" in report["error"]["message"]


def test_parser_reuse_leaks_no_state(capsys, monkeypatch):
    import quadcone.cli as cli

    sequence = [
        ["verify", "--fixture", "m20", "--eps", "50"],
        ["verify", "--fixture", "m20"],
        ["atlas", "--tag", "M11_1", "--grid", "0.5,1.0,1.5"],
        ["atlas", "--tag", "M11_1"],
        ["slice", "--fixture", "slice_pi2_axis", "--budget", "8"],
        ["slice", "--fixture", "slice_pi2_axis"],
        ["jump-demo", "--samples", "500", "--seed", "3"],
        ["jump-demo"],
    ]

    def report(argv):
        code = main(argv)
        out = json.loads(capsys.readouterr().out)
        out.pop("timings")
        return code, out

    fresh = {}
    for argv in sequence:
        cli._parser.cache_clear()  # a freshly built parser for this call alone
        fresh[tuple(argv)] = report(argv)

    builds = []
    build_parser = cli.build_parser

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    try:
        for argv in sequence:
            for _ in range(2):
                assert report(argv) == fresh[tuple(argv)], argv
    finally:
        cli._parser.cache_clear()
    assert len(builds) <= 1
    assert fresh[tuple(sequence[0])][0] == cli.EXIT_VERIFICATION
    assert fresh[tuple(sequence[3])][1]["atlas"]["grid"] == list(cli.DEFAULT_GRID)


def test_cmd_jump_demo(capsys):
    code, report = run_cli(capsys, ["jump-demo", "--samples", "4000", "--seed", "5"])
    assert code == EXIT_OK
    assert report["jump"]["identity_residual"] <= 1e-12
    assert report["jump"]["continuity_ratio"] <= 10.0


def test_cmd_atlas_matches_decision_table(capsys):
    grid = "0.25,0.5,0.75,1.0,1.25,1.5,2.0"
    code, report = run_cli(capsys, ["atlas", "--tag", "M11_1", "--grid", grid])
    assert code == EXIT_OK
    for cell in report["atlas"]["cells"]:
        a, b = cell["params"]["A"], cell["params"]["B"]
        expect_two = (b <= a <= 1.0) or (a == b)
        assert (cell["outcome"] == "two_sided") == expect_two, cell


@pytest.mark.parametrize(
    "tag, grid, params",
    [
        ("M20", "-1,0.5,3", [(3.0, 0.5), (3.0, 3.0)]),
        ("M11_1", "-1,0.5,3", [(0.5, 0.5), (3.0, 0.5), (3.0, 3.0)]),
        ("M10_1", "-1,0.5,3", [(0.5,), (3.0,)]),
        ("M11_2", "0,1,2", [(complex(a, b),) for a in (1.0, 2.0) for b in (0.0, 1.0, 2.0)]),
    ],
)
def test_cmd_atlas_tabulates_the_grid_points_in_the_tags_range(capsys, tag, grid, params):
    # NormalFormType decides the range: the other grid points are left out
    from quadcone import cli
    from quadcone.normalform import NormalFormType

    code, report = run_cli(capsys, ["atlas", "--tag", tag, f"--grid={grid}"])
    assert code == EXIT_OK
    cells = report["atlas"]["cells"]
    assert [c["params"] for c in cells] == [
        json.loads(cli.report_text(cli._ntype_json(NormalFormType(tag, *p)))) for p in params
    ]
    assert all(c["outcome"] in ("one_sided", "two_sided") for c in cells)


def test_cmd_atlas_cell_a_rounding_off_a_equals_b_is_not_on_that_stratum(capsys):
    # only A == B exactly is non-minimal; (1 + 1e-13, 1) is in the A = 1 band
    code, report = run_cli(capsys, ["atlas", "--tag", "M11_1", "--grid", "1.0000000000001,1"])
    assert code == EXIT_OK
    kinds = [(c["params"]["A"], c["params"]["B"], c["witness_kind"]) for c in report["atlas"]["cells"]]
    assert kinds == [
        (1.0000000000001, 1.0000000000001, "nonminimal"),
        (1.0000000000001, 1.0, "proper"),
        (1.0, 1.0, "nonminimal"),
    ]


def test_cmd_atlas_csv_has_one_row_per_cell(tmp_path, capsys):
    import csv

    csv_path = tmp_path / "atlas.csv"
    argv = ["atlas", "--tag", "M11_1", "--grid", "0.5,1.5", "--csv", str(csv_path)]
    code, report = run_cli(capsys, argv)
    assert code == EXIT_OK and report["csv"] == str(csv_path)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["tag", "params", "outcome", "side_or_kind"]
    cells = report["atlas"]["cells"]
    assert len(rows) == len(cells) == 3
    for row, cell in zip(rows, cells):
        assert row[0] == "M11_1" and json.loads(row[1]) == cell["params"]
        assert row[2:] == [cell["outcome"], str(cell.get("side", cell.get("witness_kind")))]


def test_cmd_atlas_cross_check_decide(capsys):
    # each atlas cell agrees with the full classify-then-decide path, away
    # from the exactly-degenerate cell A = B = 1 (whose rendered polynomial
    # is a product of two real hyperplanes)
    from quadcone.decider import decide2
    from quadcone.normalform import NormalFormType, classify2, render_cone

    code, report = run_cli(capsys, ["atlas", "--tag", "M11_1", "--grid", "0.5,1.0,1.5"])
    assert code == EXIT_OK
    for cell in report["atlas"]["cells"]:
        a, b = cell["params"]["A"], cell["params"]["B"]
        if a == b == 1.0:
            continue
        cone = render_cone(NormalFormType("M11_1", a=a, b=b))
        res = classify2(cone)
        verdict = decide2(res, cone)
        assert verdict.outcome == cell["outcome"], cell


def test_cmd_atlas_reports_a_failed_cell_in_the_full_table(capsys):
    # A = 1 + 5e-10 lies in decide2's A = 1 band: the line {z2 = 0} of the
    # (A, 0.5) cell dips below the cone, and the other cells stay in the table
    from quadcone.cli import EXIT_VERIFICATION

    code, report = run_cli(capsys, ["atlas", "--tag", "M11_1", "--grid", "1.0000000005,0.5"])
    assert code == EXIT_VERIFICATION
    cells = report["atlas"]["cells"]
    assert [(c["params"]["A"], c["params"]["B"], c["outcome"]) for c in cells] == [
        (1.0000000005, 1.0000000005, "two_sided"),
        (1.0000000005, 0.5, "verification_failed"),
        (0.5, 0.5, "two_sided"),
    ]
    assert cells[1]["failed"].startswith("A+ witness {z2 = 0} dips below the cone")


@pytest.mark.parametrize(
    "argv, prog",
    [([], "quadcone"), (["frob"], "quadcone"), (["atlas"], "quadcone atlas"),
     (["atlas", "--tag", "M99"], "quadcone atlas"), (["decide", "--fixture", "nope"], "quadcone decide")],
)
def test_usage_errors_exit_schema(capsys, argv, prog):
    # exit 2 is a degenerate cone; a usage error is a schema error
    assert_schema_exit(capsys, argv, prog)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decide", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: quadcone decide")


def test_determinism_modulo_timings(capsys):
    def run(argv):
        code, report = run_cli(capsys, argv)
        assert code == EXIT_OK
        report.pop("timings")
        return json.dumps(report, sort_keys=True)

    for argv in (
        ["verify", "--fixture", "m11_2"],
        ["jump-demo", "--seed", "5"],
    ):
        assert run(argv) == run(argv)


def test_every_fixture_through_the_cli(tmp_path, capsys):
    # each fixture, written out as an input file, parses back to the same cone
    # and runs cleanly through the matching command
    for name, make in sorted(FIXTURES.items()):
        cone = make()
        path = tmp_path / f"{name}.json"
        text = json.dumps(spec_to_json(ConeSpec(cone, 0.0, 0.0)), default=_complex_json)
        path.write_text(text, encoding="utf-8")
        assert parse_spec(path.read_text()).cone == cone, name
        if cone.n == 2:
            code, report = run_cli(capsys, ["verify", str(path)])
        else:
            code, report = run_cli(capsys, ["slice", str(path), "--budget", "128"])
        assert code == EXIT_OK, (name, report.get("error"))


# --- exact supporting lines, residual gate, margins ---------------------------


def test_cmd_verify_two_sided_reports_the_exact_line_extremes(capsys):
    code, report = run_cli(capsys, ["verify", "--fixture", "example_m"])
    assert code == EXIT_OK
    ver = report["verification"]
    assert ver["points_checked"] == 4
    # example_m: S = diag(1/2, 1/3), H = diag(1, -1), witness lines on the axes;
    # rho / |z|^2 is 1 -/+ 1/2 on {z2 = 0} and -1 -/+ 1/3 on {z1 = 0}
    scale = np.sqrt(0.25 + 1.0 / 9.0) + np.sqrt(2.0)
    assert ver["plus_min"] == pytest.approx((1.0 - 0.5) / scale, rel=1e-14)
    assert ver["minus_max"] == pytest.approx((-1.0 + 1.0 / 3.0) / scale, rel=1e-14)


@pytest.mark.parametrize("command", ["decide", "verify"])
def test_a_residual_beyond_its_bound_is_reported_in_full(capsys, monkeypatch, command):
    import quadcone.cli as cli
    from quadcone.cli import EXIT_VERIFICATION
    from quadcone.quadform import replace

    classify = cli.classify2

    def off_bound(cone):
        res = classify(cone)
        return replace(res, residual=2.0 * res.residual_bound)

    monkeypatch.setattr(cli, "classify2", off_bound)
    code, report = run_cli(capsys, [command, "--fixture", "example_m"])
    assert code == EXIT_VERIFICATION
    assert report["classification"]["normal_form"]["tag"] == "M11_1"
    assert "exceeds" in report["verification"]["failed"]
    assert "verdict" not in report


@pytest.mark.parametrize("fixture", ["m10_2", "m11_3"])
def test_exact_table_forms_are_not_low_confidence(capsys, fixture):
    code, report = run_cli(capsys, ["classify", "--fixture", fixture])
    assert code == EXIT_OK
    assert report["classification"]["low_confidence"] is False


# --- verify's own supporting-line check, degenerate slices, traced names -------

# M11_1 with A = 1 + 5e-10: inside decide2's A = 1 boundary band, so it gets
# the two-sided witness, but the line {z2 = 0} dips to (1 - A) / scale
A_ONE_BAND = '{"n": 2, "S": [[1.0000000005, 0], [0, 0.5]], "H": [[1, 0], [0, -1]]}'


def test_cmd_verify_checks_the_supporting_lines_at_its_support_rel(capsys):
    from quadcone.cli import EXIT_VERIFICATION

    argv = ["verify", "-", "--tol-overrides", "support_rel=1e-9"]
    code, report = run_cli_stdin(capsys, A_ONE_BAND, argv)
    assert code == EXIT_OK
    assert report["verdict"]["outcome"] == "two_sided"
    scale = np.sqrt(1.0000000005**2 + 0.25) + np.sqrt(2.0)
    assert report["verification"]["plus_min"] == pytest.approx(-5e-10 / scale, rel=1e-5)
    # at the default support_rel the failure is the full report, not a bare error
    code, report = run_cli_stdin(capsys, A_ONE_BAND, ["verify", "-"])
    assert code == EXIT_VERIFICATION
    assert report["classification"]["normal_form"]["tag"] == "M11_1"
    assert report["verdict"]["outcome"] == "two_sided"
    assert "dips below the cone" in report["verification"]["failed"]


def test_cmd_decide_reports_a_failed_line_check_in_full(capsys):
    from quadcone.cli import EXIT_VERIFICATION

    code, report = run_cli_stdin(capsys, A_ONE_BAND, ["decide", "-"])
    assert code == EXIT_VERIFICATION
    assert "error" not in report
    assert report["classification"]["normal_form"]["tag"] == "M11_1"
    assert "dips below the cone" in report["verification"]["failed"]
    assert "verdict" not in report


def test_cmd_verify_evaluates_each_supporting_line_once(capsys, monkeypatch):
    import quadcone.decider as decider

    points = []
    evaluate_rows = decider.rho_at

    def counting_rho_at(cone, Z):
        points.append(len(Z))
        return evaluate_rows(cone, Z)

    monkeypatch.setattr(decider, "rho_at", counting_rho_at)
    code, report = run_cli(capsys, ["verify", "--fixture", "example_m"])
    assert code == EXIT_OK
    assert sum(points) == report["verification"]["points_checked"] == 4


@pytest.mark.parametrize(
    "S, H, reason",
    [
        (np.zeros((3, 3)), np.eye(3), "PointCone"),
        (np.zeros((3, 3)), -np.diag([1.0, 2.0, 1.0]), "PointCone"),
        (np.zeros((3, 3)), np.diag([1.0, 1.0, 0.0]), "DimensionDeficient"),
        (np.zeros((3, 3)), np.zeros((3, 3)), "DimensionDeficient"),
        (np.diag([1.0, 0.0, 0.0]), np.zeros((3, 3)), "Reducible"),
    ],
)
def test_cmd_slice_degenerate_reports_carry_the_classify2_detail(capsys, S, H, reason):
    from quadcone.normalform import real_degeneracy

    code, report = run_slice_stdin(capsys, S, H, [])
    assert code == EXIT_DEGENERATE
    expected = real_degeneracy(QuadraticCone(S, H))
    assert expected.reason == reason
    assert report["classification"]["degenerate"] == {
        "reason": reason, "detail": expected.detail
    }


@pytest.mark.parametrize("seed, op", [(14, 86), (37, 115), (63, 61), (70, 35), (95, 35)])
def test_cmd_slice_timed_real_ratio_inputs_get_a_structured_slice(capsys, monkeypatch, seed, op):
    # one-sided nd_slice inputs whose common coupling has a real ratio far
    # from 1: the reduction to a z1 coupling must keep the slice basis well
    # conditioned, or the search ends with exit 2 ("numerically dependent")
    import importlib.util
    import pathlib
    import sys

    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up here
    spec.loader.exec_module(workloads)
    case = workloads.nd_slice(seed)[op]
    assert case.truth["outcome"] == "one_sided"
    code, report = run_cli_stdin(capsys, case.spec, list(case.argv))
    assert code == EXIT_OK, report
    assert report["slice"]["description"] == "dual slice after real-ratio reduction"


def test_traced_layer_names_record_spans_through_main(capsys):
    import importlib.util
    import pathlib

    import quadcone.cli as cli

    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in (
            ["decide", "--fixture", "example_m"],
            ["verify", "--fixture", "example_m"],
            ["slice", "--fixture", "slice_pi2_axis", "--budget", "8"],
            ["slice", "--fixture", "ts2"],
        ):
            assert cli.main(argv) == EXIT_OK, argv
            capsys.readouterr()
    finally:
        tracer.uninstall()
    names = {s[tracing.NAME] for s in tracer.spans}
    for name in (
        "normalform.classify2",
        "decider.decide2",
        "decider.verify_support",
        "slicer.classify_two_sided_nd",
        "slicer.find_good_slice",
    ):
        assert name in names, name
    assert cli.main.__module__ == "quadcone.cli" and not hasattr(cli.main, "__wrapped__")


# --- a numpy-free n = 2 process ------------------------------------------------

# Every command a process runs on a cone in C^2, with its exit code at the
# commit before the n = 2 path became numpy-free; the specs come on stdin.
_SPECS = {
    "asymmetric": '{"n": 2, "S": [[0.5, 0.25], [0.25, 0.3]],'
    ' "H": [[1, {"re": 0.2, "im": 0.1}], [{"re": 0.2, "im": -0.1}, -1]]}',
    "point_cone": '{"n": 2, "S": [[0, 0], [0, 0]], "H": [[1, 0], [0, 1]]}',
    "a_one_band": '{"n": 2, "S": [[1.0000000005, 0], [0, 0.5]], "H": [[1, 0], [0, -1]]}',
}
_SPEC_EXITS = {"asymmetric": (0, 0, 0), "point_cone": (2, 2, 2), "a_one_band": (0, 3, 3)}
# loaded: which of numpy, dataclasses and inspect are in sys.modules after the
# import, then after each run
_NUMPY_FREE_RUN = """
import contextlib, io, json, sys
from quadcone.cli import main
runs, specs = json.loads(sys.argv[1]), json.loads(sys.argv[2])
watched = ("numpy", "dataclasses", "inspect")
codes, loaded = [], [[m for m in watched if m in sys.modules]]
for argv, spec in runs:
    sys.stdin = io.StringIO(specs.get(spec, ""))
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
    loaded.append([m for m in watched if m in sys.modules])
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules, "loaded": loaded}))
"""


def _process(tmp_path, code: str, *args: str) -> str:
    import os
    import pathlib
    import subprocess
    import sys

    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_the_n2_commands_run_to_exit_without_numpy(tmp_path):
    # classify, decide, verify (with and without --csv) on every n = 2
    # fixture and on specs from stdin, then atlas on every tag, in one fresh
    # process: each exits as before, and numpy is not in sys.modules at the
    # end, nor dataclasses or inspect after the import or after any run
    runs, want = [], []
    for name in PLANAR_FIXTURES:
        for argv in (["classify"], ["decide"], ["verify"], ["verify", "--csv", str(tmp_path / "p.csv")]):
            runs.append((argv + ["--fixture", name], None))
            want.append(EXIT_OK)
    for spec, codes in _SPEC_EXITS.items():
        runs += [([cmd, "-"], spec) for cmd in ("classify", "decide", "verify")]
        want += codes
    runs += [(["atlas", "--tag", tag], None) for tag in ("M20", "M11_1", "M11_2", "M11_3", "M10_1", "M10_2", "M00_1")]
    want += [EXIT_OK] * 7
    got = json.loads(_process(tmp_path, _NUMPY_FREE_RUN, json.dumps(runs), json.dumps(_SPECS)))
    assert got["codes"] == want
    assert got["numpy"] is False
    assert got["loaded"] == [[]] * (len(runs) + 1)


def test_the_n2_poly_commands_run_to_exit_without_numpy(tmp_path):
    # a polynomial spec in C^2 is decomposed on Python scalars, so classify,
    # decide and verify on it leave numpy unloaded as well
    poly = (
        '{"n": 2, "poly": [{"vars": ["x1", "x1"], "coeff": 1.5}, {"vars": ["y1", "y1"], "coeff": 0.5},'
        ' {"vars": ["x2", "x2"], "coeff": -0.6}, {"vars": ["y2", "y2"], "coeff": -1.4},'
        ' {"vars": ["x1", "y2"], "coeff": {"re": 0.25}}]}'
    )
    runs = [([cmd, "-"], "poly") for cmd in ("classify", "decide", "verify")]
    got = json.loads(_process(tmp_path, _NUMPY_FREE_RUN, json.dumps(runs), json.dumps({"poly": poly})))
    assert got["codes"] == [EXIT_OK] * 3
    assert got["numpy"] is False


def test_slice_and_jump_demo_still_run_in_a_fresh_process(tmp_path):
    runs = [(["slice", "--fixture", "slice_pi2_axis"], None), (["jump-demo"], None)]
    got = json.loads(_process(tmp_path, _NUMPY_FREE_RUN, json.dumps(runs), "{}"))
    assert got["codes"] == [EXIT_OK, EXIT_OK] and got["numpy"] is True
