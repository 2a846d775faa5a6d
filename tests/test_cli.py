"""CLI surface: schema, round trips, exit codes, determinism, atlas."""

from __future__ import annotations

import json

import numpy as np
import pytest

from quadcone.cli import (
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_UNRESOLVED,
    SchemaError,
    main,
    parse_spec,
    spec_to_json,
)
from quadcone.quadform import NonHomogeneous, NonReal, QuadraticCone

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
    assert spec.n == 2
    np.testing.assert_allclose(spec.cone.S, np.diag([0.5, 0.3333333333]))
    np.testing.assert_allclose(spec.cone.H, np.diag([1.0, -1.0]))
    assert spec.s_adjustment == 0.0


def test_parse_round_trip():
    spec = parse_spec(EXAMPLE_M)
    again = parse_spec(json.dumps(spec_to_json(spec)))
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


def test_parse_spec_cone_equals_the_checked_constructor():
    # parse_spec builds its cone without the constructor's checks; the bits
    # are those of the checked constructor on the symmetrized matrices,
    # signed zeros included
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        S[0, 1] = S[1, 0] = complex(-0.0, -1.0)
        H[0, 1], H[1, 0] = complex(-0.0, -2.0), complex(-0.0, 2.0)
        H[0, 0] = complex(-0.0, -0.0)
        text = json.dumps({
            "n": n,
            "S": [[{"re": z.real, "im": z.imag} for z in row] for row in S],
            "H": [[{"re": z.real, "im": z.imag} for z in row] for row in H],
        })
        checked = QuadraticCone(0.5 * (S + S.T), 0.5 * (H + H.conj().T))
        cone = parse_spec(text).cone
        assert cone == checked
        assert np.array_equal(np.signbit(cone.S.real), np.signbit(checked.S.real))
        assert np.array_equal(np.signbit(cone.H.real), np.signbit(checked.H.real))
        assert np.array_equal(np.signbit(cone.H.imag), np.signbit(checked.H.imag))


@pytest.mark.parametrize(
    "S, H, path",
    [
        ('[[{"re": NaN}, 0], [0, 1]]', "[[1, 0], [0, -1]]", r"S\[0\]\[0\]"),
        ('[[1, {"im": Infinity}], [0, 1]]', "[[1, 0], [0, -1]]", r"S\[0\]\[1\]"),
        ("[[1, 0], [0, 1]]", "[[1, 0], [-Infinity, -1]]", r"H\[0\]\[1\]"),
        # finite entries whose symmetrization overflows
        ("[[1, 1e308], [1e308, 1]]", "[[1, 0], [0, -1]]", r"S\[0\]\[1\]"),
        ("[[1, 0], [0, 1]]", "[[1.7e308, 0], [0, -1]]", r"H\[0\]\[0\]"),
    ],
)
def test_parse_rejects_non_finite_matrices(capsys, S, H, path):
    text = f'{{"n": 2, "S": {S}, "H": {H}}}'
    with pytest.raises(SchemaError, match=path):
        parse_spec(text)
    code, report = run_cli_stdin(capsys, text, ["decide", "-"])
    assert code == EXIT_SCHEMA
    assert report["error"]["kind"] == "schema"


@pytest.mark.parametrize(
    "terms, path",
    [
        ('[{"vars": ["x1", "x1"], "coeff": NaN}]', r"poly\[0\]\.coeff"),
        ('[{"vars": ["x1", "y2"], "coeff": {"re": -Infinity}}]', r"poly\[0\]\.coeff"),
        # finite coefficients whose decomposition overflows
        ('[{"vars": ["x1", "x1"], "coeff": 1.7e308}, {"vars": ["y1", "y1"], "coeff": -1.7e308}]',
         "poly"),
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
    code, report = run_cli(
        capsys, ["verify", "--fixture", "m20", "--samples", "2000", "--seed", "3"]
    )
    assert code == EXIT_OK
    assert report["verification"]["min_margin"] > 0


def test_cmd_verify_csv(tmp_path, capsys):
    csv_path = tmp_path / "pts.csv"
    code, report = run_cli(
        capsys,
        ["verify", "--fixture", "m20", "--samples", "1000", "--csv", str(csv_path)],
    )
    assert code == EXIT_OK
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "eps,re_z1,im_z1,re_z2,im_z2,rho"
    assert len(lines) > 100


def test_cmd_slice_fixture(capsys):
    code, report = run_cli(
        capsys, ["slice", "--fixture", "slice_pi2_axis", "--budget", "64", "--samples", "3000"]
    )
    assert code == EXIT_OK
    assert report["slice"]["classification"]["normal_form"]["tag"] == "M20"
    assert report["slice"]["verdict"]["outcome"] == "one_sided"


def test_cmd_slice_two_sided_forms(capsys):
    code, report = run_cli(
        capsys, ["slice", "--fixture", "ts1_k3", "--budget", "24", "--samples", "1000"]
    )
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
    def no_search(*args, **kwargs):
        raise AssertionError("find_good_slice called on a certified two-sided cone")

    monkeypatch.setattr("quadcone.cli.find_good_slice", no_search)
    code, report = run_cli(capsys, ["slice", "--fixture", fixture])
    assert code == EXIT_OK
    assert report["slice"] is None
    form = report["two_sided_form"]
    assert form["kind"] == kind and form["k"] == k
    assert form.get("inner", {}).get("normal_form", {}).get("tag") == inner_tag


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
    code, report = run_slice_stdin(capsys, S, H, ["--budget", "12", "--samples", "400"])
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

    code, report = run_cli(
        capsys, ["verify", "--fixture", "m20", "--samples", "500", "--eps", "50"]
    )
    assert code == EXIT_VERIFICATION
    assert "failed" in report["verification"]


def test_cmd_verify_tol_override_echoed(capsys):
    code, report = run_cli(
        capsys,
        ["verify", "--fixture", "m11_2", "--samples", "800",
         "--tol-overrides", "support_rel=1e-10"],
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
        capsys, ["decide", "--fixture", "example_m", "--tol-overrides", value], "--tol-overrides"
    )


@pytest.mark.parametrize("value", ["a,b", "0.5,", "nan", "0.5,-inf"])
def test_bad_grid_exits_schema(capsys, value):
    assert_schema_exit(capsys, ["atlas", "--tag", "M20", "--grid", value], "--grid")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--fixture", "example_m"],
        ["decide", "--fixture", "example_m"],
        ["slice", "--fixture", "ts2"],
        ["jump-demo"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("value", ["0", "-5", "x", "1.5", ""])
def test_bad_samples_exits_schema(capsys, argv, value):
    assert_schema_exit(capsys, [*argv, "--samples", value], "--samples")


@pytest.mark.parametrize("value", ["0", "-1", "x", "2.0"])
def test_bad_budget_exits_schema(capsys, value):
    assert_schema_exit(capsys, ["slice", "--fixture", "ts2", "--budget", value], "--budget")


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "--fixture", "example_m"],
        ["verify", "--fixture", "example_m", "--csv", "unused.csv"],
        ["slice", "--fixture", "ts2"],
        ["jump-demo"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("value", ["-1", "x", "1.5", ""])
def test_bad_seed_exits_schema(capsys, tmp_path, monkeypatch, argv, value):
    monkeypatch.chdir(tmp_path)  # a parsed seed would let verify write its CSV here
    assert_schema_exit(capsys, [*argv, "--seed", value], "--seed")
    assert not (tmp_path / "unused.csv").exists()


def test_count_options_accept_one(capsys):
    code, report = run_cli(capsys, ["decide", "--fixture", "m20", "--samples", "1"])
    assert code == EXIT_OK and report["samples"] == 1
    code, report = run_cli(capsys, ["slice", "--fixture", "slice_pi2_axis", "--budget", "1"])
    assert code == EXIT_OK


def test_tol_overrides_rejects_unknown_keys(capsys):
    # support_rel is the only tolerance verify enforces; any other key would
    # be echoed under tolerances.overrides and then ignored
    for cmd in ("decide", "verify"):
        report = assert_schema_exit(
            capsys,
            [cmd, "--fixture", "example_m", "--tol-overrides", "eigenvalue_zero_rel=0.5"],
            "--tol-overrides",
        )
        assert "eigenvalue_zero_rel" in report["error"]["message"]


def test_parser_reuse_leaks_no_state(capsys, monkeypatch):
    import quadcone.cli as cli

    sequence = [
        ["verify", "--fixture", "m20", "--samples", "500", "--eps", "50"],
        ["verify", "--fixture", "m20", "--samples", "500"],
        ["atlas", "--tag", "M11_1", "--grid", "0.5,1.0,1.5"],
        ["atlas", "--tag", "M11_1"],
        ["slice", "--fixture", "slice_pi2_axis", "--samples", "600", "--budget", "8"],
        ["slice", "--fixture", "slice_pi2_axis", "--samples", "600"],
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


def test_determinism_modulo_timings(capsys):
    def run(argv):
        code, report = run_cli(capsys, argv)
        assert code == EXIT_OK
        report.pop("timings")
        return json.dumps(report, sort_keys=True)

    for argv in (
        ["verify", "--fixture", "m11_2", "--samples", "1500", "--seed", "11"],
        ["jump-demo", "--seed", "5"],
    ):
        assert run(argv) == run(argv)


def test_every_fixture_through_the_cli(capsys):
    # each shipped fixture runs cleanly through the matching command
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
    for path in sorted(root.glob("*.json")):
        n = json.loads(path.read_text())["n"]
        if n == 2:
            code, report = run_cli(capsys, ["verify", str(path), "--samples", "600"])
        else:
            code, report = run_cli(
                capsys, ["slice", str(path), "--budget", "128", "--samples", "600"]
            )
        assert code == EXIT_OK, (path.name, report.get("error"))


def test_fixture_files_match_builtins(tmp_path, capsys):
    # the shipped JSON fixture files parse to the same cones
    import pathlib

    from quadcone.fixtures import FIXTURES

    root = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
    for name in ("example_m", "ts2", "slice_pi2_axis"):
        spec = parse_spec((root / f"{name}.json").read_text())
        cone = FIXTURES[name]()
        np.testing.assert_allclose(spec.cone.S, cone.S, atol=1e-15)
        np.testing.assert_allclose(spec.cone.H, cone.H, atol=1e-15)


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


@pytest.mark.parametrize("samples, rows", [(300, 300), (1000, 512)])
def test_cmd_verify_two_sided_csv_rows_per_line(tmp_path, capsys, samples, rows):
    csv_path = tmp_path / "pts.csv"
    code, report = run_cli(
        capsys,
        ["verify", "--fixture", "m11_2", "--samples", str(samples), "--csv", str(csv_path)],
    )
    assert code == EXIT_OK
    assert report["verification"]["points_checked"] == 4
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * rows


def test_cmd_decide_exits_verification_on_a_residual_beyond_its_bound(capsys, monkeypatch):
    from dataclasses import replace

    import quadcone.cli as cli
    from quadcone.cli import EXIT_VERIFICATION

    classify = cli.classify2

    def off_bound(cone):
        res = classify(cone)
        return replace(res, residual=2.0 * res.residual_bound)

    monkeypatch.setattr(cli, "classify2", off_bound)
    code, report = run_cli(capsys, ["decide", "--fixture", "example_m"])
    assert code == EXIT_VERIFICATION
    assert report["error"]["kind"] == "verification"


def test_cmd_verify_reports_a_residual_beyond_its_bound_in_full(capsys, monkeypatch):
    from dataclasses import replace

    import quadcone.cli as cli
    from quadcone.cli import EXIT_VERIFICATION

    classify = cli.classify2

    def off_bound(cone):
        res = classify(cone)
        return replace(res, residual=2.0 * res.residual_bound)

    monkeypatch.setattr(cli, "classify2", off_bound)
    code, report = run_cli(capsys, ["verify", "--fixture", "example_m"])
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


def test_cmd_verify_evaluates_each_supporting_line_once(capsys, monkeypatch):
    import quadcone.decider as decider

    points = []
    evaluate_rows = decider.evaluate_many

    def counting_evaluate_many(cone, Z):
        points.append(len(Z))
        return evaluate_rows(cone, Z)

    monkeypatch.setattr(decider, "evaluate_many", counting_evaluate_many)
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
            ["slice", "--fixture", "slice_pi2_axis", "--budget", "8", "--samples", "2500"],
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
