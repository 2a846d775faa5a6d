"""Verdicts, disc families, support witnesses, and the jump demonstration."""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadcone.quadform as quadform
from quadcone.cli import DEFAULT_EPS
from quadcone.decider import (
    DiscFamily,
    VerificationFailed,
    build_disc_family,
    decide2,
    jump_demo,
    verify_discs,
    verify_support,
)
from quadcone.fixtures import example_m as example_m_cone
from quadcone.normalform import (
    DegeneracyReport,
    NormalFormResult,
    NormalFormType,
    apply_change,
    classify2,
    render_cone,
)
from quadcone.quadform import QuadraticCone, evaluate_many, form_distance, sample_points
from quadcone.slicer import find_good_slice

EPS_GRID = (1e-3, 1e-2, 1e-1)


def synth_result(ntype):
    return NormalFormResult(ntype=ntype, T=np.eye(2, dtype=complex), lam=1.0, sign=1, residual=0.0)


def random_gl2(rng, max_cond=25.0):
    while True:
        T = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if np.linalg.cond(T) < max_cond:
            return T


# --- the decision table --------------------------------------------------------


def expected_outcome(tag, params):
    if tag in ("M20", "M10_1"):
        return ("one_sided", +1)
    if tag == "M11_1":
        A, B = params
        if abs(A - B) <= 1e-9 or A <= 1.0 + 1e-9:
            return ("two_sided", None)
        return ("one_sided", -1)
    return ("two_sided", None)


def test_decide_example_m():
    cone = example_m_cone()
    v = decide2(classify2(cone), cone)
    assert v.outcome == "two_sided" and v.witness.kind == "proper"
    assert v.witness.aplus.label == "{z2 = 0}"
    assert v.witness.aminus.label == "{z1 = 0}"


def test_decide_m20():
    cone = render_cone(NormalFormType("M20", a=2.0, b=0.0))
    v = decide2(classify2(cone), cone)
    assert v.outcome == "one_sided" and v.side == +1
    np.testing.assert_allclose(v.discs.c, np.diag([2.0, 0.0]), atol=1e-9)


def test_decide_m00_contains_line():
    cone = render_cone(NormalFormType("M00_1"))
    v = decide2(classify2(cone), cone)
    assert v.outcome == "two_sided" and v.witness.kind == "nonminimal"
    # witness line z2 = i z1 sits inside the cone
    t = np.linspace(0.1, 1, 7)
    Z = np.column_stack([t, 1j * t])
    assert np.max(np.abs(evaluate_many(cone, Z))) <= 1e-12


def test_decide_degenerate_passthrough():
    rep = DegeneracyReport("PointCone", "test")
    v = decide2(rep)
    assert v.outcome == "degenerate" and v.degeneracy is rep


def test_verdict_table_bijection():
    rng = np.random.default_rng(61)
    cases = []
    for _ in range(200):
        tag = rng.choice(["M20", "M11_1", "M11_2", "M11_3", "M10_1", "M10_2", "M00_1"])
        if tag == "M20":
            A = rng.uniform(1.01, 4)
            ntype = NormalFormType(tag, a=A, b=rng.uniform(0, A))
        elif tag == "M11_1":
            A = rng.uniform(0, 3)
            ntype = NormalFormType(tag, a=A, b=rng.uniform(0, A))
        elif tag == "M11_2":
            ntype = NormalFormType(tag, a=complex(rng.uniform(0.1, 2), rng.uniform(0, 2)))
        elif tag == "M10_1":
            ntype = NormalFormType(tag, a=rng.uniform(0, 3))
        else:
            ntype = NormalFormType(tag)
        cases.append(ntype)
    for ntype in cases:
        v = decide2(synth_result(ntype))
        out, side = expected_outcome(ntype.tag, ntype.params())
        assert v.outcome == out
        if side is not None:
            assert v.side == side


def test_m11_boundary_a_equals_one():
    # at A = 1 the two-sided clause wins: the supporting lines verify
    cone = render_cone(NormalFormType("M11_1", a=1.0, b=0.5))
    v = decide2(classify2(cone), cone)
    assert v.outcome == "two_sided"
    assert "A = 1 boundary" in v.note


def test_m11_boundary_band_note_claims_no_check():
    # A = 1 + 5e-10 is in the A = 1 band: two-sided witness, but {z2 = 0}
    # dips to (1 - A) / scale, so the lines fail their check
    cone = QuadraticCone(np.diag([1.0000000005, 0.5]), np.diag([1.0, -1.0]))
    res = classify2(cone)
    v = decide2(res)
    assert v.outcome == "two_sided"
    assert v.note == "A = 1 boundary: two-sided clause applies"
    with pytest.raises(VerificationFailed, match="dips below the cone"):
        decide2(res, cone)


# --- disc families -------------------------------------------------------------


def test_build_disc_family_shapes():
    fam = build_disc_family(NormalFormType("M20", a=2.0, b=0.0))
    assert fam.kind == "level_set" and fam.side == +1
    fam = build_disc_family(NormalFormType("M11_1", a=2.0, b=0.0))
    assert fam.kind == "affine_line" and fam.side == -1 and fam.shift == 1j
    fam = build_disc_family(NormalFormType("M10_1", a=0.0))
    assert fam.kind == "level_set"
    np.testing.assert_allclose(fam.c, np.diag([0.0, 1.0]))
    assert build_disc_family(NormalFormType("M11_2", a=1.0)) is None
    assert build_disc_family(NormalFormType("M11_1", a=0.5, b=0.25)) is None


@pytest.mark.parametrize(
    "ntype",
    [
        NormalFormType("M20", a=2.0, b=0.0),
        NormalFormType("M11_1", a=2.0, b=0.5),
        NormalFormType("M11_1", a=2.0, b=1.5),
        NormalFormType("M10_1", a=0.0),
    ],
)
def test_verify_discs_strict(ntype):
    cone = render_cone(ntype)
    v = decide2(classify2(cone), cone)
    rep = verify_discs(cone, v.discs, eps_grid=EPS_GRID, samples=4000, seed=2)
    assert rep.min_margin > 0
    assert rep.touch_residual > 0


@pytest.mark.parametrize("k", [-6, 0, 6, 12])
@pytest.mark.parametrize(
    "ntype",
    [
        NormalFormType("M20", a=2.0, b=0.5),
        NormalFormType("M10_1", a=0.5),
        NormalFormType("M11_1", a=2.0, b=0.5),
        NormalFormType("M11_1", a=2.0, b=1.5),
    ],
)
def test_verify_discs_at_any_input_scale(ntype, k):
    # the limit-disc filter works in the family's frame, so the check does
    # not run out of samples when the transform into cone coordinates is tiny
    T = np.array([[1.0 + 0.5j, -0.3], [0.2j, 0.8 - 0.4j]])
    cone = apply_change(render_cone(ntype), T, lam=10.0**k)
    v = decide2(classify2(cone), cone)
    assert v.outcome == "one_sided"
    rep = verify_discs(cone, v.discs, eps_grid=EPS_GRID, samples=2000, seed=1)
    assert rep.min_margin > 0
    assert rep.touch_residual > 0


def test_verify_discs_analytic_floor_m20():
    # on the level variety the defining function equals eps + |z1|^2 + |z2|^2
    cone = render_cone(NormalFormType("M20", a=2.0, b=0.0))
    fam = build_disc_family(NormalFormType("M20", a=2.0, b=0.0))
    rep = verify_discs(cone, fam, eps_grid=EPS_GRID, samples=4000, seed=3)
    assert rep.min_margin >= min(EPS_GRID)


def test_verify_discs_wrong_side_fails():
    cone = render_cone(NormalFormType("M20", a=2.0, b=0.0))
    fam = build_disc_family(NormalFormType("M20", a=2.0, b=0.0))
    bad = DiscFamily(kind=fam.kind, side=-fam.side, c=fam.c, transform=fam.transform)
    with pytest.raises(VerificationFailed):
        verify_discs(cone, bad, eps_grid=EPS_GRID, samples=500, seed=4)


def test_verify_discs_rejects_a_non_finite_transform():
    # NaN compares false with 0: without a finiteness check such a family would pass
    fam = build_disc_family(NormalFormType("M20", a=2.0, b=0.0))
    bad = DiscFamily(kind=fam.kind, side=fam.side, c=fam.c, transform=np.diag([np.nan, 1.0]))
    cone = render_cone(NormalFormType("M20", a=2.0, b=0.0))
    with pytest.raises(VerificationFailed, match="not finite") as info:
        verify_discs(cone, bad, eps_grid=EPS_GRID, samples=500, seed=4)
    assert info.value.eps == EPS_GRID[0]
    assert np.isnan(info.value.z[0])


def test_verify_discs_empty_grid_rejected():
    cone = render_cone(NormalFormType("M20", a=2.0, b=0.0))
    fam = build_disc_family(NormalFormType("M20", a=2.0, b=0.0))
    with pytest.raises(Exception):
        verify_discs(cone, fam, eps_grid=(), samples=100, seed=0)


# --- support witnesses ----------------------------------------------------------


def test_verify_support_example_m():
    cone = example_m_cone()
    v = decide2(classify2(cone), cone)
    rep = verify_support(cone, v.witness)
    # rho(z1, 0) = Re(z1^2)/2 + |z1|^2 >= |z1|^2 / 2 on the plus side
    assert rep.plus_min >= 0
    assert rep.minus_max <= 0


def test_verify_support_m11_2_lines():
    for a in (1.0, 1 + 1j):
        cone = render_cone(NormalFormType("M11_2", a=a))
        v = decide2(classify2(cone), cone)
        rep = verify_support(cone, v.witness)
        # strict opposite signs -|z1|^2 sin(lam_j) away from the origin
        assert rep.plus_min > 0
        assert rep.minus_max < 0
        lam1 = np.pi / 2 + np.angle(complex(a))
        assert abs(np.exp(2j * lam1) + a / np.conj(a)) <= 1e-12


def test_verify_support_swapped_fails():
    from quadcone.decider import SupportWitness

    cone = example_m_cone()
    v = decide2(classify2(cone), cone)
    swapped = SupportWitness(aplus=v.witness.aminus, aminus=v.witness.aplus, kind="proper")
    with pytest.raises(VerificationFailed):
        verify_support(cone, swapped)


def test_verify_support_rejects_a_non_finite_span():
    from quadcone.decider import LinearGerm, SupportWitness

    cone = example_m_cone()
    v = decide2(classify2(cone), cone)
    germ = LinearGerm(coeffs=np.array([1.0, 0.0]), span=np.array([np.nan, 1.0]), label="nan")
    with pytest.raises(VerificationFailed, match="not finite") as info:
        verify_support(cone, SupportWitness(aplus=germ, aminus=v.witness.aminus, kind="proper"))
    assert np.isnan(info.value.z).all()


def test_verify_support_wrong_angle_fails():
    from quadcone.decider import LinearGerm, SupportWitness

    cone = render_cone(NormalFormType("M11_2", a=1.0))
    bad_lam = 0.3  # not a solution of e^(2 i lam) = -A / conj(A)
    span = np.array([1.0, np.exp(1j * bad_lam)]) / np.sqrt(2)
    germ = LinearGerm(coeffs=np.array([np.exp(1j * bad_lam), -1.0]), span=span, label="bad")
    with pytest.raises(VerificationFailed):
        verify_support(cone, SupportWitness(aplus=germ, aminus=germ, kind="proper"))


def test_classify_and_decide_compute_no_svd(monkeypatch):
    # tolerance scales are Frobenius norms; an SVD here would be a spectral
    # norm (np.linalg.norm(M, 2) calls the module-internal svd) or a stray
    # explicit one
    import numpy.linalg._linalg as linalg_impl

    forms = [
        NormalFormType("M20", a=2.0, b=0.5),
        NormalFormType("M11_1", a=0.5, b=1.0 / 3.0),
        NormalFormType("M11_2", a=1.0 + 1.0j),
        NormalFormType("M11_3"),
        NormalFormType("M10_1", a=0.7),
        NormalFormType("M10_2"),
        NormalFormType("M00_1"),
    ]
    rng = np.random.default_rng(101)
    changes = [np.eye(2)] + [random_gl2(rng) for _ in range(3)]  # draws use cond(): SVDs

    calls = []
    svd = linalg_impl.svd

    def counting_svd(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(linalg_impl, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    np.linalg.norm(np.eye(2), 2)
    assert calls, "the spectral norm must be counted"
    calls.clear()
    for ntype in forms:
        for T in changes:
            for sign in (1, -1):
                cone = apply_change(render_cone(ntype), T, lam=2.0, sign=sign)
                res = classify2(cone)
                assert isinstance(res, NormalFormResult) and res.tag == ntype.tag
                decide2(res, cone)
    assert calls == []


def test_nonminimal_witnesses_inside_cone():
    for tag in ("M11_3", "M10_2", "M00_1"):
        cone = render_cone(NormalFormType(tag))
        v = decide2(classify2(cone), cone)
        assert v.witness.kind == "nonminimal"
        rep = verify_support(cone, v.witness)
        assert abs(rep.plus_min) <= 1e-12 and abs(rep.minus_max) <= 1e-12


def test_witness_pull_back_margins():
    # margins in original and normal coordinates agree after the scaling
    # induced by the change of variables
    rng = np.random.default_rng(67)
    cone = example_m_cone()
    T = random_gl2(rng)
    moved = apply_change(cone, T, 1.0, 1)
    res = classify2(moved)
    v = decide2(res, moved)
    rep = verify_support(moved, v.witness)
    normal = render_cone(res.ntype)
    v_norm = decide2(synth_result(res.ntype), normal)
    rep_norm = verify_support(normal, v_norm.witness)
    # both margins are sign-definite the same way; normalized magnitudes are
    # comparable up to the conditioning of T
    assert rep.plus_min >= -1e-12 and rep_norm.plus_min >= -1e-12
    assert rep.minus_max <= 1e-12 and rep_norm.minus_max <= 1e-12


def test_disc_margin_scaling_exact():
    # the family is sampled in its own frame, so verifying in the original
    # coordinates and in normal-form coordinates uses identical points; the
    # margins then differ exactly by the positive scale lambda
    rng = np.random.default_rng(137)
    ntype = NormalFormType("M20", a=3.0, b=1.0)
    base = render_cone(ntype)
    T = random_gl2(rng)
    lam = 2.75
    moved = apply_change(base, T, lam, 1)
    res = classify2(moved)
    v = decide2(res, moved)
    rep_orig = verify_discs(moved, v.discs, eps_grid=(1e-2,), samples=2000, seed=21)
    fam_norm = DiscFamily(kind=v.discs.kind, side=+1, c=v.discs.c, shift=v.discs.shift)
    rep_norm = verify_discs(base, fam_norm, eps_grid=(1e-2,), samples=2000, seed=21)
    assert rep_orig.min_margin * res.lam == pytest.approx(rep_norm.min_margin, abs=1e-10)
    assert rep_orig.touch_residual * res.lam == pytest.approx(rep_norm.touch_residual, abs=1e-10)


def test_one_over_ell_finite_on_positive_side():
    # mirror of the easy direction: 1/ell_minus is finite on positive-side
    # samples, since its zero set lies in the closure of the other side
    rng = np.random.default_rng(71)
    cone = example_m_cone()
    v = decide2(classify2(cone), cone)
    Z = rng.standard_normal((4000, 2)) + 1j * rng.standard_normal((4000, 2))
    Z = Z[evaluate_many(cone, Z) > 1e-3]
    ell = Z @ v.witness.aminus.coeffs
    assert np.all(np.abs(ell) > 1e-8)
    assert np.all(np.isfinite(1.0 / ell))


# --- side bookkeeping through transforms -----------------------------------------


def test_disc_side_follows_sign():
    rng = np.random.default_rng(73)
    base = render_cone(NormalFormType("M20", a=2.0, b=0.5))
    T = random_gl2(rng)
    moved = apply_change(base, T, 1.5, -1)  # negated cone: sides swap
    res = classify2(moved)
    assert res.sign == -1
    v = decide2(res, moved)
    assert v.outcome == "one_sided" and v.side == -1
    rep = verify_discs(moved, v.discs, eps_grid=EPS_GRID, samples=3000, seed=11)
    assert rep.min_margin > 0


# --- jump demonstration -----------------------------------------------------------


def test_jump_identity_residual():
    rep = jump_demo(seed=0, samples=5000)
    assert rep.identity_residual <= 1e-12


def test_jump_continuity_ratio_bounded():
    rep = jump_demo(seed=1, samples=5000)
    assert np.isfinite(rep.continuity_ratio)
    assert rep.continuity_ratio <= 10.0
    # measured supremum is ~1.7124; leave slack for sampling variation
    assert rep.continuity_ratio == pytest.approx(1.7114, abs=2e-2)


def test_jump_off_cone_points_rejected_by_sampler():
    # the sampler never returns points with |rho| above its residual bound
    cone = example_m_cone()
    pts = sample_points(cone, seed=3, count=100)
    assert np.all(np.abs(evaluate_many(cone, pts)) <= 1e-10 * np.linalg.norm(pts, axis=1) ** 2)


# --- exact supporting-line checks and the residual gate -------------------------

TWO_SIDED_FORMS = [
    NormalFormType("M11_1", a=0.5, b=1.0 / 3.0),
    NormalFormType("M11_1", a=1.0, b=0.25),
    NormalFormType("M11_1", a=0.7, b=0.7),
    NormalFormType("M11_2", a=1.0),
    NormalFormType("M11_2", a=1.0 + 1.0j),
    NormalFormType("M11_2", a=0.5 + 2.0j),
    NormalFormType("M11_3"),
    NormalFormType("M10_2"),
    NormalFormType("M00_1"),
]
ROUNDING = 1e-14  # rounding of a normalized value of rho, which lies in [-1, 1]


def _normalized(cone, Z):
    return evaluate_many(cone, Z) / (np.linalg.norm(Z, axis=1) ** 2 * cone.scale)


def _closed_form(cone, v):
    """(v^H H v - |v^T S v|, v^H H v + |v^T S v|) / (|v|^2 scale): the range on the line."""
    a = abs(v @ cone.S @ v)
    h = (v.conj() @ cone.H @ v).real
    return np.array([h - a, h + a]) / (np.linalg.norm(v) ** 2 * cone.scale)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(TWO_SIDED_FORMS),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=-20.0, max_value=20.0),
    st.sampled_from([1, -1]),
)
def test_support_margins_are_the_exact_extremes(ntype, seed, u, sign):
    from quadcone.decider import _germ_points

    rng = np.random.default_rng(seed)
    cone = apply_change(render_cone(ntype), random_gl2(rng, max_cond=8.0), lam=10.0**u, sign=sign)
    res = classify2(cone)
    assert isinstance(res, NormalFormResult) and res.tag == ntype.tag
    v = decide2(res, cone)
    rep = verify_support(cone, v.witness)
    assert rep.points_checked == 4
    vp = _normalized(cone, _germ_points(v.witness.aplus, 10_000, rng))
    vm = _normalized(cone, _germ_points(v.witness.aminus, 10_000, rng))
    assert rep.plus_min <= vp.min() + ROUNDING
    assert rep.minus_max >= vm.max() - ROUNDING
    assert rep.plus_min == pytest.approx(_closed_form(cone, v.witness.aplus.span)[0], abs=ROUNDING)
    assert rep.minus_max == pytest.approx(_closed_form(cone, v.witness.aminus.span)[1], abs=ROUNDING)


def test_decide_and_verify_support_evaluate_at_most_four_points_per_witness(monkeypatch):
    import quadcone.decider as decider

    rng = np.random.default_rng(211)
    changes = [np.eye(2)] + [random_gl2(rng) for _ in range(3)]
    forms = TWO_SIDED_FORMS + [NormalFormType("M20", a=2.0, b=0.5), NormalFormType("M10_1", a=0.7)]
    points = []
    evaluate_rows = decider.evaluate_many

    def counting_evaluate_many(cone, Z):
        points.append(len(Z))
        return evaluate_rows(cone, Z)

    monkeypatch.setattr(decider, "evaluate_many", counting_evaluate_many)
    for ntype in forms:
        for T in changes:
            for sign in (1, -1):
                cone = apply_change(render_cone(ntype), T, lam=2.0, sign=sign)
                res = classify2(cone)
                points.clear()
                v = decide2(res, cone)
                witnesses = 1 if v.outcome == "two_sided" else 0
                assert sum(points) <= 4 * witnesses, (ntype, points)
                if witnesses:
                    points.clear()
                    verify_support(cone, v.witness)
                    assert sum(points) <= 4, (ntype, points)


def test_swapped_witness_fails_at_the_argmin():
    from quadcone.decider import SupportWitness, _germ_points

    cone = apply_change(example_m_cone(), random_gl2(np.random.default_rng(5)), lam=3.0, sign=1)
    v = decide2(classify2(cone), cone)
    swapped = SupportWitness(aplus=v.witness.aminus, aminus=v.witness.aplus, kind="proper")
    with pytest.raises(VerificationFailed) as exc:
        verify_support(cone, swapped)
    z = exc.value.z
    value = float(_normalized(cone, z[None, :])[0])
    assert f"rho={value:.3e}" in str(exc.value)
    assert value == pytest.approx(_closed_form(cone, swapped.aplus.span)[0], abs=ROUNDING)
    sampled = _normalized(cone, _germ_points(swapped.aplus, 10_000, np.random.default_rng(6)))
    assert value <= sampled.min() + ROUNDING


def _nudged(res, cone):
    """res with T moved by 1e-6, and the residual that T really has."""
    from dataclasses import replace

    T = res.T @ np.diag([1.0 + 1e-6, 1.0])
    residual = form_distance(apply_change(cone, T, res.lam, res.sign), render_cone(res.ntype))
    return replace(res, T=T, residual=residual)


@pytest.mark.parametrize(
    "ntype",
    [NormalFormType("M20", a=2.0, b=0.5), NormalFormType("M11_1", a=0.5, b=1.0 / 3.0),
     NormalFormType("M11_2", a=1.0 + 1.0j), NormalFormType("M00_1")],
)
def test_decide_rejects_a_residual_beyond_its_bound(ntype):
    cone = apply_change(render_cone(ntype), random_gl2(np.random.default_rng(17)), lam=1e3, sign=-1)
    res = classify2(cone)
    assert res.residual <= res.residual_bound
    decide2(res, cone)
    bad = _nudged(res, cone)
    assert bad.residual > bad.residual_bound
    with pytest.raises(VerificationFailed, match="residual"):
        decide2(bad, cone)


# --- point-count pins ------------------------------------------------------------

# points_checked of each one-sided family, at the CLI's `verify` defaults and at
# find_good_slice's; the point sets may move at rounding level, never in size
ONE_SIDED_POINT_COUNTS = [
    (NormalFormType("M20", a=2.0, b=0.5), "level_set", 64188, 9528),
    (NormalFormType("M10_1", a=0.5), "level_set", 53346, 7902),
    (NormalFormType("M11_1", a=2.0, b=0.5), "affine_line", 40000, 6000),
    (NormalFormType("M11_1", a=3.0, b=2.0), "level_set", 48208, 7184),
]


@pytest.mark.parametrize("ntype, kind, cli_count, slice_count", ONE_SIDED_POINT_COUNTS)
def test_verify_discs_pins_its_point_counts(ntype, kind, cli_count, slice_count):
    cone, fam = render_cone(ntype), build_disc_family(ntype)
    assert fam.kind == kind
    rep = verify_discs(cone, fam, eps_grid=DEFAULT_EPS, samples=10_000, seed=0)
    assert rep.points_checked == cli_count
    slice_defaults = inspect.signature(find_good_slice).parameters
    rep = verify_discs(
        cone,
        fam,
        eps_grid=slice_defaults["eps_grid"].default,
        samples=slice_defaults["samples"].default,
        seed=slice_defaults["seed"].default,
    )
    assert rep.points_checked == slice_count


@pytest.mark.parametrize("seed, candidates", [(0, 16040), (1, 16040), (2, 15976)])
def test_sample_points_pins_its_point_and_direction_counts(monkeypatch, seed, candidates):
    # one batch of 10k directions, three evaluations of it, then three of the
    # candidate points it gives: a change in the draws or the filters shows here
    rows = []
    evaluate_rows = quadform.evaluate_many

    def counting(cone, Z):
        rows.append(len(Z))
        return evaluate_rows(cone, Z)

    monkeypatch.setattr(quadform, "evaluate_many", counting)
    assert len(sample_points(example_m_cone(), seed, 10_000)) == 10_000
    assert rows == [10_000] * 3 + [candidates] * 3
