"""Verdicts, disc families, support witnesses, and the jump demonstration."""

from __future__ import annotations

import importlib.util
import pathlib
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadcone.quadform as quadform
import quadcone.slicer as slicer
from quadcone.cli import DEFAULT_EPS, DEFAULT_GRID, _atlas_types, parse_spec
from quadcone.decider import (
    CERT_ROUNDING,
    SUPPORT_TOL_REL,
    DiscFamily,
    Verdict,
    VerificationFailed,
    decide2,
    jump_demo,
    normal_frame_verdict,
    verify_discs,
    verify_support,
)
from quadcone.fixtures import FIXTURES
from quadcone.fixtures import example_m as example_m_cone
from quadcone.normalform import (
    TAGS,
    NormalFormResult,
    NormalFormType,
    classify2,
    render_cone,
)
from quadcone.quadform import (
    ConeError,
    QuadraticCone,
    evaluate_many,
    form_distance,
    mat_norm,
    replace,
    sample_points,
)
from quadcone.slicer import SLICE_EPS_GRID

from witness_samplers import (
    _disc_points,
    _germ_points,
    apply_change,
    map_points,
    numpy_line_values,
    numpy_pull_back_witness,
    numpy_verify_discs,
    spread_cones2,
)

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
        if A == B or A <= 1.0 + 1e-9:
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


def test_verdict_table_bijection():
    rng = np.random.default_rng(61)
    cases = []
    for _ in range(200):
        tag = rng.choice(TAGS)
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


def test_normal_frame_verdict_disc_shapes():
    fam = normal_frame_verdict(NormalFormType("M20", a=2.0, b=0.0)).discs
    assert fam.kind == "level_set" and fam.side == +1
    fam = normal_frame_verdict(NormalFormType("M11_1", a=2.0, b=0.0)).discs
    assert fam.kind == "affine_line" and fam.side == -1 and fam.shift == 1j
    fam = normal_frame_verdict(NormalFormType("M10_1", a=0.0)).discs
    assert fam.kind == "level_set"
    np.testing.assert_allclose(fam.c, np.diag([0.0, 1.0]))
    assert normal_frame_verdict(NormalFormType("M11_2", a=1.0)).discs is None
    assert normal_frame_verdict(NormalFormType("M11_1", a=0.5, b=0.25)).discs is None


def _built_kind_and_c(ntype: NormalFormType):
    """The kind and c normal_frame_verdict once passed to the family's constructor, per tag."""
    if ntype.tag == "M20":
        A, B = ntype.params()
        return "level_set", np.diag([A, B]).astype(complex)
    if ntype.tag == "M10_1":
        (A,) = ntype.params()
        return "level_set", np.diag([A, 1.0]).astype(complex)
    A, B = ntype.params()
    return ("affine_line", None) if B < 1.0 else ("level_set", -np.diag([A, B]).astype(complex))


@pytest.mark.parametrize("tag", ["M20", "M10_1", "M11_1"])
def test_disc_family_kind_and_c_follow_the_model_bitwise(tag):
    # every one-sided cell of the default atlas grid: the derived kind and c
    # are the constructed ones, signed zeros included (the report's
    # disc_family.C prints them)
    families = [v.discs for v in map(normal_frame_verdict, _atlas_types(tag, DEFAULT_GRID)) if v.discs]
    assert families
    for fam in families:
        kind, c = _built_kind_and_c(fam.model)
        assert fam.kind == kind, fam.model
        if c is None:
            assert fam.c is None, fam.model
        else:
            assert np.asarray(fam.c).dtype == c.dtype and np.asarray(fam.c).tobytes() == c.tobytes(), fam.model
        assert fam.radius == 1.0 and fam.shift == 1j
    if tag == "M11_1":
        assert {fam.kind for fam in families} == {"level_set", "affine_line"}
    fam = DiscFamily(side=1)
    assert fam.kind == "level_set"
    assert np.asarray(fam.c).tobytes() == np.eye(2, dtype=complex).tobytes()


@pytest.mark.parametrize("given", [{"kind": "level_set"}, {"c": np.eye(2, dtype=complex)}, {"radius": 0.5}])
def test_disc_family_refuses_what_its_model_fixes(given):
    with pytest.raises(TypeError):
        DiscFamily(side=1, **given)
    with pytest.raises(TypeError):
        replace(DiscFamily(side=1), **given)
    assert list(DiscFamily._fields) == ["side", "transform", "model", "lam"]
    assert list(Verdict._fields) == ["discs", "witness", "note"]


def test_a_verdicts_outcome_is_which_witness_it_carries():
    assert Verdict(discs=DiscFamily(side=-1)).outcome == "one_sided"
    witness = normal_frame_verdict(NormalFormType("M00_1")).witness
    assert Verdict(witness=witness).outcome == "two_sided"


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
    rep = verify_discs(cone, v.discs, eps_grid=EPS_GRID)
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
    rep = verify_discs(cone, v.discs, eps_grid=EPS_GRID)
    assert rep.min_margin > 0
    assert rep.touch_residual > 0


def test_verify_discs_analytic_floor_m20():
    # on the level variety the defining function equals eps + |z1|^2 + |z2|^2
    cone = render_cone(NormalFormType("M20", a=2.0, b=0.0))
    fam = normal_frame_verdict(NormalFormType("M20", a=2.0, b=0.0)).discs
    rep = verify_discs(cone, fam, eps_grid=EPS_GRID)
    assert rep.min_margin >= min(EPS_GRID)


def test_verify_discs_wrong_side_fails():
    cone = render_cone(NormalFormType("M20", a=2.0, b=0.0))
    fam = normal_frame_verdict(NormalFormType("M20", a=2.0, b=0.0)).discs
    bad = replace(fam, side=-fam.side)
    with pytest.raises(VerificationFailed):
        verify_discs(cone, bad, eps_grid=EPS_GRID)


def test_verify_discs_rejects_a_non_finite_transform():
    # NaN compares false with 0: without a finiteness check such a family would pass
    fam = normal_frame_verdict(NormalFormType("M20", a=2.0, b=0.0)).discs
    bad = replace(fam, transform=np.diag([np.nan, 1.0]))
    cone = render_cone(NormalFormType("M20", a=2.0, b=0.0))
    with pytest.raises(VerificationFailed, match="not finite") as info:
        verify_discs(cone, bad, eps_grid=EPS_GRID)
    # the family's frame is checked before any disc: the failure names no eps
    assert info.value.eps is None
    assert np.isnan(info.value.z[0])


def test_verify_discs_empty_grid_rejected():
    cone = render_cone(NormalFormType("M20", a=2.0, b=0.0))
    fam = normal_frame_verdict(NormalFormType("M20", a=2.0, b=0.0)).discs
    with pytest.raises(Exception):
        verify_discs(cone, fam, eps_grid=())


@pytest.mark.parametrize("s", [0.0, 0.5, -0.9, 0.3 + 0.4j])
def test_verify_discs_rejects_a_definite_slice_family_that_meets_the_cone(s):
    # side * rho = Re(s w1^2) + |w1|^2 >= 0 vanishes on {w1 = 0}, which meets
    # D_eps = {w1^2 + w2^2 = eps} at (0, +-sqrt(eps)): no sample lands there
    cone = QuadraticCone(np.diag([s, 0.0]), np.diag([1.0, 0.0]))
    fam = DiscFamily(side=1)
    with pytest.raises(VerificationFailed, match="not certified"):
        verify_discs(cone, fam, eps_grid=(1e-2, 1e-1))


def test_verify_discs_certifies_a_semidefinite_slice_exactly():
    # rho = |w|^2 + Re(w1^2 + w2^2) vanishes on i R^2, which misses D_eps: on
    # D_eps rho = |w|^2 + eps >= 2 eps, with equality on the real points, and on
    # the limit disc rho = |w|^2 >= (1e-3)^2
    cone = QuadraticCone(np.eye(2), np.eye(2))
    fam = DiscFamily(side=1)
    rep = verify_discs(cone, fam, eps_grid=(1e-2, 1e-1))
    assert rep.min_margin == pytest.approx(2e-2, rel=1e-12)
    assert rep.touch_residual == pytest.approx(1e-6, rel=1e-12)


def test_verify_discs_checks_every_limit_line(monkeypatch):
    # the m20 fixture's limit disc is two lines; one is read below its bound
    # at its checked point while the other passes, and the check must fail
    import quadcone.decider as decider

    cone = FIXTURES["m20"]()
    fam = decide2(classify2(cone), cone).discs
    evaluate, seen = decider.rho_at, []
    monkeypatch.setattr(decider, "rho_at", lambda c, Z: seen.append(Z) or evaluate(c, Z))
    report = verify_discs(cone, fam, eps_grid=EPS_GRID)
    # the rows of the points checked on the lines, one per line
    checked = [r for r, z in enumerate(seen[0]) if tuple(z) in report.points[len(EPS_GRID) :]]
    assert len(checked) == 2

    def lowered(c, Z):
        vals = evaluate(c, Z)
        vals[checked[0]] *= 0.5  # side * rho at the point, less than its bound kappa |w|^2
        return vals

    monkeypatch.setattr(decider, "rho_at", lowered)
    with pytest.raises(VerificationFailed, match=r"limit disc: certified bound \S+ exceeds") as info:
        verify_discs(cone, fam, eps_grid=EPS_GRID)
    assert info.value.eps == 0.0
    assert np.array_equal(info.value.z, seen[0][checked[0]])


DISC_KINDS = ("M20", "M10_1", "M11_1 level set", "M11_1 affine line", "point", "semidefinite")


def _oracle_case(kind: str, rng, lam: float, sign: int):
    """A cone with a one-sided disc family of the given kind, moved by a random GL(2,C) change.

    Normal forms go through classify2 and decide2, parameters kept clear of
    the strata's boundaries.  The definite-slice families (c = I, no model)
    certify rho0 = w^H H0 w + Re(w^T S0 w): definite ("point", sigma_max(S0)
    < lambda_min(H0)) or semidefinite (H0 = I, S0 = diag(1, b), zero on i R x 0).
    """
    M = random_gl2(rng)
    if kind in ("point", "semidefinite"):
        if kind == "point":
            X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            H0 = X @ X.conj().T + np.eye(2)
            S0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            S0 = S0 + S0.T
            S0 *= 0.9 * np.linalg.eigvalsh(H0)[0] / np.linalg.norm(S0, 2)
        else:
            H0, S0 = np.eye(2), np.diag([1.0, rng.uniform(0.0, 0.9)])
        cone = apply_change(QuadraticCone(S0, H0), np.linalg.inv(M), lam, sign)
        return cone, DiscFamily(side=sign, transform=M)
    if kind == "M20":
        A = rng.uniform(1.2, 4.0)
        ntype = NormalFormType("M20", a=A, b=A * rng.uniform(0.0, 0.9))
    elif kind == "M10_1":
        ntype = NormalFormType("M10_1", a=rng.uniform(0.1, 3.0))
    elif kind == "M11_1 level set":
        A = rng.uniform(1.5, 4.0)
        ntype = NormalFormType("M11_1", a=A, b=rng.uniform(1.1, A - 0.3))
    else:
        A = rng.uniform(1.25, 4.0)
        ntype = NormalFormType("M11_1", a=A, b=rng.uniform(0.0, 0.9))
    cone = apply_change(render_cone(ntype), np.linalg.inv(M), lam, sign)
    fam = decide2(classify2(cone), cone).discs
    assert fam.model.tag == ntype.tag and fam.kind == normal_frame_verdict(ntype).discs.kind
    return cone, fam


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(DISC_KINDS),
    seed=st.integers(0, 2**32 - 1),
    u=st.floats(-3.0, 3.0),
    sign=st.sampled_from((-1, 1)),
)
def test_certified_disc_bounds_hold_against_the_sampler(kind, seed, u, sign):
    rng = np.random.default_rng(seed)
    cone, fam = _oracle_case(kind, rng, 10.0**u, sign)

    def sampled_min(eps, radius=fam.radius):
        W = _disc_points(fam, eps, 2000, rng, radius)
        if eps == 0.0:
            W = W[np.linalg.norm(W, axis=1) >= 1e-3 * radius]
        return (fam.side * evaluate_many(cone, map_points(fam, W))).min()

    for eps in EPS_GRID:
        rep = verify_discs(cone, fam, eps_grid=(eps,))
        assert rep.min_margin <= sampled_min(eps)
        assert rep.touch_residual <= sampled_min(0.0)
        if fam.model is not None:
            # sampled within twice the smallest |w| on D_eps, near the minimum
            if fam.kind == "level_set":
                near = 2.0 * np.sqrt(eps / np.linalg.norm(fam.c, 2))
            else:
                near = 2.0 * abs(fam.shift) * eps
            assert rep.min_margin >= 0.5 * sampled_min(eps, radius=near)


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


def test_the_scalar_witness_is_the_numpy_witness_to_rounding():
    # decide2 pulls the lines back and verify_support finds their extremal
    # points on Python scalars; the oracle is the numpy form of both
    # (np.linalg.inv(T), _line_extremes and evaluate_many) on 2,400 cones at
    # scales 2^-1000..2^1000.  An extremal point is t v or i t v with t^2 a =
    # |a| for a = v^T S v, so it is defined up to its sign, and up to
    # u / |a| (a normalized by the scale) where a is a rounding residue
    u = 2.0**-53
    two_sided, verdicts_differ = 0, []
    for i, cone in enumerate(spread_cones2(seed=24, count=2400)):
        res = classify2(cone)
        if not (isinstance(res, NormalFormResult) and res.residual <= res.residual_bound):
            continue
        v = decide2(res)
        if v.outcome != "two_sided":
            continue
        two_sided += 1
        ref = numpy_pull_back_witness(normal_frame_verdict(res.ntype).witness, res)
        cond = np.linalg.cond(res.T)
        for germ, oracle in ((v.witness.aplus, ref.aplus), (v.witness.aminus, ref.aminus)):
            assert np.abs(germ.coeffs - oracle.coeffs).max() <= 16 * u * cond, i
            assert np.abs(germ.span - oracle.span).max() <= 16 * u * cond, i
        Z, vals = numpy_line_values(cone, v.witness)
        rep = verify_support(cone, v.witness, tol_rel=np.inf)
        assert abs(rep.plus_min - vals[1]) <= 16 * u and abs(rep.minus_max - vals[2]) <= 16 * u, i
        points = np.array(rep.points)
        for j, germ in enumerate((v.witness.aplus, v.witness.aminus)):
            a = abs(germ.span @ cone.S @ germ.span) / cone.scale
            got, want = points[2 * j : 2 * j + 2], Z[2 * j : 2 * j + 2]
            d = min(np.abs(got - want).max(), np.abs(got + want).max())
            assert d <= 16 * u * (1 + 1 / max(a, 1e-300)), (i, j)
        holds = vals[1] >= -SUPPORT_TOL_REL and vals[2] <= SUPPORT_TOL_REL
        if v.witness.kind == "nonminimal":
            holds = holds and np.abs(vals).max() <= SUPPORT_TOL_REL
        try:
            verify_support(cone, v.witness)
            passed = True
        except VerificationFailed:
            passed = False
        if passed != holds:
            verdicts_differ.append(i)
    assert two_sided >= 600 and verdicts_differ == []


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


def _benchmark_disc_cases(monkeypatch) -> list:
    """(name, cone, family, eps grid) of the verify_discs calls on the fixtures and the seed-1 benchmark inputs.

    The one-sided verdicts of the n = 2 fixtures and of the 192 witness_sampling
    verify ops (80 of them), on the CLI's grid, and the 144 calls the nd_slice
    searches make, on SLICE_EPS_GRID, recorded from find_good_slice.
    """
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up here
    spec.loader.exec_module(workloads)
    cases = []
    planar = [(f"fixture/{name}", make()) for name, make in sorted(FIXTURES.items())]
    planar += [(f"witness_sampling/{k}", parse_spec(op.spec).cone)
               for k, op in enumerate(workloads.witness_sampling(1)) if op.kind == "verify"]
    for name, cone in planar:
        if cone.n != 2:
            continue
        res = classify2(cone)
        verdict = decide2(res) if isinstance(res, NormalFormResult) else None
        if verdict is not None and verdict.outcome == "one_sided":
            cases.append((name, cone, verdict.discs, DEFAULT_EPS))
    searched = []

    def recording(cone, fam, eps_grid):
        searched.append((f"nd_slice/{len(searched)}", cone, fam, eps_grid))
        return verify_discs(cone, fam, eps_grid)

    monkeypatch.setattr(slicer, "verify_discs", recording)
    for op in workloads.nd_slice(1):
        cone = parse_spec(op.spec).cone
        if not slicer.classify_two_sided_nd(cone).certified:
            slicer.find_good_slice(cone)
    return cases + searched


def test_the_scalar_disc_certificate_is_the_numpy_one_to_rounding(monkeypatch):
    # verify_discs reads the pullback, the allowance and sigma_max(c) as
    # Python scalars and evaluates every point in one call; the oracle is the
    # numpy form it replaced.  Both pass or fail together with the same
    # message, check as many points at the same radii, and agree on the
    # bounds within the certificate's own allowance CERT_ROUNDING * n *
    # |(|T|^T (|S| + |H|) |T|)|_F, the cone's scale seen through T (each bound
    # is lowered by it per unit |w|^2, and margins are in the family's units)
    cases = _benchmark_disc_cases(monkeypatch)
    counts = {}
    for name, _, _, _ in cases:
        counts[name.split("/")[0]] = counts.get(name.split("/")[0], 0) + 1
    assert counts == {"fixture": 2, "witness_sampling": 80, "nd_slice": 144}
    passed = 0
    for name, cone, fam, eps_grid in cases:
        outcomes = []
        for certify in (numpy_verify_discs, verify_discs):
            try:
                outcomes.append(certify(cone, fam, eps_grid))
            except ConeError as exc:
                outcomes.append(exc)
        want, got = outcomes
        if isinstance(want, Exception) or isinstance(got, Exception):
            assert (type(got), str(got)) == (type(want), str(want)), name
            continue
        passed += 1
        T = np.eye(2) if fam.transform is None else np.asarray(fam.transform)
        unit = CERT_ROUNDING * cone.n * mat_norm(abs(T).T @ (abs(cone.S) + abs(cone.H)) @ abs(T))
        assert abs(got.min_margin - want.min_margin) <= unit, name
        assert abs(got.touch_residual - want.touch_residual) <= unit, name
        assert got.points_checked == want.points_checked, name
        # an extremal point of a limit line is t v up to a phase where v^T S v
        # is a rounding residue; its norm, the radius, is the same
        norms = [np.linalg.norm(np.array(rep.points), axis=1) for rep in (want, got)]
        assert np.allclose(norms[1], norms[0], rtol=1e-12, atol=0), name
    assert passed >= 200


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflows on these scales by design
def test_the_scalar_disc_certificate_fails_as_the_numpy_one_at_any_scale():
    # cones and transforms with parts m * 2^e, |e| <= 1000, and lam = 2^e: the
    # same verdict and message wherever the numpy oracle gives one, up to
    # the rounding of the numbers it quotes; where its eigensolver raised
    # LinAlgError on a pullback that is not finite, the scalar certificate
    # fails a check instead
    def text(exc):
        return re.sub(r"-?\d\.\d{3}e[+-]\d+|nan|-?inf", "#", str(exc))

    rng = np.random.default_rng(25)
    families = [normal_frame_verdict(t).discs for t in (
        NormalFormType("M20", a=2.0, b=0.5), NormalFormType("M10_1", a=0.5),
        NormalFormType("M11_1", a=2.0, b=0.5), NormalFormType("M11_1", a=3.0, b=2.0))]
    families.append(DiscFamily(side=1))
    outcomes = {"passed": 0, "failed": 0, "leaked": 0}
    cases = []
    for i, cone in enumerate(spread_cones2(seed=25, count=1000)):
        res = classify2(cone)
        if isinstance(res, NormalFormResult) and res.residual <= res.residual_bound:
            if (v := decide2(res)).outcome == "one_sided":
                cases.append((cone, v.discs))
        parts = rng.standard_normal(8) * np.exp2(rng.integers(-1000, 1001, size=8))
        cases.append((cone, replace(
            families[i % len(families)], transform=(parts[0::2] + 1j * parts[1::2]).reshape(2, 2),
            side=int(rng.choice((-1, 1))), lam=float(np.exp2(rng.integers(-1000, 1001))),
        )))
    for i, (cone, fam) in enumerate(cases):
        try:
            want = numpy_verify_discs(cone, fam, EPS_GRID)
        except np.linalg.LinAlgError:
            outcomes["leaked"] += 1
            with pytest.raises(VerificationFailed):
                verify_discs(cone, fam, EPS_GRID)
            continue
        except ConeError as exc:
            outcomes["failed"] += 1
            with pytest.raises(type(exc)) as info:
                verify_discs(cone, fam, EPS_GRID)
            assert text(info.value) == text(exc), i
            assert info.value.eps == exc.eps if isinstance(exc, VerificationFailed) else True
            continue
        outcomes["passed"] += 1
        got = verify_discs(cone, fam, EPS_GRID)
        assert got.points_checked == want.points_checked, i
        aT = abs(np.asarray(fam.transform))
        unit = CERT_ROUNDING * cone.n * mat_norm(aT.T @ (abs(cone.S) + abs(cone.H)) @ aT)
        assert abs(got.min_margin - want.min_margin) <= unit, i
        assert abs(got.touch_residual - want.touch_residual) <= unit, i
    assert min(outcomes.values()) >= 10, outcomes


def test_disc_margin_scaling_exact():
    # the bounds are taken in the family's own frame, so the family certified
    # in the original coordinates (through the classification) and the same
    # family in the normal-form coordinates give margins that differ by the
    # positive scale lambda
    rng = np.random.default_rng(137)
    ntype = NormalFormType("M20", a=3.0, b=1.0)
    base = render_cone(ntype)
    T = random_gl2(rng)
    lam = 2.75
    moved = apply_change(base, T, lam, 1)
    res = classify2(moved)
    v = decide2(res, moved)
    rep_orig = verify_discs(moved, v.discs, eps_grid=(1e-2,))
    fam_norm = replace(v.discs, transform=None, side=+1, lam=1.0)
    rep_norm = verify_discs(base, fam_norm, eps_grid=(1e-2,))
    assert rep_orig.min_margin * res.lam == pytest.approx(rep_norm.min_margin, abs=1e-10)
    assert rep_orig.touch_residual * res.lam == pytest.approx(rep_norm.touch_residual, abs=1e-10)
    # the same law for the identity family (the multiplier bound) on a
    # definite cone moved by a GL(2,C) change: rho_moved(M w) = lam rho0(w)
    definite = QuadraticCone([[0.3, 0.1], [0.1, -0.2j]], [[2.0, 0.5j], [-0.5j, 1.0]])
    M = random_gl2(rng)
    moved = apply_change(definite, np.linalg.inv(M), lam, 1)
    rep_moved = verify_discs(moved, DiscFamily(side=1, transform=M), eps_grid=(1e-2,))
    rep_base = verify_discs(definite, DiscFamily(side=1), eps_grid=(1e-2,))
    assert rep_moved.min_margin == pytest.approx(lam * rep_base.min_margin, abs=1e-10)
    assert rep_moved.touch_residual == pytest.approx(lam * rep_base.touch_residual, abs=1e-10)


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
    rep = verify_discs(moved, v.discs, eps_grid=EPS_GRID)
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
    v = np.asarray(v)
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
    evaluate_rows = decider.rho_at

    def counting_rho_at(cone, Z):
        points.append(len(Z))
        return evaluate_rows(cone, Z)

    monkeypatch.setattr(decider, "rho_at", counting_rho_at)
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
    from quadcone.decider import SupportWitness

    cone = apply_change(example_m_cone(), random_gl2(np.random.default_rng(5)), lam=3.0, sign=1)
    v = decide2(classify2(cone), cone)
    swapped = SupportWitness(aplus=v.witness.aminus, aminus=v.witness.aplus, kind="proper")
    with pytest.raises(VerificationFailed) as exc:
        verify_support(cone, swapped)
    z = np.asarray(exc.value.z)
    value = float(_normalized(cone, z[None, :])[0])
    assert f"rho={value:.3e}" in str(exc.value)
    assert value == pytest.approx(_closed_form(cone, swapped.aplus.span)[0], abs=ROUNDING)
    sampled = _normalized(cone, _germ_points(swapped.aplus, 10_000, np.random.default_rng(6)))
    assert value <= sampled.min() + ROUNDING


def _nudged(res, cone):
    """res with T moved by 1e-6, and the residual that T really has."""
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

# Per one-sided family: the sampler's point counts for 10k draws at each eps of
# the CLI's `verify` grid and then at the limit disc (eps = 0), drawn in that
# order from one generator seeded with 0 (the tests' oracle in
# witness_samplers draws this way), and the certified check's points_checked on the CLI's grid and
# on find_good_slice's SLICE_EPS_GRID: one attaining point per eps, one per line
# of the limit disc.  The sampled point sets may move at rounding level, never in size.
ONE_SIDED_POINT_COUNTS = [
    (NormalFormType("M20", a=2.0, b=0.5), "level_set", [15962, 16052, 15930, 16244], 5, 4),
    (NormalFormType("M10_1", a=0.5), "level_set", [13302, 13420, 13166, 13458], 5, 4),
    (NormalFormType("M11_1", a=2.0, b=0.5), "affine_line", [10000] * 4, 4, 3),
    (NormalFormType("M11_1", a=3.0, b=2.0), "level_set", [12038, 12094, 11936, 12140], 5, 4),
]


@pytest.mark.parametrize("ntype, kind, sampled, cli_count, slice_count", ONE_SIDED_POINT_COUNTS)
def test_verify_discs_pins_its_point_counts(ntype, kind, sampled, cli_count, slice_count):
    cone, fam = render_cone(ntype), normal_frame_verdict(ntype).discs
    assert fam.kind == kind
    rng = np.random.default_rng(0)
    assert [len(_disc_points(fam, float(eps), 10_000, rng)) for eps in (*DEFAULT_EPS, 0.0)] == sampled
    assert verify_discs(cone, fam, eps_grid=DEFAULT_EPS).points_checked == cli_count
    assert verify_discs(cone, fam, eps_grid=SLICE_EPS_GRID).points_checked == slice_count


@pytest.mark.parametrize("ntype", [row[0] for row in ONE_SIDED_POINT_COUNTS])
def test_verify_discs_on_a_model_family_makes_no_numpy_call_and_one_evaluation(monkeypatch, ntype):
    # the pullback, the allowance, sigma, the closed forms and the model
    # distance are scalars, and every point goes through one call
    import quadcone.decider as decider

    calls = []

    def counting(name, f):
        def call(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)

        return call

    for name in ("eigvalsh", "eigh", "eigvals", "svd", "norm", "solve", "det", "inv"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(decider, "rho_at", counting("rho_at", decider.rho_at))
    T = np.array([[1.0 + 0.5j, -0.3], [0.2j, 0.8 - 0.4j]])
    cone = apply_change(render_cone(ntype), T, lam=10.0)
    fam = decide2(classify2(cone)).discs
    assert fam.model is not None
    calls.clear()
    verify_discs(cone, fam, eps_grid=DEFAULT_EPS)
    assert calls == ["rho_at"]


@pytest.mark.parametrize(
    "seed, chunks",
    [
        (0, [(5000, 8090), (955, 1516), (256, 402)]),
        (1, [(5000, 7970), (1015, 1628), (256, 412)]),
        (2, [(5000, 8000), (1000, 1638), (256, 388)]),
    ],
)
def test_sample_points_pins_its_point_and_direction_counts(monkeypatch, seed, chunks):
    # one batch of 10k directions, taken in chunks of about half the points
    # still needed: three evaluations of a chunk's directions, then three of
    # the candidate points it gives.  A change in the draws, the filters or
    # the chunk sizes shows here
    rows = []
    evaluate_rows = quadform.evaluate_many

    def counting(cone, Z):
        rows.append(len(Z))
        return evaluate_rows(cone, Z)

    monkeypatch.setattr(quadform, "evaluate_many", counting)
    assert len(sample_points(example_m_cone(), seed, 10_000)) == 10_000
    assert rows == [m for directions, candidates in chunks for m in [directions] * 3 + [candidates] * 3]
