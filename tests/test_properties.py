"""Cross-module property tests driven by hypothesis."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadcone.decider import (
    DiscFamily,
    Verdict,
    VerificationFailed,
    decide2,
    normal_frame_verdict,
    verify_discs,
    verify_support,
)
from quadcone.normalform import (
    DegeneracyReport,
    NormalFormResult,
    NormalFormType,
    apply_change,
    classify2,
    render_cone,
)
from quadcone.quadform import (
    ConeError,
    QuadraticCone,
    decompose_real_form,
    hermitian_signature,
    real_form_matrix,
    real_signature,
)
from quadcone.reduction import so11_zero_diag

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(finite, min_size=10, max_size=10))
def test_decompose_is_inverse_of_render(vals):
    # any real symmetric 4x4 form decomposes and renders back exactly
    G = np.zeros((4, 4))
    idx = np.triu_indices(4)
    G[idx] = vals
    G = G + np.triu(G, 1).T
    cone = decompose_real_form(G)
    np.testing.assert_allclose(real_form_matrix(cone), G, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(finite, finite, finite)
def test_so11_congruence_preserves_determinant(p, q, r):
    Q = np.array([[p, q], [q, r]])
    nq = np.linalg.norm(Q, 2)
    if nq < 1e-3 or p * r - q * q > -1e-3 * nq**2:
        return  # outside the operation's domain or too close to its boundary
    k, Qp = so11_zero_diag(Q)
    assert abs(np.linalg.det(k) - 1.0) <= 1e-12 * 10
    assert abs(np.linalg.det(Qp) - np.linalg.det(Q)) <= 1e-10 * nq**2
    assert min(abs(Qp[0, 0]), abs(Qp[1, 1])) <= 1e-8 * nq


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=1.05, max_value=4.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=10_000),
)
def test_m20_roundtrip_property(a, b_frac, seed):
    ntype = NormalFormType("M20", a=a, b=b_frac * a)
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    if np.linalg.cond(T) > 50:
        return
    res = classify2(apply_change(render_cone(ntype), T, 1.0, 1))
    assert res.tag == "M20"
    A, B = res.ntype.params()
    assert A == pytest.approx(a, abs=1e-7 * max(1, a))
    assert B == pytest.approx(b_frac * a, abs=1e-7 * max(1, a))


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_m11_2_verdict_always_two_sided(re, im):
    ntype = NormalFormType("M11_2", a=complex(re, im))
    cone = render_cone(ntype)
    v = decide2(classify2(cone), cone)
    assert v.outcome == "two_sided"


def test_verification_failure_carries_location():
    cone = render_cone(NormalFormType("M20", a=2.0, b=0.5))
    fam = normal_frame_verdict(NormalFormType("M20", a=2.0, b=0.5)).discs
    bad = replace(fam, side=-1)
    with pytest.raises(VerificationFailed) as exc:
        verify_discs(cone, bad, eps_grid=(1e-2,))
    assert exc.value.eps == pytest.approx(1e-2)
    assert exc.value.z is not None and exc.value.z.shape == (2,)


def test_rho_sign_partition_consistency():
    # the two open sides and the cone partition sampled space
    rng = np.random.default_rng(7)
    cone = render_cone(NormalFormType("M11_1", a=2.0, b=0.5))
    Z = rng.standard_normal((2000, 2)) + 1j * rng.standard_normal((2000, 2))
    from quadcone.quadform import evaluate_many

    vals = evaluate_many(cone, Z)
    assert np.sum(vals > 0) > 0 and np.sum(vals < 0) > 0


def test_immutability_of_cone():
    cone = render_cone(NormalFormType("M00_1"))
    with pytest.raises(AttributeError):
        cone.n = 3
    with pytest.raises((ValueError, RuntimeError)):
        cone.S[0, 0] = 5.0


def _spread(e_max: int):
    """m * 2^e with |e| <= e_max; small integer mantissas make zero, equal and cancelling entries likely."""
    return st.builds(
        math.ldexp,
        st.one_of(st.integers(min_value=-3, max_value=3).map(float), st.floats(min_value=-1.0, max_value=1.0)),
        st.integers(min_value=-e_max, max_value=e_max),
    )


spread = _spread(1000)


@st.composite
def spread_cones(draw, e_max: int = 1000):
    """n = 2 cones with every entry part m * 2^e, |e| <= e_max: H arbitrary, or of rank one."""
    part = _spread(e_max)
    s00, s01, s11 = (complex(draw(part), draw(part)) for _ in range(3))
    if draw(st.booleans()):
        h00, h11, h01 = draw(part), draw(part), complex(draw(part), draw(part))
    else:  # H = v v^*, singular; v's parts at most 2^(e_max / 2) so that H stays finite
        half = st.builds(
            math.ldexp, st.floats(min_value=-1.0, max_value=1.0), st.integers(-(e_max // 2), e_max // 2)
        )
        x, y = (complex(draw(half), draw(half)) for _ in range(2))
        h00, h01, h11 = abs(x) ** 2, x * y.conjugate(), abs(y) ** 2
    return QuadraticCone([[s00, s01], [s01, s11]], [[h00, h01], [h01.conjugate(), h11]])


@settings(max_examples=300, deadline=None)
@given(spread_cones())
def test_classify2_returns_a_result_or_a_report_at_any_scale(cone):
    # the reduction runs on Python scalars, which raise OverflowError,
    # ZeroDivisionError or ValueError where numpy returned inf or nan
    res = classify2(cone)
    assert isinstance(res, (NormalFormResult, DegeneracyReport))


@settings(max_examples=300, deadline=None)
@given(spread_cones())
def test_signatures_decide2_and_verify_support_return_or_fail_verification_at_any_scale(cone):
    # the signatures, the germs and the line extremes run on Python scalars
    # too; only a failed check may leave decide2 and verify_support
    hermitian_signature(cone)
    real_signature(cone)
    res = classify2(cone)
    if not isinstance(res, NormalFormResult):
        return
    try:
        assert isinstance(decide2(res, cone), Verdict)
    except VerificationFailed:
        pass
    verdict = decide2(res) if res.residual <= res.residual_bound else None
    if verdict is not None and verdict.outcome == "two_sided":
        try:
            verify_support(cone, verdict.witness)
        except VerificationFailed:
            pass


def _decided(res) -> str:
    """decide2's outcome on a classification, or "verification_failed"."""
    try:
        return decide2(res).outcome
    except VerificationFailed:
        return "verification_failed"


def _moved_exactly(got: np.ndarray, T: np.ndarray, f: float) -> bool:
    """got == f T in every real and imaginary part that is a normal float at both scales.

    A part below 2^-1022 at either scale (a subnormal, or 0 beside one)
    carries fewer than 53 bits: a rounding there moves it by up to a few
    units of 2^-1074 at its own scale, so such parts agree within 4 *
    2^-1074 * max(1, f).
    """
    g, t, w = got.view(float), T.view(float), (f * T).view(float)
    tiny = np.minimum(np.abs(t), np.abs(w)) < 2.0**-1022
    return bool(np.all(np.where(tiny, np.abs(g - w) <= 4 * 2.0**-1074 * max(1.0, f), g == w)))


@settings(max_examples=300, deadline=None)
@given(spread_cones(e_max=150), st.integers(min_value=-150, max_value=150).map(lambda h: 2 * h))
# M10_2 cones: T[1][0] = -A0 / (2 B0) h00^(-1/2) of the first moves to
# -1.09e-308, a subnormal; T[0][1] of the second has an imaginary part of
# 1.9e-312, a subnormal at both scales
@example(
    cone=QuadraticCone(
        [[2.885707299468856e-222j, 4.2817430781178796e45j], [4.2817430781178796e45j, 0j]],
        [[4.253529586511731e37, 0j], [0j, 0j]],
    ),
    k=-144,
)
@example(
    cone=QuadraticCone(
        [[4.3440882133631606e-66j, 1j], [1j, 0j]],
        [[0.002197265625, -9.510946745308514e-126j], [9.510946745308514e-126j, 4.116849003729106e-248]],
    ),
    k=4,
)
def test_classify2_keeps_the_power_of_two_scaling_law(cone, k):
    # rho -> 2^-k rho with k even, on inputs the scaling keeps exact: T takes
    # the factor 2^(k/2) bitwise (_moved_exactly), and tag, parameters, sign
    # and lambda stay (M00_1 keeps T and moves the scale into lambda); a
    # degenerate cone keeps its report, and decide2 its outcome
    scaled = QuadraticCone(2.0**-k * cone.S, 2.0**-k * cone.H)
    assume(np.array_equal(2.0**k * scaled.S, cone.S) and np.array_equal(2.0**k * scaled.H, cone.H))
    base, got = classify2(cone), classify2(scaled)
    if isinstance(base, DegeneracyReport):
        assert got == base
        return
    assert isinstance(got, NormalFormResult)
    f, lam = (1.0, 2.0**k * base.lam) if base.tag == "M00_1" else (2.0 ** (k // 2), base.lam)
    assert repr(got.ntype) == repr(base.ntype) and got.sign == base.sign
    assert got.lam == lam and _moved_exactly(got.T, base.T, f)
    assert _decided(got) == _decided(base)


# the one-sided families of the table, and the definite slice's family without a model
DISC_FAMILIES = [
    normal_frame_verdict(NormalFormType("M20", a=2.0, b=0.5)).discs,
    normal_frame_verdict(NormalFormType("M10_1", a=0.5)).discs,
    normal_frame_verdict(NormalFormType("M11_1", a=2.0, b=0.5)).discs,
    normal_frame_verdict(NormalFormType("M11_1", a=3.0, b=2.0)).discs,
    DiscFamily(side=1),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflows on these scales by design
@settings(max_examples=200, deadline=None)
@given(
    spread_cones(),
    st.lists(spread, min_size=8, max_size=8),
    st.sampled_from(DISC_FAMILIES),
    st.sampled_from((-1, 1)),
    st.integers(min_value=-1000, max_value=1000),
)
def test_verify_discs_returns_or_fails_verification_at_any_scale(cone, entries, fam, side, e):
    # the pullback, the allowance and the closed forms run on Python scalars,
    # and the model distance and the multiplier bound on numpy eigensolvers,
    # which raise LinAlgError on a form that is not finite: only a failed
    # check (VerificationFailed, a ConeError) may leave verify_discs
    T = (np.array(entries[0::2]) + 1j * np.array(entries[1::2])).reshape(2, 2)
    fam = replace(fam, transform=T, side=side, lam=math.ldexp(1.0, e))
    try:
        verify_discs(cone, fam, eps_grid=(1e-3, 1e-2, 1e-1))
    except ConeError:
        pass
