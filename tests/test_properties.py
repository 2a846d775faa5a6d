"""Cross-module property tests driven by hypothesis."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadcone.decider import Verdict, VerificationFailed, decide2, normal_frame_verdict, verify_discs, verify_support
from quadcone.normalform import (
    DegeneracyReport,
    NormalFormResult,
    NormalFormType,
    apply_change,
    classify2,
    render_cone,
)
from quadcone.quadform import (
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
    from dataclasses import replace

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


# m * 2^e with e anywhere in [-1000, 1000]; small integer mantissas make zero,
# equal and cancelling entries likely
spread = st.builds(
    math.ldexp,
    st.one_of(st.integers(min_value=-3, max_value=3).map(float), st.floats(min_value=-1.0, max_value=1.0)),
    st.integers(min_value=-1000, max_value=1000),
)


@st.composite
def spread_cones(draw):
    """n = 2 cones with every entry part m * 2^e: H arbitrary, or of rank one."""
    s00, s01, s11 = (complex(draw(spread), draw(spread)) for _ in range(3))
    if draw(st.booleans()):
        h00, h11, h01 = draw(spread), draw(spread), complex(draw(spread), draw(spread))
    else:  # H = v v^*, singular; v's parts at most 2^500 so that H stays finite
        half = st.builds(math.ldexp, st.floats(min_value=-1.0, max_value=1.0), st.integers(-500, 500))
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
