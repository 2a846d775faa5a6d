"""Slicing n >= 3 down to the plane, and the two-sided shape recognizers."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadcone import fixtures as fx
from quadcone.cli import parse_spec
from quadcone.decider import verify_discs
from quadcone.normalform import (
    DegeneracyReport,
    NormalFormType,
    classify2,
    normalize_hermitian,
    render_cone,
)
from quadcone.quadform import (
    ConeError,
    QuadraticCone,
    canonical_sign,
    evaluate_many,
    form_distance,
    hermitian_signature,
)
from quadcone.slicer import (
    EXTENSION_MARGIN,
    GRAM_DET_MIN,
    DegenerateBasis,
    Slice,
    classify_two_sided_nd,
    find_good_slice,
    product_test,
    restrict,
    _extension_margin,
    _onezero_candidates,
    _pi2_candidates,
    _structured_candidates,
    _try_slice,
)

from test_scorecard import scorecard
from witness_samplers import apply_change, own_frame, replace

# fixture -> the start of its winning slice's description, for the (1,1)
# fixtures whose coupling case picks the structured candidate
ONE_SIDED_FIXTURES = {
    "slice_pi2_axis": None,
    "slice_pi2_small": None,
    "slice_pi2_shear_a": None,
    "slice_pi2_shear_c": None,
    "slice_pi2_shear_b": None,
    "slice_oneone_r0_onesided": "axis slice z_j = 0, j = 3..n (product)",
    "slice_oneone_r_z1z3": "dual slice z3 = a z1 + b z2",
    "slice_oneone_r_z2z3": "dual slice z3 = a z2 + b z1",
    "slice_oneone_r_dependent": "line slice z3 = a z2, a = ",
    "slice_oneone_r_dependent_real": "dual slice after real-ratio reduction",
    "slice_oneone_r_independent": "independent-coupling slice",
    "slice_oneone_qnonzero": "line slice z2 = a z1, a = ",
    "slice_onezero_l0": None,
    "slice_onezero_dq": None,
    "slice_onezero_dq_zero": None,
}


def random_gl(rng, n, max_cond=20.0):
    while True:
        T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(T) < max_cond:
            return T


# --- restrict -------------------------------------------------------------------


def test_restrict_axis_recovers_example_m():
    # Re(z1^2/2 + z2^2/3 + z3^2) + |z1|^2 - |z2|^2 + |z3|^2, sliced on z3 = 0
    S = np.diag([0.5, 1.0 / 3.0, 1.0]).astype(complex)
    H = np.diag([1.0, -1.0, 1.0])
    cone = QuadraticCone(S, H)
    basis = np.eye(3, dtype=complex)[:, :2]
    got = restrict(cone, basis)
    np.testing.assert_allclose(got.S, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)
    np.testing.assert_allclose(got.H, np.diag([1.0, -1.0]), atol=1e-14)


def test_restrict_shear_coefficients():
    # shear z3 = a z2 of Re(z1^2 + z2^2 + a23 z2 z3 + b z3^2 + c z1 z3) + ...:
    # the z2^2 coefficient becomes 1 + a*a23 + a^2 b, the hermitian weight
    # 1 + eps3 a^2
    a23, b, c, eps3, al = 0.7, -0.3, 0.4, -1.0, 0.35
    S = np.zeros((3, 3), dtype=complex)
    S[0, 0] = 1.0
    S[1, 1] = 1.0
    S[1, 2] = S[2, 1] = a23 / 2
    S[2, 2] = b
    S[0, 2] = S[2, 0] = c / 2
    H = np.diag([1.0, 1.0, eps3])
    cone = QuadraticCone(S, H)
    basis = np.column_stack([np.array([1, 0, 0]), np.array([0, 1, al])]).astype(complex)
    got = restrict(cone, basis)
    assert got.S[1, 1] == pytest.approx(1 + al * a23 + al**2 * b)
    assert got.H[1, 1] == pytest.approx(1 + eps3 * al**2)
    assert got.S[0, 1] == pytest.approx(c * al / 2)


def test_restrict_pointwise_identity():
    rng = np.random.default_rng(79)
    for _ in range(20):
        n = int(rng.integers(3, 6))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        cone = QuadraticCone((A + A.T) / 2, (B + B.conj().T) / 2)
        basis = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        got = restrict(cone, basis)
        W = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
        np.testing.assert_allclose(
            evaluate_many(got, W),
            evaluate_many(cone, W @ basis.T),
            atol=1e-9 * cone.scale * np.max(np.linalg.norm(W @ basis.T, axis=1)) ** 2,
        )


def test_restrict_functoriality():
    # slicing with basis B then 2x2 map M equals slicing with B @ M
    rng = np.random.default_rng(83)
    n = 4
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    cone = QuadraticCone((A + A.T) / 2, np.eye(n))
    B = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    M = random_gl(rng, 2)
    once = restrict(cone, B @ M)
    twice = apply_change(restrict(cone, B), M)
    np.testing.assert_allclose(once.S, twice.S, atol=1e-10 * cone.scale)
    np.testing.assert_allclose(once.H, twice.H, atol=1e-10 * cone.scale)


def test_restrict_rejects_dependent_basis():
    # the Gram check is dimensionless: the verdict on a basis does not depend on its scale
    for scale in (1e-20, 1.0, 1e20):
        with pytest.raises(DegenerateBasis):
            Slice(scale * np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]), "bad")
        with pytest.raises(DegenerateBasis):
            Slice(scale * np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]), "zero column")
        Slice(scale * np.array([[1.0, 1.0], [0.0, 1e-3], [0.0, 0.0]]), "independent")


def _numpy_gram_test(B) -> bool:
    """Whether numpy's LU of the unit columns' Gram matrix finds the basis dependent, as Slice once tested."""
    norms = np.linalg.norm(B, axis=0)
    if not np.all(norms > 0):
        return True
    U = B / norms
    return bool(abs(np.linalg.det(U.conj().T @ U)) < GRAM_DET_MIN)


def test_slice_basis_test_is_that_of_numpys_lu():
    # Slice sums the Gram matrix on Python floats and leaves to numpy's LU the
    # bases whose ratio lies near GRAM_DET_MIN or whose columns are far from
    # unit scale: over ratios around the threshold and scales out to 2^+-700,
    # the verdict is numpy's
    rng = np.random.default_rng(37)
    for _ in range(600):
        n = int(rng.integers(3, 9))
        b0, w = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
        w -= (np.vdot(b0, w) / np.vdot(b0, b0)) * b0  # orthogonal to b0
        # ratio t^2 |w|^2 / (|b0|^2 + t^2 |w|^2) for b1 = b0 + t w: within Slice's margin
        # n 2^-40 of GRAM_DET_MIN, just outside it or far from it
        ratio = GRAM_DET_MIN + rng.choice([-12.0, -1.01, -0.5, -1e-4, 0.0, 1e-4, 0.5, 1.01, 2.0, 1e3]) * n * 2.0**-40
        ratio = ratio if rng.random() < 0.9 else 0.1
        t = np.sqrt(ratio / (1 - ratio) * np.vdot(b0, b0).real / np.vdot(w, w).real)
        B = np.column_stack([b0, b0 + t * w]) * 2.0 ** int(rng.choice([0, 0, 0, -700, -450, 450, 700]))
        if rng.random() < 0.1:
            B[:, int(rng.integers(2))] = 0.0
        with np.errstate(over="ignore"):  # at 2^700 the norms overflow, and every basis reads dependent
            dependent = _numpy_gram_test(B)
            try:
                Slice(B, "probe")
            except DegenerateBasis:
                assert dependent, B
            else:
                assert not dependent, B


def test_replace_reruns_the_slice_basis_checks():
    slc = Slice(np.eye(3, 2), "axis")
    moved = replace(slc, basis=[[1, 0], [0, 1], [0, 1]])
    assert moved.basis.dtype == complex and moved.basis.shape == (3, 2) and moved.description == "axis"
    with pytest.raises(DegenerateBasis):
        replace(slc, basis=[[1, 1], [0, 0], [0, 0]])
    with pytest.raises(TypeError):
        replace(slc, cone=None)
    with pytest.raises(AttributeError):
        slc.basis = np.eye(3, 2)


def test_restrict_takes_any_number_of_columns():
    # an n x m basis pulls the cone back to C^m, a hyperplane basis (m = n - 1) included
    rng = np.random.default_rng(89)
    n = 5
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    cone = QuadraticCone((A + A.T) / 2, (B + B.conj().T) / 2)
    for m in range(1, n + 1):
        basis = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        got = restrict(cone, basis)
        assert got.n == m
        W = rng.standard_normal((50, m)) + 1j * rng.standard_normal((50, m))
        np.testing.assert_allclose(
            evaluate_many(got, W),
            evaluate_many(cone, W @ basis.T),
            atol=1e-9 * cone.scale * np.max(np.linalg.norm(W @ basis.T, axis=1)) ** 2,
        )
    for bad in (np.eye(n + 1, 2), np.eye(n - 1, 2), np.ones(n)):
        with pytest.raises(ConeError, match="basis must be"):
            restrict(cone, bad)


# --- the extension criterion (_extension_margin) ------------------------------------------------


def test_check_extension_criterion_known_values():
    assert _extension_margin(np.array([[1.0, 2.0j], [2.0j, -1.0]])) > 0  # det 3, det P = -1


def test_check_extension_criterion_rejects_positive_det_p():
    assert _extension_margin(np.diag([1 + 1j, 1 - 1j])) <= 0  # det P = 1 > 0


def test_check_extension_criterion_rejects_singular():
    assert _extension_margin(np.array([[1.0, 0.0], [0.0, 0.0]])) <= 0


def test_check_extension_criterion_consistency_with_classifier():
    # cor2-true harmonic data classifies to M11_1 with A >= 1, A != B, and
    # the verdict is one-sided from below
    from quadcone.decider import decide2
    from witness_samplers import E_HERM

    rng = np.random.default_rng(89)
    found = 0
    while found < 25:
        S = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        S = (S + S.T) / 2
        if _extension_margin(S) < EXTENSION_MARGIN:
            continue
        found += 1
        res = classify2(QuadraticCone(S, E_HERM))
        assert res.tag == "M11_1"
        A, B = res.ntype.params()
        assert A >= 1.0 - 1e-8 and abs(A - B) > 1e-8
        # one-sided from the negative side in normal-form coordinates; the
        # side in input coordinates carries the presentation sign
        assert decide2(res).side == -res.sign


# --- find_good_slice -------------------------------------------------------------


@pytest.mark.parametrize("name, description", ONE_SIDED_FIXTURES.items(), ids=list(ONE_SIDED_FIXTURES))
def test_find_good_slice_fixtures(name, description):
    cone = fx.FIXTURES[name]()
    res = find_good_slice(cone, budget=256)
    assert res is not None, name
    if description is not None:
        assert res.slice.description.startswith(description), res.slice.description
    # soundness: re-verify the discs on the restricted cone over the CLI's eps grid
    rep = verify_discs(cone=res.restricted, fam=own_frame(res.verdict.discs), eps_grid=(1e-3, 1e-2, 1e-1))
    assert rep.min_margin > 0 and rep.touch_residual > 0


ND_SLICE_FIXTURES = sorted(n for n, make in fx.FIXTURES.items() if n.startswith("slice_") and make().n >= 3)


@pytest.mark.parametrize("name", ND_SLICE_FIXTURES)
def test_winning_slice_family_does_not_depend_on_scale(name):
    # every column of the hermitian frame scales like 1/sqrt(lambda), so the
    # candidates, and the family that wins, are the same at every scale
    cone = fx.FIXTURES[name]()
    for s in range(5):
        T = random_gl(np.random.default_rng(s), cone.n)
        families = {}
        for k in range(-280, 281, 40):
            res = find_good_slice(apply_change(cone, T, 10.0**k))
            families[k] = res and res.slice.description.split(",")[0]
        assert families[0] is not None
        assert set(families.values()) == {families[0]}, (s, families)


@pytest.mark.parametrize("c", [1e-3, 1e4, 1e5])
def test_real_coupling_ratio_wins_a_well_conditioned_dual_slice(c):
    # coupling 2 (c z1 + z2) z3: the rotation that turns c z1 + z2 into a
    # multiple of z1 keeps the slice basis well conditioned for any c
    cone = fx.slice_oneone_r_dependent_real()
    S = cone.S.copy()
    S[0, 2] = S[2, 0] = c * S[1, 2]
    res = find_good_slice(QuadraticCone(S, cone.H))
    assert res is not None
    assert res.slice.description == "dual slice after real-ratio reduction"
    assert np.linalg.cond(res.slice.basis) < 10


@pytest.mark.parametrize("scale", [1e-20, 1e20])
@pytest.mark.parametrize("name", ["slice_pi2_axis", "slice_oneone_r_independent"])
def test_find_good_slice_at_extreme_scales(name, scale):
    cone = fx.FIXTURES[name]()
    res = find_good_slice(QuadraticCone(scale * cone.S, scale * cone.H))
    assert res is not None, name
    rep = verify_discs(res.restricted, own_frame(res.verdict.discs), eps_grid=(1e-3, 1e-2, 1e-1))
    assert rep.min_margin > 0 and rep.touch_residual > 0


@pytest.mark.parametrize("k", range(10, 17))
def test_find_good_slice_takes_the_axis_slice_beside_a_large_harmonic_term(k):
    # rho = |z|^2 + 10^k Re(z3^2): the axis plane restricts it to |w|^2 exactly,
    # 10^-k of the cone's scale, and the discs certified on the input decide it
    cone = QuadraticCone(np.diag([0.0, 0.0, 10.0**k]).astype(complex), np.eye(3, dtype=complex))
    res = find_good_slice(cone)
    assert res is not None and res.slice.description == "axis slice z_j = 0, j = 3..n"
    assert res.disc_report.min_margin > 0


def test_find_good_slice_transformed_fixture():
    rng = np.random.default_rng(97)
    cone = fx.slice_oneone_r_z1z3()
    moved = apply_change(cone, random_gl(rng, 3), 1.7, -1)
    res = find_good_slice(moved, budget=256)
    assert res is not None


def test_find_good_slice_none_for_two_sided():
    for name in ("product_example_m", "ts1_k3", "ts2"):
        cone = fx.FIXTURES[name]()
        assert find_good_slice(cone, budget=48) is None


def test_independent_coupling_slice_values():
    # the explicit two-direction slice of the independent-coupling case has
    # det S* = 3 and det P = -1 in the Im(z1 conj(z2)) frame
    from quadcone.slicer import _oneone_candidates
    from quadcone.quadform import canonical_sign

    cone = fx.slice_oneone_r_independent()
    cone0, _ = canonical_sign(cone)
    cands = list(_oneone_candidates(*normalize_hermitian(cone0)))
    assert cands, "generator produced no candidates"
    got = restrict(cone, cands[0][0])
    d = np.linalg.det(got.S)
    assert d == pytest.approx(3.0, abs=1e-9)
    assert np.linalg.det(got.S.real) == pytest.approx(-1.0, abs=1e-9)
    assert _extension_margin(got.S) > 0


@pytest.mark.parametrize(
    "name", ["slice_oneone_r_z1z3", "slice_oneone_r_z2z3", "slice_oneone_r_dependent_real"]
)
def test_dual_slices_have_determinant_two(name):
    # each dual slice restricts to the Im(z1 conj(z2)) frame
    # with det S* = 2, which passes the extension criterion
    from quadcone.slicer import _oneone_candidates
    from quadcone.quadform import canonical_sign
    from witness_samplers import E_HERM

    cone0, _ = canonical_sign(fx.FIXTURES[name]())
    basis, description = next(_oneone_candidates(*normalize_hermitian(cone0)))
    assert description.startswith("dual slice"), description
    got = restrict(cone0, basis)
    np.testing.assert_allclose(got.H, E_HERM, atol=1e-12)
    assert np.linalg.det(got.S) == pytest.approx(2.0, abs=1e-9)
    assert _extension_margin(got.S) > 0


def test_pi2_shear_candidates_verify_without_axis():
    # beyond the axis shortcut, the filtered shear candidates themselves
    # produce verifying one-sided slices
    from quadcone.quadform import canonical_sign

    for make in (fx.slice_pi2_shear_a, fx.slice_pi2_shear_c, fx.slice_pi2_shear_b):
        cone = make()
        cone0, _ = canonical_sign(cone)
        gen = _structured_candidates(cone0)  # the pi >= 2 family
        next(gen)  # drop the axis candidate
        found = False
        for _ in range(40):
            try:
                slc = next(gen)
            except StopIteration:
                break
            res = _try_slice(cone, slc)
            if res is not None:
                found = True
                break
        assert found, make.__name__


def test_definite_slice_note():
    cone = fx.slice_pi2_small()
    res = find_good_slice(cone, budget=16)
    assert res is not None
    assert isinstance(res.classification, DegeneracyReport)
    assert res.verdict.outcome == "one_sided" and res.verdict.side == +1


# --- classify_two_sided_nd ----------------------------------------------------------


def _two_sided(cone):
    """classify_two_sided_nd after the product test, as the slice command runs them."""
    return classify_two_sided_nd(cone, product_test(cone))


def test_two_sided_product():
    form = _two_sided(fx.product_example_m())
    assert form.kind == "product" and form.certified
    assert form.inner.tag == "M11_1"
    A, B = form.inner.ntype.params()
    assert A == pytest.approx(0.5, abs=1e-8) and B == pytest.approx(1 / 3, abs=1e-8)


def test_two_sided_product_with_one_sided_factor_is_not_certified():
    # rho does not depend on z3, but its C^2 factor is one-sided (a slice exists)
    form = _two_sided(fx.slice_oneone_r0_onesided())
    assert form.kind == "product" and not form.certified
    assert find_good_slice(fx.slice_oneone_r0_onesided()) is not None


def test_two_sided_product_with_a_degenerate_factor_is_not_certified():
    # rho = |z1|^2 + |z2|^2 does not depend on z3, and its C^2 factor is definite
    form = _two_sided(QuadraticCone(np.zeros((3, 3)), np.diag([1.0, 1.0, 0.0])))
    assert form.kind == "product" and not form.certified
    assert isinstance(form.inner, DegeneracyReport) and form.inner.reason == "PointCone"


def test_two_sided_product_whose_factor_fails_its_line_check_is_not_certified():
    # M11_1 with A = 1 + 5e-10 lies in decide2's A = 1 band, so it decides
    # two-sided, but its supporting line {z2 = 0} dips below the cone
    S, H = np.zeros((3, 3), dtype=complex), np.zeros((3, 3), dtype=complex)
    base = render_cone(NormalFormType("M11_1", a=1.0 + 5e-10, b=0.5))
    S[:2, :2], H[:2, :2] = base.S, base.H
    form = _two_sided(QuadraticCone(S, H))
    assert form.kind == "product" and not form.certified
    assert form.inner.tag == "M11_1"


def test_two_sided_ts1():
    form = _two_sided(fx.ts1_k3())
    assert form.kind == "ts1" and form.k == 3 and not form.certified


def test_two_sided_ts2():
    form = _two_sided(fx.ts2())
    assert form.kind == "ts2" and not form.certified
    assert form.fit_residual <= 1e-10


def test_two_sided_ts2_contains_hyperplane():
    # {z1 = 0} lies inside the cone: it is non-minimal
    cone = fx.ts2()
    rng = np.random.default_rng(101)
    Z = rng.standard_normal((100, 3)) + 1j * rng.standard_normal((100, 3))
    Z[:, 0] = 0.0
    assert np.max(np.abs(evaluate_many(cone, Z))) <= 1e-12


def test_two_sided_forms_transformed():
    rng = np.random.default_rng(103)
    for make, kind in ((fx.product_example_m, "product"), (fx.ts1_k3, "ts1"), (fx.ts2, "ts2")):
        cone = make()
        moved = apply_change(cone, random_gl(rng, 3), 2.0, 1)
        form = _two_sided(moved)
        assert form.kind == kind, (make.__name__, form.kind, form.detail)
        assert form.certified == (kind == "product"), make.__name__


def test_two_sided_unknown_is_sound():
    # a one-sided cone must never be claimed product/ts1/ts2
    cone = fx.slice_pi2_axis()
    form = _two_sided(cone)
    assert form.kind == "unknown" and not form.certified


@pytest.mark.parametrize("name", sorted(n for n, make in fx.FIXTURES.items() if make().n >= 3))
def test_no_fixture_is_certified_two_sided_and_has_a_one_sided_slice(name):
    cone = fx.FIXTURES[name]()
    form = _two_sided(cone)
    assert form.certified == (name == "product_example_m"), (name, form.kind)
    if form.certified:
        assert find_good_slice(cone) is None


def test_no_scorecard_n3_input_is_certified_two_sided_and_has_a_one_sided_slice():
    # S = [[A, 0, 0], [0, 0.5, A], [0, A, 0]], H = I, A = 10^1..10^17: ts1 fits
    # from A = 10^10 within its tolerance, yet the shear slice z3 = a z2
    # certifies one-sided up to A = 10^13, so a fit alone must not certify
    cones = [parse_spec(text).cone for name, _, text, _ in scorecard.inputs() if name == "n = 3 class"]
    assert len(cones) == 17
    for k, cone in enumerate(cones, 1):
        if _two_sided(cone).certified:
            assert find_good_slice(cone) is None, k


def _drawn_cone(n: int, kind: str, seed: int, e: int) -> QuadraticCone:
    """A cone in C^n of the given shape through a random GL(n,C) change, at scale 10^e."""
    rng = np.random.default_rng(seed)
    S, H = np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
    if kind == "product":  # an M11 factor in (z1, z2), one- or two-sided
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        S[:2, :2], H[:2, :2] = A + A.T, np.diag([1.0, -1.0])
    elif kind == "ts1":
        k = int(rng.integers(3, n + 1))
        S[:k, :k] = np.eye(k)
    elif kind == "ts2":  # Re((z2 + conj(z3)) z1)
        S[0, 1] = S[1, 0] = H[0, 2] = H[2, 0] = 0.5
    else:
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        S, H = A + A.T, B + B.conj().T
    return apply_change(QuadraticCone(S, H), random_gl(rng, n), 10.0**e, 1)


@settings(max_examples=24, deadline=None)
@given(
    st.integers(3, 5),
    st.sampled_from(("product", "ts1", "ts2", "generic")),
    st.integers(0, 2**32 - 1),
    st.integers(-8, 8),
)
def test_no_drawn_cone_is_certified_two_sided_and_has_a_one_sided_slice(n, kind, seed, e):
    cone = _drawn_cone(n, kind, seed, e)
    if _two_sided(cone).certified:
        assert find_good_slice(cone) is None


def test_high_dimensional_products_and_harmonic_ranks():
    # padded two-sided shapes in C^4..C^5 keep their recognitions under
    # random transforms, and no one-sided slice is ever claimed for them
    rng = np.random.default_rng(211)
    for n in (4, 5):
        S = np.zeros((n, n), dtype=complex)
        H = np.zeros((n, n), dtype=complex)
        S[:2, :2] = np.diag([0.5, 1.0 / 3.0])
        H[:2, :2] = np.diag([1.0, -1.0])
        moved = apply_change(QuadraticCone(S, H), random_gl(rng, n), 1.4, -1)
        assert find_good_slice(moved, budget=48) is None
        form = _two_sided(moved)
        assert form.kind == "product" and form.inner.tag == "M11_1"
    for k in (3, 4, 5):
        S = np.zeros((5, 5), dtype=complex)
        S[:k, :k] = np.eye(k)
        moved = apply_change(QuadraticCone(S, np.zeros((5, 5))), random_gl(rng, 5), 2.0, 1)
        assert find_good_slice(moved, budget=48) is None
        form = _two_sided(moved)
        assert form.kind == "ts1" and form.k == k
    for n in (4, 5):
        # Re((z2 + conj(z3)) z1), padded
        S = np.zeros((n, n), dtype=complex)
        H = np.zeros((n, n), dtype=complex)
        S[0, 1] = S[1, 0] = 0.5
        H[0, 2] = H[2, 0] = 0.5
        moved = apply_change(QuadraticCone(S, H), random_gl(rng, n), 0.7, -1)
        assert find_good_slice(moved, budget=48) is None
        form = _two_sided(moved)
        assert form.kind == "ts2" and not form.certified


@pytest.mark.parametrize(
    "make, kind, k", [(fx.product_example_m, "product", None), (fx.ts1_k3, "ts1", 3), (fx.ts2, "ts2", None)]
)
def test_two_sided_forms_are_recognized_at_every_scale(make, kind, k):
    # the ts2 fit hands takagi2 its 2 x 2 block, which takagi2 scales by a
    # power of two before squaring it: unscaled, the square overflows or
    # underflows beyond about 1e+-160
    rng = np.random.default_rng(229)
    for _ in range(5):
        T = random_gl(rng, 3)
        for e in range(-300, 301, 10):
            form = _two_sided(apply_change(make(), T, 10.0**e, 1))
            assert (form.kind, form.k, form.certified) == (kind, k, kind == "product"), (e, form.detail)


def test_high_dimensional_random_cones_slice():
    # generic cones in C^5 are one-sided and the search finds a slice
    rng = np.random.default_rng(223)
    found = 0
    for i in range(6):
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        B = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        cone = QuadraticCone((A + A.T) / 2, (B + B.conj().T) / 2)
        from quadcone.quadform import real_signature

        rs = real_signature(cone)
        if min(rs.p, rs.q) == 0 or (rs.p, rs.q) == (1, 1):
            continue
        res = find_good_slice(cone, budget=96)
        assert res is not None
        found += 1
    assert found >= 4


def test_slice_result_hermitian_frames():
    # the structured candidates keep the hermitian block structure they claim
    cone = fx.slice_oneone_r_z1z3()
    res = find_good_slice(cone, budget=64)
    got = hermitian_signature(res.restricted)
    assert got == (1, 1)


def test_try_slice_rejects_a_classification_beyond_its_residual_bound(monkeypatch):
    import quadcone.slicer as slicer
    from quadcone.normalform import render_cone

    cone = fx.slice_pi2_axis()
    slc = Slice(np.eye(3, 2, dtype=complex), "axis")
    assert _try_slice(cone, slc) is not None
    classify = slicer.classify2

    def nudged(restricted):
        # T moved by 1e-6, with the residual that T really has
        res = classify(restricted)
        T = res.T @ np.diag([1.0 + 1e-6, 1.0])
        residual = form_distance(apply_change(restricted, T, res.lam, res.sign), render_cone(res.ntype))
        assert residual > res.residual_bound
        return replace(res, T=T, residual=residual)

    monkeypatch.setattr(slicer, "classify2", nudged)
    assert _try_slice(cone, slc) is None


@pytest.mark.parametrize("outcome", ["raises", "reducible"])
def test_try_slice_rejects_a_restricted_cone_that_does_not_classify(monkeypatch, outcome):
    # the axis plane of |z|^2 is a definite slice; a classification that
    # raises, or a degeneracy other than a point cone or a dimension
    # deficiency, rejects it whatever the real signature of the plane
    import quadcone.slicer as slicer

    cone = QuadraticCone(np.zeros((3, 3)), np.eye(3))
    slc = Slice(np.eye(3, 2, dtype=complex), "axis")
    assert _try_slice(cone, slc) is not None

    def classify(restricted):
        if outcome == "raises":
            raise ConeError("not classified")
        return DegeneracyReport("Reducible", "rho factors into two real linear forms")

    monkeypatch.setattr(slicer, "classify2", classify)
    assert _try_slice(cone, slc) is None


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-6, 1.0, 1e6, 1e150, 1e300])
def test_try_slice_rejects_a_restricted_cone_of_rounding_size(scale):
    # example M plus an inert C^(n-2), moved by a GL(n, C) change T: on the
    # inert plane inv(T)[:, 2:4] the restricted cone is rounding noise (about
    # 1e-17 relative) and must not pass as a one-sided slice
    for n in range(4, 9):
        S = scale * np.diag([0.5, 1.0 / 3.0] + [0.0] * (n - 2))
        cone = QuadraticCone(S, scale * np.diag([1.0, -1.0] + [0.0] * (n - 2)))
        for s in range(40):
            rng = np.random.default_rng(s)
            T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            slc = Slice(np.linalg.inv(T)[:, 2:4], "inert plane")
            moved = apply_change(cone, T)
            assert _try_slice(moved, slc) is None, (n, s)


def test_try_slice_rejects_a_slice_whose_hermitian_part_is_rounding_noise():
    # on the plane inv(T)[:, :2] the cone is Re(2e-8 w1^2 + 0.5e-8 w2^2) plus a
    # hermitian part of 1e-17, below the rounding of the moved cone's entries:
    # the restricted cone is not of rounding size, but its Levi form, and so
    # its side, is noise.  The discs are certified on the input itself,
    # whose rounding allowance covers that hermitian part.
    cone = QuadraticCone(np.diag([2e-8, 0.5e-8, 1.0]), np.diag([1e-17, 1e-17, 1.0]))
    for s in range(40):
        rng = np.random.default_rng(s)
        T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        slc = Slice(np.linalg.inv(T)[:, :2], "noise plane")
        assert _try_slice(apply_change(cone, T), slc) is None


@pytest.mark.parametrize(
    "ntype",
    [
        NormalFormType("M11_1", a=0.5, b=1.0 / 3.0),
        NormalFormType("M11_2", a=1.0 + 1.0j),
        NormalFormType("M11_3"),
    ],
    ids=lambda t: t.tag,
)
def test_find_good_slice_finds_no_one_sided_slice_of_a_two_sided_product_at_1e6_to_1e8(ntype):
    # a two-sided C^2 factor times an inert z3: near the inert factor the
    # candidate slices restrict the cone to rounding noise of the input, which
    # classified as a definite or one-sided slice before the discs were
    # certified on the input itself
    S, H = np.zeros((3, 3), dtype=complex), np.zeros((3, 3), dtype=complex)
    base = render_cone(ntype)
    S[:2, :2], H[:2, :2] = base.S, base.H
    cone = QuadraticCone(S, H)
    for s in range(4):
        T = np.random.default_rng(s).standard_normal((3, 3))
        T = T + 1j * np.random.default_rng(s + 100).standard_normal((3, 3))
        for scale in (1e6, 1e7, 1e8):
            assert find_good_slice(apply_change(cone, T, scale), budget=16) is None, (s, scale)


def test_slicer_frame_flags_follow_the_hermitian_signature():
    # -2e-9 lies between 1e-9 * ||H||_2 = 1e-9 and 1e-9 * ||H||_F = 3e-9: the
    # signature counts it negative, so the frame and the shears must as well
    H = np.diag([1.0] * 9 + [-2e-9])
    cone = QuadraticCone(np.diag([2.0, 1.0] + [0.0] * 8), H)
    assert hermitian_signature(cone) == (9, 1)
    W, _ = normalize_hermitian(cone)
    np.testing.assert_allclose(W.conj().T @ cone.H @ W, np.diag([1.0] * 9 + [-1.0]), atol=1e-12)
    # z10 has no harmonic coupling: only a nonzero flag makes its shears candidates
    pairs = _pi2_candidates(*normalize_hermitian(cone), 9, 1)
    assert any("z10 = a" in description for _, description in pairs)


@pytest.mark.parametrize("s22", [0.0, 1e-12])
def test_onezero_cone_containing_a_coordinate_plane_has_no_candidates(s22):
    # hermitian signature (1,0) with the z' block of S below Q_ZERO_REL of S:
    # {z1 = 0} lies in the cone (up to rounding), which is non-minimal, so no
    # slice through the support of that block is tried
    S = np.array([[1.0, 0.5, 0.0], [0.5, s22, 0.0], [0.0, 0.0, 0.0]])
    cone = QuadraticCone(S, np.diag([1.0, 0.0, 0.0]))
    assert hermitian_signature(cone) == (1, 0)
    assert list(_onezero_candidates(*normalize_hermitian(cone))) == []
    assert find_good_slice(cone) is None


@pytest.mark.parametrize(
    "family, name",
    [
        ("_pi2_candidates", "slice_pi2_axis"),
        ("_oneone_candidates", "slice_oneone_r_z1z3"),
        ("_onezero_candidates", "slice_onezero_l0"),
    ],
)
def test_a_dependent_candidate_basis_is_skipped(monkeypatch, family, name):
    # a family that yields a dependent basis first still reaches its winner:
    # the dependent candidate is skipped, and the search goes on
    from itertools import chain

    from quadcone import slicer

    cone = fx.FIXTURES[name]()
    want = find_good_slice(cone)
    assert want is not None, name
    raw = getattr(slicer, family)
    dependent = np.ones((cone.n, 2), dtype=complex)
    calls = []

    def with_dependent_first(*frame):
        calls.append(frame)
        return chain([(dependent, "dependent")], raw(*frame))

    monkeypatch.setattr(slicer, family, with_dependent_first)
    got = find_good_slice(cone)
    assert calls, f"{name} does not reach {family}"
    assert got is not None, name
    assert got.slice.description == want.slice.description
    np.testing.assert_array_equal(got.slice.basis, want.slice.basis)
    assert got.disc_report == want.disc_report


# fixture -> (count, SHA-256 of the descriptions joined by newlines) of every
# structured candidate, for the fixture as given and after the change
# random_gl(default_rng(0), n), which sends the (1,1) couplings through the
# rank-2 and real-ratio dual slices.  A refactor of the families keeps them.
CANDIDATES_AS_GIVEN = {
    "product_example_m": (1, "4e9a1e62fc842f7359b4f686391d08f1404270e53abf47b70047fe624cfada6c"),
    "slice_oneone_qnonzero": (11, "81bf1fc1020ce9907fcb2ed928e0333273837b65f7ab485c1de0f9df30826adc"),
    "slice_oneone_r0_onesided": (1, "4e9a1e62fc842f7359b4f686391d08f1404270e53abf47b70047fe624cfada6c"),
    "slice_oneone_r_dependent": (150, "3bbc41f19714021f37a19234901344faa3d5291965b8c708cc7ff8a34c29995e"),
    "slice_oneone_r_dependent_real": (1, "c4b795c1565e5631725c6664b4af78c08a9842e8442aea76fac5d588708acbbc"),
    "slice_oneone_r_independent": (1, "aa034f8c6f5f3af71c31d81dbbd644858ce424c09051d97e513158eae06e4fb3"),
    "slice_oneone_r_z1z3": (1, "05c79a5f1410817ce984c5dec5b9765ebb7a25d01f471c5f3c1c181f65ff90c9"),
    "slice_oneone_r_z2z3": (1, "1c488989b8f5f236047245e7d425efecee04f98f236da4d42e3fea83e940f4d5"),
    "slice_onezero_dq": (2, "2c4d278bb5bf12f562d22da5037a451f4ebd28930f96e0d106ad51ceaa2c4ee6"),
    "slice_onezero_dq_zero": (1, "fa6035aba29e00c113cbbced71431ce197513de487c19fc87e007c8d0a35d1d7"),
    "slice_onezero_l0": (2, "2c4d278bb5bf12f562d22da5037a451f4ebd28930f96e0d106ad51ceaa2c4ee6"),
    "slice_pi2_axis": (1281, "1d94ec0f4d05035f45758754369f46fae66bdc6b7cff3993c145ccd28b3ffb75"),
    "slice_pi2_shear_a": (618, "d32803b8dab80fe3fa0da374f577cdb8eaadd6604872b669e13667a8a2635dea"),
    "slice_pi2_shear_b": (125, "ffc262fb90004ef8643c374b1e74b9e441e4b54454ee3dd3687d621fa94feb51"),
    "slice_pi2_shear_c": (618, "b3b4e668798592ef7bc77547d9eea51b4c2f4e74aa847d1f09a97276597611d1"),
    "slice_pi2_small": (641, "4bb1e83d0224914fc4635c88e19a1581b111d7047946e424b605771f458d03d3"),
    "ts1_k3": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ts2": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}
CANDIDATES_UNDER_GL = {
    "product_example_m": (1, "4e9a1e62fc842f7359b4f686391d08f1404270e53abf47b70047fe624cfada6c"),
    "slice_oneone_qnonzero": (11, "81bf1fc1020ce9907fcb2ed928e0333273837b65f7ab485c1de0f9df30826adc"),
    "slice_oneone_r0_onesided": (1, "4e9a1e62fc842f7359b4f686391d08f1404270e53abf47b70047fe624cfada6c"),
    "slice_oneone_r_dependent": (507, "fe2ecaabb4680bfc70c487966d1853133d05e63089fa6b9b70e5bf3327d3c810"),
    "slice_oneone_r_dependent_real": (1, "c4b795c1565e5631725c6664b4af78c08a9842e8442aea76fac5d588708acbbc"),
    "slice_oneone_r_independent": (2, "74565aafe3b82bafa39d8c86604e2dcd31196005a69200ceddac4fcc77d89be3"),
    "slice_oneone_r_z1z3": (1, "c4b795c1565e5631725c6664b4af78c08a9842e8442aea76fac5d588708acbbc"),
    "slice_oneone_r_z2z3": (1, "c4b795c1565e5631725c6664b4af78c08a9842e8442aea76fac5d588708acbbc"),
    "slice_onezero_dq": (4, "6cf1684c98248fa4d4fee05fc0af09abca6b5c7a7168171c8d8a9c0eafb0f606"),
    "slice_onezero_dq_zero": (4, "6cf1684c98248fa4d4fee05fc0af09abca6b5c7a7168171c8d8a9c0eafb0f606"),
    "slice_onezero_l0": (4, "6cf1684c98248fa4d4fee05fc0af09abca6b5c7a7168171c8d8a9c0eafb0f606"),
    "slice_pi2_axis": (1313, "9c12305e03d9d85459ac6d088cb783d92a167ae1aeb173073769e0136a1067f7"),
    "slice_pi2_shear_a": (1310, "f97cfb737f0b67d07b321697eebe17152170b1973e9a84563e8064dbb77f1a47"),
    "slice_pi2_shear_b": (637, "56220aef3d583fe858fa00f11adc07d3940fd42f34d700f6b5542bac690c2a04"),
    "slice_pi2_shear_c": (1312, "09f0f592fbae713edf4f44012749962c0d7abb5d7fe84444bfd5220e811d1ec1"),
    "slice_pi2_small": (641, "4bb1e83d0224914fc4635c88e19a1581b111d7047946e424b605771f458d03d3"),
    "ts1_k3": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ts2": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("changed", [False, True], ids=["as_given", "under_gl"])
@pytest.mark.parametrize("name", sorted(CANDIDATES_AS_GIVEN))
def test_structured_candidate_sequence_is_pinned(name, changed):
    cone = fx.FIXTURES[name]()
    if changed:
        cone = apply_change(cone, random_gl(np.random.default_rng(0), cone.n))
    descriptions = [slc.description for slc in _structured_candidates(canonical_sign(cone)[0])]
    digest = hashlib.sha256("\n".join(descriptions).encode()).hexdigest()
    want = (CANDIDATES_UNDER_GL if changed else CANDIDATES_AS_GIVEN)[name]
    assert (len(descriptions), digest) == want
