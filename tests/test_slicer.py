"""Slicing n >= 3 down to the plane, and the two-sided shape recognizers."""

from __future__ import annotations

import numpy as np
import pytest

from quadcone import fixtures as fx
from quadcone.decider import verify_discs
from quadcone.normalform import (
    DegeneracyReport,
    NormalFormType,
    apply_change,
    classify2,
    normalize_hermitian,
    render_cone,
)
from quadcone.quadform import QuadraticCone, evaluate_many, form_distance, hermitian_signature
from quadcone.slicer import (
    EXTENSION_MARGIN,
    DegenerateBasis,
    Slice,
    classify_two_sided_nd,
    find_good_slice,
    restrict,
    _extension_margin,
    _pi2_candidates,
    _try_slice,
)

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
    got = restrict(cone, Slice(basis, "axis"))
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
    got = restrict(cone, Slice(basis, "shear"))
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
        slc = Slice(basis, "random")
        got = restrict(cone, slc)
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
    once = restrict(cone, Slice(B @ M, "composed"))
    twice = apply_change(restrict(cone, Slice(B, "outer")), M)
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
    from quadcone.reduction import E_HERM

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
    res = find_good_slice(cone, budget=256, seed=0)
    assert res is not None, name
    if description is not None:
        assert res.slice.description.startswith(description), res.slice.description
    # soundness: re-verify the discs on the restricted cone over the CLI's eps grid
    rep = verify_discs(cone=res.restricted, fam=res.verdict.discs, eps_grid=(1e-3, 1e-2, 1e-1))
    assert rep.min_margin > 0 and rep.touch_residual > 0


@pytest.mark.parametrize("scale", [1e-20, 1e20])
@pytest.mark.parametrize("name", ["slice_pi2_axis", "slice_oneone_r_independent"])
def test_find_good_slice_at_extreme_scales(name, scale):
    cone = fx.FIXTURES[name]()
    res = find_good_slice(QuadraticCone(scale * cone.S, scale * cone.H), seed=0)
    assert res is not None, name
    rep = verify_discs(res.restricted, res.verdict.discs, eps_grid=(1e-3, 1e-2, 1e-1))
    assert rep.min_margin > 0 and rep.touch_residual > 0


def test_find_good_slice_transformed_fixture():
    rng = np.random.default_rng(97)
    cone = fx.slice_oneone_r_z1z3()
    moved = apply_change(cone, random_gl(rng, 3), 1.7, -1)
    res = find_good_slice(moved, budget=256, seed=0)
    assert res is not None


def test_find_good_slice_none_for_two_sided():
    for name in ("product_example_m", "ts1_k3", "ts2"):
        cone = fx.FIXTURES[name]()
        assert find_good_slice(cone, budget=48, seed=0) is None


def test_independent_coupling_slice_values():
    # the explicit two-direction slice of the independent-coupling case has
    # det S* = 3 and det P = -1 in the Im(z1 conj(z2)) frame
    from quadcone.slicer import _oneone_candidates
    from quadcone.quadform import canonical_sign

    cone = fx.slice_oneone_r_independent(B=0.7)
    cone0, _ = canonical_sign(cone)
    cands = list(_oneone_candidates(cone0))
    assert cands, "generator produced no candidates"
    got = restrict(cone, cands[0])
    d = np.linalg.det(got.S)
    assert d == pytest.approx(3.0, abs=1e-9)
    assert np.linalg.det(got.S.real) == pytest.approx(-1.0, abs=1e-9)
    assert _extension_margin(got.S) > 0


@pytest.mark.parametrize(
    "name", ["slice_oneone_r_z1z3", "slice_oneone_r_z2z3", "slice_oneone_r_dependent_real"]
)
def test_dual_slices_have_determinant_two(name):
    # each dual slice (_dual_coeffs) restricts to the Im(z1 conj(z2)) frame
    # with det S* = 2, which passes the extension criterion
    from quadcone.slicer import _oneone_candidates
    from quadcone.quadform import canonical_sign
    from quadcone.reduction import E_HERM

    cone0, _ = canonical_sign(fx.FIXTURES[name]())
    slc = next(_oneone_candidates(cone0))
    assert slc.description.startswith("dual slice"), slc.description
    got = restrict(cone0, slc)
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
        gen = _pi2_candidates(cone0)
        next(gen)  # drop the axis candidate
        found = False
        for _ in range(40):
            try:
                slc = next(gen)
            except StopIteration:
                break
            res = _try_slice(cone, slc, eps_grid=(1e-2, 1e-1))
            if res is not None:
                found = True
                break
        assert found, make.__name__


def test_definite_slice_note():
    cone = fx.slice_pi2_small()
    res = find_good_slice(cone, budget=16, seed=0)
    assert res is not None
    assert isinstance(res.classification, DegeneracyReport)
    assert res.verdict.outcome == "one_sided" and res.verdict.side == +1


# --- classify_two_sided_nd ----------------------------------------------------------


def test_two_sided_product():
    form = classify_two_sided_nd(fx.product_example_m())
    assert form.kind == "product" and form.certified
    assert form.inner.tag == "M11_1"
    A, B = form.inner.ntype.params()
    assert A == pytest.approx(0.5, abs=1e-8) and B == pytest.approx(1 / 3, abs=1e-8)


def test_two_sided_product_with_one_sided_factor_is_not_certified():
    # rho does not depend on z3, but its C^2 factor is one-sided (a slice exists)
    form = classify_two_sided_nd(fx.slice_oneone_r0_onesided())
    assert form.kind == "product" and not form.certified
    assert find_good_slice(fx.slice_oneone_r0_onesided(), seed=0) is not None


def test_two_sided_ts1():
    form = classify_two_sided_nd(fx.ts1_k3())
    assert form.kind == "ts1" and form.k == 3 and form.certified


def test_two_sided_ts2():
    form = classify_two_sided_nd(fx.ts2())
    assert form.kind == "ts2" and form.certified
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
        form = classify_two_sided_nd(moved)
        assert form.kind == kind, (make.__name__, form.kind, form.detail)
        assert form.certified, make.__name__


def test_two_sided_unknown_is_sound():
    # a one-sided cone must never be claimed product/ts1/ts2
    cone = fx.slice_pi2_axis()
    form = classify_two_sided_nd(cone)
    assert form.kind == "unknown" and not form.certified


@pytest.mark.parametrize("name", sorted(n for n, make in fx.FIXTURES.items() if make().n >= 3))
def test_no_fixture_is_certified_two_sided_and_has_a_one_sided_slice(name):
    cone = fx.FIXTURES[name]()
    form = classify_two_sided_nd(cone)
    assert form.certified == (name in ("product_example_m", "ts1_k3", "ts2")), (name, form.kind)
    if form.certified:
        assert find_good_slice(cone, seed=0) is None


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
        assert find_good_slice(moved, budget=48, seed=n) is None
        form = classify_two_sided_nd(moved)
        assert form.kind == "product" and form.inner.tag == "M11_1"
    for k in (3, 4, 5):
        S = np.zeros((5, 5), dtype=complex)
        S[:k, :k] = np.eye(k)
        moved = apply_change(QuadraticCone(S, np.zeros((5, 5))), random_gl(rng, 5), 2.0, 1)
        assert find_good_slice(moved, budget=48, seed=k) is None
        form = classify_two_sided_nd(moved)
        assert form.kind == "ts1" and form.k == k
    for n in (4, 5):
        # Re((z2 + conj(z3)) z1), padded
        S = np.zeros((n, n), dtype=complex)
        H = np.zeros((n, n), dtype=complex)
        S[0, 1] = S[1, 0] = 0.5
        H[0, 2] = H[2, 0] = 0.5
        moved = apply_change(QuadraticCone(S, H), random_gl(rng, n), 0.7, -1)
        assert find_good_slice(moved, budget=48, seed=n) is None
        form = classify_two_sided_nd(moved)
        assert form.kind == "ts2" and form.certified


@pytest.mark.parametrize(
    "make, kind, k", [(fx.product_example_m, "product", None), (fx.ts1_k3, "ts1", 3), (fx.ts2, "ts2", None)]
)
def test_two_sided_forms_are_recognized_at_every_scale(make, kind, k):
    # the ts2 fit hands takagi2 its 2 x 2 block divided by the largest
    # singular value: takagi2 squares its argument, which overflows or
    # underflows beyond about 1e+-160
    rng = np.random.default_rng(229)
    for _ in range(5):
        T = random_gl(rng, 3)
        for e in range(-300, 301, 10):
            form = classify_two_sided_nd(apply_change(make(), T, 10.0**e, 1))
            assert (form.kind, form.k, form.certified) == (kind, k, True), (e, form.detail)


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
        res = find_good_slice(cone, budget=96, seed=i)
        assert res is not None
        found += 1
    assert found >= 4


def test_slice_result_hermitian_frames():
    # the structured candidates keep the hermitian block structure they claim
    cone = fx.slice_oneone_r_z1z3()
    res = find_good_slice(cone, budget=64, seed=0)
    got = hermitian_signature(res.restricted)
    assert got.as_tuple() == (1, 1)


def test_try_slice_rejects_a_classification_beyond_its_residual_bound(monkeypatch):
    from dataclasses import replace

    import quadcone.slicer as slicer
    from quadcone.normalform import render_cone

    cone = fx.slice_pi2_axis()
    slc = Slice(np.eye(3, 2, dtype=complex), "axis")
    assert _try_slice(cone, slc, eps_grid=(1e-2, 1e-1)) is not None
    classify = slicer.classify2

    def nudged(restricted):
        # T moved by 1e-6, with the residual that T really has
        res = classify(restricted)
        T = res.T @ np.diag([1.0 + 1e-6, 1.0])
        residual = form_distance(apply_change(restricted, T, res.lam, res.sign), render_cone(res.ntype))
        assert residual > res.residual_bound
        return replace(res, T=T, residual=residual)

    monkeypatch.setattr(slicer, "classify2", nudged)
    assert _try_slice(cone, slc, eps_grid=(1e-2, 1e-1)) is None


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_try_slice_rejects_a_restricted_cone_of_rounding_size(scale):
    # example M plus an inert C^2, moved by a GL(4, C) change T: on the inert
    # plane inv(T)[:, 2:4] the restricted cone is rounding noise (about 1e-17
    # relative) and must not pass as a one-sided slice
    S = scale * np.diag([0.5, 1.0 / 3.0, 0.0, 0.0])
    cone = QuadraticCone(S, scale * np.diag([1.0, -1.0, 0.0, 0.0]))
    for s in range(40):
        rng = np.random.default_rng(s)
        T = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        slc = Slice(np.linalg.inv(T)[:, 2:4], "inert plane")
        moved = apply_change(cone, T)
        assert _try_slice(moved, slc, eps_grid=(1e-2, 1e-1)) is None


def test_try_slice_rejects_a_slice_whose_hermitian_part_is_rounding_noise():
    # on the plane inv(T)[:, :2] the cone is Re(2e-8 w1^2 + 0.5e-8 w2^2) plus a
    # hermitian part of 1e-17, below the rounding of the moved cone's entries:
    # the restricted cone passes the rounding-size filter, but its Levi form,
    # and so its side, is noise.  The discs are certified on the input itself,
    # whose rounding allowance covers that hermitian part.
    cone = QuadraticCone(np.diag([2e-8, 0.5e-8, 1.0]), np.diag([1e-17, 1e-17, 1.0]))
    for s in range(40):
        rng = np.random.default_rng(s)
        T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        slc = Slice(np.linalg.inv(T)[:, :2], "noise plane")
        assert _try_slice(apply_change(cone, T), slc, eps_grid=(1e-2, 1e-1)) is None


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
            assert find_good_slice(apply_change(cone, T, scale), budget=16, seed=0) is None, (s, scale)


def test_slicer_frame_flags_follow_the_hermitian_signature():
    # -2e-9 lies between 1e-9 * ||H||_2 = 1e-9 and 1e-9 * ||H||_F = 3e-9: the
    # signature counts it negative, so the frame and the shears must as well
    H = np.diag([1.0] * 9 + [-2e-9])
    cone = QuadraticCone(np.diag([2.0, 1.0] + [0.0] * 8), H)
    assert hermitian_signature(cone).as_tuple() == (9, 1)
    W, _ = normalize_hermitian(cone)
    np.testing.assert_allclose(W.conj().T @ cone.H @ W, np.diag([1.0] * 9 + [-1.0]), atol=1e-12)
    # z10 has no harmonic coupling: only a nonzero flag makes its shears candidates
    assert any("z10 = a" in slc.description for slc in _pi2_candidates(cone))
