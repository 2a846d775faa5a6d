"""Classification to normal forms: examples, round trips, degeneracies."""

from __future__ import annotations

import importlib.util
import math
import pathlib
import sys

import numpy as np
import pytest

from quadcone.cli import parse_spec
from quadcone.decider import decide2, verify_support
from quadcone.fixtures import FIXTURES
from quadcone.normalform import (
    DegeneracyReport,
    NormalFormResult,
    NormalFormType,
    SingularMatrix,
    _frame2,
    classify2,
    normalize_hermitian,
    real_degeneracy,
    render_cone,
)
from quadcone.quadform import (
    ConeError,
    QuadraticCone,
    evaluate_many,
    hermitian_signature,
    mat_norm,
)

from witness_samplers import CHOFVAR, E_HERM, apply_change, oneone_frame_invariants, replace

# the one literal copy of the table's tags: the other tests and scripts read
# normalform.TAGS, and the TAGS.index seeds below rely on this order
TAGS = ("M20", "M11_1", "M11_2", "M11_3", "M10_1", "M10_2", "M00_1")


def example_m():
    return QuadraticCone(np.diag([0.5, 1.0 / 3.0]), np.diag([1.0, -1.0]))


def draw_type(tag, rng, boundary_gap=2e-4):
    if tag == "M20":
        A = rng.uniform(1.0 + 10 * boundary_gap, 5.0)
        return NormalFormType("M20", a=A, b=rng.uniform(0, A))
    if tag == "M11_1":
        A = rng.uniform(0.0, 3.0)
        B = rng.uniform(0, A)
        if abs(A - B) < boundary_gap:
            B = max(0.0, A - boundary_gap)
        if A < boundary_gap:
            A = B = 0.0
        return NormalFormType("M11_1", a=A, b=B)
    if tag == "M11_2":
        return NormalFormType(
            "M11_2", a=complex(rng.uniform(10 * boundary_gap, 3.0), rng.uniform(0, 3.0))
        )
    if tag == "M10_1":
        return NormalFormType("M10_1", a=rng.uniform(0, 4.0))
    return NormalFormType(tag)


def random_gl2(rng, max_cond=30.0):
    while True:
        T = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if np.linalg.cond(T) < max_cond:
            return T


# --- type validation and rendering ------------------------------------------


def test_type_ranges_enforced():
    with pytest.raises(ConeError):
        NormalFormType("M20", a=0.9, b=0.1)  # needs A > 1
    with pytest.raises(ConeError):
        NormalFormType("M11_1", a=1.0, b=2.0)  # needs B <= A
    with pytest.raises(ConeError):
        NormalFormType("M11_2", a=-1 + 1j)  # needs Re A > 0
    with pytest.raises(ConeError):
        NormalFormType("M10_1", a=-0.5)
    with pytest.raises(ConeError):
        NormalFormType("M00_1", a=1.0)


def test_type_parameters_are_stored_as_params_returns_them():
    # an int A or B is stored as a float, M11_2's A as a complex
    for ntype, fields in [
        (NormalFormType("M20", a=2, b=1), (2.0, 1.0)),
        (NormalFormType("M11_1", a=1, b=0), (1.0, 0.0)),
        (NormalFormType("M11_2", a=1), (1 + 0j, None)),
        (NormalFormType("M10_1", a=0), (0.0, None)),
        (NormalFormType("M10_2"), (None, None)),
    ]:
        assert (ntype.a, ntype.b) == fields
        assert [type(x) for x in ntype[1:]] == [type(x) for x in fields]
        assert ntype.params() == tuple(x for x in fields if x is not None)


def test_replace_reruns_the_type_range_checks():
    ntype = NormalFormType("M20", a=2.0, b=0.5)
    assert replace(ntype, b=1.5) == NormalFormType("M20", a=2.0, b=1.5)
    with pytest.raises(ConeError):
        replace(ntype, b=3.0)  # needs B <= A
    with pytest.raises(ConeError):
        replace(ntype, tag="M00_1")  # takes no parameters
    with pytest.raises(TypeError):
        replace(ntype, c=1.0)
    with pytest.raises(AttributeError):
        ntype.a = 3.0


def test_tags_are_pinned():
    from quadcone import normalform

    assert normalform.TAGS == TAGS


def test_render_matches_table():
    c = render_cone(NormalFormType("M11_2", a=1 + 2j))
    np.testing.assert_allclose(c.S, np.diag([1 + 2j, 1 - 2j]))
    np.testing.assert_allclose(c.H, E_HERM)
    c = render_cone(NormalFormType("M10_2"))
    np.testing.assert_allclose(c.S, [[0, 0.5], [0.5, 0]])


def test_render_cone_equals_the_checked_constructor():
    # render_cone skips the constructor's checks; its cones are the same bits
    table = {
        "M20": (np.diag([2.5, 0.5]), np.eye(2)),
        "M11_1": (np.diag([0.75, 0.25]), np.diag([1.0, -1.0])),
        "M11_2": (np.diag([1 + 2j, 1 - 2j]), E_HERM),
        "M11_3": (np.diag([1.0, 0.0]), E_HERM),
        "M10_1": (np.diag([0.3, 1.0]), np.diag([1.0, 0.0])),
        "M10_2": (np.array([[0.0, 0.5], [0.5, 0.0]]), np.diag([1.0, 0.0])),
        "M00_1": (np.eye(2), np.zeros((2, 2))),
    }
    types = {"M20": dict(a=2.5, b=0.5), "M11_1": dict(a=0.75, b=0.25), "M11_2": dict(a=1 + 2j),
             "M10_1": dict(a=0.3)}
    for tag in TAGS:
        cone = render_cone(NormalFormType(tag, **types.get(tag, {})))
        assert cone.S.dtype == cone.H.dtype == complex
        assert cone == QuadraticCone(*table[tag])


# --- apply_change ------------------------------------------------------------


def test_apply_change_identity():
    cone = example_m()
    out = apply_change(cone, np.eye(2), 1.0, 1)
    assert out == cone


def test_apply_change_diagonal():
    cone = QuadraticCone(np.diag([1.0, 0.0]).astype(complex), np.zeros((2, 2)))
    out = apply_change(cone, np.diag([2.0, 1.0]), 1.0, 1)
    np.testing.assert_allclose(out.S, np.diag([4.0, 0.0]))


def test_apply_change_pointwise():
    rng = np.random.default_rng(31)
    for _ in range(20):
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        cone = QuadraticCone((A + A.T) / 2, np.eye(2))
        T = random_gl2(rng)
        lam = float(np.exp(rng.uniform(-1, 1)))
        sign = int(rng.choice([-1, 1]))
        out = apply_change(cone, T, lam, sign)
        Z = rng.standard_normal((100, 2)) + 1j * rng.standard_normal((100, 2))
        np.testing.assert_allclose(
            evaluate_many(out, Z),
            sign * lam * evaluate_many(cone, Z @ T.T),
            atol=1e-10 * cone.scale * np.max(np.abs(Z)) ** 2 * lam * np.linalg.norm(T, 2) ** 2,
        )


def test_apply_change_rejects_singular():
    with pytest.raises(SingularMatrix):
        apply_change(example_m(), np.array([[1.0, 1.0], [1.0, 1.0]]))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("c", [1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6])
def test_apply_change_accepts_scaled_identity(n, c):
    # the singularity test is dimensionless: c * I is as regular as I at every n
    cone = QuadraticCone(np.eye(n), np.eye(n))
    out = apply_change(cone, c * np.eye(n))
    np.testing.assert_allclose(out.H, c * c * np.eye(n), rtol=1e-15)


def test_apply_change_accepts_unbalanced_columns():
    out = apply_change(example_m(), np.diag([1e-10, 1e10]))
    np.testing.assert_allclose(np.diag(out.H).real, [1e-20, -1e20], rtol=1e-15)


@pytest.mark.parametrize(
    "T",
    [
        [[1.0, 2.0], [3.0, 6.0]],
        [[1e-8, 1e8], [2e-8, 2e8]],
        [[1.0, 0.0], [0.0, 0.0]],
        [[1.0, 1.0j, 0.0], [2.0, 2.0j, 0.0], [0.0, 0.0, 1.0]],
    ],
)
def test_apply_change_rejects_parallel_or_zero_columns(T):
    T = np.array(T, dtype=complex)
    n = T.shape[0]
    with pytest.raises(SingularMatrix):
        apply_change(QuadraticCone(np.eye(n), np.eye(n)), T)


# --- the hermitian frame: _frame2 for n = 2, normalize_hermitian beyond --------


def hermitian_frame(cone):
    """(W, S1) of a cone with pi >= nu, S1 = 0.5 (X + X^T) for X = W^T S W.

    W is classify2's closed-form _frame2 for n = 2 and normalize_hermitian's for n >= 3.
    """
    if cone.n > 2:
        return normalize_hermitian(cone)
    W = np.array(_frame2(cone, *hermitian_signature(cone))).reshape(2, 2)
    X = W.T @ cone.S @ W
    return W, 0.5 * (X + X.T)


def test_normalize_hermitian_targets():
    # (1,1): diag(1,-1) pulled back to the Im(z1 conj(z2)) matrix
    c = example_m()
    W, _ = hermitian_frame(c)
    np.testing.assert_allclose(W.conj().T @ c.H @ W, E_HERM, atol=1e-12)
    # (2,0) already canonical
    c = QuadraticCone(np.zeros((2, 2)), np.eye(2))
    W, _ = hermitian_frame(c)
    np.testing.assert_allclose(W, np.eye(2))
    # (1,0) rescale
    c = QuadraticCone(np.zeros((2, 2)), np.diag([4.0, 0.0]))
    W, _ = hermitian_frame(c)
    np.testing.assert_allclose(W.conj().T @ c.H @ W, np.diag([1.0, 0.0]), atol=1e-12)


def _canonical_signatures(n):
    """Every (pi, nu) with pi >= nu and pi + nu <= n: with a kernel and without."""
    return [(pi, nu) for pi in range(n + 1) for nu in range(min(pi, n - pi) + 1)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_normalize_hermitian_frames_every_canonical_signature(n):
    rng = np.random.default_rng(40 + n)
    for pi, nu in _canonical_signatures(n):
        flags = np.array([1.0] * pi + [-1.0] * nu + [0.0] * (n - pi - nu))
        target = np.diag(flags).astype(complex)
        if (pi, nu) == (1, 1):
            target[:2, :2] = E_HERM
        # a unitary times scales in [0.5, 2]: eigenvalues spread, condition <= 4
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        T = Q @ np.diag(rng.uniform(0.5, 2.0, n))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for H in (target, np.diag(flags), T.conj().T @ np.diag(flags) @ T):
            cone = QuadraticCone(A + A.T, 0.5 * (H + H.conj().T))
            W, S1 = hermitian_frame(cone)
            np.testing.assert_allclose(W.conj().T @ cone.H @ W, target, atol=1e-12, err_msg=f"{(pi, nu)}")
            assert np.array_equal(S1, apply_change(cone, W).S)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_normalize_hermitian_keeps_canonical_coordinates_up_to_a_power_of_two(n):
    # 4^j times the canonical matrix gets W = 2^-j I in every C^n, not eigh's
    # order of its equal eigenvalues; H = 0 has no scale to keep
    rng = np.random.default_rng(50 + n)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for pi, nu in _canonical_signatures(n)[1:]:
        target = np.diag([1.0] * pi + [-1.0] * nu + [0.0] * (n - pi - nu)).astype(complex)
        if (pi, nu) == (1, 1):
            target[:2, :2] = E_HERM
        for j in (-3, 0, 1, 4):
            W, _ = hermitian_frame(QuadraticCone(A + A.T, 4.0**j * target))
            assert np.array_equal(W, 2.0**-j * np.eye(n)), f"{(pi, nu)}, j = {j}"


def _eigh_frame(cone):
    """normalize_hermitian's W by its recipe with np.linalg.eigh: the reference for n = 2."""
    pi, nu = hermitian_signature(cone)
    target = np.diag([1.0] * pi + [-1.0] * nu + [0.0] * (2 - pi - nu)).astype(complex)
    if (pi, nu) == (1, 1):
        target = E_HERM
    t, h = mat_norm(target), mat_norm(cone.H)
    r = 2.0 ** -round(math.log2(h / t) / 2) if h and t else 1.0
    if mat_norm(r * (r * cone.H) - target) <= 1e-12 * max(r * r * h, 1e-300):
        return r * np.eye(2)
    w, V = np.linalg.eigh(cone.H)
    order = np.concatenate([2 - pi + np.argsort(-w[2 - pi :], kind="stable"), np.arange(2 - pi)])
    root = np.sqrt(np.abs(w[order]))
    root[pi + nu :] = np.sqrt(np.max(np.abs(w))) or 1.0
    W = V[:, order] / root
    return W @ (0.5 * CHOFVAR) if (pi, nu) == (1, 1) else W


def _random_h(kind, rng):
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    H = A + A.conj().T
    if kind == "real":
        H = H.real.astype(complex)
    elif kind == "diagonal":
        H = np.diag(np.diag(H).real).astype(complex)
    elif kind == "imaginary_off_diagonal":
        H[0, 1], H[1, 0] = 1j * H[0, 1].imag, 1j * H[1, 0].imag
    elif kind.startswith("equal_diagonal"):
        H[1, 1] = H[0, 0]
        if kind == "equal_diagonal_real":
            H = H.real.astype(complex)
    elif kind == "singular":
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        H = np.outer(v, v.conj())
    return H


def _frame_pair(H):
    cone = QuadraticCone(np.zeros((2, 2)), H)
    if hermitian_signature(cone).nu > hermitian_signature(cone).pi:
        cone = cone.negated()
    W, _ = hermitian_frame(cone)
    return W, _eigh_frame(cone)


FRAME_KINDS = ("complex", "real", "diagonal", "imaginary_off_diagonal", "equal_diagonal_real", "singular")


@pytest.mark.parametrize("kind", FRAME_KINDS)
def test_the_closed_form_frame_is_eighs_to_rounding(kind):
    # the n = 2 frame follows LAPACK zheevd's steps, so its signs and phases
    # are eigh's; the scales 2^-1000..2^1000 cross zheevd's own rescaling
    rng = np.random.default_rng(60 + FRAME_KINDS.index(kind))
    for _ in range(400):
        W, ref = _frame_pair(_random_h(kind, rng) * 2.0 ** int(rng.integers(-1000, 1001)))
        assert np.abs(W - ref).max() <= 1e-11 * np.abs(ref).max(), kind


def test_the_closed_form_frame_differs_from_eigh_by_a_sign_at_equal_diagonal():
    # h00 == h11 with a non-real h10: zheevd's reflection leaves a rounding
    # error in h11 whose sign, a matter of the BLAS kernels, decides the sign
    # of both columns; the closed form keeps h11 == h00 and may give -W
    rng = np.random.default_rng(71)
    negated = 0
    for _ in range(400):
        W, ref = _frame_pair(_random_h("equal_diagonal", rng) * 2.0 ** int(rng.integers(-1000, 1001)))
        scale = np.abs(ref).max()
        same = np.abs(W - ref).max() <= 1e-11 * scale
        negated += not same
        assert same or np.abs(W + ref).max() <= 1e-11 * scale
    assert negated  # the stratum exists


def test_the_closed_form_frame_keeps_its_columns_at_every_scale_where_eigh_does_not():
    # a singular H with an off-diagonal below about 1e-150 of its norm: at
    # unit scale LAPACK's split test drops that off-diagonal, as the closed
    # form does at every scale; at other scales zheevd's own rescaling (by
    # a factor that is not a power of two) keeps it and rotates, which
    # changes the signs of W's columns
    H = np.array([[0.0, 1e-160], [1e-160, 1.0]], dtype=complex)
    W, ref = _frame_pair(H)
    assert np.array_equal(W, ref)
    for k, eigh_agrees in ((-1000, True), (-500, True), (500, False), (1000, False)):
        moved, moved_ref = _frame_pair(2.0**k * H)
        assert np.array_equal(moved, 2.0 ** (-k // 2) * W), k
        assert np.allclose(moved_ref, moved, rtol=0, atol=1e-12 * np.abs(moved).max()) == eigh_agrees, k


@pytest.mark.parametrize("signature", [(2, 0), (1, 1), (1, 0)])
def test_the_closed_form_frame_at_zero_and_at_the_canonical_matrix(signature):
    assert np.array_equal(_frame_pair(np.zeros((2, 2)))[0], np.eye(2))
    pi, nu = signature
    target = E_HERM if signature == (1, 1) else np.diag([1.0, -1.0 if nu else float(pi == 2)])
    for j in (-200, 0, 3):
        W, ref = _frame_pair(4.0**j * target)
        assert np.array_equal(W, 2.0**-j * np.eye(2)) and np.array_equal(W, ref)


def test_normalize_hermitian_rejects_nu_above_pi():
    with pytest.raises(ConeError, match="not canonical"):
        normalize_hermitian(QuadraticCone(np.zeros((3, 3)), np.diag([1.0, -1.0, -1.0])))


def test_normalize_hermitian_refuses_n2():
    # classify2 reads the C^2 frame from _frame2 alone
    with pytest.raises(ConeError, match="n >= 3"):
        normalize_hermitian(example_m())


def test_chofvar_maps_frames():
    np.testing.assert_allclose(
        CHOFVAR.conj().T @ E_HERM @ CHOFVAR, np.diag([1.0, -1.0]), atol=1e-14
    )


# --- classify2: motivating example and trivial cases ------------------------------


def test_classify_example_m():
    res = classify2(example_m())
    assert res.tag == "M11_1"
    A, B = res.ntype.params()
    assert A == pytest.approx(0.5, abs=1e-8)
    assert B == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert res.residual <= 1e-8 * example_m().scale * np.linalg.norm(res.T, 2) ** 2


def test_classify_already_normal_m20():
    cone = QuadraticCone(np.diag([2.0, 0.0]).astype(complex), np.eye(2))
    res = classify2(cone)
    assert res.tag == "M20"
    assert res.ntype.params() == pytest.approx((2.0, 0.0), abs=1e-12)
    np.testing.assert_allclose(res.T, np.eye(2), atol=1e-9)


def test_m11_1_results_are_on_the_a_equals_b_stratum_or_clear_of_it():
    # classify2 snaps A = B exactly, so decide2 tests A == B with no band:
    # A - B = +-10^-k through GL(2,C) changes of condition <= 8 at scales
    # 10^-3..10^3 come back with A == B or |A - B| >= 1e-5 max(1, A)
    rng = np.random.default_rng(71)
    changes = [(random_gl2(rng, max_cond=8.0), 10.0 ** rng.uniform(-3, 3)) for _ in range(5)]
    snapped = apart = 0
    for A in (0.3, 0.7, 1.5, 3.0):
        for delta in [s * 10.0**-k for k in range(1, 17) for s in (1, -1)]:
            cone = QuadraticCone(np.diag([A, A - delta]), np.diag([1.0, -1.0]))
            for T, lam in changes:
                res = classify2(apply_change(cone, T, lam=lam))
                if isinstance(res, DegeneracyReport) or res.tag != "M11_1":
                    continue
                a, b = res.ntype.params()
                assert a == b or abs(a - b) >= 1e-5 * max(1.0, a), (A, delta, a, b)
                snapped += a == b
                apart += a != b
    assert snapped and apart


def test_classify_round_trip_m11_2():
    rng = np.random.default_rng(37)
    base = render_cone(NormalFormType("M11_2", a=1 + 1j))
    for _ in range(5):
        T = random_gl2(rng)
        lam = float(np.exp(rng.uniform(-2, 2)))
        sign = int(rng.choice([-1, 1]))
        moved = apply_change(base, T, lam, sign)
        res = classify2(moved)
        assert res.tag == "M11_2"
        (a,) = res.ntype.params()
        assert abs(a - (1 + 1j)) <= 1e-6


def test_classification_residual_meaning():
    # sign * lam * rho(T z) == rho_normal(z) on samples
    rng = np.random.default_rng(41)
    cone = apply_change(example_m(), random_gl2(rng), 2.0, -1)
    res = classify2(cone)
    normal = render_cone(res.ntype)
    Z = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
    lhs = res.sign * res.lam * evaluate_many(cone, Z @ np.asarray(res.T).T)
    rhs = evaluate_many(normal, Z)
    assert np.max(np.abs(lhs - rhs)) <= 1e-7 * np.max(np.linalg.norm(Z, axis=1) ** 2)


# --- degeneracies -------------------------------------------------------------


def test_degenerate_point_cone():
    res = classify2(QuadraticCone(np.zeros((2, 2)), np.eye(2)))
    assert isinstance(res, DegeneracyReport) and res.reason == "PointCone"


def test_degenerate_m20_boundary():
    res = classify2(QuadraticCone(np.diag([1.0, 0.2]).astype(complex), np.eye(2)))
    assert isinstance(res, DegeneracyReport) and res.reason == "DimensionDeficient"
    res = classify2(QuadraticCone(np.diag([0.5, 0.2]).astype(complex), np.eye(2)))
    assert isinstance(res, DegeneracyReport) and res.reason == "PointCone"


def test_degenerate_one_zero_no_quadratic():
    H = np.diag([1.0, 0.0])
    small = classify2(QuadraticCone(np.diag([0.5, 0.0]).astype(complex), H))
    assert isinstance(small, DegeneracyReport) and small.reason == "DimensionDeficient"
    big = classify2(QuadraticCone(np.diag([3.0, 0.0]).astype(complex), H))
    assert isinstance(big, DegeneracyReport) and big.reason == "Reducible"


def test_degenerate_harmonic_rank_one():
    res = classify2(QuadraticCone(np.diag([1.0, 0.0]).astype(complex), np.zeros((2, 2))))
    assert isinstance(res, DegeneracyReport) and res.reason == "Reducible"


def test_degenerate_zero_rho():
    res = classify2(QuadraticCone(np.zeros((2, 2)), np.zeros((2, 2))))
    assert isinstance(res, DegeneracyReport) and res.reason == "DimensionDeficient"


def test_unclassified_boundary_stratum():
    # det S > 0, det P = 0, P != 0: outside the table; the cone contains a
    # complex line (z2 = -z1) and is non-minimal.
    mu = 2.0
    S = np.array([[1 + 1j * mu, 1.0], [1.0, 1 - 1j * mu]])
    cone = QuadraticCone(S, E_HERM)
    res = classify2(cone)
    assert isinstance(res, DegeneracyReport)
    assert res.reason == "UnclassifiedBoundary"
    for t in (0.3, 0.8 + 0.1j):
        z = np.array([t, -t])
        assert abs(evaluate_many(cone, [z])[0]) <= 1e-12 * abs(t) ** 2 * cone.scale


# --- scale invariance ----------------------------------------------------------

# fixed GL(2,C) changes, condition numbers about 2.4 and 6.2
FIXED_GL2 = (
    np.array([[1.3 + 0.2j, -0.4 + 0.7j], [0.5 - 0.1j, 0.9 + 0.3j]]),
    np.array([[0.2 - 1.1j, 0.8 + 0.0j], [1.0 + 0.4j, -0.6 + 0.5j]]),
)


@pytest.mark.parametrize("k", [-150, -100, -20, 0, 20, 100, 150])
def test_m00_1_classifies_at_every_scale(k):
    # the sig (0,0) branch has no absolute threshold: rho = 0 is caught by
    # classify2's real-signature precheck at any scale
    for T in FIXED_GL2:
        res = classify2(apply_change(render_cone(NormalFormType("M00_1")), T, lam=10.0**k))
        assert isinstance(res, NormalFormResult) and res.tag == "M00_1", (k, res)


def _planar_decide_cones(monkeypatch) -> list:
    """The cones of the benchmark's planar_decide workload at seed 1, read from its generator."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up here
    spec.loader.exec_module(workloads)
    return [parse_spec(op.spec).cone for op in workloads.planar_decide(1)]


def test_classify2_takes_a_phase_whose_atan2_underflows():
    # alpha = 4 + 5e-324 i: cmath.phase raises OverflowError where atan2
    # underflows, np.angle and math.atan2 return 0
    res = classify2(QuadraticCone([[complex(4.0, 5e-324), 0.0], [0.0, 1.0]], np.diag([1.0, 0.0])))
    assert isinstance(res, NormalFormResult) and res.ntype == NormalFormType("M10_1", a=4.0)
    assert res.residual <= res.residual_bound


def test_classify2_moves_T_exactly_under_power_of_two_scalings(monkeypatch):
    # rho -> 2^-k rho with k even: T takes the factor 2^(k/2), bitwise, and
    # lambda, sign and parameters stay as they are; M00_1 keeps T and moves
    # the scale into lambda.  Each input gets k = +-2, +-300 and one more even
    # k in between, so that the inputs together cover the range
    cones = [make() for make in FIXTURES.values()]
    cones = [cone for cone in cones if cone.n == 2] + _planar_decide_cones(monkeypatch)
    broken = []
    for i, cone in enumerate(cones):
        base = classify2(cone)
        for k in (2, -2, 300, -300, (-1) ** i * (4 + 2 * (37 * i % 148))):
            got = classify2(QuadraticCone(2.0**-k * cone.S, 2.0**-k * cone.H))
            if base.tag == "M00_1":
                T, lam = base.T, 2.0**k * base.lam
            else:
                T, lam = 2.0 ** (k // 2) * np.asarray(base.T), base.lam
            if not (np.array_equal(got.T, T) and got.lam == lam
                    and got.sign == base.sign and got.ntype == base.ntype):
                broken.append((i, base.tag, k))
    assert len(cones) == 260 and not broken


def test_decide2_keeps_the_witness_exactly_under_power_of_two_scalings(monkeypatch):
    # the same cones and k as above: with T moved by 2^(k/2), the supporting
    # lines (coefficients and span) and verify_support's line extremes stay
    # as they are, bitwise
    cones = [make() for make in FIXTURES.values()]
    cones = [cone for cone in cones if cone.n == 2] + _planar_decide_cones(monkeypatch)
    checked, broken = 0, []
    for i, cone in enumerate(cones):
        base = decide2(classify2(cone))
        if base.outcome != "two_sided":
            continue
        rep = verify_support(cone, base.witness)
        for k in (2, -2, 300, -300, (-1) ** i * (4 + 2 * (37 * i % 148))):
            scaled = QuadraticCone(2.0**-k * cone.S, 2.0**-k * cone.H)
            got = decide2(classify2(scaled))
            got_rep = verify_support(scaled, got.witness)
            checked += 1
            for g, b in ((got.witness.aplus, base.witness.aplus), (got.witness.aminus, base.witness.aminus)):
                if not (np.array_equal(g.coeffs, b.coeffs) and np.array_equal(g.span, b.span)):
                    broken.append((i, k, g.label))
            if (got_rep.plus_min, got_rep.minus_max) != (rep.plus_min, rep.minus_max):
                broken.append((i, k, "extremes"))
    assert checked >= 700 and not broken


@pytest.mark.parametrize("ntype", [NormalFormType("M10_1", a=0.7), NormalFormType("M10_2")])
@pytest.mark.parametrize("k", [-20, -16, -13, 0, 13, 16, 19, 20])
def test_m10_classifies_across_the_census_scales(ntype, k):
    # the B = 0 and C = 0 tests hold at the census scales: M10_2 must not come
    # back as M10_1 (a nonzero C) or as B = C = 0 (a degeneracy)
    for T in FIXED_GL2:
        for sign in (1, -1):
            cone = apply_change(render_cone(ntype), T, lam=10.0**k, sign=sign)
            res = classify2(cone)
            assert isinstance(res, NormalFormResult) and res.tag == ntype.tag, (k, sign, res)
            assert res.ntype.params() == pytest.approx(ntype.params(), rel=1e-6)


TABLE_ROWS = (
    NormalFormType("M20", a=2.0, b=0.5), NormalFormType("M11_1", a=0.5, b=1.0 / 3.0),
    NormalFormType("M11_2", a=1.0 + 1.0j), NormalFormType("M11_3"), NormalFormType("M10_1", a=0.7),
    NormalFormType("M10_2"), NormalFormType("M00_1"),
)
SCAN_GL2 = tuple(random_gl2(np.random.default_rng(s)) for s in range(5))
SCAN_EXPONENTS = range(-300, 301, 10)


def _scan_failures(ntype, exponents):
    """(k, change index, result) of every scaled input that misses its tag or residual bound."""
    failures = []
    for k in exponents:
        for i, T in enumerate(SCAN_GL2):
            res = classify2(apply_change(render_cone(ntype), T, lam=10.0**k))
            if not (isinstance(res, NormalFormResult) and res.tag == ntype.tag
                    and res.residual <= res.residual_bound):
                failures.append((k, i, res))
    return failures


@pytest.mark.parametrize("ntype", TABLE_ROWS, ids=lambda t: t.tag)
def test_table_rows_classify_within_their_residual_bound_over_1e300(ntype):
    # the composed T is tested for singularity once: the (1,0) steps whose own
    # inverses have nearly parallel columns at small and large scales used to
    # make M10_1 and M10_2 UnclassifiedBoundary
    exponents = [k for k in SCAN_EXPONENTS if ntype.tag != "M00_1" or abs(k) < 160]
    assert _scan_failures(ntype, exponents) == []


def test_m00_1_classifies_within_its_residual_bound_beyond_1e160():
    exponents = [k for k in SCAN_EXPONENTS if abs(k) >= 160]
    assert _scan_failures(NormalFormType("M00_1"), exponents) == []


# --- idempotence and round trips ----------------------------------------------


@pytest.mark.parametrize("tag", TAGS)
def test_idempotence(tag):
    rng = np.random.default_rng(TAGS.index(tag))
    for _ in range(10):
        ntype = draw_type(tag, rng)
        cone = render_cone(ntype)
        res = classify2(cone)
        assert res.tag == tag
        for a, b in zip(res.ntype.params(), ntype.params()):
            assert abs(a - b) <= 1e-8 * max(1.0, abs(b))
        # the recovered change of variables maps the cone onto its own render
        back = apply_change(cone, res.T, res.lam, res.sign)
        np.testing.assert_allclose(back.S, cone.S, atol=1e-7 * max(cone.scale, 1))
        np.testing.assert_allclose(back.H, cone.H, atol=1e-7 * max(cone.scale, 1))


@pytest.mark.parametrize("tag", TAGS)
def test_round_trip_stability(tag):
    rng = np.random.default_rng(1000 + TAGS.index(tag))
    for _ in range(15):
        ntype = draw_type(tag, rng)
        cone = render_cone(ntype)
        for _ in range(3):
            T = random_gl2(rng)
            lam = float(np.exp(rng.uniform(-2, 2)))
            sign = int(rng.choice([-1, 1]))
            res = classify2(apply_change(cone, T, lam, sign))
            assert res.tag == tag, (tag, ntype.params())
            for a, b in zip(res.ntype.params(), ntype.params()):
                assert abs(a - b) <= 1e-6 * max(1.0, abs(b)), (ntype.params(), res.ntype.params())


# --- one normal form per cone -------------------------------------------------


def test_uniqueness_certificate_round_trip():
    rng = np.random.default_rng(43)
    cone = example_m()
    r1 = classify2(apply_change(cone, random_gl2(rng), 1.3, 1))
    r2 = classify2(apply_change(cone, random_gl2(rng), 0.4, -1))
    assert r1.tag == r2.tag
    assert r1.ntype.params() == pytest.approx(r2.ntype.params(), rel=1e-6, abs=1e-6)


def test_uniqueness_certificate_distinguishes_types():
    r1 = classify2(render_cone(NormalFormType("M11_1", a=1.0, b=0.0)))
    r2 = classify2(render_cone(NormalFormType("M11_3")))
    assert r1.tag == "M11_1" and r2.tag == "M11_3"


def test_det_certificate_stability():
    # the (det S, det P, det Q) triple of the Im(z1 conj(z2))-frame
    # representative agrees across random re-presentations of one cone
    rng = np.random.default_rng(47)
    cone = example_m()
    ref = oneone_frame_invariants(classify2(cone).ntype)
    for _ in range(25):
        moved = apply_change(cone, random_gl2(rng), float(np.exp(rng.uniform(-1, 1))), 1)
        got = oneone_frame_invariants(classify2(moved).ntype)
        for a, b in zip(ref, got):
            assert abs(a - b) <= 1e-8 * max(1.0, abs(b))


def test_extension_criterion_forces_large_coefficient():
    # det S >= 1/4 and det P < 0 in the Im(z1 conj(z2)) frame implies
    # type M11_1 with A != B and A >= 1
    rng = np.random.default_rng(53)
    found = 0
    while found < 30:
        S = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        S = (S + S.T) / 2
        d = np.linalg.det(S)
        if abs(d) < 1e-3:
            continue
        S = S * np.exp(-0.5j * np.angle(d))  # rotate det S to be positive
        if np.linalg.det(S.real) >= -1e-6 or np.linalg.det(S).real < 0.25 + 1e-6:
            continue
        found += 1
        res = classify2(QuadraticCone(S, E_HERM))
        assert res.tag == "M11_1"
        A, B = res.ntype.params()
        assert A >= 1.0 - 1e-8
        assert abs(A - B) > 1e-8


def test_sign_consistency_at_balanced_signature():
    # when pi == nu both rho and -rho classify; results must agree
    rng = np.random.default_rng(59)
    for _ in range(20):
        ntype = draw_type("M11_1", rng)
        if ntype.params()[0] == 0.0:
            continue
        cone = render_cone(ntype)
        moved = apply_change(cone, random_gl2(rng), 1.0, 1)
        r_pos = classify2(moved)
        r_neg = classify2(moved.negated())
        assert r_pos.tag == r_neg.tag
        assert r_pos.ntype.params() == pytest.approx(r_neg.ntype.params(), rel=1e-6, abs=1e-6)
        assert r_pos.sign == -r_neg.sign


@pytest.mark.parametrize(
    "S, H",
    [
        (np.zeros((2, 2)), np.eye(2)),
        (np.diag([0.5, 0.2]), np.eye(2)),
        (np.diag([0.5, 0.0]), np.diag([1.0, 0.0])),
        (np.diag([1.0, 0.0]), np.zeros((2, 2))),
        (np.zeros((2, 2)), np.zeros((2, 2))),
        (np.zeros((2, 2)), -np.eye(2)),
    ],
)
def test_real_degeneracy_is_classify2s_precheck(S, H):
    cone = QuadraticCone(np.asarray(S, dtype=complex), H)
    report = real_degeneracy(cone)
    assert report is not None and classify2(cone) == report


def test_real_degeneracy_none_on_hypersurfaces():
    for n in (2, 3, 5):
        H = np.diag([1.0, -1.0] + [1.0] * (n - 2))
        assert real_degeneracy(QuadraticCone(np.zeros((n, n)), H)) is None
    assert real_degeneracy(render_cone(NormalFormType("M11_1", a=0.5, b=0.25))) is None
