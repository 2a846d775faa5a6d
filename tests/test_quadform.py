"""Core data model: decomposition, evaluation, signatures, sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadcone.quadform import (
    SAMPLE_RESIDUAL_REL,
    ConeError,
    InsufficientSamples,
    NotSymmetric,
    QuadraticCone,
    canonical_sign,
    decompose_poly,
    decompose_real_form,
    evaluate,
    evaluate_many,
    form_distance,
    form_norm2,
    hermitian_signature,
    real_form_matrix,
    mat_norm,
    real_signature,
    sample_points,
    _inertia,
    _interleaved_form,
)
from quadcone.normalform import NormalFormType, apply_change, render_cone
from quadcone.slicer import Slice, restrict
from quadcone.reduction import E_HERM

from witness_samplers import numpy_interleaved_form, spread_cones2


def example_m():
    return QuadraticCone(np.diag([0.5, 1.0 / 3.0]), np.diag([1.0, -1.0]))


def random_cone(rng, n=2, scale=1.0):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    S = scale * (A + A.T) / 2
    H = scale * (B + B.conj().T) / 2
    return QuadraticCone(S, H)


# --- decomposition -----------------------------------------------------------


def test_decompose_example_m_from_polynomial():
    # Re(z1^2/2 + z2^2/3) + |z1|^2 - |z2|^2 written out in x, y coordinates
    terms = [
        (("x1", "x1"), 0.5 + 1.0),
        (("y1", "y1"), -0.5 + 1.0),
        (("x2", "x2"), 1.0 / 3.0 - 1.0),
        (("y2", "y2"), -1.0 / 3.0 - 1.0),
    ]
    cone = decompose_poly(2, terms)
    np.testing.assert_allclose(cone.S, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)
    np.testing.assert_allclose(cone.H, np.diag([1.0, -1.0]), atol=1e-14)


def test_decompose_zero_polynomial():
    cone = decompose_poly(2, [])
    assert np.all(cone.S == 0) and np.all(cone.H == 0)


def test_decompose_pure_hermitian():
    # x1^2 + y1^2 = |z1|^2
    cone = decompose_poly(2, [(("x1", "x1"), 1.0), (("y1", "y1"), 1.0)])
    np.testing.assert_allclose(cone.S, np.zeros((2, 2)), atol=1e-14)
    np.testing.assert_allclose(cone.H, np.diag([1.0, 0.0]), atol=1e-14)


def test_decompose_render_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(50):
        cone = random_cone(rng, n=rng.integers(2, 5))
        back = decompose_real_form(real_form_matrix(cone))
        np.testing.assert_allclose(back.S, cone.S, atol=1e-12)
        np.testing.assert_allclose(back.H, cone.H, atol=1e-12)


def test_constructor_rejects_asymmetry():
    with pytest.raises(NotSymmetric):
        QuadraticCone(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    with pytest.raises(NotSymmetric):
        QuadraticCone(np.zeros((2, 2)), np.array([[1.0, 1j], [1j, 0.0]]))


def test_constructor_rejects_non_finite_entries():
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        S = np.eye(2, dtype=complex)
        S[0, 1] = S[1, 0] = bad
        with pytest.raises(ConeError, match="finite"):
            QuadraticCone(S, np.eye(2))
        with pytest.raises(ConeError, match="finite"):
            QuadraticCone(np.eye(2), np.diag([1.0, bad]))
    G = np.eye(4)
    G[1, 2] = G[2, 1] = np.nan
    with pytest.raises(ConeError, match="finite"):
        decompose_real_form(G)


def test_internally_built_cones_are_exact_and_match_the_checked_constructor():
    rng = np.random.default_rng(17)
    cone = random_cone(rng, n=3, scale=3.0)
    T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))

    def checked(S, H):
        return QuadraticCone(0.5 * (S + S.T), 0.5 * (H + H.conj().T))

    cases = [
        (apply_change(cone, T, lam=2.5, sign=-1),
         checked(-2.5 * (T.T @ cone.S @ T), -2.5 * (T.conj().T @ cone.H @ T))),
        (restrict(cone, B), checked(B.T @ cone.S @ B, B.conj().T @ cone.H @ B)),
        (cone.negated(), checked(-cone.S, -cone.H)),
    ]
    for built, reference in cases:
        assert np.array_equal(built.S, built.S.T)
        assert np.array_equal(built.H, built.H.conj().T)
        assert built == reference
        assert built.scale == mat_norm(built.S) + mat_norm(built.H)


# --- evaluation --------------------------------------------------------------


def test_evaluate_example_points():
    cone = example_m()
    assert evaluate(cone, [1, 0]) == pytest.approx(1.5)
    assert evaluate(cone, [0, 1]) == pytest.approx(-2.0 / 3.0)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=20.0),
    st.integers(min_value=0, max_value=10_000),
)
def test_homogeneity(t, seed):
    rng = np.random.default_rng(seed)
    cone = random_cone(rng)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    lhs = evaluate(cone, t * z)
    rhs = t**2 * evaluate(cone, z)
    assert abs(lhs - rhs) <= 1e-10 * t**2 * np.linalg.norm(z) ** 2 * cone.scale + 1e-300


def test_evaluate_is_real_on_samples():
    rng = np.random.default_rng(2)
    cone = random_cone(rng, n=3)
    Z = rng.standard_normal((200, 3)) + 1j * rng.standard_normal((200, 3))
    harm = np.einsum("ij,jk,ik->i", Z, cone.S, Z)
    herm = np.einsum("ij,jk,ik->i", Z.conj(), cone.H, Z)
    # the hermitian quadratic is real by construction of H
    assert np.max(np.abs(herm.imag)) <= 1e-12 * cone.scale * np.max(np.abs(herm) + 1)
    assert np.allclose(evaluate_many(cone, Z), harm.real + herm.real)


def _reference_rho(cone, Z):
    """The complex einsum pair that evaluate_many's real kernel replaced."""
    harm = np.einsum("ij,jk,ik->i", Z, cone.S, Z)
    herm = np.einsum("ij,jk,ik->i", Z.conj(), cone.H, Z)
    return harm.real + herm.real


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=-150, max_value=150),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_evaluate_many_agrees_with_the_einsum_reference(n, k, seed):
    rng = np.random.default_rng(seed)
    cone = random_cone(rng, n=n, scale=10.0**k)
    Z = rng.standard_normal((50, n)) + 1j * rng.standard_normal((50, n))
    got, ref = evaluate_many(cone, Z), _reference_rho(cone, Z)
    bound = 64 * 2.0**-52 * cone.scale * np.linalg.norm(Z, axis=1) ** 2
    assert np.all(np.abs(got - ref) <= bound)
    assert evaluate(cone, Z[0]) == evaluate_many(cone, Z[:1])[0]


def test_evaluate_many_accepts_every_input_layout():
    rng = np.random.default_rng(31)
    cone = random_cone(rng, n=3)
    Z = rng.standard_normal((12, 6)) + 1j * rng.standard_normal((12, 6))
    R = rng.standard_normal((5, 3))
    cases = [
        (Z[:4, :3].tolist(), Z[:4, :3]),
        (R, R.astype(complex)),
        (np.asfortranarray(Z[:, :3]), Z[:, :3]),
        (Z[::2, 1::2], Z[::2, 1::2].copy()),
        (Z[:1, :3], Z[:1, :3]),
        (np.zeros((0, 3), dtype=complex), np.zeros((0, 3), dtype=complex)),
    ]
    for layout, Zc in cases:
        got = evaluate_many(cone, layout)
        assert got.shape == (len(Zc),)
        assert np.array_equal(got, evaluate_many(cone, np.ascontiguousarray(Zc)))
        bound = 64 * 2.0**-52 * cone.scale * np.linalg.norm(Zc, axis=1) ** 2
        assert np.all(np.abs(got - _reference_rho(cone, Zc)) <= bound)


def test_interleaved_form_is_kept_read_only_in_view_order():
    rng = np.random.default_rng(32)
    cone = random_cone(rng, n=3)
    G = _interleaved_form(cone)
    assert _interleaved_form(cone) is G
    with pytest.raises(ValueError):
        G[0, 0] = 1.0
    Sr, Si, Hr, Hi = cone.S.real, cone.S.imag, cone.H.real, cone.H.imag
    xy = np.block([[Sr + Hr, -(Si + Hi)], [-(Si + Hi).T, Hr - Sr]])  # x1..x3, y1..y3
    order = [0, 3, 1, 4, 2, 5]  # x1, y1, x2, y2, x3, y3
    assert np.array_equal(G, xy[np.ix_(order, order)])
    assert np.array_equal(real_form_matrix(cone), xy)
    neg = cone.negated()
    with pytest.raises(ValueError):
        neg._G[0, 0] = 1.0


def test_negated_and_internally_built_cones_evaluate_like_fresh_ones():
    rng = np.random.default_rng(33)
    for n in (2, 3, 5):
        cone = random_cone(rng, n=n, scale=float(10.0 ** rng.uniform(-8, 8)))
        Z = rng.standard_normal((40, n)) + 1j * rng.standard_normal((40, n))
        evaluate_many(cone, Z)  # computes the form, so that negated() hands it over
        neg = cone.negated()
        assert neg._G is not None
        fresh = QuadraticCone(-cone.S, -cone.H)
        assert np.array_equal(evaluate_many(neg, Z), evaluate_many(fresh, Z))
        S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        built = QuadraticCone._symmetrized(S, H)
        fresh = QuadraticCone(0.5 * (S + S.T), 0.5 * (H + H.conj().T))
        assert np.array_equal(evaluate_many(built, Z), evaluate_many(fresh, Z))


def test_form_distance_of_two_m20_forms_is_their_coefficient_gap():
    # Re(0.1 z2^2) has largest |value| 0.1 on |z| = 1
    a = render_cone(NormalFormType("M20", a=2.0, b=0.5))
    b = render_cone(NormalFormType("M20", a=2.0, b=0.4))
    assert form_distance(a, b) == pytest.approx(0.1, rel=1e-14)
    assert form_distance(a, a) == 0.0
    with pytest.raises(ConeError):
        form_distance(a, random_cone(np.random.default_rng(0), n=3))


def test_form_norm2_of_the_entry_differences_is_form_distance():
    # the n = 2 scalar form of the same spectral norm, at scales 1e-150..1e150
    rng = np.random.default_rng(48)
    for k in range(-150, 151, 15):
        a, b = random_cone(rng, scale=10.0**k), random_cone(rng, scale=10.0**k)
        S, H = a.S - b.S, a.H - b.H
        got = form_norm2((S[0, 0], S[0, 1], S[1, 1]), (H[0, 0], H[0, 1], H[1, 1]))
        assert got == pytest.approx(form_distance(a, b), rel=1e-13), k


@pytest.mark.parametrize("n", [2, 3, 5])
def test_form_distance_is_symmetric_and_bounds_every_sampled_difference(n):
    rng = np.random.default_rng(40 + n)
    a, b = random_cone(rng, n=n), random_cone(rng, n=n, scale=1e-3)
    dist = form_distance(a, b)
    assert form_distance(b, a) == pytest.approx(dist, rel=1e-14)
    assert form_distance(b, b) == 0.0
    Z = rng.standard_normal((10_000, n)) + 1j * rng.standard_normal((10_000, n))
    Z /= np.linalg.norm(Z, axis=1)[:, None]
    sampled = np.abs(evaluate_many(a, Z) - evaluate_many(b, Z)).max()
    assert sampled <= dist * (1.0 + 1e-12)
    # the maximum is attained: sampling comes close to it in low dimension
    assert sampled >= 0.5 * dist


# --- signatures --------------------------------------------------------------


def test_hermitian_signature_examples():
    assert hermitian_signature(example_m()).as_tuple() == (1, 1)
    zero = QuadraticCone(np.eye(2, dtype=complex), np.zeros((2, 2)))
    assert hermitian_signature(zero).as_tuple() == (0, 0)


def test_hermitian_signature_im_z1z2bar():
    # oracle: 2x2 eigenvalues by hand; for [[0, i/2], [-i/2, 0]] the
    # characteristic polynomial is t^2 - 1/4, eigenvalues +-1/2
    tr = E_HERM[0, 0] + E_HERM[1, 1]
    det = E_HERM[0, 0] * E_HERM[1, 1] - E_HERM[0, 1] * E_HERM[1, 0]
    disc = np.sqrt(tr * tr - 4 * det)
    oracle = sorted([((tr + disc) / 2).real, ((tr - disc) / 2).real])
    assert oracle == [-0.5, 0.5]
    cone = QuadraticCone(np.zeros((2, 2)), E_HERM)
    assert hermitian_signature(cone).as_tuple() == (1, 1)


def _real_form_by_polarization(cone):
    """Independent oracle: assemble the real form by evaluating rho."""
    n2 = 2 * cone.n
    G = np.zeros((n2, n2))

    def emb(i):
        v = np.zeros(cone.n, dtype=complex)
        if i < cone.n:
            v[i] = 1.0
        else:
            v[i - cone.n] = 1.0j
        return v

    for i in range(n2):
        for j in range(n2):
            G[i, j] = 0.25 * (
                evaluate(cone, emb(i) + emb(j)) - evaluate(cone, emb(i) - emb(j))
            )
    return G


def test_real_signature_examples():
    harmonic = QuadraticCone(np.eye(2, dtype=complex), np.zeros((2, 2)))
    assert real_signature(harmonic).as_tuple() == (2, 2)  # x1^2-y1^2+x2^2-y2^2
    hermitian = QuadraticCone(np.zeros((2, 2)), np.eye(2))
    assert real_signature(hermitian).as_tuple() == (4, 0)


def test_real_signature_example_m_oracle():
    cone = example_m()
    G = _real_form_by_polarization(cone)
    w = np.linalg.eigvalsh(G)
    oracle = (int(np.sum(w > 1e-12)), int(np.sum(w < -1e-12)))
    assert oracle == (2, 2)  # frozen from this oracle
    assert real_signature(cone).as_tuple() == oracle
    np.testing.assert_allclose(G, real_form_matrix(cone), atol=1e-12)


def test_signature_congruence_invariance():
    rng = np.random.default_rng(3)
    for _ in range(40):
        cone = random_cone(rng, n=3)
        T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        if abs(np.linalg.det(T)) < 1e-3:
            continue
        moved = apply_change(cone, T, lam=float(np.exp(rng.uniform(-1, 1))), sign=1)
        assert hermitian_signature(moved).as_tuple() == hermitian_signature(cone).as_tuple()
        assert real_signature(moved).as_tuple() == real_signature(cone).as_tuple()


def test_default_signatures_are_cached_and_equal_a_fresh_computation():
    rng = np.random.default_rng(12)
    for n in (2, 3, 5):
        for _ in range(10):
            cone = random_cone(rng, n=n, scale=float(10.0 ** rng.uniform(-8, 8)))
            neg = cone.negated()
            for c in (cone, neg):
                fresh = QuadraticCone._symmetrized(c.S.copy(), c.H.copy())
                assert hermitian_signature(c) == hermitian_signature(fresh)
                assert real_signature(c) == real_signature(fresh)
                assert hermitian_signature(c) is hermitian_signature(c)  # kept on the cone
                assert real_signature(c) is real_signature(c)
            assert hermitian_signature(neg).as_tuple() == hermitian_signature(cone).as_tuple()[::-1]
            assert real_signature(neg).as_tuple() == real_signature(cone).as_tuple()[::-1]


def test_negated_inherits_the_swapped_signatures_and_the_scale():
    cone = QuadraticCone(np.diag([0.1, 0.2]).astype(complex), np.diag([3.0, 2.0]))
    assert hermitian_signature(cone).as_tuple() == (2, 0)
    assert real_signature(cone).as_tuple() == (4, 0)
    scale = cone.scale
    neg = cone.negated()
    # handed over, not recomputed: a negated cone computes no eigenvalues
    assert neg._hsig.as_tuple() == (0, 2) and neg._rsig.as_tuple() == (0, 4)
    assert neg._scale == scale
    assert neg.negated()._hsig == cone._hsig


@pytest.mark.parametrize("s", [1e-310, 1.7e308])
@pytest.mark.parametrize("n", [2, 3])
def test_signatures_read_a_prescaled_form_at_the_ends_of_the_float_range(n, s):
    # S = [[0, s], [s, 0]], H = diag(s, -s) (M11_2 at every scale s), plus s |z3|^2
    # for n = 3: read unscaled, 1e-310 falls below _inertia's 1e-300 floor and
    # 1.7e308 overflows eigvalsh
    def at(s):
        S = np.zeros((n, n), dtype=complex)
        S[0, 1] = S[1, 0] = s
        return QuadraticCone(S, np.diag([s, -s] + [s] * (n - 2)).astype(complex))

    cone, unit = at(s), at(1.0)
    assert hermitian_signature(cone) == hermitian_signature(unit)
    assert real_signature(cone) == real_signature(unit)
    assert hermitian_signature(cone).as_tuple() == (n - 1, 1)
    assert real_signature(cone).as_tuple() == (2 * n - 2, 2)
    # the prescaled forms are copies: the form evaluate_many keeps is built from the cone itself
    assert cone._G is None
    assert np.array_equal(_interleaved_form(cone), numpy_interleaved_form(cone))


# --- norms -------------------------------------------------------------------


def test_mat_norm_is_frobenius():
    rng = np.random.default_rng(4)
    for shape in ((2, 2), (3, 3), (4, 2)):
        M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert mat_norm(M) == pytest.approx(np.sqrt(np.sum(np.abs(M) ** 2)), rel=1e-14)
    assert mat_norm(np.zeros((3, 3))) == 0.0
    assert mat_norm(np.zeros((0, 0))) == 0.0


@pytest.mark.parametrize("k", [-300, -200, 0, 200, 300])
def test_mat_norm_neither_overflows_nor_underflows(k):
    M = 10.0**k * np.array([[1.0 + 2.0j, 3.0], [3.0, -4.0 + 1.0j]])
    got = mat_norm(M)
    assert np.isfinite(got) and got > 0.0
    assert got == pytest.approx(10.0**k * np.sqrt(40.0), rel=1e-14)
    cone = QuadraticCone(M + M.T, 10.0**k * np.eye(2))
    assert np.isfinite(cone.scale) and cone.scale > 0.0


# --- canonical sign ----------------------------------------------------------


def test_canonical_sign_flips_negative():
    cone = QuadraticCone(np.eye(2, dtype=complex), -np.eye(2))
    fixed, sign = canonical_sign(cone)
    assert sign == -1
    assert hermitian_signature(fixed).as_tuple() == (2, 0)


def test_canonical_sign_keeps_balanced_and_positive():
    cone = example_m()
    fixed, sign = canonical_sign(cone)
    assert sign == +1 and fixed == cone
    harmonic = QuadraticCone(np.eye(2, dtype=complex), np.zeros((2, 2)))
    _, sign = canonical_sign(harmonic)
    assert sign == +1


# --- sampling ----------------------------------------------------------------


def test_sample_cone_on_harmonic_cone():
    cone = QuadraticCone(np.eye(2, dtype=complex), np.zeros((2, 2)))
    pts = sample_points(cone, seed=5, count=200)
    res = np.abs(evaluate_many(cone, pts))
    assert np.all(res <= 1e-10 * np.linalg.norm(pts, axis=1) ** 2 * max(cone.scale, 1.0))


def test_sample_cone_example_m_seed42():
    cone = example_m()
    pts = sample_points(cone, seed=42, count=1000)
    assert pts.shape == (1000, 2)
    res = np.abs(evaluate_many(cone, pts))
    norms = np.linalg.norm(pts, axis=1)
    assert np.all(res <= 1e-10 * norms**2)
    assert np.all(norms <= 1.0 + 1e-12)


def test_sample_cone_deterministic():
    cone = example_m()
    a = sample_points(cone, seed=7, count=50)
    b = sample_points(cone, seed=7, count=50)
    assert np.array_equal(a, b)


def _reference_sample_points(cone, seed, count, radius=1.0):
    """The per-point loop that sample_points batches, kept as its reference."""
    rng = np.random.default_rng(seed)
    n = cone.n
    out = []
    batch = max(count, 256)
    for _ in range(64):
        U = rng.standard_normal((batch, n)) + 1j * rng.standard_normal((batch, n))
        V = rng.standard_normal((batch, n)) + 1j * rng.standard_normal((batch, n))
        scales = rng.uniform(0.05, 1.0, size=2 * batch)
        a = evaluate_many(cone, V)
        c = evaluate_many(cone, U)
        b = evaluate_many(cone, U + V) - a - c
        disc = b * b - 4.0 * a * c
        for i in range(batch):
            if disc[i] < 0:
                continue
            sq = np.sqrt(disc[i])
            if abs(a[i]) < 1e-14 * (abs(b[i]) + abs(c[i]) + 1e-300):
                roots = [-c[i] / b[i]] if abs(b[i]) > 0 else []
            else:
                qq = -0.5 * (b[i] + np.copysign(sq, b[i]))
                roots = [qq / a[i]]
                if abs(qq) > 0:
                    roots.append(c[i] / qq)
            for k, t in enumerate(roots):
                p = U[i] + t * V[i]
                norm = np.linalg.norm(p)
                if norm < 1e-9:
                    continue
                p = p * (radius * scales[(2 * i + k) % (2 * batch)] / norm)
                dv = V[i] * (radius / max(np.linalg.norm(V[i]), 1e-300))
                r0 = evaluate(cone, p)
                g = evaluate(cone, p + 1e-7 * dv) - r0
                if abs(g) > 1e-300:
                    p = p - (r0 * 1e-7 / g) * dv
                res = abs(evaluate(cone, p))
                if res <= SAMPLE_RESIDUAL_REL * np.linalg.norm(p) ** 2 * max(cone.scale, 1.0):
                    out.append(p)
                    if len(out) == count:
                        return np.array(out)
    raise InsufficientSamples(f"found {len(out)} of {count} requested cone points")


def _reference_cones():
    yield example_m()
    yield QuadraticCone(np.eye(2, dtype=complex), np.zeros((2, 2)))
    rng = np.random.default_rng(2024)
    for n in (2, 3, 4, 5, 2, 3):
        yield random_cone(rng, n=n, scale=float(rng.uniform(0.5, 5.0)))


@pytest.mark.parametrize("seed,count,radius", [(0, 300, 1.0), (3, 200, 2.5), (8, 40, 1e-3)])
def test_sample_points_match_per_point_reference(seed, count, radius):
    for cone in _reference_cones():
        ref = _reference_sample_points(cone, seed, count, radius)
        pts = sample_points(cone, seed, count, radius)
        assert pts.shape == ref.shape == (count, cone.n)
        assert np.max(np.abs(pts - ref)) <= 1e-11 * radius
        res = np.abs(evaluate_many(cone, pts))
        bound = SAMPLE_RESIDUAL_REL * np.linalg.norm(pts, axis=1) ** 2 * max(cone.scale, 1.0)
        assert np.all(res <= bound)


def test_sample_cone_point_cone_fails():
    cone = QuadraticCone(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(InsufficientSamples):
        sample_points(cone, seed=0, count=10)


def test_defining_function_side_invariance():
    # sign(rho) is invariant under positive rescaling of the defining function
    rng = np.random.default_rng(8)
    cone = example_m()
    lam = 3.7
    scaled = QuadraticCone(lam * cone.S, lam * cone.H)
    Z = rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
    assert np.all(np.sign(evaluate_many(cone, Z)) == np.sign(evaluate_many(scaled, Z)))


def test_tangent_cone_identity():
    # membership of z iff membership of t z, via sign equality
    rng = np.random.default_rng(9)
    cone = example_m()
    Z = rng.standard_normal((300, 2)) + 1j * rng.standard_normal((300, 2))
    for t in (0.1, 2.0, 17.0):
        assert np.all(np.sign(evaluate_many(cone, t * Z)) == np.sign(evaluate_many(cone, Z)))


def test_the_n2_signatures_are_the_inertia_of_eigvalsh_at_any_scale():
    # hermitian_signature reads eigh2's eigenvalues of a prescaled H and
    # real_signature the eigvalsh of a form built from scalars; the oracle is
    # eigvalsh of H and of the numpy-built form.  Scales 2^-1000..2^1000,
    # singular, diagonal and equal-diagonal H
    differ = []
    for i, cone in enumerate(spread_cones2(seed=24, count=2400)):
        h = _inertia(np.linalg.eigvalsh(cone.H).tolist())
        r = _inertia(np.linalg.eigvalsh(numpy_interleaved_form(cone)).tolist())
        if (hermitian_signature(cone).as_tuple(), real_signature(cone).as_tuple()) != (h, r):
            differ.append((i, h, r))
    assert differ == []
