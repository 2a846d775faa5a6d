"""The 2x2 matrix workhorses: Takagi, SL(2,R) reduction, SO(1,1), preservers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadcone.reduction import (
    PositiveDeterminant,
    So11Unreachable,
    ZeroMatrix,
    sl2_reduce_sym,
    so11_zero_diag,
    takagi2,
)

from witness_samplers import E_HERM, NotPreserver, factor_preserver


def entries(M):
    """(m00, m01, m11) of a symmetric 2x2 array, as Python scalars: the reductions' argument."""
    (m00, m01), (_, m11) = np.asarray(M).tolist()
    return m00, m01, m11


def mat(m):
    """The 2x2 array of a reduction's answer: (m00, m01, m10, m11), or symmetric (m00, m01, m11)."""
    if len(m) == 3:
        m = (m[0], m[1], m[1], m[2])
    return np.array(m).reshape(2, 2)


def random_sym_c(rng, scale=1.0):
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return scale * (A + A.T) / 2


def random_sl2(rng):
    while True:
        g = rng.standard_normal((2, 2))
        d = np.linalg.det(g)
        if abs(d) <= 1e-3:
            continue
        if d < 0:
            g = g.copy()
            g[:, 0] = -g[:, 0]
            d = -d
        return g / np.sqrt(d)


# --- takagi2 -----------------------------------------------------------------


def test_takagi_diagonal_nonnegative():
    S = np.diag([0.5, 1.0 / 3.0]).astype(complex)
    t = takagi2(entries(S))
    u = mat(t.u)
    assert t.d == pytest.approx((0.5, 1.0 / 3.0))
    np.testing.assert_allclose(u.T @ S @ u, np.diag(t.d), atol=1e-12)


def test_takagi_zero():
    t = takagi2(entries(np.zeros((2, 2))))
    assert t.d == (0.0, 0.0)
    np.testing.assert_allclose(mat(t.u), np.eye(2))


def test_takagi_antidiagonal_vs_svd_oracle():
    S = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sv = np.linalg.svd(S, compute_uv=False)  # oracle
    t = takagi2(entries(S))
    u = mat(t.u)
    np.testing.assert_allclose(t.d, sv, atol=1e-12)
    np.testing.assert_allclose(u.T @ S @ u, np.diag(t.d), atol=1e-10)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=-6, max_value=6))
def test_takagi_matches_svd(seed, logscale):
    rng = np.random.default_rng(seed)
    S = random_sym_c(rng, scale=float(np.exp(logscale)))
    t = takagi2(entries(S))
    u = mat(t.u)
    ns = np.linalg.norm(S, 2) + 1e-300
    assert np.linalg.norm(u.conj().T @ u - np.eye(2)) <= 1e-12 * 4
    assert np.linalg.norm(u.T @ S @ u - np.diag(t.d)) <= 1e-10 * ns
    sv = np.linalg.svd(S, compute_uv=False)
    np.testing.assert_allclose(t.d, sv, atol=1e-10 * ns)
    assert t.d[0] >= t.d[1] >= 0


def test_takagi_degenerate_singular_values():
    rng = np.random.default_rng(4)
    for _ in range(25):
        # unitary symmetric matrices have equal singular values
        theta = rng.uniform(0, 2 * np.pi)
        g = np.array(
            [[np.cos(theta), np.sin(theta)], [np.sin(theta), -np.cos(theta)]], dtype=complex
        )
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        S = phase * g
        t = takagi2(entries(S))
        u = mat(t.u)
        assert np.linalg.norm(u.T @ S @ u - np.diag(t.d)) <= 1e-10


# --- sl2_reduce_sym ----------------------------------------------------------


def test_sl2_positive_definite():
    P = np.diag([2.0, 2.0])
    g, canon = map(mat, sl2_reduce_sym(entries(P)))
    np.testing.assert_allclose(canon, 2.0 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(g.T @ P @ g, canon, atol=1e-10)


def test_sl2_indefinite():
    P = np.diag([1.0, -4.0])
    g, canon = map(mat, sl2_reduce_sym(entries(P)))
    np.testing.assert_allclose(canon, 2.0 * np.diag([1.0, -1.0]), atol=1e-12)
    np.testing.assert_allclose(g.T @ P @ g, canon, atol=1e-10)


def test_sl2_rank_one():
    P = np.array([[1.0, 1.0], [1.0, 1.0]])
    g, canon = map(mat, sl2_reduce_sym(entries(P)))
    np.testing.assert_allclose(canon, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.linalg.norm(g.T @ P @ g - canon) <= 1e-10 * np.linalg.norm(P, 2)
    assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-12)


def test_sl2_zero_matrix():
    with pytest.raises(ZeroMatrix):
        sl2_reduce_sym(entries(np.zeros((2, 2))))


def test_sl2_determinant_preserved():
    rng = np.random.default_rng(11)
    for _ in range(200):
        A = rng.standard_normal((2, 2))
        P = (A + A.T) / 2
        if np.linalg.norm(P) < 1e-6:
            continue
        g, canon = map(mat, sl2_reduce_sym(entries(P)))
        npn = np.linalg.norm(P, 2)
        assert abs(np.linalg.det(g) - 1.0) <= 1e-12 * 10
        assert np.linalg.norm(g.T @ P @ g - canon) <= 1e-10 * npn
        if abs(np.linalg.det(P)) > 1e-9 * npn**2:
            assert np.linalg.det(canon) == pytest.approx(np.linalg.det(P), rel=1e-9)


# --- so11_zero_diag ----------------------------------------------------------


def _so11_scan_oracle(Q, taus=None):
    """Dense scan for a diagonal zero of phi(tau)^T Q phi(tau)."""
    if taus is None:
        taus = np.linspace(1e-3, 10.0, 200_001)
    sigma = taus + 1.0 / taus
    delta = taus - 1.0 / taus
    p, q, r = Q[0, 0], Q[0, 1], Q[1, 1]
    pp = 0.25 * (sigma**2 * p + 2 * sigma * delta * q + delta**2 * r)
    rp = 0.25 * (delta**2 * p + 2 * sigma * delta * q + sigma**2 * r)
    best = min(np.min(np.abs(pp)), np.min(np.abs(rp)))
    return best


def test_so11_already_zero():
    k, Qp = map(mat, so11_zero_diag(entries(np.diag([0.0, 5.0]))))
    np.testing.assert_allclose(k, np.eye(2), atol=1e-6)  # tau = 1
    np.testing.assert_allclose(Qp, np.diag([0.0, 5.0]), atol=1e-12)


def test_so11_mixed_signature_vs_scan_oracle():
    Q = np.array([[2.0, 0.0], [0.0, -1.0]])
    # dense-scan oracle confirms a diagonal zero exists along tau > 0
    assert _so11_scan_oracle(Q) <= 1e-3
    k, Qp = map(mat, so11_zero_diag(entries(Q)))
    assert min(abs(Qp[0, 0]), abs(Qp[1, 1])) <= 1e-8 * np.linalg.norm(Q, 2)
    assert np.linalg.det(Qp) == pytest.approx(-2.0, abs=1e-10)
    np.testing.assert_allclose(k.T @ np.diag([1.0, -1.0]) @ k, np.diag([1.0, -1.0]), atol=1e-12)
    assert np.linalg.det(k) == pytest.approx(1.0, abs=1e-12)


def test_so11_antidiagonal_tau_one():
    Q = np.array([[0.0, 3.0], [3.0, 0.0]])
    k, Qp = map(mat, so11_zero_diag(entries(Q)))
    np.testing.assert_allclose(k, np.eye(2), atol=1e-6)  # tau = 1
    assert abs(Qp[0, 0]) <= 1e-12 and abs(Qp[1, 1]) <= 1e-12


def test_so11_rejects_positive_determinant():
    with pytest.raises(PositiveDeterminant):
        so11_zero_diag(entries(np.eye(2)))


def test_so11_lightlike_boundary_unreachable():
    # Q = [[1,1],[1,1]] is fixed up to scale by the whole group; no element
    # zeroes its diagonal.  This is the boundary case excluded downstream.
    with pytest.raises(So11Unreachable):
        so11_zero_diag(entries(np.array([[1.0, 1.0], [1.0, 1.0]])))


def test_so11_invariant_form_unreachable():
    # Q = c*diag(1,-1) is the form SO(1,1) preserves: k^T Q k = Q for every k
    for c in (0.25, -3.0):
        with pytest.raises(So11Unreachable):
            so11_zero_diag((c, 0.0, -c))


def test_so11_random_indefinite():
    rng = np.random.default_rng(13)
    done = 0
    while done < 200:
        A = rng.standard_normal((2, 2))
        Q = (A + A.T) / 2
        if np.linalg.det(Q) > 0:
            continue
        done += 1
        Qp = mat(so11_zero_diag(entries(Q))[1])
        nq = np.linalg.norm(Q, 2)
        assert min(abs(Qp[0, 0]), abs(Qp[1, 1])) <= 1e-8 * nq
        assert abs(np.linalg.det(Qp) - np.linalg.det(Q)) <= 1e-10 * nq**2


# --- factor_preserver --------------------------------------------------------


def test_factor_preserver_identity():
    theta, g = factor_preserver(np.eye(2))
    assert theta == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(g, np.eye(2), atol=1e-12)


def test_factor_preserver_pure_phase():
    theta, g = factor_preserver(np.exp(1j * np.pi / 4) * np.eye(2))
    assert theta == pytest.approx(np.pi / 4)
    np.testing.assert_allclose(g, np.eye(2), atol=1e-12)


def test_factor_preserver_rejects_non_preserver():
    with pytest.raises(NotPreserver):
        factor_preserver(np.diag([2.0, 1.0]))


def test_factor_preserver_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(100):
        g0 = random_sl2(rng)
        th0 = rng.uniform(0, 2 * np.pi)
        k = np.exp(1j * th0) * g0
        theta, g = factor_preserver(k)
        assert 0 <= theta < np.pi
        # recovery modulo the (theta, g) <-> (theta+pi, -g) ambiguity
        np.testing.assert_allclose(np.exp(1j * theta) * g, k, atol=1e-10)
        assert min(abs((theta - th0) % np.pi), abs(np.pi - (theta - th0) % np.pi)) <= 1e-10
        assert np.linalg.norm(g - g0) <= 1e-9 or np.linalg.norm(g + g0) <= 1e-9


def test_preserver_definition_matches_e_herm():
    # sanity: SL(2,R) matrices and phases preserve Im(z1 conj(z2))
    rng = np.random.default_rng(29)
    for _ in range(20):
        k = np.exp(1j * rng.uniform(0, np.pi)) * random_sl2(rng)
        np.testing.assert_allclose(k.conj().T @ E_HERM @ k, E_HERM, atol=1e-12)
