"""The 2x2 matrix reductions behind the normal-form classification.

Contents: Takagi factorization of a complex symmetric 2x2 matrix, SL(2,R)
congruence reduction of a real symmetric matrix to its canonical form,
SO(1,1) congruence zeroing a diagonal entry of an indefinite real symmetric
matrix, and factorization of linear maps preserving Im(z1 * conj(z2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadform import ConeError, NotSymmetric, mat_norm

# Hermitian matrix of the form Im(z1 * conj(z2)).
E_HERM = np.array([[0.0, 0.5j], [-0.5j, 0.0]], dtype=complex)

SL2_DET_ZERO_REL = 1e-9  # |det P| <= this * ||P||^2 routes to the rank-1 branch
SO11_DET_POS_REL = 1e-9  # det Q above this * ||Q||^2 is rejected
PRESERVER_REL = 1e-10


class ZeroMatrix(ConeError):
    pass


class PositiveDeterminant(ConeError):
    pass


class NotPreserver(ConeError):
    pass


class So11Unreachable(ConeError):
    """No SO(1,1) congruence zeroes a diagonal entry.

    Happens exactly on the boundary stratum Q = c*[[1, s],[s, 1]], s = +-1
    (a rank-one matrix whose kernel is lightlike for diag(1,-1)); the group
    {+-phi(tau)} rescales such Q without ever touching the diagonal.
    """


@dataclass(frozen=True)
class TakagiFactorization:
    u: np.ndarray
    d: tuple[float, float]


def takagi2(S) -> TakagiFactorization:
    """Unitary u and d1 >= d2 >= 0 with u^T S u = diag(d1, d2).

    Works through the hermitian Gram matrix conj(S) S: its unit eigenvector
    v for the top eigenvalue sigma^2 is combined with conj(S v)/sigma, which
    always yields a vector x satisfying S x = sigma * conj(x); the second
    column is the phase-corrected orthogonal complement.  Equal singular
    values need no special casing under this construction.
    """
    S = np.asarray(S, dtype=complex)
    ns = mat_norm(S)
    if mat_norm(S - S.T) > 1e-10 * max(ns, 1e-300):
        raise NotSymmetric("takagi2 requires a symmetric matrix")
    S = 0.5 * (S + S.T)
    if ns == 0.0:
        return TakagiFactorization(u=np.eye(2, dtype=complex), d=(0.0, 0.0))
    # an exact power of two brings ||S|| into [0.5, 1), so conj(S) S neither
    # overflows nor underflows; d is scaled back at the end
    e = math.frexp(ns)[1]
    S = S * math.ldexp(1.0, -e)
    ns = math.ldexp(ns, -e)

    B = S.conj() @ S  # hermitian PSD; eigenvalues are squared singular values
    w, V = np.linalg.eigh(B)
    sig1 = float(np.sqrt(max(w[1], 0.0)))
    v1 = V[:, 1]
    w1 = (S @ v1).conj() / sig1
    x = v1 + w1
    x_alt = 1j * (v1 - w1)
    if np.linalg.norm(x_alt) > np.linalg.norm(x):
        x = x_alt
    u1 = x / np.linalg.norm(x)
    c1 = u1 @ S @ u1
    u1 = u1 * np.exp(-0.5j * np.angle(c1))  # kill the residual phase
    u2 = np.array([-np.conj(u1[1]), np.conj(u1[0])])
    c2 = u2 @ S @ u2
    if abs(c2) > 1e-15 * ns:
        u2 = u2 * np.exp(-0.5j * np.angle(c2))
    U = np.column_stack([u1, u2])
    d = np.abs(np.diag(U.T @ S @ U))
    if d[0] < d[1]:
        U = U[:, ::-1]
        d = d[::-1]
    return TakagiFactorization(u=U, d=(math.ldexp(float(d[0]), e), math.ldexp(float(d[1]), e)))


def sl2_reduce_sym(P) -> tuple[np.ndarray, np.ndarray]:
    """g in SL(2,R) with g^T P g in canonical form.

    Canonical forms: s*sqrt(det P)*I2 for det P > 0 (s the common eigenvalue
    sign), sqrt(-det P)*diag(1,-1) for det P < 0, and s*diag(1,0) for
    det P ~ 0.  The diagonal rescaling that follows the orthogonal
    eigenbasis automatically has unit determinant.
    """
    P = np.asarray(P, dtype=float)
    npn = mat_norm(P)
    if npn == 0.0:
        raise ZeroMatrix("sl2_reduce_sym requires a nonzero matrix")
    P = 0.5 * (P + P.T)
    mu, R = np.linalg.eigh(P)
    if np.linalg.det(R) < 0:
        R = R.copy()
        R[:, 1] = -R[:, 1]
    detP = float(mu[0] * mu[1])
    thr = SL2_DET_ZERO_REL * (npn * npn)

    def ordered(idx0, idx1):
        # permute eigenpairs keeping det(R) = +1
        Rp = np.column_stack([R[:, idx0], R[:, idx1]])
        if idx0 == 1:
            Rp[:, 1] = -Rp[:, 1]
        return np.array([mu[idx0], mu[idx1]]), Rp

    if detP > thr:
        root = np.sqrt(detP)
        s = 1.0 if mu[0] > 0 else -1.0
        t = np.sqrt(root / np.abs(mu))
        g = R @ np.diag(t)
        canonical = s * root * np.eye(2)
    elif detP < -thr:
        root = np.sqrt(-detP)
        m, Rp = ordered(1, 0) if mu[1] > 0 else ordered(0, 1)
        t = np.array([np.sqrt(root / m[0]), np.sqrt(root / (-m[1]))])
        g = Rp @ np.diag(t)
        canonical = root * np.diag([1.0, -1.0])
    else:
        m, Rp = ordered(1, 0) if abs(mu[1]) >= abs(mu[0]) else ordered(0, 1)
        s = 1.0 if m[0] > 0 else -1.0
        t0 = 1.0 / np.sqrt(abs(m[0]))
        g = Rp @ np.diag([t0, 1.0 / t0])
        canonical = np.diag([s, 0.0])
    return g, canonical


def _positive_roots_quadratic(a: float, b: float, c: float, tiny: float) -> list[float]:
    """Real roots u > tiny of a u^2 + b u + c = 0, degenerate cases included."""
    roots: list[float] = []
    if abs(a) <= tiny:
        if abs(b) > tiny:
            roots.append(-c / b)
    else:
        disc = b * b - 4.0 * a * c
        if disc >= 0:
            sq = np.sqrt(disc)
            roots.extend([(-b + sq) / (2 * a), (-b - sq) / (2 * a)])
    return [u for u in roots if u > tiny]


def so11_zero_diag(Q) -> tuple[np.ndarray, np.ndarray]:
    """(k, k^T Q k) for k = phi(tau) in SO(1,1) such that k^T Q k has a zero diagonal entry.

    With sigma = tau + 1/tau and delta = tau - 1/tau, the transformed
    diagonal entries are quadratics in u = tau^2:

        4 p' * u = (p+2q+r) u^2 + 2(p-r) u + (p-2q+r)
        4 r' * u = (p+2q+r) u^2 - 2(p-r) u + (p-2q+r)

    and det Q <= 0 makes the shared discriminant 4(q^2 - p r) nonnegative.
    Among the positive roots of either quadratic the tau closest to 1 is
    chosen (best conditioning of phi(tau)).
    """
    Q = np.asarray(Q, dtype=float)
    nq = max(mat_norm(Q), 1e-300)
    Q = 0.5 * (Q + Q.T)
    p, q, r = Q[0, 0], Q[0, 1], Q[1, 1]
    detQ = p * r - q * q
    if detQ > SO11_DET_POS_REL * (nq * nq):
        raise PositiveDeterminant(f"det Q = {detQ} > 0")
    tiny = 1e-14 * nq

    candidates: list[float] = []
    if abs(p) <= tiny or abs(r) <= tiny:
        candidates.append(1.0)
    a_coef = p + 2 * q + r
    c_coef = p - 2 * q + r
    for b_coef in (2 * (p - r), -2 * (p - r)):
        for u in _positive_roots_quadratic(a_coef, b_coef, c_coef, tiny):
            candidates.append(float(np.sqrt(u)))
    if not candidates:
        raise So11Unreachable(
            "no SO(1,1) element zeroes a diagonal entry (lightlike rank-one boundary)"
        )
    tau = min(candidates, key=lambda t: abs(np.log(t)))
    sigma, delta = tau + 1.0 / tau, tau - 1.0 / tau
    k = 0.5 * np.array([[sigma, delta], [delta, sigma]])
    return k, k.T @ Q @ k


def factor_preserver(k) -> tuple[float, np.ndarray]:
    """Write a preserver of Im(z1 conj(z2)) as e^(i theta) g, g in SL(2,R).

    theta is normalized to [0, pi); this uses up the (theta, g) vs
    (theta + pi, -g) ambiguity, so the sign of g is whatever that range
    dictates.
    """
    k = np.asarray(k, dtype=complex)
    if mat_norm(k.conj().T @ E_HERM @ k - E_HERM) > PRESERVER_REL * max(mat_norm(k) ** 2, 1e-300):
        raise NotPreserver("matrix does not preserve Im(z1 conj(z2))")
    det = np.linalg.det(k)
    theta = 0.5 * np.angle(det)
    g = np.exp(-1j * theta) * k
    if theta < 0:
        theta += np.pi
        g = -g
    if mat_norm(np.imag(g)) > PRESERVER_REL * max(mat_norm(k), 1e-300):
        raise NotPreserver("factorization did not produce a real matrix")
    return float(theta), np.real(g)

