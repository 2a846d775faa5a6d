"""The 2x2 matrix reductions behind the normal-form classification.

Contents: the eigendecomposition of a hermitian 2x2 matrix in closed form,
Takagi factorization of a complex symmetric 2x2 matrix, SL(2,R) congruence
reduction of a real symmetric matrix to its canonical form, SO(1,1)
congruence zeroing a diagonal entry of an indefinite real symmetric matrix.

takagi2, sl2_reduce_sym and so11_zero_diag take a symmetric 2x2 matrix as
its entries (m00, m01, m11), Python scalars, and answer in entry tuples (a
2x2 matrix as (m00, m01, m10, m11)).
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .quadform import ConeError

# Hermitian matrix of the form Im(z1 * conj(z2)), as rows
E_HERM_ROWS = ((0j, 0.5j), (-0.5j, 0j))

SL2_DET_ZERO_REL = 1e-9  # |det P| <= this * ||P||^2 routes to the rank-1 branch
SO11_DET_POS_REL = 1e-9  # det Q above this * ||Q||^2 is rejected

# LAPACK's dlamch("E") and dlamch("S"), as its 2x2 eigensolver uses them
_EPS = 2.0**-53
_SAFMIN = 2.0**-1022


class ZeroMatrix(ConeError):
    pass


class PositiveDeterminant(ConeError):
    pass


class So11Unreachable(ConeError):
    """No SO(1,1) congruence zeroes a diagonal entry.

    Happens exactly on two strata.  On the boundary Q = c*[[1, s],[s, 1]],
    s = +-1 (a rank-one matrix whose kernel is lightlike for diag(1,-1)), the
    group {+-phi(tau)} rescales Q without ever touching the diagonal.  And
    Q = c*diag(1,-1), c != 0, is the form the group preserves, so every
    k^T Q k equals Q.  The M11_1 reduction never meets the second stratum: its
    real part is then a multiple of diag(1,-1) as well, and det S would be < 0.
    """


class TakagiFactorization(NamedTuple):
    """u = (u00, u01, u10, u11) unitary and d = (d1, d2) with u^T S u = diag(d1, d2)."""

    u: tuple
    d: tuple[float, float]


def _ldexp(x: float, e: int) -> float:
    """math.ldexp, with +-inf where it would raise OverflowError."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def exponent(*xs: float) -> int:
    """The e with max |x| in [2^(e-1), 2^e), 0 when every x is 0: x * 2^-e is at most 1."""
    return math.frexp(max(map(abs, xs)))[1]


def phase(z: complex) -> float:
    """The argument of z in [-pi, pi], np.angle's: cmath.phase raises OverflowError where it underflows."""
    return math.atan2(z.imag, z.real)


def parts(*zs: complex) -> list[float]:
    """The real and imaginary parts of complex numbers, in order."""
    return [p for z in zs for p in (z.real, z.imag)]


def norm2(m00: complex, m01: complex, m11: complex) -> float:
    """Frobenius norm of the symmetric or hermitian 2x2 matrix with entries m00, m01 and m11.

    math.hypot neither overflows nor underflows in its sum, and 2^k times
    the entries gives exactly 2^k times the norm.
    """
    return math.hypot(*parts(m00, m01, m01, m11))


def scaled(e: int, *zs: complex) -> list[complex]:
    """Each z times 2^e, part by part: exact unless a part underflows."""
    return [complex(math.ldexp(z.real, e), math.ldexp(z.imag, e)) for z in zs]


def _dlaev2(a: float, b: float, c: float) -> tuple[float, float, float, float]:
    """LAPACK dlaev2: (rt1, rt2, cs, sn) of [[a, b], [b, c]], |rt1| >= |rt2|, (cs, sn) rt1's vector."""
    sm, df, tb = a + c, a - c, b + b
    adf, ab = abs(df), abs(tb)
    acmx, acmn = (a, c) if abs(a) > abs(c) else (c, a)
    if adf > ab:
        rt = adf * math.sqrt(1.0 + (ab / adf) * (ab / adf))
    elif adf < ab:
        rt = ab * math.sqrt(1.0 + (adf / ab) * (adf / ab))
    else:
        rt = ab * math.sqrt(2.0)
    if sm < 0.0:
        rt1, sgn1 = 0.5 * (sm - rt), -1
        rt2 = (acmx / rt1) * acmn - (b / rt1) * b
    elif sm > 0.0:
        rt1, sgn1 = 0.5 * (sm + rt), 1
        rt2 = (acmx / rt1) * acmn - (b / rt1) * b
    else:
        rt1, rt2, sgn1 = 0.5 * rt, -0.5 * rt, 1
    if df >= 0.0:
        cs, sgn2 = df + rt, 1
    else:
        cs, sgn2 = df - rt, -1
    if abs(cs) > ab:
        ct = -tb / cs
        sn1 = 1.0 / math.sqrt(1.0 + ct * ct)
        cs1 = ct * sn1
    elif ab == 0.0:
        cs1, sn1 = 1.0, 0.0
    else:
        tn = -cs / tb
        cs1 = 1.0 / math.sqrt(1.0 + tn * tn)
        sn1 = tn * cs1
    if sgn1 == sgn2:
        cs1, sn1 = -sn1, cs1
    return rt1, rt2, cs1, sn1


def eigh2(h00: float, h10: complex, h11: float) -> tuple[float, float, tuple]:
    """(w0, w1, V) of the hermitian [[h00, conj(h10)], [h10, h11]], as np.linalg.eigh gives them.

    Ascending eigenvalues and V = (v00, v01, v10, v11), column j for w_j,
    follow the steps of LAPACK's zheevd (dsyevd for real h10) on a 2x2
    lower triangle, so the eigenvectors keep its signs and phases:

    - a non-real h10 becomes the real beta = -sign(Re h10) |h10| by the
      reflector diag(1, 1 - tau), tau = (beta - h10) / beta, which
      multiplies the second row of V (a real h10 stays as it is);
    - the off-diagonal counts as zero, and V = I, by dsteqr's two split
      tests; otherwise dlaev2's rotation gives V's columns;
    - the eigenvalues are sorted ascending, their columns with them.

    One stratum differs: with h00 == h11 and non-real h10, zheevd's
    reflection of h11 leaves a rounding error in it, and its sign, which
    depends on the BLAS kernels, decides the signs of both columns; here
    h11 stays h00 exactly.  The entries must be at most about 1 in size
    (scale them by a power of two first): nothing here guards against
    overflow or underflow.
    """
    if h10.imag == 0.0:
        e, tau = h10.real, 0.0
    else:
        e = -math.copysign(math.hypot(h10.real, h10.imag), h10.real)
        tau = complex((e - h10.real) / e, -h10.imag / e)
    if (
        e == 0.0
        or abs(e) <= math.sqrt(abs(h00)) * math.sqrt(abs(h11)) * _EPS
        or e * e <= (_EPS * _EPS * abs(h00)) * abs(h11) + _SAFMIN
    ):
        w0, w1, z00, z01, z10, z11 = h00, h11, 1.0, 0.0, 0.0, 1.0
    else:
        w0, w1, cs, sn = _dlaev2(h00, e, h11)
        z00, z01, z10, z11 = cs, -sn, sn, cs
    if w1 < w0:
        w0, w1, z00, z01, z10, z11 = w1, w0, z01, z00, z11, z10
    if tau:
        return w0, w1, (complex(z00), complex(z01), z10 - tau * z10, z11 - tau * z11)
    return w0, w1, (complex(z00), complex(z01), complex(z10), complex(z11))


def takagi2(S: tuple) -> TakagiFactorization:
    """Unitary u and d1 >= d2 >= 0 with u^T S u = diag(d1, d2), S = (s00, s01, s11).

    Works through the hermitian Gram matrix conj(S) S: its unit eigenvector
    v for the top eigenvalue sigma^2 is combined with conj(S v)/sigma, which
    always yields a vector x satisfying S x = sigma * conj(x); the second
    column is the phase-corrected orthogonal complement.  Equal singular
    values need no special casing under this construction.
    """
    s00, s01, s11 = S
    if not (s00 or s01 or s11):
        return TakagiFactorization(u=(1.0 + 0j, 0j, 0j, 1.0 + 0j), d=(0.0, 0.0))
    # an exact power of two brings the entries to at most 1, so conj(S) S
    # neither overflows nor underflows; d is scaled back at the end
    e = exponent(*parts(s00, s01, s11))
    s00, s01, s11 = scaled(-e, s00, s01, s11)
    ns = norm2(s00, s01, s11)

    c00, c01, c11 = s00.conjugate(), s01.conjugate(), s11.conjugate()
    # hermitian PSD; eigenvalues are squared singular values
    _, top, (_, v0, _, v1) = eigh2((c00 * s00 + c01 * s01).real, c01 * s00 + c11 * s01, (c01 * s01 + c11 * s11).real)
    sig1 = math.sqrt(max(top, 0.0))
    w0 = (s00 * v0 + s01 * v1).conjugate() / sig1
    w1 = (s01 * v0 + s11 * v1).conjugate() / sig1
    x0, x1 = v0 + w0, v1 + w1
    y0, y1 = 1j * (v0 - w0), 1j * (v1 - w1)
    if math.hypot(*parts(y0, y1)) > math.hypot(*parts(x0, x1)):
        x0, x1 = y0, y1
    nx = math.hypot(*parts(x0, x1))
    a0, a1 = x0 / nx, x1 / nx

    def form(u0, u1):  # u^T S u
        return (u0 * s00 + u1 * s01) * u0 + (u0 * s01 + u1 * s11) * u1

    turn = cmath.rect(1.0, -0.5 * phase(form(a0, a1)))  # kill the residual phase
    a0, a1 = a0 * turn, a1 * turn
    b0, b1 = -a1.conjugate(), a0.conjugate()
    c2 = form(b0, b1)
    if abs(c2) > 1e-15 * ns:
        turn = cmath.rect(1.0, -0.5 * phase(c2))
        b0, b1 = b0 * turn, b1 * turn
    d0, d1 = abs(form(a0, a1)), abs(form(b0, b1))
    u = (a0, b0, a1, b1)
    if d0 < d1:
        u, d0, d1 = (b0, a0, b1, a1), d1, d0
    return TakagiFactorization(u=u, d=(_ldexp(d0, e), _ldexp(d1, e)))


def sl2_reduce_sym(P: tuple) -> tuple[tuple, tuple]:
    """(g, g^T P g) for g in SL(2,R) with g^T P g in canonical form, P = (p00, p01, p11) real.

    Canonical forms: s*sqrt(det P)*I2 for det P > 0 (s the common eigenvalue
    sign), sqrt(-det P)*diag(1,-1) for det P < 0, and s*diag(1,0) for
    det P ~ 0.  The diagonal rescaling that follows the orthogonal
    eigenbasis automatically has unit determinant.  The determinant and
    its threshold are taken on P times one power of two, which brings its
    entries to at most 1, so they neither overflow nor underflow.
    """
    p00, p01, p11 = P
    if not (p00 or p01 or p11):
        raise ZeroMatrix("sl2_reduce_sym requires a nonzero matrix")
    e = exponent(p00, p01, p11)
    p00, p01, p11 = (math.ldexp(p, -e) for p in (p00, p01, p11))
    mu0, mu1, (r00, r01, r10, r11) = eigh2(p00, complex(p01), p11)
    r00, r01, r10, r11 = r00.real, r01.real, r10.real, r11.real
    if r00 * r11 - r01 * r10 < 0:
        r01, r11 = -r01, -r11
    det = mu0 * mu1
    npn = norm2(p00, p01, p11)
    thr = SL2_DET_ZERO_REL * (npn * npn)

    if det > thr:
        root = math.sqrt(det)
        s = 1.0 if mu0 > 0 else -1.0
        t0, t1 = math.sqrt(root / abs(mu0)), math.sqrt(root / abs(mu1))
        g = (r00 * t0, r01 * t1, r10 * t0, r11 * t1)
        canonical = (s * _ldexp(root, e), 0.0, s * _ldexp(root, e))
    else:
        # the larger eigenpair first (the positive one when det P < 0), det kept at +1
        if (mu1 > 0) if det < -thr else (abs(mu1) >= abs(mu0)):
            m0, m1, r00, r01, r10, r11 = mu1, mu0, r01, -r00, r11, -r10
        else:
            m0, m1 = mu0, mu1
        if det < -thr:
            root = math.sqrt(-det)
            t0, t1 = math.sqrt(root / m0), math.sqrt(root / -m1)
            canonical = (_ldexp(root, e), 0.0, -_ldexp(root, e))
        else:
            # 1 / sqrt(|m0| 2^e) with an even power of two taken out of the root
            odd = e % 2
            t0 = _ldexp(1.0 / math.sqrt(abs(m0) * (1 + odd)), -(e - odd) // 2)
            t1 = 1.0 / t0
            canonical = (1.0 if m0 > 0 else -1.0, 0.0, 0.0)
        g = (r00 * t0, r01 * t1, r10 * t0, r11 * t1)
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
            sq = math.sqrt(disc)
            roots.extend([(-b + sq) / (2 * a), (-b - sq) / (2 * a)])
    return [u for u in roots if u > tiny]


def so11_zero_diag(Q: tuple) -> tuple[tuple, tuple]:
    """(k, k^T Q k) for k = phi(tau) in SO(1,1) such that k^T Q k has a zero diagonal entry.

    Q = (p, q, r) is real.  With sigma = tau + 1/tau and delta = tau - 1/tau,
    the transformed diagonal entries are quadratics in u = tau^2:

        4 p' * u = (p+2q+r) u^2 + 2(p-r) u + (p-2q+r)
        4 r' * u = (p+2q+r) u^2 - 2(p-r) u + (p-2q+r)

    and det Q <= 0 makes the shared discriminant 4(q^2 - p r) nonnegative.
    Among the positive roots of either quadratic the tau closest to 1 is
    chosen (best conditioning of phi(tau)).  tau is found on Q times one
    power of two, which brings its entries to at most 1.
    """
    p0, q0, r0 = Q
    e = exponent(p0, q0, r0)
    p, q, r = (math.ldexp(x, -e) for x in (p0, q0, r0))
    nq = max(norm2(p, q, r), 1e-300)
    detQ = p * r - q * q
    if detQ > SO11_DET_POS_REL * (nq * nq):
        raise PositiveDeterminant(f"det Q = {_ldexp(_ldexp(detQ, e), e)} > 0")
    tiny = 1e-14 * nq

    candidates: list[float] = []
    if abs(p) <= tiny or abs(r) <= tiny:
        candidates.append(1.0)
    a_coef = p + 2 * q + r
    c_coef = p - 2 * q + r
    for b_coef in (2 * (p - r), -2 * (p - r)):
        for u in _positive_roots_quadratic(a_coef, b_coef, c_coef, tiny):
            candidates.append(math.sqrt(u))
    if not candidates:
        raise So11Unreachable(
            "no SO(1,1) element zeroes a diagonal entry of a lightlike rank-one Q or of c*diag(1,-1)"
        )
    tau = min(candidates, key=lambda t: abs(math.log(t)))
    sigma, delta = 0.5 * (tau + 1.0 / tau), 0.5 * (tau - 1.0 / tau)
    k = (sigma, delta, delta, sigma)
    # columns of Q k, then k^T Q k
    a0, b0, a1, b1 = p0 * sigma + q0 * delta, q0 * sigma + r0 * delta, p0 * delta + q0 * sigma, q0 * delta + r0 * sigma
    kqk = (sigma * a0 + delta * b0, 0.5 * ((sigma * a1 + delta * b1) + (delta * a0 + sigma * b0)), delta * a1 + sigma * b1)
    return k, kqk
