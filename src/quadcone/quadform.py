"""Real quadratic forms on C^n: construction, decomposition, signatures, sampling.

A cone here is the zero set of rho(z) = Re(z^T S z) + conj(z)^T H z with S
complex symmetric (the harmonic coefficients) and H hermitian.  The pair
(S, H) is unique for a given real quadratic polynomial, and every operation
in the package works on this representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative eigenvalue threshold below which an eigenvalue counts as zero.
ZERO_EIG_REL = 1e-9
# Relative symmetry / hermiticity tolerance for constructor validation.
SYM_REL = 1e-12
# Residual bound for points produced by sample_points, relative to |z|^2.
SAMPLE_RESIDUAL_REL = 1e-10


class ConeError(ValueError):
    """Base class for structured errors raised by this package."""


class NonHomogeneous(ConeError):
    """Input polynomial contains a monomial of degree other than two."""


class NonReal(ConeError):
    """Input polynomial has non-real coefficients."""


class NotSymmetric(ConeError):
    """Matrix expected to be (conjugate-)symmetric is not, beyond tolerance."""


class InsufficientSamples(ConeError):
    """sample_points could not find enough real points within its budget."""


def mat_norm(m) -> float:
    """Frobenius norm, guarded for the zero matrix.

    The entries are divided by the largest |entry| before squaring, so
    entries anywhere in 1e-300..1e300 neither overflow nor underflow.
    """
    a = np.abs(np.asarray(m))
    big = float(a.max(initial=0.0))
    if not big:
        return 0.0
    a = a / big
    return big * math.sqrt(np.vdot(a, a))


@dataclass(frozen=True)
class HermitianSignature:
    """Counts of positive/negative eigenvalues of the hermitian part."""

    pi: int
    nu: int

    def as_tuple(self):
        return (self.pi, self.nu)


@dataclass(frozen=True)
class RealSignature:
    """Inertia (p, q) of rho viewed as a real quadratic form on R^(2n)."""

    p: int
    q: int

    def as_tuple(self):
        return (self.p, self.q)


class QuadraticCone:
    """Immutable value object holding the (S, H) coefficient pair.

    S is symmetrized and H hermitized on construction; an asymmetry beyond
    SYM_REL * norm raises NotSymmetric instead of being silently absorbed,
    and a non-finite entry raises ConeError.
    """

    __slots__ = ("n", "S", "H", "_scale", "_hsig", "_rsig", "_G")

    def __init__(self, S, H):
        S = np.array(S, dtype=complex)
        H = np.array(H, dtype=complex)
        if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape != H.shape:
            raise ConeError(f"S and H must be square of equal size, got {S.shape} and {H.shape}")
        n = S.shape[0]
        if n < 2:
            raise ConeError("dimension must be at least 2")
        if not (np.isfinite(S).all() and np.isfinite(H).all()):
            raise ConeError("S and H must have finite entries")
        s_scale = mat_norm(S)
        h_scale = mat_norm(H)
        if mat_norm(S - S.T) > SYM_REL * max(s_scale, 1e-300):
            raise NotSymmetric("S is not symmetric within tolerance")
        if mat_norm(H - H.conj().T) > SYM_REL * max(h_scale, 1e-300):
            raise NotSymmetric("H is not hermitian within tolerance")
        self._store(S, H)

    @classmethod
    def _symmetrized(cls, S, H) -> "QuadraticCone":
        """Cone from internally computed square complex S and H of equal size.

        Applies the constructor's exact symmetrization (X / 2 + (X / 2)^T,
        and ^H for H) and skips its tolerance checks.  For congruences and
        scalings of a valid cone the asymmetry is rounding only, and the
        result equals the constructor's on the same S and H exactly.
        """
        cone = object.__new__(cls)
        cone._store(S, H)
        return cone

    def _store(self, S, H):
        # halves first: the sum of two halves of finite entries cannot overflow
        S = 0.5 * S
        S = S + S.T
        H = 0.5 * H
        H = H + H.conj().T
        S.setflags(write=False)
        H.setflags(write=False)
        object.__setattr__(self, "n", S.shape[0])
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "_scale", None)
        # signatures, kept by hermitian_signature / real_signature
        object.__setattr__(self, "_hsig", None)
        object.__setattr__(self, "_rsig", None)
        # interleaved real form, kept by _interleaved_form
        object.__setattr__(self, "_G", None)

    def __setattr__(self, *a):  # immutability, safe to share across threads
        raise AttributeError("QuadraticCone is immutable")

    def __repr__(self):
        return f"QuadraticCone(n={self.n})"

    def __eq__(self, other):
        if not isinstance(other, QuadraticCone):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.S, other.S) and np.array_equal(self.H, other.H)

    @property
    def scale(self) -> float:
        """Coefficient magnitude ||S||_F + ||H||_F (Frobenius), the natural error scale.

        Computed on first use and kept; concurrent first uses store the same value.
        """
        if self._scale is None:
            object.__setattr__(self, "_scale", mat_norm(self.S) + mat_norm(self.H))
        return self._scale

    def negated(self) -> "QuadraticCone":
        """The cone of -rho; it inherits the scale and the swapped signatures."""
        neg = QuadraticCone._symmetrized(-self.S, -self.H)
        object.__setattr__(neg, "_scale", self._scale)
        if self._hsig is not None:
            object.__setattr__(neg, "_hsig", HermitianSignature(self._hsig.nu, self._hsig.pi))
        if self._rsig is not None:
            object.__setattr__(neg, "_rsig", RealSignature(self._rsig.q, self._rsig.p))
        if self._G is not None:
            G = -self._G
            G.setflags(write=False)
            object.__setattr__(neg, "_G", G)
        return neg


# Row t of _FORM_BLOCK: what part t (Sr, Si, Hr, Hi) of the entries S[j, k] =
# Sr + i Si and H[j, k] = Hr + i Hi adds to the 2 x 2 block of the real form at
# (j, k), read row by row (x_j x_k, x_j y_k, y_j x_k, y_j y_k).  That block is
# [[Hr + Sr, -(Hi + Si)], [Hi - Si, Hr - Sr]].  Each entry adds two parts, so
# the product with it is exact up to the sign of zeros.
_FORM_BLOCK = np.array(
    [[1.0, 0.0, 0.0, -1.0], [0.0, -1.0, -1.0, 0.0], [1.0, 0.0, 0.0, 1.0], [0.0, -1.0, 1.0, 0.0]]
)
_FORM_BLOCK.setflags(write=False)


def _interleaved_form(cone: QuadraticCone) -> np.ndarray:
    """rho's real form G in the order x_1, y_1, x_2, y_2, ... (z_j = x_j + i y_j), kept read-only.

    That is the order of the float64 view of complex points, so rho(z) =
    x^T G x with x = z.view(float64).  G is exactly symmetric, since S is
    symmetric and H hermitian bitwise.  For n = 2 it is built from the
    entries as Python scalars (_form2).
    """
    if cone._G is None:
        if cone.n == 2:
            (s00, s01), (_, s11) = cone.S.tolist()
            (h00, h01), (_, h11) = cone.H.tolist()
            G = _form2((s00, s01, s11), (h00, h01, h11))
        else:
            G = _form(cone.S, cone.H)
        G.setflags(write=False)
        object.__setattr__(cone, "_G", G)
    return cone._G


def _form(S: np.ndarray, H: np.ndarray) -> np.ndarray:
    """rho's real form in _interleaved_form's order from complex n x n arrays S and H, any n."""
    n = S.shape[0]
    # (n, n, 4): Sr, Si, Hr, Hi of each entry (j, k)
    entries = np.concatenate([M.view(np.float64).reshape(n, n, 2) for M in (S, H)], axis=2)
    return (entries @ _FORM_BLOCK).reshape(n, n, 2, 2).transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)


def _scale_exponent(*Ms: np.ndarray) -> int:
    """The e such that 2^e times complex arrays brings their largest part to at most 1 (0 for zeros)."""
    return -exponent(*(float(np.abs(M.view(np.float64)).max()) for M in Ms))


def _ldexp(M: np.ndarray, e: int) -> np.ndarray:
    """A copy of the complex array M times 2^e, part by part: exact unless a part underflows."""
    return np.ldexp(M.view(np.float64), e).view(complex)


def evaluate(cone: QuadraticCone, z) -> float:
    """rho(z) = Re(z^T S z) + conj(z)^T H z at a single point, through evaluate_many."""
    return float(evaluate_many(cone, np.reshape(z, (1, -1)))[0])


def evaluate_many(cone: QuadraticCone, Z) -> np.ndarray:
    """rho over the rows of Z (shape (m, n)), as x^T G x per row.

    x is the float64 view (Re z_1, Im z_1, Re z_2, ...) of a row and G the
    cone's real form in that order (real_form_matrix, permuted), built once
    per cone, so each call is one real (m, 2n) x (2n, 2n) product.  Every
    evaluation of rho in the package goes through here.  A row agrees with
    Re(z^T S z) + conj(z)^T H z up to rounding of order n * 2^-52 *
    cone.scale * |z|^2.  Z may be any array-like of complex or real numbers
    with n columns; it is copied only when it is not a C-contiguous
    complex128 array.
    """
    X = np.ascontiguousarray(Z, dtype=complex).view(np.float64)
    return np.einsum("ij,ij->i", X @ _interleaved_form(cone), X)


def form_distance(a: QuadraticCone, b: QuadraticCone) -> float:
    """max over |z| = 1 of |rho_a(z) - rho_b(z)|, exactly, for cones in the same C^n.

    |z| = 1 is |x| = 1 for the float64 view x of z, so the maximum is the
    spectral norm of the difference of the two real forms: one eigvalsh.
    """
    if a.n != b.n:
        raise ConeError(f"cones in C^{a.n} and C^{b.n} have no distance")
    return float(np.abs(np.linalg.eigvalsh(_interleaved_form(a) - _interleaved_form(b))).max())


def _form2(S: tuple, H: tuple) -> np.ndarray:
    """rho's real form in _interleaved_form's order for n = 2, S = (s00, s01, s11) and H = (h00, h01, h11).

    Built entry by entry from Python scalars.  It equals the product with
    _FORM_BLOCK that builds the form for n >= 3 up to the sign of zero
    entries.
    """
    (a, ai), (b, bi), (c, ci) = ((s.real, s.imag) for s in S)
    h00, h, hi, h11 = H[0].real, H[1].real, H[1].imag, H[2].real
    return np.array([
        [h00 + a, -ai, h + b, -(hi + bi)],
        [-ai, h00 - a, hi - bi, h - b],
        [h + b, hi - bi, h11 + c, -ci],
        [-(hi + bi), h - b, -ci, h11 - c],
    ])


def form_norm2(S: tuple, H: tuple) -> float:
    """max over |z| = 1 of |rho(z)| for n = 2, S = (s00, s01, s11) and H = (h00, h01, h11).

    form_distance's spectral norm for a form given by Python scalars, such
    as the difference of two forms: one eigvalsh of _form2.
    """
    return float(np.abs(np.linalg.eigvalsh(_form2(S, H))).max())


def real_form_matrix(cone: QuadraticCone) -> np.ndarray:
    """The 2n x 2n real symmetric matrix G with rho = (x,y)^T G (x,y).

    Coordinates are ordered x_1..x_n, y_1..y_n.  With S = Sr+i*Si and
    H = Hr+i*Hi the identity is

        rho = x^T (Sr+Hr) x + y^T (Hr-Sr) y - 2 x^T (Si+Hi) y.

    A writable copy of the kept form of evaluate_many, reordered.
    """
    order = np.arange(2 * cone.n).reshape(cone.n, 2).T.ravel()  # 0, 2, ..., then 1, 3, ...
    return _interleaved_form(cone)[np.ix_(order, order)]


def decompose_real_form(G) -> QuadraticCone:
    """Unique (S, H) with Re(z^T S z) + conj(z)^T H z = (x,y)^T G (x,y).

    G must be a real symmetric 2n x 2n matrix in x_1..x_n, y_1..y_n order.
    """
    G = np.asarray(G)
    if not np.isfinite(G).all():
        raise ConeError("real-form matrix has non-finite entries")
    if np.iscomplexobj(G) and mat_norm(G.imag) > SYM_REL * max(mat_norm(G), 1e-300):
        raise NonReal("real-form matrix has non-real entries")
    G = np.asarray(G.real, dtype=float)
    m = G.shape[0]
    if G.ndim != 2 or G.shape[1] != m or m % 2:
        raise ConeError("real-form matrix must be square of even size")
    if mat_norm(G - G.T) > SYM_REL * max(mat_norm(G), 1e-300):
        raise NotSymmetric("real-form matrix is not symmetric")
    G = 0.5 * G  # halves first, so a finite G stays finite
    G = G + G.T
    n = m // 2
    # halved before the sums and differences, which then cannot overflow
    Gxx, Gyy, Gxy = 0.5 * G[:n, :n], 0.5 * G[n:, n:], 0.5 * G[:n, n:]
    Sr = Gxx - Gyy
    Hr = Gxx + Gyy
    Si = -(Gxy + Gxy.T)
    Hi = -(Gxy - Gxy.T)
    return QuadraticCone(Sr + 1j * Si, Hr + 1j * Hi)


def decompose_poly(n: int, terms) -> QuadraticCone:
    """Decompose a polynomial given as [((var, var), coeff), ...].

    Variables are named "x1".."xn", "y1".."yn"; every monomial must have
    total degree exactly two and a real coefficient.
    """

    def index(name: str) -> int:
        kind, num = name[0], name[1:]
        if kind not in ("x", "y") or not num.isdigit():
            raise ConeError(f"unknown variable {name!r}")
        j = int(num)
        if not 1 <= j <= n:
            raise ConeError(f"variable {name!r} out of range for n={n}")
        return (j - 1) + (n if kind == "y" else 0)

    G = [[0.0] * (2 * n) for _ in range(2 * n)]  # Python floats: a sum that overflows is inf, unwarned
    for vars_, coeff in terms:
        if isinstance(coeff, complex) and coeff.imag != 0:
            raise NonReal(f"coefficient {coeff} of {vars_} is not real")
        if len(vars_) != 2:
            raise NonHomogeneous(f"monomial {vars_} has degree {len(vars_)}, expected 2")
        i, j = index(vars_[0]), index(vars_[1])
        c = float(np.real(coeff))
        G[i][j] += c / 2.0
        G[j][i] += c / 2.0
    return decompose_real_form(np.array(G))


# The signatures read a copy of S and H scaled by 2^e, e the scale exponent,
# when |e| exceeds this; closer to 1 they read the cone's own form, whose
# eigenvalues are those of the copy's times 2^-e, far from _inertia's floor
# and from overflow.
PRESCALE_BAND = 500


def _inertia(w: list) -> tuple[int, int]:
    """Counts of the eigenvalues w, Python floats, above +tol and below -tol.

    tol is ZERO_EIG_REL * max |w|, relative to the matrix's spectral norm
    (which its eigenvalues give for free), not to the Frobenius mat_norm
    used for every other tolerance scale.
    """
    tol = ZERO_EIG_REL * max(max(map(abs, w)), 1e-300)
    return sum(x > tol for x in w), sum(x < -tol for x in w)


def hermitian_signature(cone: QuadraticCone) -> HermitianSignature:
    """Eigenvalue counts of H above/below +-1e-9 * max |eigenvalue|, computed once and kept.

    For n = 2 the eigenvalues are eigh2's of H times the power of two that
    brings its entries to at most 1, the ones normalform's frame reads.  For
    n >= 3 they are eigvalsh's of H, of such a scaled copy when the scale
    exponent is beyond PRESCALE_BAND.
    """
    if cone._hsig is None:
        if cone.n == 2:
            (h00, _), (h10, h11) = cone.H.tolist()
            e = -exponent(h00.real, h11.real, *parts(h10))
            w0, w1, _ = eigh2(math.ldexp(h00.real, e), *scaled(e, h10), math.ldexp(h11.real, e))
            w = [w0, w1]
        else:
            e = _scale_exponent(cone.H)
            w = np.linalg.eigvalsh(cone.H if abs(e) <= PRESCALE_BAND else _ldexp(cone.H, e)).tolist()
        object.__setattr__(cone, "_hsig", HermitianSignature(*_inertia(w)))
    return cone._hsig


def real_signature(cone: QuadraticCone) -> RealSignature:
    """Inertia of the real form of rho on R^(2n), kept as for hermitian_signature.

    When the scale exponent e of S and H is beyond PRESCALE_BAND, the form
    is built from copies of S and H times 2^e, so that the form evaluate_many
    keeps stays the cone's; otherwise it is that kept form.
    """
    if cone._rsig is None:
        G = None
        if cone.n == 2:
            (s00, s01), (_, s11) = cone.S.tolist()
            (h00, h01), (_, h11) = cone.H.tolist()
            e = -exponent(*parts(s00, s01, s11, h00, h01, h11))
            if abs(e) > PRESCALE_BAND:
                G = _form2(scaled(e, s00, s01, s11), scaled(e, h00, h01, h11))
        else:
            e = _scale_exponent(cone.S, cone.H)
            if abs(e) > PRESCALE_BAND:
                G = _form(_ldexp(cone.S, e), _ldexp(cone.H, e))
        w = np.linalg.eigvalsh(_interleaved_form(cone) if G is None else G).tolist()
        object.__setattr__(cone, "_rsig", RealSignature(*_inertia(w)))
    return cone._rsig


def canonical_sign(cone: QuadraticCone) -> tuple[QuadraticCone, int]:
    """Flip rho so the hermitian signature satisfies pi >= nu.

    At pi == nu the input sign is kept; downstream classification treats the
    tie explicitly (both signs classify to the same normal form).
    """
    sig = hermitian_signature(cone)
    if sig.pi < sig.nu:
        return cone.negated(), -1
    return cone, +1


def _real_roots(a, b, c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows i, root numbers k and values t of the real roots of a t^2 + b t + c = 0.

    Row-major: by row, then root.  The stable quadratic formula, with the
    linear root where a is negligible.
    """
    disc = b * b - 4.0 * a * c
    # column k = root k of the row's equation; masked-out entries may hold inf or nan
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.sqrt(disc)
        linear = np.abs(a) < 1e-14 * (np.abs(b) + np.abs(c) + 1e-300)
        qq = -0.5 * (b + np.copysign(sq, b))
        roots = np.column_stack([np.where(linear, -c / b, qq / a), c / qq])
    real = ~(disc < 0)
    valid = np.column_stack([real & (~linear | (np.abs(b) > 0)), real & ~linear & (np.abs(qq) > 0)])
    i, k = np.nonzero(valid)
    return i, k, roots[i, k]


def sample_points(cone: QuadraticCone, seed: int, count: int, radius: float = 1.0) -> np.ndarray:
    """Deterministic points on the cone as a (count, n) array, from random real 2-plane sections.

    Draws real directions u, v, solves the real quadratic rho(u + t v) = 0
    for t, keeps real roots and rescales each point into |z| <= radius (the
    cone is homogeneous, so rescaling stays on it), then applies one Newton
    step along v.  A point is returned only if its residual |rho(p)| is at
    most SAMPLE_RESIDUAL_REL * |p|^2 * max(scale, 1).

    Reproducibility: the generator is numpy's default PCG64 seeded with
    `seed`.  Each batch of max(count, 256) directions makes the same draws
    in the same order (U, then V, then the rescale factors), and candidates
    are taken in the order direction, then root, until `count` are found
    or 64 batches are spent.  Each batch is processed as arrays, with rho
    evaluated by evaluate_many's real matrix product, so points equal those
    of the equivalent per-point loop up to rounding, not bitwise.  Results
    are reproducible at fixed numpy and BLAS builds.
    """
    if count < 1:
        raise ConeError("count must be >= 1")
    if radius <= 0:
        raise ConeError("radius must be positive")
    rng = np.random.default_rng(seed)
    n = cone.n
    batch = max(count, 256)
    max_batches = 64
    scale = max(cone.scale, 1.0)
    points = []
    found = 0
    for _ in range(max_batches):
        U, V = np.empty((2, batch, n), dtype=complex)
        for W in (U, V):  # x + i y from two draws, as x + 1j * y would give
            W.real = rng.standard_normal((batch, n))
            W.imag = rng.standard_normal((batch, n))
        scales = rng.uniform(0.05, 1.0, size=2 * batch)
        a = evaluate_many(cone, V)
        c = evaluate_many(cone, U)
        # b, the real polarization term: rho(u + t v) = a t^2 + b t + c
        i, k, t = _real_roots(a, evaluate_many(cone, U + V) - a - c, c)
        # full-size arrays are made in place and dropped once used, so the
        # heap reuses their pages instead of faulting in new ones
        P = t[:, None] * V[i]
        P += U[i]
        del U, a, c
        norm = np.linalg.norm(P, axis=1)
        far = ~(norm < 1e-9)
        if not far.all():
            i, k, P, norm = i[far], k[far], P[far], norm[far]
        P *= (radius * scales[2 * i + k] / norm)[:, None]
        # one Newton polish along V to keep the residual at rounding level
        vnorm = np.maximum(np.linalg.norm(V, axis=1), 1e-300)
        dv = V[i] * (radius / vnorm[i])[:, None]
        del V
        r0 = evaluate_many(cone, P)
        probe = dv * 1e-7
        probe += P
        g = evaluate_many(cone, probe) - r0
        del probe
        step = np.divide(r0 * 1e-7, g, out=np.zeros_like(g), where=np.abs(g) > 1e-300)
        dv *= step[:, None]
        P -= dv
        del dv
        res = np.abs(evaluate_many(cone, P))
        ok = res <= SAMPLE_RESIDUAL_REL * np.linalg.norm(P, axis=1) ** 2 * scale
        points.append(P if ok.all() else P[ok])
        found += len(points[-1])
        if found >= count:
            return (points[0] if len(points) == 1 else np.concatenate(points))[:count]
    raise InsufficientSamples(
        f"found {found} of {count} requested cone points; rho may be (semi)definite"
    )


# reduction builds on this module (ConeError, mat_norm), so its 2x2 kernels come last
from .reduction import eigh2, exponent, parts, scaled  # noqa: E402
