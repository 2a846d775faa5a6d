"""Real quadratic forms on C^n: construction, decomposition, signatures, sampling.

A cone here is the zero set of rho(z) = Re(z^T S z) + conj(z)^T H z with S
complex symmetric (the harmonic coefficients) and H hermitian.  The pair
(S, H) is unique for a given real quadratic polynomial, and every operation
in the package works on this representation.

A cone in C^2 keeps its entries as Python complex (s2, h2), and everything
the n = 2 commands compute from them runs on Python scalars; numpy is
imported by the functions that need arrays (n >= 3, sample_points), on
their first call.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

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
    import numpy as np
    a = np.abs(np.asarray(m))
    big = float(a.max(initial=0.0))
    if not big:
        return 0.0
    a = a / big
    return big * math.sqrt(np.vdot(a, a))


class HermitianSignature(NamedTuple):
    """Counts of positive/negative eigenvalues of the hermitian part."""

    pi: int
    nu: int


class RealSignature(NamedTuple):
    """Inertia (p, q) of rho viewed as a real quadratic form on R^(2n)."""

    p: int
    q: int


class QuadraticCone:
    """Immutable value object holding the (S, H) coefficient pair.

    S is symmetrized and H hermitized on construction; an asymmetry beyond
    SYM_REL * norm raises NotSymmetric instead of being silently absorbed,
    and a non-finite entry raises ConeError.  For n = 2, s2 and h2 hold the
    rows of S and H as Python complex, and the arrays S and H are built from
    them on first use; for n >= 3 they are None.  The checked constructor
    uses numpy; _symmetrized builds a cone in C^2 without it.
    """

    __slots__ = ("n", "s2", "h2", "_S", "_H", "_scale", "_hsig", "_rsig", "_G")

    def __init__(self, S, H):
        import numpy as np
        S = np.array(S, dtype=complex)
        H = np.array(H, dtype=complex)
        if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape != H.shape:
            raise ConeError(f"S and H must be square of equal size, got {S.shape} and {H.shape}")
        n = S.shape[0]
        if n < 2:
            raise ConeError("dimension must be at least 2")
        if not (np.isfinite(S).all() and np.isfinite(H).all()):
            raise ConeError("S and H must have finite entries")
        if _asymmetric(S.tolist(), hermitian=False):
            raise NotSymmetric("S is not symmetric within tolerance")
        if _asymmetric(H.tolist(), hermitian=True):
            raise NotSymmetric("H is not hermitian within tolerance")
        self._store(S, H)

    @classmethod
    def _symmetrized(cls, S, H) -> "QuadraticCone":
        """Cone from internally computed square complex S and H of equal size.

        Applies the constructor's exact symmetrization (X / 2 + (X / 2)^T,
        and ^H for H, but an entry that equals its mirror where that sum
        rounds a subnormal part) and skips its tolerance checks.  For
        congruences and scalings of a valid cone the asymmetry is rounding
        only, and the result equals the constructor's on the same S and H
        exactly.  For n = 2, S and H may be rows of numbers: such a cone
        needs no numpy.
        """
        cone = object.__new__(cls)
        cone._store(S, H)
        return cone

    def _store(self, S, H):
        # halves first: the sum of two halves of finite entries cannot overflow
        if len(S) == 2:  # n = 2: the same steps on Python complex
            S, H = (M.tolist() if hasattr(M, "tolist") else M for M in (S, H))
            x00, x01, x10, x11, y00, y01, y10, y11 = map(complex, (*S[0], *S[1], *H[0], *H[1]))
            a00, a01, a10, a11, b00, b01, b10, b11 = (0.5 * z for z in (x00, x01, x10, x11, y00, y01, y10, y11))
            s00, s01, s10, s11 = a00 + a00, a01 + a10, a10 + a01, a11 + a11
            h00, h01 = b00 + b00.conjugate(), b01 + b10.conjugate()
            h10, h11 = b10 + b01.conjugate(), b11 + b11.conjugate()
            # where a halving rounded (a part below 2^-1021), an entry that equals its
            # mirror is stored as given; S's diagonal is its own mirror
            s00 = s00 if s00 == x00 else x00
            s11 = s11 if s11 == x11 else x11
            if s01 != x01 == x10:
                s01 = s10 = x01
            h00 = h00 if h00 == y00 or y00.imag else y00
            h11 = h11 if h11 == y11 or y11.imag else y11
            if h01 != y01 == y10.conjugate():
                h01, h10 = y01, y10
            S2, H2 = ((s00, s01), (s10, s11)), ((h00, h01), (h10, h11))
            S = H = None
        else:
            import numpy as np
            S0, H0 = np.asarray(S, dtype=complex), np.asarray(H, dtype=complex)
            S = 0.5 * S0
            S = S + S.T
            H = 0.5 * H0
            H = H + H.conj().T
            for M, M0, mirror in ((S, S0, S0.T), (H, H0, H0.conj().T)):
                if M.tobytes() != M0.tobytes():  # else nothing was rounded; as for n = 2
                    given = (M != M0) & (M0 == mirror)
                    M[given] = M0[given]
            S.setflags(write=False)
            H.setflags(write=False)
            S2 = H2 = None
        object.__setattr__(self, "n", 2 if S is None else S.shape[0])
        object.__setattr__(self, "s2", S2)
        object.__setattr__(self, "h2", H2)
        object.__setattr__(self, "_S", S)
        object.__setattr__(self, "_H", H)
        object.__setattr__(self, "_scale", None)
        # signatures, kept by hermitian_signature / real_signature
        object.__setattr__(self, "_hsig", None)
        object.__setattr__(self, "_rsig", None)
        # interleaved real form, kept by _interleaved_form
        object.__setattr__(self, "_G", None)

    @property
    def S(self):
        """S as a read-only complex array; for n = 2 built from s2 on first use and kept."""
        if self._S is None:
            object.__setattr__(self, "_S", _frozen_array(self.s2))
        return self._S

    @property
    def H(self):
        """H as a read-only complex array; for n = 2 built from h2 on first use and kept."""
        if self._H is None:
            object.__setattr__(self, "_H", _frozen_array(self.h2))
        return self._H

    def __setattr__(self, *a):  # immutability, safe to share across threads
        raise AttributeError("QuadraticCone is immutable")

    def __repr__(self):
        return f"QuadraticCone(n={self.n})"

    def __eq__(self, other):
        if not isinstance(other, QuadraticCone):
            return NotImplemented
        if self.n == other.n == 2:
            return self.s2 == other.s2 and self.h2 == other.h2
        import numpy as np
        return self.n == other.n and np.array_equal(self.S, other.S) and np.array_equal(self.H, other.H)

    @property
    def scale(self) -> float:
        """Coefficient magnitude ||S||_F + ||H||_F (Frobenius), the natural error scale.

        Computed on first use and kept; concurrent first uses store the same value.
        """
        if self._scale is None:
            if self.n == 2:
                (s00, s01), (_, s11) = self.s2
                (h00, h01), (_, h11) = self.h2
                scale = norm2(s00, s01, s11) + norm2(h00, h01, h11)
            else:
                scale = mat_norm(self.S) + mat_norm(self.H)
            object.__setattr__(self, "_scale", scale)
        return self._scale

    def negated(self) -> "QuadraticCone":
        """The cone of -rho; it inherits the scale and the swapped signatures."""
        if self.n == 2:
            neg = QuadraticCone._symmetrized(*(tuple((-a, -b) for a, b in M) for M in (self.s2, self.h2)))
        else:
            neg = QuadraticCone._symmetrized(-self.S, -self.H)
        object.__setattr__(neg, "_scale", self._scale)
        if self._hsig is not None:
            object.__setattr__(neg, "_hsig", HermitianSignature(self._hsig.nu, self._hsig.pi))
        if self._rsig is not None:
            object.__setattr__(neg, "_rsig", RealSignature(self._rsig.q, self._rsig.p))
        return neg


# Row t of _FORM_BLOCK: what part t (Sr, Si, Hr, Hi) of the entries S[j, k] =
# Sr + i Si and H[j, k] = Hr + i Hi adds to the 2 x 2 block of the real form at
# (j, k), read row by row (x_j x_k, x_j y_k, y_j x_k, y_j y_k).  That block is
# [[Hr + Sr, -(Hi + Si)], [Hi - Si, Hr - Sr]].  Each entry adds two parts, so
# the product with it is exact up to the sign of zeros.
_FORM_BLOCK = ((1.0, 0.0, 0.0, -1.0), (0.0, -1.0, -1.0, 0.0), (1.0, 0.0, 0.0, 1.0), (0.0, -1.0, 1.0, 0.0))


def _asymmetric(rows, hermitian: bool) -> bool:
    """Whether ||M - M^T|| (M^H if hermitian) exceeds SYM_REL * max(||M||, 1e-300), Frobenius, M as rows of numbers.

    Both sides are computed on M times the power of two 2^e that brings its
    largest part to at most 1, and the floor is scaled to match: the answer
    is that of the unscaled comparison, but neither norm nor the difference
    can overflow to inf or nan, which would compare False and let any
    asymmetry through.
    """
    e = -exponent(*parts(*(z for row in rows for z in row)))
    M = [scaled(e, *row) for row in rows]
    d = [z - (M[j][i].conjugate() if hermitian else M[j][i]) for i, row in enumerate(M) for j, z in enumerate(row)]
    norm = math.hypot(*parts(*(z for row in M for z in row)))
    return math.hypot(*parts(*d)) > SYM_REL * max(norm, math.ldexp(1e-300, e))


def _frozen_array(rows):
    """A read-only complex array of the given rows."""
    import numpy as np
    M = np.array(rows, dtype=complex)
    M.setflags(write=False)
    return M


def _interleaved_form(cone: QuadraticCone):
    """rho's real form G in the order x_1, y_1, x_2, y_2, ... (z_j = x_j + i y_j), kept read-only.

    That is the order of the float64 view of complex points, so rho(z) =
    x^T G x with x = z.view(float64).  G is exactly symmetric, since S is
    symmetric and H hermitian bitwise.
    """
    if cone._G is None:
        G = _form(cone.S, cone.H)
        G.setflags(write=False)
        object.__setattr__(cone, "_G", G)
    return cone._G


def _form(S, H):
    """rho's real form in _interleaved_form's order from complex n x n arrays S and H, any n."""
    import numpy as np
    global _FORM_BLOCK
    _FORM_BLOCK = np.asarray(_FORM_BLOCK)  # an array from the first call on; importing the module loads no numpy
    n = S.shape[0]
    # (n, n, 4): Sr, Si, Hr, Hi of each entry (j, k)
    entries = np.concatenate([M.view(np.float64).reshape(n, n, 2) for M in (S, H)], axis=2)
    return (entries @ _FORM_BLOCK).reshape(n, n, 2, 2).transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)


def _scale_exponent(*Ms) -> int:
    """The e such that 2^e times complex arrays brings their largest part to at most 1 (0 for zeros)."""
    return -exponent(*(float(abs(M.view(float)).max()) for M in Ms))


def _ldexp_array(M, e: int):
    """A copy of the complex array M times 2^e, part by part: exact unless a part underflows."""
    import numpy as np
    return np.ldexp(M.view(np.float64), e).view(complex)


def evaluate_many(cone: QuadraticCone, Z):
    """rho over the rows of Z (shape (m, n)), as x^T G x per row.

    x is the float64 view (Re z_1, Im z_1, Re z_2, ...) of a row and G the
    cone's real form in that order (_interleaved_form), built once per
    cone, so each call is one real (m, 2n) x (2n, 2n) product.  Every array
    evaluation of rho in the package goes through here; rho_at evaluates a
    few points in C^2.  A row agrees with Re(z^T S z) + conj(z)^T H z
    up to rounding of order n * 2^-52 * cone.scale * |z|^2.  Z may be any
    array-like of complex or real numbers with n columns; it is copied only
    when it is not a C-contiguous complex128 array.
    """
    import numpy as np
    X = np.ascontiguousarray(Z, dtype=complex).view(np.float64)
    return np.einsum("ij,ij->i", X @ _interleaved_form(cone), X)


def rho_at(cone: QuadraticCone, Z) -> list:
    """rho at a few points of a cone in C^2, the rows of Z, as a list of Python floats.

    Each value is x^T (G x) on Python floats, G the real form (_form2) and
    x = (Re z_1, Im z_1, Re z_2, Im z_2), written out term by term: the
    sums and error bound of evaluate_many, whose rows it equals to rounding.
    """
    (s00, s01), (_, s11) = cone.s2
    (h00, h01), (_, h11) = cone.h2
    # G is symmetric bitwise, so its upper triangle gives every row
    (g00, g01, g02, g03), (_, g11, g12, g13), (_, _, g22, g23), (_, _, _, g33) = _form2(
        (s00, s01, s11), (h00, h01, h11)
    )
    out = []
    for z0, z1 in Z:
        x0, x1, x2, x3 = z0.real, z0.imag, z1.real, z1.imag
        # the terms in the order of a sum() from its start 0, which turns a first term -0.0 into 0.0
        out.append(
            0
            + x0 * (x0 * g00 + x1 * g01 + x2 * g02 + x3 * g03)
            + x1 * (x0 * g01 + x1 * g11 + x2 * g12 + x3 * g13)
            + x2 * (x0 * g02 + x1 * g12 + x2 * g22 + x3 * g23)
            + x3 * (x0 * g03 + x1 * g13 + x2 * g23 + x3 * g33)
        )
    return out


def form_distance(a: QuadraticCone, b: QuadraticCone) -> float:
    """max over |z| = 1 of |rho_a(z) - rho_b(z)|, exactly, for cones in the same C^n.

    |z| = 1 is |x| = 1 for the float64 view x of z, so the maximum is the
    spectral norm of the difference of the two real forms: one eigvalsh.
    """
    import numpy as np
    if a.n != b.n:
        raise ConeError(f"cones in C^{a.n} and C^{b.n} have no distance")
    return float(np.abs(np.linalg.eigvalsh(_interleaved_form(a) - _interleaved_form(b))).max())


def _form2(S: tuple, H: tuple) -> list:
    """rho's real form in _interleaved_form's order for n = 2, S = (s00, s01, s11) and H = (h00, h01, h11).

    Its rows as lists of Python floats, built entry by entry.  It equals
    the product with _FORM_BLOCK that builds the form for every n up to the
    sign of zero entries.
    """
    (a, ai), (b, bi), (c, ci) = ((s.real, s.imag) for s in S)
    h00, h, hi, h11 = H[0].real, H[1].real, H[1].imag, H[2].real
    return [
        [h00 + a, -ai, h + b, -(hi + bi)],
        [-ai, h00 - a, hi - bi, h - b],
        [h + b, hi - bi, h11 + c, -ci],
        [-(hi + bi), h - b, -ci, h11 - c],
    ]


def _rotate(app: float, aqq: float, apq: float, xp: float, xq: float, yp: float, yq: float) -> tuple:
    """Rutishauser's Jacobi rotation that zeroes apq of a symmetric matrix.

    The new app and aqq, then the entries (p, q) of two other rows, x and y.
    """
    theta = (aqq - app) / (apq + apq)
    t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
    if theta < 0.0:
        t = -t
    c = 1.0 / math.sqrt(t * t + 1.0)
    s = t * c
    return app - t * apq, aqq + t * apq, c * xp - s * xq, s * xp + c * xq, c * yp - s * yq, s * yp + c * yq


def _jacobi4(S: tuple, H: tuple) -> tuple[list, int]:
    """(w, e): the eigenvalues of the real form of (S, H) (n = 2, as for _form2) are 2^e w.

    Beyond PRESCALE_BAND the form is built from S and H times 2^-e, the
    power of two that brings their largest part to at most 1, so no entry
    over- or underflows; within it e = 0.  Cyclic Jacobi rotations
    (Rutishauser's formulas) run until a sweep finds every off-diagonal
    entry at most 2^-55 ||G||_F: what is left off the diagonal is then below
    u ||G||_F (u = 2^-53), and each eigenvalue is within about 5 u ||G||_F of
    the exact one.  A rotated entry exceeds that bound, so |theta| stays
    below 2^55 and no step over- or underflows.  A part that is not finite
    raises ConeError, with eigvalsh's message.  The form is symmetric, so
    its diagonal d_p and upper triangle g_pq are local scalars; a sweep
    zeroes (p, q) in the order (0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
    (2, 3), each rotation mixing the columns p and q of the other two rows.
    """
    ps = parts(*S, *H)
    if not all(map(math.isfinite, ps)):
        raise ConeError("Array must not contain infs or NaNs")
    e = exponent(*ps)
    if abs(e) > PRESCALE_BAND:
        S, H = scaled(-e, *S), scaled(-e, *H)
    else:
        e = 0
    (d0, g01, g02, g03), (_, d1, g12, g13), (_, _, d2, g23), (_, _, _, d3) = a = _form2(S, H)
    tol = 2.0**-55 * math.hypot(*a[0], *a[1], *a[2], *a[3])
    for _ in range(64):
        turned = False
        if abs(g01) > tol:
            d0, d1, g02, g12, g03, g13 = _rotate(d0, d1, g01, g02, g12, g03, g13)
            g01, turned = 0.0, True
        if abs(g02) > tol:
            d0, d2, g01, g12, g03, g23 = _rotate(d0, d2, g02, g01, g12, g03, g23)
            g02, turned = 0.0, True
        if abs(g03) > tol:
            d0, d3, g01, g13, g02, g23 = _rotate(d0, d3, g03, g01, g13, g02, g23)
            g03, turned = 0.0, True
        if abs(g12) > tol:
            d1, d2, g01, g02, g13, g23 = _rotate(d1, d2, g12, g01, g02, g13, g23)
            g12, turned = 0.0, True
        if abs(g13) > tol:
            d1, d3, g01, g03, g12, g23 = _rotate(d1, d3, g13, g01, g03, g12, g23)
            g13, turned = 0.0, True
        if abs(g23) > tol:
            d2, d3, g02, g03, g12, g13 = _rotate(d2, d3, g23, g02, g03, g12, g13)
            g23, turned = 0.0, True
        if not turned:
            break
    return [d0, d1, d2, d3], e


def form_norm2(S: tuple, H: tuple) -> float:
    """max over |z| = 1 of |rho(z)| for n = 2, S = (s00, s01, s11) and H = (h00, h01, h11).

    form_distance's spectral norm for a form given by Python scalars, such
    as the difference of two forms: the largest |eigenvalue| of _jacobi4,
    inf where it overflows.
    """
    w, e = _jacobi4(S, H)
    return _ldexp(max(map(abs, w)), e)


def decompose_real_form(G) -> QuadraticCone:
    """Unique (S, H) with Re(z^T S z) + conj(z)^T H z = (x,y)^T G (x,y).

    G must be a real symmetric 2n x 2n matrix in x_1..x_n, y_1..y_n order, as
    rows of numbers or an array.  It is read on Python scalars, so a cone in
    C^2 needs no numpy; S and H come out exactly symmetric and hermitian.
    """
    rows = G.tolist() if hasattr(G, "tolist") else G
    flat = [x for row in rows for x in (row if isinstance(row, (list, tuple)) else [row])]
    if not all(map(cmath.isfinite, flat)):
        raise ConeError("real-form matrix has non-finite entries")
    if any(isinstance(x, complex) for x in flat):
        # scaled as _asymmetric scales, so that no norm overflows
        e = -exponent(*parts(*flat))
        unit = scaled(e, *flat)
        if math.hypot(*(x.imag for x in unit)) > SYM_REL * max(math.hypot(*parts(*unit)), math.ldexp(1e-300, e)):
            raise NonReal("real-form matrix has non-real entries")
    m, n = len(rows), len(rows) // 2
    if not m or m % 2 or not all(isinstance(row, (list, tuple)) and len(row) == m for row in rows):
        raise ConeError("real-form matrix must be square of even size")
    G = [[float(x.real) for x in row] for row in rows]
    if _asymmetric(G, hermitian=False):
        raise NotSymmetric("real-form matrix is not symmetric")
    if n < 2:
        raise ConeError("dimension must be at least 2")
    # halves first, so a finite G stays finite; halved again before the sums
    # and differences below, which then cannot overflow
    G = [[0.5 * (0.5 * G[i][j] + 0.5 * G[j][i]) for j in range(m)] for i in range(m)]
    S = [[(G[i][j] - G[n + i][n + j]) + 1j * -(G[i][n + j] + G[j][n + i]) for j in range(n)] for i in range(n)]
    H = [[(G[i][j] + G[n + i][n + j]) + 1j * -(G[i][n + j] - G[j][n + i]) for j in range(n)] for i in range(n)]
    return QuadraticCone._symmetrized(S, H)


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
        c = float(coeff.real)
        G[i][j] += c / 2.0
        G[j][i] += c / 2.0
    return decompose_real_form(G)


# For n >= 3 the signatures read a copy of S and H scaled by 2^e, e the scale
# exponent, when |e| exceeds this; closer to 1 they read the cone's own form,
# whose eigenvalues are those of the copy's times 2^-e, far from _inertia's
# floor and from overflow.  For n = 2 they always read such a copy.
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
            (h00, _), (h10, h11) = cone.h2
            e = -exponent(h00.real, h11.real, *parts(h10))
            w0, w1, _ = eigh2(math.ldexp(h00.real, e), *scaled(e, h10), math.ldexp(h11.real, e))
            w = [w0, w1]
        else:
            import numpy as np
            e = _scale_exponent(cone.H)
            w = np.linalg.eigvalsh(cone.H if abs(e) <= PRESCALE_BAND else _ldexp_array(cone.H, e)).tolist()
        object.__setattr__(cone, "_hsig", HermitianSignature(*_inertia(w)))
    return cone._hsig


def real_signature(cone: QuadraticCone) -> RealSignature:
    """Inertia of the real form of rho on R^(2n), kept as for hermitian_signature.

    For n = 2 the eigenvalues are _jacobi4's, of the form of S and H times a
    power of two.  For n >= 3 they are eigvalsh's: when the scale exponent e
    of S and H is beyond PRESCALE_BAND, of the form built from copies of S
    and H times 2^e, so that the form evaluate_many keeps stays the cone's;
    otherwise of that kept form.
    """
    if cone._rsig is None:
        if cone.n == 2:
            (s00, s01), (_, s11) = cone.s2
            (h00, h01), (_, h11) = cone.h2
            w, _ = _jacobi4((s00, s01, s11), (h00, h01, h11))
        else:
            import numpy as np
            e = _scale_exponent(cone.S, cone.H)
            G = _form(_ldexp_array(cone.S, e), _ldexp_array(cone.H, e)) if abs(e) > PRESCALE_BAND else None
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
    import numpy as np
    disc = b * b - 4.0 * a * c
    # column k = root k of the row's equation; masked-out entries may hold inf or nan
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.sqrt(disc)
        linear = np.abs(a) < 1e-14 * (np.abs(b) + np.abs(c) + 1e-300)
        qq = -0.5 * (b + np.copysign(sq, b))
        roots = np.column_stack([np.where(linear, -c / b, qq / a), c / qq])
    real = ~(disc < 0)
    valid = np.column_stack([real & (~linear | (np.abs(b) > 0)), real & ~linear & (np.abs(qq) > 0)])
    f = np.flatnonzero(valid)  # 2 i + k, on the flat (row, root) order
    return f >> 1, f & 1, roots.take(f)


def _row_norms(Z):
    """np.linalg.norm(Z, axis=1) bitwise: its squares, summed in order below 8 columns and pairwise from 8."""
    import numpy as np
    s = (Z.conj() * Z).real
    if s.shape[1] >= 8:
        return np.sqrt(np.add.reduce(s, axis=1))
    return np.sqrt(sum((s[:, j] for j in range(1, s.shape[1])), s[:, 0]))


# The fewest directions sample_points solves and polishes at a time: a chunk
# of at least this many rows gets from evaluate_many's matrix product the
# same rho per row as the whole batch would.
SAMPLE_CHUNK_MIN = 256


def sample_points(cone: QuadraticCone, seed: int, count: int) -> np.ndarray:
    """Deterministic points on the cone as a (count, n) array, from random real 2-plane sections.

    Draws real directions u, v, solves the real quadratic rho(u + t v) = 0
    for t, keeps real roots and rescales each point into |z| <= 1 (the cone
    is homogeneous, so rescaling stays on it), then applies one Newton
    step along v.  A point is returned only if its residual |rho(p)| is at
    most SAMPLE_RESIDUAL_REL * |p|^2 * max(scale, 1).

    Reproducibility: the generator is numpy's default PCG64 seeded with
    `seed`.  Each batch of max(count, 256) directions makes the same draws
    in the same order (U, then V, then the rescale factors), and candidates
    are taken in the order direction, then root, until `count` are found
    or 64 batches are spent.  A batch's directions are solved and polished
    in order, a chunk at a time, and the work stops once `count` points
    pass: a direction gives at most two roots, so a chunk holds about half
    the points still needed, never fewer than SAMPLE_CHUNK_MIN directions,
    and takes in the rest of the batch rather than leave a shorter tail.
    Every step works row by row (rho by evaluate_many's real matrix
    product, whose rows do not depend on the other rows of a product of
    that many rows), so the points are bitwise those of solving the whole
    batch at once, and equal those of the equivalent per-point loop up to
    rounding.  The bits rest on numpy's complex multiply, which may use FMA
    (so no real-view x*x + y*y stands in for it), and on its row norms:
    _row_norms adds a row's squares as np.linalg.norm does, in order, and
    for n >= 8 in numpy's pairwise order.  Gathers and root indices move
    values without arithmetic.  Results are reproducible at fixed numpy
    and BLAS builds.
    """
    import numpy as np
    if count < 1:
        raise ConeError("count must be >= 1")
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
        lo = 0
        while lo < batch:
            hi = lo + max(-(-(count - found) // 2), SAMPLE_CHUNK_MIN)
            if batch - hi < SAMPLE_CHUNK_MIN:
                hi = batch
            P = _chunk_points(cone, U[lo:hi], V[lo:hi], scales[2 * lo : 2 * hi], scale)
            points.append(P)
            found += len(P)
            if found >= count:
                return (points[0] if len(points) == 1 else np.concatenate(points))[:count]
            lo = hi
    raise InsufficientSamples(
        f"found {found} of {count} requested cone points; rho may be (semi)definite"
    )


def _chunk_points(cone: QuadraticCone, U, V, scales, scale: float):
    """sample_points' points from the directions U, V (row i takes scales[2 i + k] for root k), in order."""
    import numpy as np
    a = evaluate_many(cone, V)
    c = evaluate_many(cone, U)
    # b, the real polarization term: rho(u + t v) = a t^2 + b t + c
    i, k, t = _real_roots(a, evaluate_many(cone, U + V) - a - c, c)
    # candidate-size arrays are made in place and dropped once used, so the
    # heap reuses their pages instead of faulting in new ones
    dv = V.take(i, axis=0)
    P = t[:, None] * dv
    P += U.take(i, axis=0)
    del a, c
    norm = _row_norms(P)
    far = ~(norm < 1e-9)
    if not far.all():
        i, k, P, norm, dv = i[far], k[far], P[far], norm[far], dv[far]
    P *= (scales[2 * i + k] / norm)[:, None]
    # one Newton polish along V to keep the residual at rounding level
    vnorm = np.maximum(_row_norms(V), 1e-300)
    dv *= (1.0 / vnorm[i])[:, None]
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
    ok = res <= SAMPLE_RESIDUAL_REL * _row_norms(P) ** 2 * scale
    return P if ok.all() else P[ok]


# reduction builds on this module (ConeError), so its 2x2 kernels come last
from .reduction import _ldexp, eigh2, exponent, norm2, parts, scaled  # noqa: E402
