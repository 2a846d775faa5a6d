"""Normal forms of quadratic cones in C^2 under linear biholomorphism.

classify2 reduces any cone in C^2 to the unique representative of its
equivalence class among seven types, returning the realizing change of
variables z = T z*, a positive scale and a sign such that

    sign * lambda * rho(T z) = rho_normal(z).

Degenerate inputs (the rendered set is a point, a lower-dimensional set, or
a union of two real hyperplanes) get a structured report instead.

normalize_hermitian puts the hermitian (Levi) part of a cone in C^n, n >= 3,
in its canonical position, and the slicer builds its two-dimensional
candidate slices in that frame.  classify2 starts from the same frame in
C^2, computed in closed form (_frame2).
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .quadform import (
    ConeError,
    QuadraticCone,
    canonical_sign,
    form_norm2,
    hermitian_signature,
    mat_norm,
    real_signature,
)
from .reduction import (
    E_HERM_ROWS,
    eigh2,
    exponent,
    norm2,
    parts,
    phase,
    scaled,
    sl2_reduce_sym,
    so11_zero_diag,
    takagi2,
)

TAGS = ("M20", "M11_1", "M11_2", "M11_3", "M10_1", "M10_2", "M00_1")

# The n = 2 reduction works on Python scalars: a 2x2 matrix M is the tuple
# (m00, m01, m10, m11), a symmetric one (m00, m01, m11).
# _CHOFVAR changes variables between the Im(z1 conj(z2)) frame and the
# |z1|^2 - |z2|^2 frame: CHOFVAR^* E_HERM CHOFVAR = diag(1, -1), and CHOFVAR
# is an involution up to the factor 2 (CHOFVAR @ CHOFVAR = 2 I).
_CHOFVAR = (1.0 + 0j, 1j, -1j, -1.0 + 0j)
_HALF_CHOFVAR = tuple(0.5 * z for z in _CHOFVAR)
_SWAP_NEG = (0j, 1.0 + 0j, 1.0 + 0j, 0j)  # z1 <-> z2
_ROT90 = (0j, -1.0 + 0j, 1.0 + 0j, 0j)  # SO(2): swaps diagonal entries
# (h00, h10, h11) of the canonical hermitian matrix of each n = 2 signature
_CANONICAL2 = {(2, 0): (1.0, 0j, 1.0), (1, 1): (0.0, -0.5j, 0.0), (1, 0): (1.0, 0j, 0.0), (0, 0): (0.0, 0j, 0.0)}
_TARGETS = {}  # normalize_hermitian's canonical target and its mat_norm per (n, pi, nu), built on first use

DETS_ZERO_REL = 1e-9  # |det S| <= this * ||S||^2 routes to the rank <= 1 analysis
DETP_ZERO_REL = 1e-9  # |det P| threshold for the case split on sign(det P)
P_ZERO_REL = 1e-6  # ||P|| below this * ||S|| counts as P = 0 in the det P = 0 case
M20_BOUNDARY_TOL = 1e-9  # A <= 1 + tol is dimension-deficient: M20's A and (1,0)'s |A| with B = C = 0
RESIDUAL_REL = 1e-8
LOW_CONFIDENCE_FACTOR = 10.0
CHANGE_HADAMARD_MIN = 1e-12  # |det T| / prod |t_j| at or below this: T is singular


class SingularMatrix(ConeError):
    pass


class UnsupportedSignature(ConeError):
    pass


class _NormalFormFields(NamedTuple):
    tag: str
    a: complex | float | None = None
    b: float | None = None


class NormalFormType(_NormalFormFields):
    """A table entry: tag plus its parameters, validated against the ranges and stored as params() returns them."""

    __slots__ = ()

    def __new__(cls, tag, a=None, b=None):
        if tag not in TAGS:
            raise ConeError(f"unknown normal form tag {tag!r}")
        if tag == "M20":
            if not (0 <= b <= a and a > 1):
                raise ConeError(f"M20 requires 0 <= B <= A and A > 1, got A={a}, B={b}")
        elif tag == "M11_1":
            if not (0 <= b <= a):
                raise ConeError(f"M11_1 requires 0 <= B <= A, got A={a}, B={b}")
        elif tag == "M11_2":
            a = complex(a)
            if not (a.real > 0 and a.imag >= 0):
                raise ConeError(f"M11_2 requires Re A > 0 and Im A >= 0, got A={a}")
            if b is not None:
                raise ConeError("M11_2 takes a single complex parameter")
        elif tag == "M10_1":
            if not (a >= 0):
                raise ConeError(f"M10_1 requires A >= 0, got A={a}")
            if b is not None:
                raise ConeError("M10_1 takes a single real parameter")
        elif a is not None or b is not None:
            raise ConeError(f"{tag} takes no parameters")
        if tag in ("M20", "M11_1", "M10_1"):
            a, b = float(a), None if b is None else float(b)
        return super().__new__(cls, tag, a, b)

    def params(self) -> tuple:
        return tuple(x for x in self[1:] if x is not None)


class NormalFormResult(NamedTuple):
    """T is the change of variables as rows ((t00, t01), (t10, t11)) of Python complex."""

    ntype: NormalFormType
    T: tuple
    lam: float
    sign: int
    residual: float
    boundary_margin: float
    residual_bound: float  # RESIDUAL_REL * scale of the rendered normal form; decide2 rejects a larger residual

    @property
    def tag(self) -> str:
        return self.ntype.tag

    @property
    def low_confidence(self) -> bool:
        return bool(self.boundary_margin < LOW_CONFIDENCE_FACTOR)


class DegeneracyReport(NamedTuple):
    reason: str  # DimensionDeficient | Reducible | PointCone | UnclassifiedBoundary
    detail: str


def _table_form(ntype: NormalFormType) -> tuple[tuple, tuple]:
    """The table's (S, H) for a given type, as (s00, s01, s11) and (h00, h01, h11)."""
    tag, a, b = ntype.tag, ntype.a, ntype.b
    if tag == "M20":
        return (a, 0.0, b), (1.0, 0.0, 1.0)
    if tag == "M11_1":
        return (a, 0.0, b), (1.0, 0.0, -1.0)
    if tag == "M11_2":
        return (a, 0.0, a.conjugate()), (0.0, 0.5j, 0.0)  # H = E_HERM_ROWS
    if tag == "M11_3":
        return (1.0, 0.0, 0.0), (0.0, 0.5j, 0.0)
    if tag == "M10_1":
        return (a, 0.0, 1.0), (1.0, 0.0, 0.0)
    if tag == "M10_2":
        return (0.0, 0.5, 0.0), (1.0, 0.0, 0.0)
    if tag == "M00_1":
        return (1.0, 0.0, 1.0), (0.0, 0.0, 0.0)
    raise ConeError(tag)


def render_cone(ntype: NormalFormType) -> QuadraticCone:
    """The table's defining function for a given type, as a cone.

    Every table form is symmetric / hermitian by construction, so it skips
    the checked constructor.
    """
    (s00, s01, s11), (h00, h01, h11) = _table_form(ntype)
    return QuadraticCone._symmetrized(((s00, s01), (s01, s11)), ((h00, h01), (h01.conjugate(), h11)))


def _hadamard_ratio2(t00: complex, t01: complex, t10: complex, t11: complex) -> float:
    """|det T| / prod |t_j| of T = [[t00, t01], [t10, t11]], the |det| of T with unit columns.

    In [0, 1] and 0 iff T is singular, whatever the scale of T or of single
    columns: each column is divided by its largest part before its norm is
    taken, so no column norm overflows or underflows.
    """
    big0 = max(map(abs, parts(t00, t10)))
    big1 = max(map(abs, parts(t01, t11)))
    if not (big0 and big1):
        return 0.0
    a0, a1, b0, b1 = t00 / big0, t10 / big0, t01 / big1, t11 / big1
    return abs(a0 * b1 - b0 * a1) / (math.hypot(*parts(a0, a1)) * math.hypot(*parts(b0, b1)))


def _mul(A: tuple, B: tuple) -> tuple:
    """The 2x2 product A B."""
    a00, a01, a10, a11 = A
    b00, b01, b10, b11 = B
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11, a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _congruence(M: tuple, S: tuple) -> tuple:
    """0.5 (X + X^T) for X = M^T S M, S symmetric: the harmonic part's congruence."""
    m00, m01, m10, m11 = M
    s00, s01, s11 = S
    a0, b0 = s00 * m00 + s01 * m10, s01 * m00 + s11 * m10  # S M, first column
    a1, b1 = s00 * m01 + s01 * m11, s01 * m01 + s11 * m11
    return (m00 * a0 + m10 * b0, 0.5 * ((m00 * a1 + m10 * b1) + (m01 * a0 + m11 * b0)), m01 * a1 + m11 * b1)


def _hermitian_congruence(M: tuple, H: tuple) -> tuple:
    """(y00, y01, y11) of the hermitian part of M^* H M, H = (h00, h01, h11) hermitian."""
    m00, m01, m10, m11 = M
    h00, h01, h11 = H
    h10 = h01.conjugate()
    a0, b0 = h00 * m00 + h01 * m10, h10 * m00 + h11 * m10  # H M, first column
    a1, b1 = h00 * m01 + h01 * m11, h10 * m01 + h11 * m11
    c00, c01, c10, c11 = (m.conjugate() for m in M)
    x01, x10 = c00 * a1 + c10 * b1, c01 * a0 + c11 * b0
    return ((c00 * a0 + c10 * b0).real, 0.5 * (x01 + x10.conjugate()), (c01 * a1 + c11 * b1).real)


def normalize_hermitian(cone: QuadraticCone) -> tuple[np.ndarray, np.ndarray]:
    """(W, S1), n >= 3: W with W^* H W canonical, and S1 the harmonic part pulled back through W.

    The canonical matrix is diag(1, ..., 1, -1, ..., -1, 0, ..., 0) with the
    counts of hermitian_signature, or Im(z1 conj(z2)) + 0 for signature
    (1,1).  W comes from one eigh(H): the positive eigenvectors by
    descending eigenvalue (equal ones in eigh's order), then the negative
    ones from the most negative, each divided by sqrt(|eigenvalue|), then
    the kernel divided by sqrt(max |eigenvalue|) (unit length when H = 0),
    so every column scales like 1/sqrt(lambda) under rho -> lambda rho and S1
    does not depend on the cone's scale; for (1,1) the first two columns are
    composed with CHOFVAR / 2.  W = I / sqrt(c) when H is within 1e-12
    (relative) of c times its canonical matrix, c the power of four nearest
    the ratio of their norms: such inputs keep their own coordinates up to a
    power of two.  Other inputs with equal eigenvalues (H = 2 I, or a
    non-diagonal H) keep eigh's order of them.  Flip the sign of rho first
    when nu > pi.  For n = 2, classify2 reads the same frame from _frame2.

    S1 = 0.5 (X + X^T) with X = W^T S W, the harmonic part of rho(W z); W's
    columns are orthogonal, so it is nonsingular.
    """
    import numpy as np
    n = cone.n
    if n < 3:
        raise ConeError("normalize_hermitian expects n >= 3")
    pi, nu = hermitian_signature(cone)
    if nu > pi:
        raise UnsupportedSignature(
            f"hermitian signature {(pi, nu)} is not canonical; negate the cone first"
        )
    if (n, pi, nu) not in _TARGETS:
        target = np.diag([1.0] * pi + [-1.0] * nu + [0.0] * (n - pi - nu)).astype(complex)
        if (pi, nu) == (1, 1):
            target[:2, :2] = E_HERM_ROWS
        target.setflags(write=False)  # kept with its mat_norm
        _TARGETS[n, pi, nu] = target, math.sqrt(0.5 if (pi, nu) == (1, 1) else pi + nu)
    target, t = _TARGETS[n, pi, nu]
    h = mat_norm(cone.H)
    # r = 1 / sqrt(c), c the power of four nearest h / t; scalings by powers of
    # two are exact, so 4^j times the target gets r = 2^-j
    r = math.ldexp(1.0, -round(math.log2(h / t) / 2)) if h and t else 1.0
    canonical = mat_norm(r * (r * cone.H) - target) <= 1e-12 * max(r * r * h, 1e-300)
    if canonical:
        W = r * np.eye(n, dtype=complex)
    else:
        w, V = np.linalg.eigh(cone.H)  # ascending: nu negative, the kernel, pi positive
        w = w.tolist()
        order = sorted(range(n - pi, n), key=lambda k: -w[k]) + list(range(n - pi))  # a stable sort
        kernel = math.sqrt(max(-w[0], w[-1])) or 1.0
        root = [math.sqrt(abs(w[k])) for k in order[: pi + nu]] + [kernel] * (n - pi - nu)
        # C-contiguous: the rounding of the products with W depends on its layout
        W = np.ascontiguousarray(V[:, order] / root)
        if (pi, nu) == (1, 1):
            W[:, :2] = W[:, :2] @ np.reshape(_HALF_CHOFVAR, (2, 2))
    X = W.T @ cone.S @ W
    return W, 0.5 * (X + X.T)


def _frame2(cone: QuadraticCone, pi: int, nu: int) -> tuple:
    """The hermitian frame W of a cone in C^2 with signature (pi, nu), pi >= nu, in closed form.

    normalize_hermitian's recipe for n = 2, as entries (w00, w01, w10, w11).
    One power of two first brings the entries of H to at most 1, so nothing
    over- or underflows, and 2^-k H (k even) gets exactly 2^(k/2) W.  The
    eigenpairs come from eigh2, which keeps LAPACK's signs and phases.
    """
    (h00, _), (h10, h11) = cone.h2
    h00, h11 = h00.real, h11.real
    if not (h00 or h10 or h11):
        return (1.0 + 0j, 0j, 0j, 1.0 + 0j)
    e = exponent(h00, h11, *parts(h10))
    h00, h11 = math.ldexp(h00, -e), math.ldexp(h11, -e)
    (h10,) = scaled(-e, h10)
    # r = 1 / sqrt(c), c the power of four nearest ||H|| / ||target||: c = 4^j
    t00, t10, t11 = _CANONICAL2[pi, nu]
    t, h = norm2(t00, t10, t11), norm2(h00, h10, h11)  # ||target||, ||H|| 2^-e
    j = round((math.log2(h / t) + e) / 2) if t else 0
    c = math.ldexp(1.0, e - 2 * j)  # r^2 2^e: c h00 is r^2 times the input's entry
    if norm2(c * h00 - t00, c * h10 - t10, c * h11 - t11) <= 1e-12 * max(c * h, 1e-300):
        r = complex(math.ldexp(1.0, -j))
        return (r, 0j, 0j, r)
    w0, w1, (v00, v01, v10, v11) = eigh2(h00, h10, h11)
    # eigh's order stays for (0, 0) and for (2, 0) with equal eigenvalues
    keep = pi == 0 or (pi == 2 and not w1 > w0)
    # the eigenvalues are 2^e (w0, w1); sqrt takes the even part of e out as f
    odd = e % 2
    w0, w1 = abs(w0) * (1 + odd), abs(w1) * (1 + odd)
    f = math.ldexp(1.0, -(e - odd) // 2)
    kernel = math.sqrt(max(w0, w1))
    if keep:  # every column's root is the largest one
        W = (v00 / kernel * f, v01 / kernel * f, v10 / kernel * f, v11 / kernel * f)
    else:  # the top eigenvalue first, then the other one or the kernel
        rb = math.sqrt(w0) if pi + nu == 2 else kernel
        ra = math.sqrt(w1)
        W = (v01 / ra * f, v00 / rb * f, v11 / ra * f, v10 / rb * f)
    return _mul(W, _HALF_CHOFVAR) if (pi, nu) == (1, 1) else W


class _Chain:
    """Accumulates (T, lam, sign) while carrying the transformed harmonic part S along.

    Invariant: S is the harmonic part of sign * lam * rho_original(T z).  S
    = (s00, s01, s11) and T = (t00, t01, t10, t11) are Python scalars.  No
    step reads the hermitian part, and no step builds a cone: _finish pulls
    the input back through the composed T once.
    """

    def __init__(self, S: tuple, T: tuple, sign: int):
        self.S = S
        self.T = T
        self.lam = 1.0
        self.sign = sign

    def push_T(self, M: tuple):
        self.S = _congruence(M, self.S)
        self.T = _mul(self.T, M)

    def push_scale(self, c: float):
        self.S = tuple(c * s for s in self.S)
        self.lam *= c

    def push_negate(self):
        self.S = tuple(-s for s in self.S)
        self.sign = -self.sign

    def real(self) -> tuple:
        return tuple(s.real for s in self.S)

    def imag(self) -> tuple:
        return tuple(s.imag for s in self.S)


def _zero_test(margins: dict[str, float], key: str, value, thr: float) -> bool:
    """Whether |value| <= thr, recording the margin on the side taken.

    |value| / thr when nonzero, thr / |value| (inf at an exact 0) when zero.
    """
    value = abs(value)
    zero = value <= thr
    if zero:
        margins[key] = thr / value if value > 0 else float("inf")
    else:
        margins[key] = value / thr
    return zero


def _finish(
    cone: QuadraticCone, chain: _Chain, ntype: NormalFormType, margins: dict[str, float]
) -> NormalFormResult:
    """The result for the reported (T, lam, sign), with its exact residual.

    The composed T passes the singularity test _hadamard_ratio2, the input cone is
    pulled back through it once, and the residual is the largest |difference|
    of that pullback and the normal form on |z| = 1.
    """
    T = chain.T
    if not _hadamard_ratio2(*T) > CHANGE_HADAMARD_MIN:
        raise SingularMatrix("change of variables is numerically singular")
    c = chain.sign * chain.lam
    (s00, s01), (_, s11) = cone.s2
    (h00, h01), (_, h11) = cone.h2
    S = _congruence(T, (s00, s01, s11))
    H = _hermitian_congruence(T, (h00.real, h01, h11.real))
    St, Ht = _table_form(ntype)
    scale = norm2(*St) + norm2(*Ht)
    dS = tuple(c * x - t for x, t in zip(S, St))
    dH = tuple(c * x - t for x, t in zip(H, Ht))
    margin = float(min(margins.values())) if margins else float("inf")
    return NormalFormResult(
        ntype=ntype,
        T=(T[:2], T[2:]),
        lam=chain.lam,
        sign=chain.sign,
        residual=form_norm2(dS, dH),
        boundary_margin=margin,
        residual_bound=RESIDUAL_REL * scale,
    )


def _diag_phase_fix(chain: _Chain) -> None:
    """Absorb the phases of the diagonal harmonic coefficients.

    Valid in the diag(1,-1) (or any diagonal) hermitian frame: diagonal
    phase matrices are congruence-trivial on the hermitian part.
    """
    s00, _, s11 = chain.S
    # phase(0) = 0, so zero coefficients are untouched
    chain.push_T((cmath.rect(1.0, -0.5 * phase(s00)), 0j, 0j, cmath.rect(1.0, -0.5 * phase(s11))))


def _classify_sig20(chain: _Chain, margins) -> NormalFormType | DegeneracyReport:
    tak = takagi2(chain.S)
    chain.push_T(tak.u)
    A, B = tak.d
    margins["m20_dimension"] = abs(A - 1.0) / M20_BOUNDARY_TOL
    if A <= 1.0 + M20_BOUNDARY_TOL:
        return DegeneracyReport(
            "DimensionDeficient",
            f"hermitian signature (2,0) with largest harmonic coefficient A={A:.12g} <= 1: "
            "the rendered set has real dimension < 3",
        )
    return NormalFormType("M20", a=A, b=B)


def _case_m11_2(chain: _Chain) -> NormalFormType:
    """det P > 0: reduce to Re(A z1^2 + conj(A) z2^2) + Im(z1 conj(z2))."""
    g, canon = sl2_reduce_sym(chain.real())
    chain.push_T(g)
    s = 1.0 if canon[0] > 0 else -1.0
    q = chain.imag()
    e = exponent(*q)
    q00, q01, q11 = (math.ldexp(x, -e) for x in q)
    _, _, (k00, k01, k10, k11) = eigh2(q00, complex(q01), q11)  # ascending
    if (k00 * k11 - k01 * k10).real < 0:
        k01, k11 = -k01, -k11
    chain.push_T((k01, -k00, k11, -k10))  # descending order, det kept at +1
    if s < 0:
        chain.push_T((1j, 0j, 0j, 1j))  # flips S; hermitian part untouched
        chain.push_T(_ROT90)  # restore Im >= 0 in the first slot
    s00, _, s11 = chain.S
    a = 0.5 * (s00 + s11.conjugate())
    a = complex(max(a.real, 1e-300), max(a.imag, 0.0))
    return NormalFormType("M11_2", a=a)


def _case_m11_1(chain: _Chain) -> tuple[float, float]:
    """det P < 0 (det S >= 0): reduce to Re(A z1^2 + B z2^2) + |z1|^2 - |z2|^2; returns (A, B)."""
    g, _ = sl2_reduce_sym(chain.real())
    chain.push_T(g)
    k, _ = so11_zero_diag(chain.imag())
    chain.push_T(k)
    chain.push_T(_CHOFVAR)  # hermitian part becomes |z1|^2 - |z2|^2
    _diag_phase_fix(chain)
    A, _, B = chain.real()
    if B > A:
        chain.push_T(_SWAP_NEG)
        chain.push_negate()
        _diag_phase_fix(chain)
        A, _, B = chain.real()
    return max(A, 0.0), min(max(B, 0.0), max(A, 0.0))


def _case_m11_1_equal(chain: _Chain) -> NormalFormType:
    """det P ~ 0 with P ~ 0: the A = B stratum of type M11_1."""
    g, _ = sl2_reduce_sym(chain.imag())
    chain.push_T(g)
    chain.push_T(_CHOFVAR)
    _diag_phase_fix(chain)
    s00, _, s11 = chain.S
    A = 0.5 * (abs(s00) + abs(s11))
    # force the exact stratum; deviations land in the residual
    return NormalFormType("M11_1", a=float(A), b=float(A))


def _case_m11_3(chain: _Chain, w: tuple) -> NormalFormType:
    """Rank-one S = c w w^T, c > 0, with w parallel to a real direction: type M11_3."""
    w0, w1 = w
    rot = cmath.rect(1.0, -phase(w0 if abs(w0) >= abs(w1) else w1))
    u0, u1 = (w0 * rot).real, (w1 * rot).real
    norm = math.hypot(u0, u1)
    u0, u1 = u0 / norm, u1 / norm
    chain.push_T((complex(u0), complex(-u1), complex(u1), complex(u0)))  # R^T, R = [[u0, u1], [-u1, u0]] takes u to e1
    sigma = 1.0 / cmath.sqrt(chain.S[0])
    chain.push_T((sigma, 0j, 0j, 1.0 / sigma.conjugate()))  # preserves Im(z1 conj(z2))
    return NormalFormType("M11_3")


def _classify_sig11(chain: _Chain, margins) -> NormalFormType | DegeneracyReport:
    s00, s01, s11 = chain.S
    if norm2(s00, s01, s11) <= 1e-12:
        # S = 0 against the unit-scale hermitian frame: Im(z1 conj(z2)) alone
        chain.push_T(_CHOFVAR)
        return NormalFormType("M11_1", a=0.0, b=0.0)

    # the tests below read S times an even power of two that brings its
    # entries to at most 1: det S and det P neither overflow nor underflow,
    # and their ratios to ||S||^2 do not change
    e = exponent(*parts(s00, s01, s11))
    e += e % 2
    s00, s01, s11 = scaled(-e, s00, s01, s11)
    ns = norm2(s00, s01, s11)
    detS = s00 * s11 - s01 * s01
    if not _zero_test(margins, "m11_det_s", detS, DETS_ZERO_REL * (ns * ns)):
        turn = cmath.rect(1.0, -0.25 * phase(detS))
        chain.push_T((turn, 0j, 0j, turn))  # det S becomes |det S| > 0
        p00, p01, p11 = (math.ldexp(x, -e) for x in chain.real())
        dp = p00 * p11 - p01 * p01
        if not _zero_test(margins, "m11_det_p", dp, DETP_ZERO_REL * (ns * ns)):
            if dp > 0:
                return _case_m11_2(chain)
            A, B = _case_m11_1(chain)
            return NormalFormType("M11_1", a=A, b=B)
        if _zero_test(margins, "m11_p_zero", norm2(p00, p01, p11), P_ZERO_REL * ns):
            return _case_m11_1_equal(chain)
        # det S > 0 with det P = 0 but P != 0: rank-one P.  No table row has
        # these invariants (det P and rank P are frame-invariants here), and
        # the SO(1,1) diagonal-zeroing step is unsolvable on this stratum.
        # Such cones contain a complex line and are non-minimal.
        return DegeneracyReport(
            "UnclassifiedBoundary",
            "hermitian signature (1,1) with det S != 0, det P = 0 and P != 0 after the "
            "determinant-positivizing rotation: outside the normal-form table "
            "(the cone contains a complex line and is non-minimal)",
        )

    # det S ~ 0: S has rank <= 1, and a diagonal entry is far from 0 (were both
    # below 1e-12 ||S||, |det S| would be about ||S||^2 / 2); S = w w^T
    # with w its column through that entry, over the entry's square root
    col, pivot = ((s00, s01), s00) if abs(s00) >= abs(s11) else ((s01, s11), s11)
    root = cmath.sqrt(pivot)
    w = (col[0] / root, col[1] / root)
    d = w[0].real * w[1].imag - w[1].real * w[0].imag
    wn = math.hypot(*parts(*w))
    if not _zero_test(margins, "m11_rank1_area", d, 1e-10 * (wn * wn)):
        # det P = -d^2 < 0 and det Q = det P - Re(det S) <= 0: the generic
        # indefinite-P machinery applies and lands on M11_1 with one
        # vanishing coefficient; snap it
        A, _ = _case_m11_1(chain)
        return NormalFormType("M11_1", a=A, b=0.0)
    return _case_m11_3(chain, w)


def _classify_sig10(chain: _Chain, margins) -> NormalFormType | DegeneracyReport:
    A0, B0, C0 = chain.S
    thr = 1e-9 * max(norm2(A0, B0, C0), 1e-300)
    if not _zero_test(margins, "m10_c", C0, thr):
        alpha = A0 - B0 * B0 / C0
        rC = cmath.sqrt(C0)
        # z = W^-1 z* with W = [[e^(i theta), 0], [B0 / rC, rC]], theta half alpha's phase
        turn = cmath.rect(1.0, 0.5 * phase(alpha))
        chain.push_T((1.0 / turn, 0j, -B0 / (rC * rC * turn), 1.0 / rC))
        return NormalFormType("M10_1", a=float(abs(alpha)))
    if not _zero_test(margins, "m10_b", B0, thr):
        # W = [[1, 0], [A0, 2 B0]]
        chain.push_T((1.0 + 0j, 0j, -A0 / (2.0 * B0), 1.0 / (2.0 * B0)))
        return NormalFormType("M10_2")
    absA = abs(A0)
    margins["m10_a_boundary"] = abs(absA - 1.0) / M20_BOUNDARY_TOL
    if absA <= 1.0 + M20_BOUNDARY_TOL:
        return DegeneracyReport(
            "DimensionDeficient",
            f"hermitian signature (1,0) with B = C = 0 and |A| = {absA:.12g} <= 1: "
            "the rendered set has real dimension < 3",
        )
    return DegeneracyReport(
        "Reducible",
        f"hermitian signature (1,0) with B = C = 0 and |A| = {absA:.12g} > 1: "
        "rho factors into two real linear forms",
    )


def _classify_sig00(chain: _Chain, margins) -> NormalFormType | DegeneracyReport:
    tak = takagi2(chain.S)
    d1, d2 = tak.d
    if _zero_test(margins, "m00_rank", d2, 1e-9 * d1):
        return DegeneracyReport(
            "Reducible", "harmonic part has rank one: Re(c z^2) factors into real linear forms"
        )
    chain.push_scale(1.0 / d1)
    chain.push_T(tak.u)
    chain.push_T((1.0 + 0j, 0j, 0j, complex(math.sqrt(d1 / d2))))
    return NormalFormType("M00_1")


_BY_SIGNATURE = {
    (2, 0): _classify_sig20, (1, 1): _classify_sig11, (1, 0): _classify_sig10, (0, 0): _classify_sig00
}


def real_degeneracy(cone: QuadraticCone) -> DegeneracyReport | None:
    """The degeneracy the real signature (p, q) of rho shows, in any C^n; None if none.

    Definite rho (max(p, q) = 2n) renders {0}, semidefinite rho a real
    subspace, and real signature (1,1) a product of two real linear forms.
    """
    rsig = real_signature(cone)
    p, q = rsig.p, rsig.q
    if min(p, q) == 0:
        if max(p, q) == 2 * cone.n:
            return DegeneracyReport("PointCone", "rho is definite: the rendered set is {0}")
        return DegeneracyReport(
            "DimensionDeficient",
            f"rho is semidefinite with real signature {(p, q)}: the rendered set is a real "
            "subspace, not a hypersurface with two sides",
        )
    if p == 1 and q == 1:
        return DegeneracyReport(
            "Reducible", "real signature (1,1): rho is a product of two real linear forms"
        )
    return None


def classify2(cone: QuadraticCone) -> NormalFormResult | DegeneracyReport:
    """Classify a cone in C^2, returning its normal form or a degeneracy report."""
    if cone.n != 2:
        raise ConeError("classify2 handles n = 2 only")
    cone0, flip = canonical_sign(cone)
    degenerate = real_degeneracy(cone0)
    if degenerate is not None:
        return degenerate

    margins: dict[str, float] = {}
    # canonical_sign leaves pi >= nu, so n = 2 has these four signatures
    pi, nu = hermitian_signature(cone0)
    reduce = _BY_SIGNATURE[pi, nu]
    try:
        W = _frame2(cone0, pi, nu)
        (s00, s01), (_, s11) = cone0.s2
        chain = _Chain(_congruence(W, (s00, s01, s11)), W, flip)
        ntype = reduce(chain, margins)
        if isinstance(ntype, DegeneracyReport):
            return ntype
        return _finish(cone, chain, ntype, margins)
    except (ConeError, ArithmeticError) as exc:
        # a reduction step passed the scale-invariant routing thresholds but
        # turned out numerically unusable at this input: a singular or
        # unreachable step (ConeError, also a non-finite parameter that the
        # table rejects, or a non-finite residual form), or a Python scalar
        # that overflowed or was divided by zero (ArithmeticError)
        return DegeneracyReport(
            "UnclassifiedBoundary",
            f"ill-conditioned reduction near a case boundary: {exc}",
        )
