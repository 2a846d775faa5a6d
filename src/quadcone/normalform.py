"""Normal forms of quadratic cones in C^2 under linear biholomorphism.

classify2 reduces any cone in C^2 to the unique representative of its
equivalence class among seven types, returning the realizing change of
variables z = T z*, a positive scale and a sign such that

    sign * lambda * rho(T z) = rho_normal(z).

Degenerate inputs (the rendered set is a point, a lower-dimensional set, or
a union of two real hyperplanes) get a structured report instead.

normalize_hermitian puts the hermitian (Levi) part of a cone in any C^n in
its canonical position.  classify2 starts from that frame, and the slicer
builds its two-dimensional candidate slices in the same frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadform import (
    ConeError,
    QuadraticCone,
    canonical_sign,
    form_distance,
    hermitian_signature,
    mat_norm,
    real_signature,
)
from .reduction import E_HERM, So11Unreachable, ZeroMatrix, sl2_reduce_sym, so11_zero_diag, takagi2

TAGS = ("M20", "M11_1", "M11_2", "M11_3", "M10_1", "M10_2", "M00_1")

# Change of variables between the Im(z1 conj(z2)) frame and the
# |z1|^2 - |z2|^2 frame: CHOFVAR^* E_HERM CHOFVAR = diag(1, -1), and
# CHOFVAR is an involution up to the factor 2 (CHOFVAR @ CHOFVAR = 2 I).
CHOFVAR = np.array([[1.0, 1.0j], [-1.0j, -1.0]], dtype=complex)

DETS_ZERO_REL = 1e-9  # |det S| <= this * ||S||^2 routes to the rank <= 1 analysis
DETP_ZERO_REL = 1e-9  # |det P| threshold for the case split on sign(det P)
P_ZERO_REL = 1e-6  # ||P|| below this * ||S|| counts as P = 0 in the det P = 0 case
M20_BOUNDARY_TOL = 1e-9  # A <= 1 + tol is dimension-deficient for type M20
RESIDUAL_REL = 1e-8
LOW_CONFIDENCE_FACTOR = 10.0
CHANGE_HADAMARD_MIN = 1e-12  # |det T| / prod |t_j| at or below this: T is singular


class SingularMatrix(ConeError):
    pass


class UnsupportedSignature(ConeError):
    pass


@dataclass(frozen=True)
class NormalFormType:
    """A table entry: tag plus its parameters, validated against the ranges."""

    tag: str
    a: complex | float | None = None
    b: float | None = None

    def __post_init__(self):
        if self.tag not in TAGS:
            raise ConeError(f"unknown normal form tag {self.tag!r}")
        a, b = self.a, self.b
        if self.tag == "M20":
            if not (0 <= b <= a and a > 1):
                raise ConeError(f"M20 requires 0 <= B <= A and A > 1, got A={a}, B={b}")
        elif self.tag == "M11_1":
            if not (0 <= b <= a):
                raise ConeError(f"M11_1 requires 0 <= B <= A, got A={a}, B={b}")
        elif self.tag == "M11_2":
            a = complex(a)
            if not (a.real > 0 and a.imag >= 0):
                raise ConeError(f"M11_2 requires Re A > 0 and Im A >= 0, got A={a}")
            if b is not None:
                raise ConeError("M11_2 takes a single complex parameter")
        elif self.tag == "M10_1":
            if not (a >= 0):
                raise ConeError(f"M10_1 requires A >= 0, got A={a}")
            if b is not None:
                raise ConeError("M10_1 takes a single real parameter")
        else:
            if a is not None or b is not None:
                raise ConeError(f"{self.tag} takes no parameters")

    def params(self) -> tuple:
        if self.tag in ("M20", "M11_1"):
            return (float(np.real(self.a)), float(self.b))
        if self.tag == "M11_2":
            return (complex(self.a),)
        if self.tag == "M10_1":
            return (float(np.real(self.a)),)
        return ()


@dataclass(frozen=True)
class NormalFormResult:
    ntype: NormalFormType
    T: np.ndarray
    lam: float
    sign: int
    residual: float
    boundary_margin: float = float("inf")
    # RESIDUAL_REL * scale of the rendered normal form, set by classify2;
    # decide2 rejects a larger residual.  A hand-built result has no bound.
    residual_bound: float = float("inf")

    @property
    def tag(self) -> str:
        return self.ntype.tag

    @property
    def low_confidence(self) -> bool:
        return bool(self.boundary_margin < LOW_CONFIDENCE_FACTOR)


@dataclass(frozen=True)
class DegeneracyReport:
    reason: str  # DimensionDeficient | Reducible | PointCone | UnclassifiedBoundary
    detail: str


def render_cone(ntype: NormalFormType) -> QuadraticCone:
    """The table's defining function for a given type, as a cone.

    Every table form is symmetric / hermitian by construction, so it skips
    the checked constructor; both matrices are complex, as that constructor
    would have made them.
    """
    tag = ntype.tag
    if tag == "M20":
        S, H = np.diag([ntype.a, ntype.b]), np.eye(2)
    elif tag == "M11_1":
        S, H = np.diag([ntype.a, ntype.b]), np.diag([1.0, -1.0])
    elif tag == "M11_2":
        a = complex(ntype.a)
        S, H = np.diag([a, np.conj(a)]), E_HERM
    elif tag == "M11_3":
        S, H = np.diag([1.0, 0.0]), E_HERM
    elif tag == "M10_1":
        S, H = np.diag([ntype.a, 1.0]), np.diag([1.0, 0.0])
    elif tag == "M10_2":
        S, H = np.array([[0.0, 0.5], [0.5, 0.0]]), np.diag([1.0, 0.0])
    elif tag == "M00_1":
        S, H = np.eye(2), np.zeros((2, 2))
    else:
        raise ConeError(tag)
    return QuadraticCone._symmetrized(S.astype(complex), H.astype(complex))


def _hadamard_ratio(T: np.ndarray) -> float:
    """|det T| / prod |t_j|, the |det| of T with unit columns.

    In [0, 1] and 0 iff T is singular, whatever the scale of T or of single
    columns.  Each column is divided by its largest entry before its norm is
    taken, so no column norm overflows or underflows.
    """
    big = np.abs(T).max(axis=0)
    if not big.all():
        return 0.0
    U = T / big
    return abs(np.linalg.det(U / np.linalg.norm(U, axis=0)))


def apply_change(cone: QuadraticCone, T, lam: float = 1.0, sign: int = 1) -> QuadraticCone:
    """Pull rho back through z -> T z and rescale: the congruence action.

    evaluate(result, z) == sign * lam * evaluate(cone, T @ z) identically.
    """
    T = np.asarray(T, dtype=complex)
    if not _hadamard_ratio(T) > CHANGE_HADAMARD_MIN:
        raise SingularMatrix("change of variables is numerically singular")
    if lam <= 0:
        raise ConeError("lambda must be positive")
    if sign not in (1, -1):
        raise ConeError("sign must be +1 or -1")
    S = sign * lam * (T.T @ cone.S @ T)
    H = sign * lam * (T.conj().T @ cone.H @ T)
    return QuadraticCone._symmetrized(S, H)


def normalize_hermitian(cone: QuadraticCone) -> tuple[np.ndarray, np.ndarray]:
    """(W, S1): W with W^* H W canonical, and S1 the harmonic part pulled back through W.

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
    the ratio of their norms, in any C^n: such inputs keep their own
    coordinates up to a power of two.  Other inputs with equal eigenvalues
    (H = 2 I, or a non-diagonal H) keep eigh's order of them.  Flip the sign
    of rho first when nu > pi.

    S1 = 0.5 (X + X^T) with X = W^T S W is bitwise the harmonic part of
    apply_change(cone, W); W's columns are orthogonal, so it is nonsingular.
    """
    n = cone.n
    pi, nu = hermitian_signature(cone).as_tuple()
    if nu > pi:
        raise UnsupportedSignature(
            f"hermitian signature {(pi, nu)} is not canonical; negate the cone first"
        )
    target = np.diag([1.0] * pi + [-1.0] * nu + [0.0] * (n - pi - nu)).astype(complex)
    t = math.sqrt(pi + nu)  # mat_norm(target)
    if (pi, nu) == (1, 1):
        target[:2, :2] = E_HERM
        t = math.sqrt(0.5)
    h = mat_norm(cone.H)
    # r = 1 / sqrt(c), c the power of four nearest h / t; scalings by powers of
    # two are exact, so 4^j times the target gets r = 2^-j
    r = math.ldexp(1.0, -round(math.log2(h / t) / 2)) if h and t else 1.0
    canonical = mat_norm(r * (r * cone.H) - target) <= 1e-12 * max(r * r * h, 1e-300)
    if canonical:
        W = r * np.eye(n, dtype=complex)
    else:
        w, V = np.linalg.eigh(cone.H)  # ascending: nu negative, the kernel, pi positive
        order = np.concatenate([n - pi + np.argsort(-w[n - pi :], kind="stable"), np.arange(n - pi)])
        root = np.sqrt(np.abs(w[order]))
        root[pi + nu :] = np.sqrt(np.max(np.abs(w))) or 1.0
        # C-contiguous: the rounding of the products with W depends on its layout
        W = np.ascontiguousarray(V[:, order] / root)
        if (pi, nu) == (1, 1):
            W[:, :2] = W[:, :2] @ (0.5 * CHOFVAR)
    X = W.T @ cone.S @ W
    return W, 0.5 * (X + X.T)


class _Chain:
    """Accumulates (T, lam, sign) while carrying the transformed harmonic part S along.

    Invariant: S is the harmonic part of sign * lam * rho_original(T z).  No
    step reads the hermitian part, and no step builds a cone: _finish pulls
    the input back through the composed T once.
    """

    def __init__(self, S: np.ndarray, T: np.ndarray, sign: int):
        self.S = S
        self.T = T
        self.lam = 1.0
        self.sign = sign

    def push_T(self, M):
        M = np.asarray(M, dtype=complex)
        S = M.T @ self.S @ M
        self.S = 0.5 * (S + S.T)
        self.T = self.T @ M

    def push_scale(self, c: float):
        self.S = c * self.S
        self.lam *= c

    def push_negate(self):
        self.S = -self.S
        self.sign = -self.sign


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

    The input cone is pulled back through the composed T once, which is its
    one singularity test, and the residual is the largest |difference| of
    that pullback and the normal form on |z| = 1.
    """
    target = render_cone(ntype)
    final = apply_change(cone, chain.T, chain.lam, chain.sign)
    margin = float(min(margins.values())) if margins else float("inf")
    return NormalFormResult(
        ntype=ntype,
        T=chain.T,
        lam=chain.lam,
        sign=chain.sign,
        residual=form_distance(final, target),
        boundary_margin=margin,
        residual_bound=RESIDUAL_REL * target.scale,
    )


def _diag_phase_fix(chain: _Chain) -> None:
    """Absorb the phases of the diagonal harmonic coefficients.

    Valid in the diag(1,-1) (or any diagonal) hermitian frame: diagonal
    phase matrices are congruence-trivial on the hermitian part.
    """
    S = chain.S
    eps = np.exp(-0.5j * np.angle(np.diag(S)))
    # angle(0) = 0, so zero coefficients are untouched
    chain.push_T(np.diag(eps))


_SWAP_NEG = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)  # z1 <-> z2
_ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)  # SO(2): swaps diagonal entries


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
    P = chain.S.real
    g, canon = sl2_reduce_sym(P)
    chain.push_T(g)
    s = 1.0 if canon[0, 0] > 0 else -1.0
    _, K = np.linalg.eigh(chain.S.imag)  # ascending
    if np.linalg.det(K) < 0:
        K = K.copy()
        K[:, 1] = -K[:, 1]
    K = K[:, ::-1] @ np.diag([1.0, -1.0])  # descending order, det kept at +1
    chain.push_T(K)
    if s < 0:
        chain.push_T(1j * np.eye(2))  # flips S; hermitian part untouched
        chain.push_T(_ROT90)  # restore Im >= 0 in the first slot
    S = chain.S
    a = 0.5 * (S[0, 0] + np.conj(S[1, 1]))
    a = complex(max(a.real, 1e-300), max(a.imag, 0.0))
    return NormalFormType("M11_2", a=a)


def _case_m11_1(chain: _Chain) -> tuple[float, float]:
    """det P < 0 (det S >= 0): reduce to Re(A z1^2 + B z2^2) + |z1|^2 - |z2|^2; returns (A, B)."""
    P = chain.S.real
    g, _ = sl2_reduce_sym(P)
    chain.push_T(g)
    k, _ = so11_zero_diag(chain.S.imag)
    chain.push_T(k)
    chain.push_T(CHOFVAR)  # hermitian part becomes |z1|^2 - |z2|^2
    _diag_phase_fix(chain)
    S = chain.S
    A, B = float(S[0, 0].real), float(S[1, 1].real)
    if B > A:
        chain.push_T(_SWAP_NEG)
        chain.push_negate()
        _diag_phase_fix(chain)
        S = chain.S
        A, B = float(S[0, 0].real), float(S[1, 1].real)
    return max(A, 0.0), min(max(B, 0.0), max(A, 0.0))


def _case_m11_1_equal(chain: _Chain) -> NormalFormType:
    """det P ~ 0 with P ~ 0: the A = B stratum of type M11_1."""
    Q = chain.S.imag
    g, _ = sl2_reduce_sym(Q)
    chain.push_T(g)
    chain.push_T(CHOFVAR)
    _diag_phase_fix(chain)
    S = chain.S
    A = 0.5 * (abs(S[0, 0]) + abs(S[1, 1]))
    # force the exact stratum; deviations land in the residual
    return NormalFormType("M11_1", a=float(A), b=float(A))


def _case_m11_3(chain: _Chain, w: np.ndarray) -> NormalFormType:
    """Rank-one S = w w^T with w parallel to a real direction: type M11_3."""
    j = int(np.argmax(np.abs(w)))
    u0 = np.real(w * np.exp(-1j * np.angle(w[j])))
    u0 = u0 / np.linalg.norm(u0)
    R = np.array([[u0[0], u0[1]], [-u0[1], u0[0]]])  # R @ u0 = e1
    chain.push_T(R.T.astype(complex))
    a = chain.S[0, 0]
    sigma = 1.0 / np.sqrt(a)
    chain.push_T(np.diag([sigma, 1.0 / np.conj(sigma)]))  # preserves Im(z1 conj(z2))
    return NormalFormType("M11_3")


def _classify_sig11(chain: _Chain, margins) -> NormalFormType | DegeneracyReport:
    S1 = chain.S
    ns = mat_norm(S1)
    if ns <= 1e-12:
        # S = 0 against the unit-scale hermitian frame: Im(z1 conj(z2)) alone
        chain.push_T(CHOFVAR)
        return NormalFormType("M11_1", a=0.0, b=0.0)

    detS = complex(np.linalg.det(S1))
    if not _zero_test(margins, "m11_det_s", detS, DETS_ZERO_REL * (ns * ns)):
        theta = -0.25 * np.angle(detS)
        chain.push_T(np.exp(1j * theta) * np.eye(2))  # det S becomes |det S| > 0
        P = chain.S.real
        dp = float(np.linalg.det(P))
        if not _zero_test(margins, "m11_det_p", dp, DETP_ZERO_REL * (ns * ns)):
            if dp > 0:
                return _case_m11_2(chain)
            A, B = _case_m11_1(chain)
            return NormalFormType("M11_1", a=A, b=B)
        if _zero_test(margins, "m11_p_zero", mat_norm(P), P_ZERO_REL * ns):
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
    # below 1e-12 ||S||, |det S| would be about ||S||^2 / 2)
    j = int(np.argmax(np.abs(np.diag(S1))))
    w = S1[:, j] / np.sqrt(S1[j, j])
    u, v = w.real, w.imag
    d = u[0] * v[1] - u[1] * v[0]
    wn2 = float(np.linalg.norm(u) ** 2 + np.linalg.norm(v) ** 2)
    if not _zero_test(margins, "m11_rank1_area", d, 1e-10 * wn2):
        # det P = -d^2 < 0 and det Q = det P - Re(det S) <= 0: the generic
        # indefinite-P machinery applies and lands on M11_1 with one
        # vanishing coefficient; snap it
        A, _ = _case_m11_1(chain)
        return NormalFormType("M11_1", a=A, b=0.0)
    return _case_m11_3(chain, w)


def _classify_sig10(chain: _Chain, margins) -> NormalFormType | DegeneracyReport:
    S1 = chain.S
    A0, B0, C0 = S1[0, 0], S1[0, 1], S1[1, 1]
    thr = 1e-9 * max(mat_norm(S1), 1e-300)
    if not _zero_test(margins, "m10_c", C0, thr):
        alpha = A0 - B0 * B0 / C0
        rC = np.sqrt(C0)
        theta1 = 0.5 * np.angle(alpha) if abs(alpha) > 0 else 0.0
        W = np.array([[np.exp(1j * theta1), 0.0], [B0 / rC, rC]], dtype=complex)
        chain.push_T(np.linalg.inv(W))
        return NormalFormType("M10_1", a=float(abs(alpha)))
    if not _zero_test(margins, "m10_b", B0, thr):
        W = np.array([[1.0, 0.0], [A0, 2.0 * B0]], dtype=complex)
        chain.push_T(np.linalg.inv(W))
        return NormalFormType("M10_2")
    absA = abs(A0)
    margins["m10_a_boundary"] = abs(absA - 1.0) / 1e-9
    if absA <= 1.0 + 1e-9:
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
    chain.push_T(np.diag([1.0, np.sqrt(d1 / d2)]).astype(complex))
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
    reduce = _BY_SIGNATURE[hermitian_signature(cone0).as_tuple()]
    try:
        T0, S1 = normalize_hermitian(cone0)
        chain = _Chain(S1, T0, flip)
        ntype = reduce(chain, margins)
        if isinstance(ntype, DegeneracyReport):
            return ntype
        return _finish(cone, chain, ntype, margins)
    except (SingularMatrix, So11Unreachable, ZeroMatrix, np.linalg.LinAlgError) as exc:
        # a reduction step passed the scale-invariant routing thresholds but
        # turned out numerically unusable at this input
        return DegeneracyReport(
            "UnclassifiedBoundary",
            f"ill-conditioned reduction near a case boundary: {exc}",
        )


def oneone_frame_invariants(ntype: NormalFormType) -> tuple[complex, float, float]:
    """(det S, det P, det Q) of the type's representative in the Im(z1 conj(z2)) frame.

    Only meaningful for the (1,1) tags, where it is the same for every
    presentation of one cone.
    """
    if ntype.tag == "M11_1":
        A, B = ntype.params()
        return (complex(A * B / 4.0), -((A - B) ** 2) / 16.0, -((A + B) ** 2) / 16.0)
    if ntype.tag == "M11_2":
        (a,) = ntype.params()
        return (complex(abs(a) ** 2), a.real**2, -(a.imag**2))
    if ntype.tag == "M11_3":
        return (0.0 + 0.0j, 0.0, 0.0)
    raise ConeError(f"{ntype.tag} is not a (1,1) type")

