"""Dimension reduction for cones in C^n, n >= 3.

A two-dimensional complex subspace L with M able to be decided inside L
settles the extension question for M itself: a one-sided disc family in L
is a one-sided disc family in C^n.  The structured candidates are built in
the hermitian frame of normalform.normalize_hermitian, the one classify2
starts from, and follow the case analysis on the hermitian signature
(pi, nu):

- pi >= 2: the axis slice, then shears z_j = alpha z1, alpha z2 whose
  restricted det S stays away from 1;
- (1, 1), in the Im(z1 conj(z2)) frame: with a z' quadratic part, line
  slices through its support; otherwise the rank of the linear coupling of
  (z1, z2) to z' decides: none (product), independent z1 and z2 couplings,
  a z1- or z2-only coupling (dual slices z3 = a z1 + b z2), or a common
  coupling with ratio c, real (reduced to the z1 case) or complex (shears
  z3 = alpha z2 passing the extension criterion, see _extension_margin);
- (1, 0): slices through the support of the z' quadratic part;
- (0, 0): none, a harmonic-only cone has two-sided support.

Every candidate is validated end to end, and one whose basis is numerically
dependent is skipped; the search is deterministic and tries nothing beyond
these families.  Cones with two-sided support are classified separately
into product / harmonic-rank / bilinear-factor forms, each verified
exactly before being reported; the product test comes first, as only a
product can carry a checked two-sided witness.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple

from .decider import DiscFamily, DiscReport, Verdict, VerificationFailed, decide2, verify_discs
from .normalform import _CHOFVAR, DegeneracyReport, NormalFormResult, classify2, normalize_hermitian
from .quadform import (
    ConeError,
    QuadraticCone,
    canonical_sign,
    form_distance,
    hermitian_signature,
    mat_norm,
    real_signature,
    replace,
)
from .reduction import takagi2

GRAM_DET_MIN = 1e-10
Q_ZERO_REL = 1e-10
DET_ONE_MARGIN = 1e-3  # acceptance margin for the | |det S'| - 1 | criterion
EXTENSION_MARGIN = 1e-3
FIT_VERIFY_REL = 1e-10
# the eps of the D_eps on which a candidate slice's disc family is certified
SLICE_EPS_GRID = (1e-2, 1e-1)


class DegenerateBasis(ConeError):
    pass


class _SliceFields(NamedTuple):
    basis: np.ndarray  # n x 2, columns span L
    description: str


class Slice(_SliceFields):
    __slots__ = ()

    def __new__(cls, basis, description: str):
        import numpy as np
        B = np.asarray(basis, dtype=complex)
        # det G / prod G_ii of the columns' Gram matrix G (the Hadamard ratio, in [0, 1] at any scale), summed
        # on Python floats: within (8n + 32) 2^-53 of the exact ratio, as numpy's LU of the unit columns' G is.
        # That LU decides where a sum leaves [2^-500, 2^500] or the ratio is within n 2^-40 of GRAM_DET_MIN
        b0, b1 = B.T.tolist()
        g00, g11 = (sum(z.real * z.real + z.imag * z.imag for z in b) for b in (b0, b1))
        g01 = sum(x.conjugate() * y for x, y in zip(b0, b1))
        ratio = abs(g00 * g11 - (g01.real * g01.real + g01.imag * g01.imag)) / (g00 * g11 or 1.0)
        normal = 2.0**-500 <= min(g00, g11) <= max(g00, g11) <= 2.0**500
        if not (normal and abs(ratio - GRAM_DET_MIN) > len(B) * 2.0**-40):
            norms = np.linalg.norm(B, axis=0)
            ratio = abs(np.linalg.det((B / norms).conj().T @ (B / norms))) if np.all(norms > 0) else 0.0
        if ratio < GRAM_DET_MIN:
            raise DegenerateBasis("slice basis is numerically dependent")
        return super().__new__(cls, B, description)


class SliceResult(NamedTuple):
    slice: Slice
    restricted: QuadraticCone
    classification: NormalFormResult | DegeneracyReport
    verdict: Verdict
    disc_report: DiscReport


class TwoSidedForm(NamedTuple):
    kind: str  # "product" | "ts1" | "ts2" | "unknown"
    inner: NormalFormResult | DegeneracyReport | None = None
    k: int | None = None
    fit_residual: float = float("nan")
    detail: str = ""
    # True when the shape carries a checked two-sided witness, so no slice can be one-sided
    certified: bool = False


def restrict(cone: QuadraticCone, B: np.ndarray) -> QuadraticCone:
    """The cone M pulled back through an n x m basis B, a cone in C^m (M on span(B))."""
    if B.ndim != 2 or B.shape[0] != cone.n:
        raise ConeError(f"basis must be {cone.n} x m, got {B.shape}")
    S = B.T @ cone.S @ B
    H = B.conj().T @ cone.H @ B
    return QuadraticCone._symmetrized(S, H)


def _extension_margin(S) -> float:
    """How robustly the extension criterion holds for Im(z1 conj(z2))-frame harmonic data S.

    The criterion: |det S| >= 1/4 and, after the quarter-phase rotation
    S' = exp(-i arg(det S) / 2) S making det S' positive real, det Re(S') < 0.
    The margin is min(|det S| - 1/4, -det Re(S')): positive when the
    criterion holds, <= 0 when it fails, and -1 when |det S| < 1e-12.
    """
    import numpy as np
    S = np.asarray(S, dtype=complex)
    d = complex(np.linalg.det(S))
    if abs(d) < 1e-12:
        return -1.0
    St = np.exp(-0.5j * np.angle(d)) * S
    return min(abs(d) - 0.25, -np.linalg.det(St.real))


def _alpha_grid(phase_order=range(16)):
    """Deterministic alpha scan: moduli 2^0, 2^1, 2^-1, ..., 2^-20, each with
    the phases exp(2 pi i k / 16) taken in phase_order."""
    import numpy as np
    powers = [0]
    for k in range(1, 21):
        powers.extend([k, -k])
    phase_vals = [np.exp(2j * np.pi * k / 16) for k in phase_order]
    for p in powers:
        m = 2.0**p
        for ph in phase_vals:
            yield m * ph


def _embed2(n: int, v2) -> np.ndarray:
    import numpy as np
    out = np.zeros(n, dtype=complex)
    out[:2] = v2
    return out


def _embed_zprime(n: int, v) -> np.ndarray:
    import numpy as np
    out = np.zeros(n, dtype=complex)
    out[2:] = v
    return out


def _pi2_candidates(W: np.ndarray, S1: np.ndarray, pi: int, nu: int):
    """Axis slice plus det-criterion-filtered shears, hermitian part (pi>=2)."""
    import numpy as np
    n = len(W)
    flags = [1] * pi + [-1] * nu + [0] * (n - pi - nu)  # W^* H W = diag(flags)
    (s00, s01), (_, s11) = S1[:2, :2].tolist()  # S1 is exactly symmetric
    u00, u01, u10, u11 = takagi2((s00, s01, s11)).u
    U = np.eye(n, dtype=complex)
    U[:2, :2] = (u00, u01), (u10, u11)
    W = W @ U
    yield W[:, :2], "axis slice z_j = 0, j = 3..n"
    S1 = U.T @ S1 @ U
    for j in range(2, n):
        coupled = max(abs(S1[0, j]), abs(S1[1, j]), abs(S1[j, j]))
        if coupled <= 1e-13 * max(mat_norm(S1), 1e-300) and flags[j] == 0:
            continue
        for al in _alpha_grid():
            # both shears give the slice the hermitian weight 1 + flags[j] |al|^2
            herm = 1.0 + flags[j] * abs(al) ** 2
            if herm <= 1e-6:
                continue
            for i in (1, 0):  # the shear z_j = al z2, then z_j = al z1
                s_star = S1[:2, :2].copy()
                s_star[i, i] = S1[i, i] + 2 * al * S1[i, j] + al * al * S1[j, j]
                s_star[0, 1] = s_star[1, 0] = S1[0, 1] + al * S1[1 - i, j]
                if abs(abs(np.linalg.det(s_star) / herm) - 1.0) >= DET_ONE_MARGIN:
                    basis = W[:, :2].copy()
                    basis[:, i] += al * W[:, j]
                    yield basis, f"shear slice z{j + 1} = a z{i + 1}, a = {al:.6g}"


def _dual_vectors(L: np.ndarray):
    """v3, v4 with L @ v_i = e_i for the bilinear functionals in L's rows."""
    import numpy as np
    sol, *_ = np.linalg.lstsq(L, np.eye(2, dtype=complex), rcond=None)
    return sol[:, 0], sol[:, 1]


def _oneone_candidates(W: np.ndarray, S1: np.ndarray):
    import numpy as np
    n = len(W)
    scale = max(mat_norm(S1), 1e-300)
    St = S1[:2, :2]
    L = S1[:2, 2:]
    Qp = S1[2:, 2:]

    qnorm = mat_norm(Qp)
    if qnorm > Q_ZERO_REL * scale:
        # quadratic z' part present: slice down to a |z1|^2-definite frame
        Md = np.eye(n, dtype=complex)
        Md[:2, :2] = _CHOFVAR[:2], _CHOFVAR[2:]  # hermitian block becomes diag(1, -1)
        Wd = W @ Md
        for v in islice(_quadratic_support_probes(Qp, qnorm), 8):
            b2 = Wd @ _embed_zprime(n, v)
            for al in (0.0, 0.5, 2.0, -0.5, -2.0, 0.5j, 2j, -0.5j, -2j, 0.25, 4.0):
                b1 = Wd @ (_embed2(n, [1.0, al]))
                yield np.column_stack([b1, b2]), f"line slice z2 = a z1, a = {al:.4g}"
        return

    def dual(G, Sg, k, v, description):
        # the determinant-2 dual slice z3 = alpha w_k + beta w_(1-k), z3 along the z'
        # direction v, of a coupling 2 w_k z3 to the harmonic block Sg in the frame
        # z = G w; usable when the other diagonal entry of Sg is not 0
        a, b, c = Sg[k, k], Sg[0, 1], Sg[1 - k, 1 - k]
        if abs(c) <= 1e-10 * scale:
            return
        if abs(c.real) <= 1e-12 * max(abs(c), 1.0):
            alpha, beta = -(a + c) / 2.0, -b + np.sqrt(abs(c) ** 2 + 2.0)
        else:
            alpha, beta = -(a + np.conj(c)) / 2.0, -b + 1j * np.sqrt(abs(c) ** 2 + 2.0)
        coef = [beta, beta]
        coef[k] = alpha
        ve = _embed_zprime(n, v)
        yield np.column_stack([W @ (_embed2(n, G[:, i]) + coef[i] * ve) for i in (0, 1)]), description

    sv = np.linalg.svd(L, compute_uv=False) if L.size else np.array([0.0])
    lrank = int(np.sum(sv > 1e-10 * max(scale, 1.0)))
    if lrank == 0:
        yield W[:, :2], "axis slice z_j = 0, j = 3..n (product)"
        return

    A, B, C = St[0, 0], St[0, 1], St[1, 1]
    I2 = np.eye(2)
    if lrank == 2:
        v3, v4 = _dual_vectors(L)
        yield from dual(I2, St, 0, v3, "dual slice z3 = a z1 + b z2")
        yield from dual(I2, St, 1, v4, "dual slice z3 = a z2 + b z1")
        if abs(A) <= 1e-10 * scale and abs(C) <= 1e-10 * scale:
            # both quadratic coefficients vanish: the explicit two-direction slice
            c1 = _embed2(n, [1.0, 0.0]) + 0.5 * _embed_zprime(n, v3) + (-B / 2 + 1j) * _embed_zprime(n, v4)
            c2 = _embed2(n, [0.0, 1.0]) + (-B / 2 + 1j) * _embed_zprime(n, v3) - 0.5 * _embed_zprime(n, v4)
            yield np.column_stack([W @ c1, W @ c2]), "independent-coupling slice"
        return

    # rank one: l1 = c1 * m, l2 = c2 * m for a common functional m
    _, _, vh = np.linalg.svd(L)
    m = vh[0]
    denom = m @ m.conj()
    c1 = (L[0] @ m.conj()) / denom
    c2 = (L[1] @ m.conj()) / denom
    v_m = m.conj() / denom  # m . v_m = 1
    big = max(abs(c1), abs(c2))
    if abs(c2) <= 1e-10 * big:
        # coupling through z1 only
        yield from dual(I2, St, 0, v_m / c1, "dual slice z3 = a z1 + b z2")
        return
    if abs(c1) <= 1e-10 * big:
        yield from dual(I2, St, 1, v_m / c2, "dual slice z3 = a z2 + b z1")
        return

    c = c1 / c2
    v3 = v_m / c2  # l1 = c z3, l2 = z3 in the coordinate z3 = l2(z')
    if abs(c.imag) <= 1e-10 * abs(c):
        # real coupling ratio: a rotation turns c z1 + z2 into h z1, and v3 / h
        # keeps the coupling at 2 z1 z3
        cr = c.real
        h = np.hypot(cr, 1.0)
        G = np.array([[cr, -1.0], [1.0, cr]], dtype=complex) / h
        yield from dual(G, G.T @ St @ G, 0, v3 / h, "dual slice after real-ratio reduction")
        return
    # complex ratio: scan z3 = al * z2 slices, filtered by the extension criterion
    T_coupling = np.array([[0.0, c], [c, 2.0]], dtype=complex)
    sin_c = np.sin(np.angle(c))
    argA = np.angle(A) if abs(A) > 0 else 0.0
    phase_order = sorted(
        range(16),
        key=lambda k: 0 if np.sin(2 * np.pi * k / 16 + np.angle(c) - argA) * sin_c < 0 else 1,
    )
    v3e = _embed_zprime(n, v3)
    for al in _alpha_grid(phase_order):
        s_star = St + al * T_coupling  # coupling normalized through v3
        if _extension_margin(s_star) >= EXTENSION_MARGIN:
            b1 = W @ _embed2(n, [1.0, 0.0])
            b2 = W @ (_embed2(n, [0.0, 1.0]) + al * v3e)
            yield np.column_stack([b1, b2]), f"line slice z3 = a z2, a = {al:.6g}"


def _quadratic_support_probes(Qp: np.ndarray, qnorm: float):
    """Directions v with v^T Qp v != 0 (qnorm = mat_norm(Qp)), e_i then e_i + w e_j, made as tried."""
    import numpy as np
    m = Qp.shape[0]
    tol = 1e-10 * max(qnorm, 1e-300)
    Q = Qp.tolist()
    for i in range(m):
        if abs(Q[i][i]) > tol:
            e = np.zeros(m, dtype=complex)
            e[i] = 1.0
            yield e
    for i in range(m):
        for j in range(i + 1, m):
            if abs(Q[i][j]) > tol:
                for w in (1.0, 1j):
                    v = np.zeros(m, dtype=complex)
                    v[i], v[j] = 1.0, w
                    if abs(v @ Qp @ v) > tol:
                        yield v


def _onezero_candidates(W: np.ndarray, S1: np.ndarray):
    import numpy as np
    n = len(W)
    Qp = S1[1:, 1:]
    qnorm = mat_norm(Qp)
    if qnorm <= Q_ZERO_REL * max(mat_norm(S1), 1e-300):
        return  # {z1 = 0} lies inside the cone: non-minimal
    for v in islice(_quadratic_support_probes(Qp, qnorm), 8):
        ve = np.zeros(n, dtype=complex)
        ve[1:] = v
        yield np.column_stack([W[:, 0], W @ ve]), "quadratic-support slice"


def _structured_candidates(cone0: QuadraticCone):
    """cone0's candidate Slices (pi >= nu), from the family its hermitian signature picks.

    A family yields (basis, description) pairs in the frame of normalize_hermitian;
    a dependent basis is skipped, not the rest of the search.
    """
    pi, nu = hermitian_signature(cone0)
    if pi == 0:
        return  # (0, 0): a harmonic-only cone has two-sided support; no candidates
    W, S1 = normalize_hermitian(cone0)
    if pi >= 2:
        pairs = _pi2_candidates(W, S1, pi, nu)
    elif nu == 1:
        pairs = _oneone_candidates(W, S1)
    else:
        pairs = _onezero_candidates(W, S1)
    for basis, description in pairs:
        try:
            yield Slice(basis, description)
        except DegenerateBasis:
            continue


def _try_slice(cone: QuadraticCone, slc: Slice) -> SliceResult | None:
    try:
        restricted = restrict(cone, slc.basis)
        cls = classify2(restricted)
    except ConeError:
        return None
    if isinstance(cls, DegeneracyReport):
        if cls.reason not in ("PointCone", "DimensionDeficient"):
            return None
        rsig = real_signature(restricted)
        if rsig.q == 0 and rsig.p > 0:
            side = 1
        elif rsig.p == 0 and rsig.q > 0:
            side = -1
        else:
            return None
        fam = DiscFamily(side=side)
        verdict = Verdict(discs=fam, note="definite slice: discs avoid the cone entirely")
    else:
        try:
            verdict = decide2(cls)
        except VerificationFailed:  # the classification residual is out of bounds
            return None
        if verdict.outcome != "one_sided":
            return None
        fam = verdict.discs
    # certified on the input itself: the family's frame maps through the basis
    T = slc.basis if fam.transform is None else slc.basis @ fam.transform
    try:
        report = verify_discs(cone, replace(fam, transform=T), eps_grid=SLICE_EPS_GRID)
    except VerificationFailed:
        return None
    return SliceResult(
        slice=slc, restricted=restricted, classification=cls, verdict=verdict, disc_report=report
    )


def find_good_slice(cone: QuadraticCone, budget: int = 256) -> SliceResult | None:
    """First two-dimensional slice whose restricted cone is one-sided.

    The candidates are the structured ones (driven by the hermitian
    signature), in a deterministic order; budget caps how many are tried,
    not counting those skipped for a dependent basis.
    Every returned slice has passed disc verification: the family of the
    restricted cone, mapped through the slice basis, gets verify_discs'
    certified bounds at SLICE_EPS_GRID on the input cone itself, so a family
    that meets the cone away from 0, or whose margins are below the input's
    rounding, is rejected.  None means no one-sided slice was found, which for a valid
    cone points at two-sided support (see classify_two_sided_nd).
    """
    if cone.n < 3:
        raise ConeError("find_good_slice expects n >= 3")
    if budget < 1:
        raise ConeError("budget must be >= 1")
    cone0, _ = canonical_sign(cone)
    for slc in islice(_structured_candidates(cone0), budget):
        res = _try_slice(cone, slc)
        if res is not None:
            return res
    return None


class ProductTest(NamedTuple):
    """The SVD of the stacked pair [S; H] and the product shape read from it."""

    kdim: int  # complex dimension of the joint kernel of S and H
    vh: np.ndarray  # right singular vectors of [S; H], largest singular value first
    form: TwoSidedForm | None  # the verified product shape, or None


def product_test(cone: QuadraticCone) -> ProductTest:
    """Whether rho is a product with an inert C^(n-2) factor, n >= 3.

    The factor is spanned by the top two right singular vectors of the
    stacked pair [S; H] when its joint kernel has complex dimension n - 2.
    The product is verified exactly: the model rho(Bc Bc^H z), Bc those two
    vectors, lies within FIT_VERIFY_REL of the cone's scale in
    form_distance, which is the fit_residual.  It is `certified` when its
    C^2 factor decides two-sided with its supporting lines verified on the
    factor: that checked witness proves two-sided support, so the cone has
    no one-sided slice to search for.  classify_two_sided_nd takes the
    result, so that one SVD serves both.
    """
    import numpy as np
    if cone.n < 3:
        raise ConeError("the two-sided shapes expect n >= 3")
    _, sv, vh = np.linalg.svd(np.vstack([cone.S, cone.H]))
    kdim = int(np.sum(sv <= 1e-9 * max(sv[0], 1e-300)))
    form = None
    if kdim == cone.n - 2:
        Bc = vh[:2].conj().T  # orthonormal, so rho_factor(Bc^H z) = rho(Bc Bc^H z)
        factor = restrict(cone, Bc)
        model = restrict(factor, Bc.conj().T)
        resid = form_distance(cone, model)
        if resid <= FIT_VERIFY_REL * max(cone.scale, 1e-300):
            inner = classify2(factor)
            form = TwoSidedForm(
                kind="product", inner=inner, fit_residual=resid,
                detail="rho is independent of an (n-2)-dimensional complex factor",
                certified=_factor_two_sided(inner, factor),
            )
    return ProductTest(kdim, vh, form)


def classify_two_sided_nd(cone: QuadraticCone, product: ProductTest | None = None) -> TwoSidedForm:
    """Recognize the two-sided normal shapes in C^n, n >= 3.

    Detects, in order: a product with an inert C^(n-2) factor
    (product_test, whose result may be passed in), a purely harmonic cone
    Re(z1^2 + ... + zk^2) with k > 2, and the bilinear-factor shape
    Re((z2 + conj(z3)) z1).  ts1 reads the product test's SVD of the
    stacked pair [S; H]: its model is the rank-k part S V V^H of S, V the
    top k = n - (kernel dimension) right singular vectors.  ts2 (_ts2_fit)
    writes S = U2 M U2^T over the range U2 of S, splits M into two Takagi
    terms, and solves H = (conj(m) a^T + conj(a) m^T) / 2 for m in closed
    form.  Every recognized form is verified exactly before being
    returned: its model rho, as a cone, lies within FIT_VERIFY_REL (times
    10 for ts1 and ts2) of the cone's scale in form_distance, which is the
    fit_residual.  Anything else comes back as "unknown" rather than a
    guess.  Only a certified product proves two-sided support (see
    product_test); ts1 and ts2 rest on a fit tolerance, not a witness, and
    are not certified.
    """
    import numpy as np
    if product is None:
        product = product_test(cone)
    if product.form is not None:
        return product.form
    n = cone.n
    scale = max(cone.scale, 1e-300)
    k = n - product.kdim
    if k > 2 and mat_norm(cone.H) <= 1e-10 * scale:
        V = product.vh[:k].conj().T  # orthonormal, spans the complement of the joint kernel
        model = QuadraticCone._symmetrized(cone.S @ V @ V.conj().T, np.zeros((n, n), dtype=complex))
        resid = form_distance(cone, model)
        if resid <= FIT_VERIFY_REL * scale * 10:
            return TwoSidedForm(
                kind="ts1", k=k, fit_residual=resid,
                detail=f"purely harmonic with rank {k} >= 3",
            )

    form = _ts2_fit(cone)
    if form is not None:
        return form
    return TwoSidedForm(kind="unknown", detail="no verified two-sided shape matched")


def _factor_two_sided(inner: NormalFormResult | DegeneracyReport, factor: QuadraticCone) -> bool:
    """Whether a product's C^2 factor has two-sided support, with its supporting lines verified."""
    if isinstance(inner, DegeneracyReport):
        return False
    try:
        return decide2(inner, factor).outcome == "two_sided"
    except VerificationFailed:
        return False


def _ts2_fit(cone: QuadraticCone) -> TwoSidedForm | None:
    """Fit rho = Re((lambda(z) + conj(mu(z))) alpha(z)) with independent forms."""
    import numpy as np
    scale = max(cone.scale, 1e-300)
    if hermitian_signature(cone) != (1, 1):
        return None
    if real_signature(cone) != (2, 2):
        return None
    U, s_sv, _ = np.linalg.svd(cone.S)
    if int(np.sum(s_sv > 1e-9 * max(s_sv[0], 1e-300))) != 2:
        return None
    # S = U2 M U2^T on its range
    U2 = U[:, :2]
    (m00, m01), (m10, m11) = (U2.conj().T @ cone.S @ U2.conj()).tolist()
    tk = takagi2((m00, 0.5 * (m01 + m10), m11))  # symmetric up to rounding
    W = U2 @ np.reshape(tk.u, (2, 2)).conj()  # S = d_1 W_1 W_1^T + d_2 W_2 W_2^T
    r1, r2 = np.sqrt(tk.d)
    cand_a = r1 * W[:, 0] + 1j * r2 * W[:, 1]
    cand_l = r1 * W[:, 0] - 1j * r2 * W[:, 1]
    for a, l in ((cand_a, cand_l), (cand_l, cand_a)):
        # H = (conj(m) a^T + conj(a) m^T) / 2 fixes m up to m + i t a, which
        # leaves rho unchanged: with v = conj(a) / |a|^2, a^T v = 1 and this m
        # is the one with Im(m^T v) = 0
        v = a.conj() / np.vdot(a, a).real
        Hv = cone.H @ v
        m = np.conj(2 * Hv - v * (a @ Hv))
        forms = np.vstack([a, l, m])
        fs = np.linalg.svd(forms, compute_uv=False)
        if fs[-1] <= 1e-8 * fs[0]:
            continue
        # Re((l.z) (a.z)) + Re(conj(m.z) (a.z)), as a cone
        model = QuadraticCone._symmetrized(np.outer(l, a), np.outer(np.conj(m), a))
        resid = form_distance(cone, model)
        if resid <= FIT_VERIFY_REL * scale * 10:
            return TwoSidedForm(
                kind="ts2", fit_residual=resid,
                detail="rho = Re((lambda + conj(mu)) alpha) with independent linear forms",
            )
    return None
