"""Extension verdicts with numerically verifiable witnesses.

For each normal form the verdict is either one-sided holomorphic
extendability, witnessed by a family of analytic discs D_eps that stay in
one side and touch the cone only at 0 in the limit, or two-sided support,
witnessed by a pair of complex lines inside the closures of the two sides
(possibly both inside the cone itself when it is non-minimal).

Both are checked exactly, without samples.  On a line z = t v, rho =
Re(t^2 v^T S v) + |t|^2 v^H H v, so rho / |z|^2 ranges over v^H H v -/+
|v^T S v| (for |v| = 1), and its two extremal points are evaluated
directly; this checks the supporting lines and the lines that make up a
limit disc.  A disc D_eps gets a closed-form lower bound on side * rho (see
verify_discs), and rho is evaluated at the point that attains it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .fixtures import example_m
from .normalform import NormalFormResult, NormalFormType, render_cone
from .quadform import (
    ConeError,
    QuadraticCone,
    evaluate_many,
    form_distance,
    mat_norm,
    real_form_matrix,
    sample_points,
)
from .reduction import exponent, parts, phase, scaled

SUPPORT_TOL_REL = 1e-12  # witness sign tolerance, relative to |z|^2 * cone.scale
A_ONE_BOUNDARY_TOL = 1e-9
JUMP_IDENTITY_TOL = 1e-12
# Frozen empirical bound for max |f(z)| / |z| over cone samples in the jump
# demonstration.  The ratio is scale-invariant; sampling 3*10^5 points over
# six seeds gives sup ~= 1.7124, so 10 certifies continuity with headroom.
JUMP_RATIO_BOUND = 10.0
# Rounding allowance of a disc certificate, per unit of n * lam * m and per unit
# |w|^2 (verify_discs), m the Frobenius norm of |T|^T (|S| + |H|) |T|, which
# bounds each entry's sum of absolute products in the pullback T^T S T,
# T^H H T (at most scale * |T|_F^2).  With u = 2^-53, forming the pullback (two
# n-term complex products per entry, Higham's gamma_(2n+7)), subtracting two
# real forms and taking their eigenvalues (backward stable, about 2u) and
# evaluating rho at a computed point z = T w (two dot products of length 2n,
# gamma_(4n+1), plus the rounding of T w, 8u) stay below
# sqrt(2) (6n + 18) u <= 11 n * 2^-52 for n >= 2, a real form's Frobenius norm
# being at most sqrt(2) times its pair's; 16 leaves room for the eigenvalue
# solver's constant.
CERT_ROUNDING = 16 * 2.0**-52
# The side of each one-sided normal form in its own frame: discs stay where side * rho_normal > 0.
NORMAL_SIDE = {"M20": +1, "M10_1": +1, "M11_1": -1}


class VerificationFailed(ConeError):
    def __init__(self, message: str, eps: float | None = None, z=None):
        super().__init__(message)
        self.eps = eps
        self.z = None if z is None else np.asarray(z)


@dataclass(frozen=True)
class DiscFamily:
    """Family D_eps in a 2-dimensional frame, mapped into cone coordinates by `transform` (n x 2).

    kind "level_set": D_eps = {w : w^T c w = eps, |w| <= radius};
    kind "affine_line": D_eps = {w : w1 = shift * eps, |w| <= radius}, shift = i.
    `side` is the expected sign of rho on D_eps for eps > 0, in the
    coordinates of the cone the family is verified against.  A family of a
    normal form carries it as `model`, with the lam of the classification
    (NORMAL_SIDE[tag] * side * lam * rho(transform w) is then rho_model(w)
    up to the classification's residual); a family without a model is a
    level set certified from the cone's real form alone.
    """

    kind: str
    side: int
    c: np.ndarray | None = None
    transform: np.ndarray | None = None
    radius: float = 1.0
    model: NormalFormType | None = None
    lam: float = 1.0
    shift: ClassVar[complex] = 1j

    def map_points(self, W: np.ndarray) -> np.ndarray:
        if self.transform is None:
            return W
        return W @ np.asarray(self.transform).T


@dataclass(frozen=True)
class LinearGerm:
    """Complex line {z : coeffs . z = 0} through 0, spanned by `span`."""

    coeffs: np.ndarray
    span: np.ndarray
    label: str


@dataclass(frozen=True)
class SupportWitness:
    aplus: LinearGerm
    aminus: LinearGerm
    kind: str  # "proper" | "nonminimal"


@dataclass(frozen=True)
class Verdict:
    outcome: str  # "one_sided" | "two_sided"
    discs: DiscFamily | None = None
    witness: SupportWitness | None = None
    note: str = ""

    @property
    def side(self) -> int | None:
        return None if self.discs is None else self.discs.side


def _point_tuple(Z) -> tuple:
    """The rows of Z as a tuple of tuples of complex, so that reports compare by value."""
    return tuple(map(tuple, np.asarray(Z, dtype=complex).tolist()))


@dataclass(frozen=True)
class DiscReport:
    """Certified bounds of a disc family; points: one per eps of the grid, then one per limit-disc line."""

    min_margin: float
    touch_residual: float
    points: tuple

    @property
    def points_checked(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class SupportReport:
    """Exact line extremes; points: the maximum and minimum point of A+, then of A-."""

    plus_min: float
    minus_max: float
    points: tuple

    @property
    def points_checked(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class JumpReport:
    identity_residual: float
    continuity_ratio: float
    points_checked: int


def _check_finite(vals, Z, what: str, eps: float | None = None) -> None:
    """Raise VerificationFailed at the first point of Z whose checked value (of a few) is not finite."""
    for j, val in enumerate(vals):
        if not math.isfinite(val):
            raise VerificationFailed(f"{what}: rho is not finite at a checked point", eps=eps, z=Z[j])


def _normal_minimum(fam: DiscFamily, eps: float, d: float) -> tuple[float, np.ndarray]:
    """min of q - d |w|^2 over D_eps and |w| <= radius, q = NORMAL_SIDE * rho_model, with its point.

    The point attains the minimum when d = 0 (for M10_1 when eps <= radius^2).
    On each family q has a closed form:
    - M20 (c = diag(A, B), A > 1, B <= A): q = eps + |w|^2 and |w|^2 >= eps / A;
    - M10_1 (c = diag(A, 1)): q = eps + |w1|^2, so the perturbation costs at
      most d radius^2;
    - M11_1 level set (c = -diag(A, B), 1 <= B < A): q = eps - |w1|^2 + |w2|^2
      and A |w1|^2 = |eps + B w2^2| <= eps + B |w2|^2;
    - M11_1 affine line w1 = shift eps (B < 1): q = (-Re(A shift^2) -
      |shift|^2) eps^2 - Re(B w2^2) + |w2|^2, and -Re(B w2^2) >= -B |w2|^2.
    """
    r2 = fam.radius**2
    if fam.kind == "affine_line":
        A, B = fam.model.params()
        s = complex(fam.shift)
        w1 = s * eps
        free = (1.0 - B - d) * (r2 - abs(w1) ** 2)
        return (-(A * s * s).real - (1.0 + d) * abs(s) ** 2) * eps**2 + min(0.0, free), np.array([w1, 0.0])
    tag = fam.model.tag
    if tag == "M20":
        A, _ = fam.model.params()
        return eps + (1.0 - d) * (eps / A if d <= 1.0 else r2), np.array([np.sqrt(eps / A), 0.0])
    if tag == "M10_1":
        return eps - d * r2, np.array([0.0, np.sqrt(eps)])
    A, B = fam.model.params()
    free = (1.0 - d - (1.0 + d) * B / A) * r2
    return eps * (1.0 - (1.0 + d) / A) + min(0.0, free), np.array([1j * np.sqrt(eps / A), 0.0])


def _multiplier_minima(P: QuadraticCone, fam: DiscFamily, eps_grid, guard: float, sigma: float):
    """Lower bounds on rho_P over each level set D_eps = {w^T c w = eps, |w| <= radius}, with points.

    For every real mu, rho_P(w) >= mu Re(w^T c w) + l_mu |w|^2 with l_mu =
    lambda_min(G - mu J), G and J the real forms of rho_P and Re(w^T c w).
    On D_eps, |w|^2 lies in [eps / sigma, radius^2] (sigma = sigma_max(c)), so
    mu eps + min(l_mu eps / sigma, l_mu radius^2) bounds rho_P there for any
    mu.  mu = 0 is the eigenvalue bound; for l_mu >= 0 the bound grows with
    mu up to the largest mu with G - mu J >= 0, a real eigenvalue of J^-1 G,
    so the candidates are 0 and the real parts of those eigenvalues.  Each
    l_mu is lowered by the rounding allowance guard + CERT_ROUNDING * n *
    |mu| sigma.  The point comes from the eigenvector of l_mu, scaled onto
    the level set, or else from the larger diagonal entry of c.
    """
    c = np.asarray(fam.c, dtype=complex)
    G = real_form_matrix(P)
    J = real_form_matrix(QuadraticCone._symmetrized(c, np.zeros_like(c)))
    mus = np.zeros(1)
    if abs(np.linalg.det(c)) > 0:
        mus = np.append(mus, np.linalg.eigvals(np.linalg.solve(J, G)).real)
    ells, vecs = np.linalg.eigh(G - mus[:, None, None] * J)
    ells = ells[:, 0] - guard - CERT_ROUNDING * P.n * np.abs(mus) * sigma
    r2 = fam.radius**2
    out = []
    for eps in eps_grid:
        bounds = mus * eps + np.minimum(ells * eps / sigma, ells * r2)
        k = int(np.argmax(bounds))
        w0 = vecs[k, :2, 0] + 1j * vecs[k, 2:, 0]
        if w0 @ c @ w0 == 0:
            w0 = np.eye(2)[int(np.argmax(np.abs(np.diag(c))))]
        out.append((float(bounds[k]), np.sqrt(eps / (w0 @ c @ w0)) * w0))
    return out


def _limit_lines(fam: DiscFamily) -> np.ndarray:
    """Unit rows spanning the complex lines whose union is the limit disc D_0, in the family frame."""
    if fam.kind == "affine_line":
        return np.array([[0.0, 1.0]], dtype=complex)
    (a, b), (_, d) = np.asarray(fam.c, dtype=complex)
    if d != 0:
        # w = (d, x) with x^2 + 2 b x + a d = 0
        root = np.sqrt(b * b - a * d)
        rows = [[d, -b + root]] + ([[d, -b - root]] if root != 0 else [])
    elif b != 0:
        rows = [[0.0, 1.0], [1.0, -a / (2 * b)]]
    elif a != 0:
        rows = [[0.0, 1.0]]
    else:
        raise ConeError("a level-set family needs c != 0")
    L = np.array(rows, dtype=complex)
    return L / np.linalg.norm(L, axis=1)[:, None]


def verify_discs(cone: QuadraticCone, fam: DiscFamily, eps_grid) -> DiscReport:
    """Certify side * rho > 0 on each D_eps of the grid and on the limit disc, without samples.

    min_margin is the smallest, over eps in the grid, certified lower bound on
    side * rho over D_eps: for a normal-form family the closed form of
    _normal_minimum, evaluated after pulling the cone back through the
    family's transform T (the pullback P = sign * lam * rho(T w) differs from
    the model by at most delta |w|^2, delta its form_distance to the model, so
    the bound is the minimum of the model with delta |w|^2 subtracted,
    divided by lam); for a family without a model the multiplier bound of
    _multiplier_minima.  touch_residual is the exact minimum of side * rho
    over the limit disc D_0 (eps = 0) with |w| >= 1e-3 * fam.radius in the
    family's own frame: D_0 is one or two complex lines, and on each line
    side * rho / |w|^2 is smallest at the point _line_extremes gives.  Every
    bound is lowered by the rounding allowance CERT_ROUNDING * n * lam *
    |(|T|^T (|S| + |H|) |T|)|_F per unit |w|^2, in the pullback's units.  T
    may map into a cone in C^n, n >= 3 (a slice basis composed with the
    change of variables), so the allowance is that of the input, not of a
    restriction computed from it.

    Each bound comes with the point that attains it (or, for a multiplier
    bound, the eigenvector's point on D_eps); rho is evaluated there, the
    value must be finite and at least the bound, and the report carries
    these points in that order.  Both bounds must be positive.  D_eps empty
    within the radius (eps > sigma_max(c) radius^2 for a level set) fails as
    well.
    """
    if len(eps_grid) == 0:
        raise ConeError("eps_grid must be nonempty")
    if not all(eps > 0 for eps in eps_grid):
        raise ConeError("eps grid entries must be positive")
    if not fam.lam > 0:
        raise ConeError("lam must be positive")
    frame = fam.map_points(np.eye(2, dtype=complex))
    _check_finite(evaluate_many(cone, frame), frame, "disc family frame")
    T = np.eye(2, dtype=complex) if fam.transform is None else np.asarray(fam.transform, dtype=complex)
    k = fam.lam * fam.side * (1 if fam.model is None else NORMAL_SIDE[fam.model.tag])
    P = QuadraticCone._symmetrized(k * (T.T @ cone.S @ T), k * (T.conj().T @ cone.H @ T))
    guard = CERT_ROUNDING * cone.n * fam.lam * mat_norm(abs(T).T @ (abs(cone.S) + abs(cone.H)) @ abs(T))
    if fam.kind == "level_set":
        sigma = float(np.linalg.norm(fam.c, 2))
        reach = sigma * fam.radius**2
    else:
        reach = fam.radius / abs(fam.shift)
    for eps in eps_grid:
        if eps > reach:
            raise VerificationFailed(f"no disc points found at eps={eps}", eps=eps)
    if fam.model is not None:
        d = form_distance(P, render_cone(fam.model)) + guard
        minima = [_normal_minimum(fam, float(eps), d) for eps in eps_grid]
    elif fam.kind == "level_set":
        minima = _multiplier_minima(P, fam, [float(eps) for eps in eps_grid], guard, sigma)
    else:
        raise ConeError("an affine-line family needs its normal-form model")

    min_margin = np.inf
    disc_points = []
    for eps, (bound, w) in zip(eps_grid, minima):
        bound /= fam.lam
        z = fam.map_points(w[None, :])
        disc_points.append(z[0])
        val = fam.side * evaluate_many(cone, z)
        _check_finite(val, z, f"disc at eps={eps}", eps=eps)
        if not bound <= val[0]:
            raise VerificationFailed(
                f"disc at eps={eps}: certified bound {bound:.3e} exceeds rho*side={val[0]:.3e} at its point",
                eps=eps,
                z=z[0],
            )
        if bound <= 0:
            raise VerificationFailed(
                f"disc at eps={eps} is not certified on the claimed side (bound on rho*side={bound:.3e})",
                eps=eps,
                z=z[0],
            )
        min_margin = min(min_margin, bound)

    U = _limit_lines(fam)
    # the minimum of side * rho / |w|^2 on each line is at its maximum point for side < 0
    Z = _line_extremes(cone, fam.map_points(U))[1 if fam.side > 0 else 0 :: 2]
    kappa = fam.side * evaluate_many(cone, Z) - guard / fam.lam
    radius = np.where(kappa >= 0, 1e-3, 1.0) * fam.radius
    Z = Z * radius[:, None]
    touch = fam.side * evaluate_many(cone, Z)
    _check_finite(touch, Z, "limit disc", eps=0.0)
    bounds = kappa * radius**2
    j = int(np.argmin(bounds - touch))
    if bounds[j] > touch[j]:
        raise VerificationFailed(
            f"limit disc: certified bound {bounds[j]:.3e} exceeds rho*side={touch[j]:.3e} at its point",
            eps=0.0,
            z=Z[j],
        )
    j = int(np.argmin(bounds))
    if bounds[j] <= 0:
        raise VerificationFailed(
            f"limit disc touches the cone away from 0 (bound on rho*side={bounds[j]:.3e})",
            eps=0.0,
            z=Z[j],
        )
    return DiscReport(
        min_margin=float(min_margin),
        touch_residual=float(bounds[j]),
        points=_point_tuple(np.vstack([disc_points, Z])),
    )


def _line_extremes(cone: QuadraticCone, spans: np.ndarray) -> np.ndarray:
    """Rows t v at the maximum and then the minimum of rho / |z|^2, per row v of spans.

    With a = v^T S v: t = e^(-i arg(a)/2) gives t^2 a = |a|, i t gives -|a|.
    """
    a = np.einsum("ij,jk,ik->i", spans, cone.S, spans)
    t = np.exp(-0.5j * np.angle(a))
    return np.stack([t[:, None] * spans, 1j * t[:, None] * spans], axis=1).reshape(-1, cone.n)


def verify_support(
    cone: QuadraticCone,
    witness: SupportWitness,
    tol_rel: float = SUPPORT_TOL_REL,
) -> SupportReport:
    """Check A^+ within the closure of {rho >= 0} and A^- within {rho <= 0}, for a cone in C^2.

    Exact: rho is evaluated at the maximum and the minimum point of each
    line (module docstring), normalized by |z|^2 * (||S||_F + ||H||_F).  The
    tolerance is the tol_rel band around zero (default 1e-12), so witnesses
    inside the cone itself (the non-minimal case) pass, and a non-minimal
    witness must keep |rho| within it.  A non-finite value fails as well.  A
    failure carries its worst point as `z`; the report carries the four points.
    The points come from Python complex scalars and go through one
    evaluate_many call.
    """
    scale = max(cone.scale, 1e-300)
    (s00, s01), (_, s11) = cone.S.tolist()
    points = []
    for germ in (witness.aplus, witness.aminus):
        v0, v1 = np.asarray(germ.span, dtype=complex).tolist()
        # t^2 a = |a| for a = v^T S v; phase(a) is in [-pi, pi], so t is finite
        t = cmath.rect(1.0, -0.5 * phase((s00 * v0 + s01 * v1) * v0 + (s01 * v0 + s11 * v1) * v1))
        it = 1j * t
        points += [(t * v0, t * v1), (it * v0, it * v1)]
    Z = np.array(points)
    vals = (evaluate_many(cone, Z) / (np.linalg.norm(Z, axis=1) ** 2 * scale)).tolist()
    _check_finite(vals, Z, "supporting lines")
    _, plus_min, minus_max, _ = vals
    if plus_min < -tol_rel:
        raise VerificationFailed(
            f"A+ witness {witness.aplus.label} dips below the cone (rho={plus_min:.3e})", z=Z[1]
        )
    if minus_max > tol_rel:
        raise VerificationFailed(
            f"A- witness {witness.aminus.label} rises above the cone (rho={minus_max:.3e})", z=Z[2]
        )
    if witness.kind == "nonminimal":
        j = max(range(4), key=lambda k: abs(vals[k]))
        if abs(vals[j]) > tol_rel:
            raise VerificationFailed(
                f"non-minimal witness leaves the cone (|rho| = {abs(vals[j]):.3e})", z=Z[j]
            )
    return SupportReport(plus_min, minus_max, points=tuple(points))


def _germ(c0: complex, c1: complex, label: str) -> LinearGerm:
    """The germ {c0 z1 + c1 z2 = 0}, spanned by the unit vector along (-c1, c0)."""
    size = math.hypot(*parts(c0, c1))
    return LinearGerm(coeffs=np.array([c0, c1]), span=np.array([-c1 / size, c0 / size]), label=label)


def normal_frame_verdict(ntype: NormalFormType) -> Verdict:
    """The verdict of a normal form in its own coordinates.

    A one-sided type gets its explicit disc family, a two-sided type its
    pair of supporting lines (one line inside the cone when it is
    non-minimal).  M11_1 is two-sided when A = B (non-minimal; classify2
    snaps that stratum exactly) or A <= 1 within A_ONE_BOUNDARY_TOL; the
    A = 1 band carries a note.
    """
    tag = ntype.tag
    params = ntype.params()

    def discs(kind: str, c: np.ndarray | None = None) -> Verdict:
        fam = DiscFamily(kind=kind, side=NORMAL_SIDE[tag], c=c, model=ntype)
        return Verdict(outcome="one_sided", discs=fam)

    def lines(aplus: LinearGerm, aminus: LinearGerm, kind: str, note: str = "") -> Verdict:
        return Verdict(outcome="two_sided", witness=SupportWitness(aplus, aminus, kind), note=note)

    if tag == "M20":
        A, B = params
        return discs("level_set", np.diag([A, B]).astype(complex))
    if tag == "M10_1":
        (A,) = params
        return discs("level_set", np.diag([A, 1.0]).astype(complex))
    if tag == "M11_1":
        A, B = params
        if A == B:
            line = _germ(1j, -1.0 + 0j, "{z2 = i z1}")  # rho vanishes identically here
            return lines(line, line, "nonminimal")
        if A > 1.0 + A_ONE_BOUNDARY_TOL:
            if B < 1.0:
                return discs("affine_line")
            # 1 <= B < A: the level variety A z1^2 + B z2^2 = -eps stays below the cone
            return discs("level_set", -np.diag([A, B]).astype(complex))
        note = "A = 1 boundary: two-sided clause applies" if abs(A - 1.0) <= A_ONE_BOUNDARY_TOL else ""
        return lines(_germ(0j, 1.0 + 0j, "{z2 = 0}"), _germ(1.0 + 0j, 0j, "{z1 = 0}"), "proper", note)
    if tag == "M11_2":
        (a,) = params
        lam1 = math.pi / 2 + phase(a)  # solves e^(2 i lam) = -a / conj(a)
        lam2 = lam1 + math.pi
        g1 = _germ(cmath.exp(1j * lam1), -1.0 + 0j, f"{{z2 = e^(i{lam1:.6f}) z1}}")
        g2 = _germ(cmath.exp(1j * lam2), -1.0 + 0j, f"{{z2 = e^(i{lam2:.6f}) z1}}")
        # rho on the line with angle lam is -|z1|^2 sin(lam)
        return lines(g2, g1, "proper") if math.sin(lam1) > 0 else lines(g1, g2, "proper")
    if tag in ("M11_3", "M10_2"):
        line = _germ(1.0 + 0j, 0j, "{z1 = 0}")
        return lines(line, line, "nonminimal")
    line = _germ(1j, -1.0 + 0j, "{z2 = i z1}")  # M00_1, the last of normalform.TAGS
    return lines(line, line, "nonminimal")


def _pull_back_witness(w: SupportWitness, r: NormalFormResult) -> SupportWitness:
    """The witness's lines {z = T w : ell(w) = 0} in the cone's coordinates, unit coeffs and span.

    The functional is ell(T^-1 z), with coefficients T^-T ell = adj(T)^T ell
    / det T.  Both vectors are normalized, so T is first scaled by the power
    of two that brings its entries to at most 1 (nothing over- or
    underflows, and 2^k T gives the same germs bitwise), and 1 / det T
    enters only by its phase.
    """
    T = r.T.ravel().tolist()
    t00, t01, t10, t11 = scaled(-exponent(*parts(*T)), *T)
    turn = cmath.rect(1.0, -phase(t00 * t11 - t01 * t10))

    def pull(germ: LinearGerm) -> LinearGerm:
        c0, c1 = germ.coeffs.tolist()
        v0, v1 = germ.span.tolist()
        f0, f1 = (t11 * c0 - t10 * c1) * turn, (t00 * c1 - t01 * c0) * turn
        z0, z1 = t00 * v0 + t01 * v1, t10 * v0 + t11 * v1
        nf, nz = math.hypot(*parts(f0, f1)), math.hypot(*parts(z0, z1))
        return LinearGerm(
            coeffs=np.array([f0 / nf, f1 / nf]), span=np.array([z0 / nz, z1 / nz]), label=germ.label
        )

    ap = pull(w.aplus)
    am = ap if w.aminus is w.aplus else pull(w.aminus)  # a non-minimal witness has one line
    if r.sign < 0:
        ap, am = am, ap
    return SupportWitness(aplus=ap, aminus=am, kind=w.kind)


def decide2(r: NormalFormResult, cone: QuadraticCone | None = None) -> Verdict:
    """Top-level verdict for a classified cone in C^2.

    One-sided types get their disc family, two-sided types their pair of
    supporting lines; both are expressed in the coordinates of the cone the
    classification came from (through r.T, with r.sign folding the side).
    A classification whose residual exceeds its bound (RESIDUAL_REL times
    the scale of the rendered normal form) raises VerificationFailed.  When
    `cone` is provided, supporting lines are verified exactly at
    construction (verify_support).  A degenerate cone has no verdict: its
    DegeneracyReport from classify2 is the answer.
    """
    if r.residual > r.residual_bound:
        raise VerificationFailed(
            f"{r.tag} classification residual {r.residual:.3e} exceeds {r.residual_bound:.3e}"
        )
    v = normal_frame_verdict(r.ntype)
    if v.discs is not None:
        fam = replace(v.discs, transform=r.T, side=v.discs.side * r.sign, lam=r.lam)
        return Verdict(outcome="one_sided", discs=fam)
    witness = _pull_back_witness(v.witness, r)
    if cone is not None:
        verify_support(cone, witness)
    return Verdict(outcome="two_sided", witness=witness, note=v.note)


def jump_demo(seed: int = 0, samples: int = 10_000) -> JumpReport:
    """The jump decomposition f = F+ - F- on the motivating cone.

    f = z2^2/z1 - z1^2/z2 restricted to the cone is continuous up to 0 with
    f(0) = 0; F+ = z2^2/z1 and F- = z1^2/z2 are holomorphic on the two
    sides.  The identity residual is algebraically zero; the continuity
    ratio max |f| / |z| stays bounded because |z1| and |z2| are comparable
    on the cone.
    """
    cone = example_m()
    Z = sample_points(cone, seed=seed, count=samples, radius=1.0)
    z1, z2 = Z[:, 0], Z[:, 1]
    safe = np.minimum(np.abs(z1), np.abs(z2)) >= 1e-2
    f = (z2**3 - z1**3) / (z1 * z2)  # same function, different rounding path
    f_plus = z2**2 / z1
    f_minus = z1**2 / z2
    identity_residual = float(np.max(np.abs(f_plus[safe] - f_minus[safe] - f[safe])))
    norms = np.linalg.norm(Z, axis=1)
    ratio = float(np.max(np.abs(f) / norms))
    return JumpReport(
        identity_residual=identity_residual,
        continuity_ratio=ratio,
        points_checked=int(samples),
    )
