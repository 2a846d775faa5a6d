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
from typing import NamedTuple

from .fixtures import example_m
from .normalform import NormalFormResult, NormalFormType, _table_form
from .quadform import ConeError, QuadraticCone, _form2, _row_norms, evaluate_many, form_norm2, rho_at, sample_points
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
# T^H H T (at most scale * |T|_F^2).  With u = 2^-53, the steps are: forming
# the pullback entry by entry, S T and H T first (two n-term complex products
# per entry, Higham's gamma_(2n+4)); scaling it by k = lam * side, subtracting
# the model's entries and summing the real form of the difference (three
# roundings, 3u); taking its eigenvalues (backward stable, about 2u); and
# evaluating rho at a computed point z = T w (two dot products of length 2n,
# gamma_(4n+1), plus the rounding of w and of T w, 8u).  They stay below
# sqrt(2) (6n + 18) u <= 11 n * 2^-52 for n >= 2, a real form's Frobenius norm
# being at most sqrt(2) times its pair's; 16 leaves room for the eigenvalue
# solver's constant.
CERT_ROUNDING = 16 * 2.0**-52
# The side of each one-sided normal form in its own frame: discs stay where side * rho_normal > 0.
NORMAL_SIDE = {"M20": +1, "M10_1": +1, "M11_1": -1}


class VerificationFailed(ConeError):
    """A failed check; z is the point it failed at, a row of complex numbers, when there is one."""

    def __init__(self, message: str, eps: float | None = None, z=None):
        super().__init__(message)
        self.eps = eps
        self.z = z


class DiscFamily(NamedTuple):
    """Family D_eps in a 2-dimensional frame, mapped into cone coordinates by `transform` (n x 2).

    The transform is an array, or for a cone in C^2 rows ((t00, t01), (t10,
    t11)), as NormalFormResult.T; verify_discs requires one.  c is rows of
    Python complex.

    kind "level_set": D_eps = {w : w^T c w = eps, |w| <= radius}; kind
    "affine_line": D_eps = {w : w1 = shift * eps, |w| <= radius}.  The model
    fixes both: the affine line for M11_1 with B < 1, else c = diag(A, B)
    (M20), diag(A, 1) (M10_1), -diag(A, B) (M11_1), or I without a model (a
    definite slice, certified from the cone's real form alone).  radius = 1
    and shift = i are constants that the report echoes; verify_discs is
    written for them and reads neither.  `side` is the expected sign of rho
    on D_eps for eps > 0, in the coordinates of the cone the family is
    verified against, and lam the classification's: NORMAL_SIDE[tag] * side
    * lam * rho(transform w) is rho_model(w) up to the classification's
    residual.
    """

    side: int
    transform: object = None
    model: NormalFormType | None = None
    lam: float = 1.0
    radius = 1.0  # unannotated, so a class attribute and not a field
    shift = 1j

    @property
    def kind(self) -> str:
        m = self.model
        return "affine_line" if m is not None and m.tag == "M11_1" and m.b < 1.0 else "level_set"

    @property
    def c(self) -> tuple | None:
        m = self.model
        if m is None:
            return (1.0 + 0j, 0j), (0j, 1.0 + 0j)
        if self.kind == "affine_line":
            return None
        A, _, B = _table_form(m)[0]
        c = (complex(A), 0j), (0j, complex(B))
        return tuple((-a, -b) for a, b in c) if m.tag == "M11_1" else c


class LinearGerm(NamedTuple):
    """Complex line {z : coeffs . z = 0} through 0, spanned by `span`; both are pairs of complex."""

    coeffs: tuple
    span: tuple
    label: str


class SupportWitness(NamedTuple):
    aplus: LinearGerm
    aminus: LinearGerm
    kind: str  # "proper" | "nonminimal"


class Verdict(NamedTuple):
    """A one-sided verdict carries its disc family, a two-sided one its supporting lines."""

    discs: DiscFamily | None = None
    witness: SupportWitness | None = None
    note: str = ""

    @property
    def outcome(self) -> str:
        return "two_sided" if self.discs is None else "one_sided"

    @property
    def side(self) -> int | None:
        return None if self.discs is None else self.discs.side


class DiscReport(NamedTuple):
    """Certified bounds of a disc family; points: one per eps of the grid, then one per limit-disc line."""

    min_margin: float
    touch_residual: float
    points: tuple

    @property
    def points_checked(self) -> int:
        return len(self.points)


class SupportReport(NamedTuple):
    """Exact line extremes; points: the maximum and minimum point of A+, then of A-."""

    plus_min: float
    minus_max: float
    points: tuple

    @property
    def points_checked(self) -> int:
        return len(self.points)


class JumpReport(NamedTuple):
    identity_residual: float
    continuity_ratio: float
    points_checked: int


def _check_finite(vals, Z, what: str, eps: float | None = None) -> None:
    """Raise VerificationFailed at the first point of Z whose checked value (of a few) is not finite."""
    for j, val in enumerate(vals):
        if not math.isfinite(val):
            raise VerificationFailed(f"{what}: rho is not finite at a checked point", eps=eps, z=Z[j])


def _turn(S: tuple, v0: complex, v1: complex) -> complex:
    """The unit t with t^2 a = |a| for a = v^T S v, S = (s00, s01, s11): phase(a) is in [-pi, pi], so t is finite."""
    s00, s01, s11 = S
    return cmath.rect(1.0, -0.5 * phase(v0 * (s00 * v0 + s01 * v1) + v1 * (s01 * v0 + s11 * v1)))


def _abs(z: complex) -> float:
    """|z| by math.hypot, which gives inf where abs of a complex raises OverflowError."""
    return math.hypot(z.real, z.imag)


def _pullback(cone: QuadraticCone, T) -> tuple[tuple, tuple, tuple]:
    """T^T S T, T^H H T and |T|^T (|S| + |H|) |T| for an n x 2 T, each as its entries (m00, m01, m11).

    For a cone in C^2 they come from Python scalars, S T and H T first; in
    C^n, n >= 3, from numpy products in the same order.
    """
    if cone.n > 2:
        import numpy as np
        S, H, T = cone.S, cone.H, np.asarray(T, dtype=complex)
        aT = np.abs(T)
        (p00, p01), (_, p11) = (T.T @ (S @ T)).tolist()
        (q00, q01), (_, q11) = (T.conj().T @ (H @ T)).tolist()
        (m00, m01), (_, m11) = (aT.T @ ((np.abs(S) + np.abs(H)) @ aT)).tolist()
        return (p00, p01, p11), (q00, q01, q11), (m00, m01, m11)
    (t00, t01), (t10, t11) = ((complex(t) for t in row) for row in T)
    (s00, s01), (_, s11) = cone.s2
    (h00, h01), (h10, h11) = cone.h2
    # (a, b) is the matrix times T's two columns, in turn S, H and |S| + |H| (times |T|'s)
    a0, a1 = s00 * t00 + s01 * t10, s01 * t00 + s11 * t10
    b0, b1 = s00 * t01 + s01 * t11, s01 * t01 + s11 * t11
    pS = (t00 * a0 + t10 * a1, t00 * b0 + t10 * b1, t01 * b0 + t11 * b1)
    a0, a1 = h00 * t00 + h01 * t10, h10 * t00 + h11 * t10
    b0, b1 = h00 * t01 + h01 * t11, h10 * t01 + h11 * t11
    c00, c01, c10, c11 = t00.conjugate(), t01.conjugate(), t10.conjugate(), t11.conjugate()
    pH = (c00 * a0 + c10 * a1, c00 * b0 + c10 * b1, c01 * b0 + c11 * b1)
    g00, g01, g11 = _abs(s00) + _abs(h00), _abs(s01) + _abs(h01), _abs(s11) + _abs(h11)
    x0, x1, y0, y1 = _abs(t00), _abs(t10), _abs(t01), _abs(t11)
    a0, a1 = g00 * x0 + g01 * x1, g01 * x0 + g11 * x1
    b0, b1 = g00 * y0 + g01 * y1, g01 * y0 + g11 * y1
    return pS, pH, (x0 * a0 + x1 * a1, x0 * b0 + x1 * b1, y0 * b0 + y1 * b1)


def _normal_minimum(fam: DiscFamily, eps: float, d: float) -> tuple[float, tuple]:
    """min of q - d |w|^2 over D_eps and |w| <= 1, q = NORMAL_SIDE * rho_model, with its point.

    The point attains the minimum when d = 0 (for M10_1 when eps <= 1).
    On each family q has a closed form:
    - M20 (c = diag(A, B), A > 1, B <= A): q = eps + |w|^2 and |w|^2 >= eps / A;
    - M10_1 (c = diag(A, 1)): q = eps + |w1|^2, so the perturbation costs at
      most d;
    - M11_1 level set (c = -diag(A, B), 1 <= B < A): q = eps - |w1|^2 + |w2|^2
      and A |w1|^2 = |eps + B w2^2| <= eps + B |w2|^2;
    - M11_1 affine line w1 = i eps (B < 1): q = (A - 1) eps^2 - Re(B w2^2) +
      |w2|^2, and -Re(B w2^2) >= -B |w2|^2.
    """
    tag, A, B = fam.model
    if fam.kind == "affine_line":
        free = (1.0 - B - d) * (1.0 - eps**2)
        return (A - (1.0 + d)) * eps**2 + min(0.0, free), (1j * eps, 0.0)
    if tag == "M20":
        return eps + (1.0 - d) * (eps / A if d <= 1.0 else 1.0), (math.sqrt(eps / A), 0.0)
    if tag == "M10_1":
        return eps - d, (0.0, math.sqrt(eps))
    free = 1.0 - d - (1.0 + d) * B / A
    return eps * (1.0 - (1.0 + d) / A) + min(0.0, free), (1j * math.sqrt(eps / A), 0.0)


# _form2's interleaved order x1, y1, x2, y2, permuted to x1, x2, y1, y2: a vector's Re w, then its Im w
_XY = (0, 2, 1, 3)


def _multiplier_minima(P: tuple, eps_grid: list, guard: float):
    """Lower bounds on rho_P over each level set D_eps = {w^T w = eps, |w| <= 1}, with points.

    P is the pair (S, H) of rho_P in C^2 as entries (m00, m01, m11).  For
    every real mu, rho_P(w) >= mu Re(w^T w) + l_mu |w|^2 with l_mu =
    lambda_min(G - mu J), G and J the real forms of rho_P and Re(w^T w).
    On D_eps, |w|^2 lies in [eps, 1], so mu eps + min(l_mu eps, l_mu)
    bounds rho_P there for any mu.  mu = 0 is the eigenvalue bound; for
    l_mu >= 0 the bound grows with mu up to the largest mu with G - mu J >=
    0, a real eigenvalue of J^-1 G, so the candidates are 0 and the real
    parts of those eigenvalues.  Each l_mu is lowered by the rounding
    allowance guard + CERT_ROUNDING * 2 * |mu|.  The point comes from the
    eigenvector of l_mu, scaled onto the level set.  Where G is not finite
    every bound is nan, at the point (sqrt(eps), 0).
    """
    import numpy as np
    xy = np.ix_(_XY, _XY)
    G = np.array(_form2(*P))[xy]
    J = np.array(_form2((1 + 0j, 0j, 1 + 0j), (0j, 0j, 0j)))[xy]  # the real form of Re(w^T w)
    mus, ells, vecs = np.zeros(1), np.full(1, math.nan), np.eye(4)[None]
    if np.isfinite(G).all():
        mus = np.append(mus, np.linalg.eigvals(np.linalg.solve(J, G)).real)
        ells, vecs = np.linalg.eigh(G - mus[:, None, None] * J)
        ells = ells[:, 0] - guard - CERT_ROUNDING * 2 * np.abs(mus)
    out = []
    for eps in eps_grid:
        bounds = mus * eps + np.minimum(ells * eps, ells)
        k = int(np.argmax(bounds))
        w0 = vecs[k, :2, 0] + 1j * vecs[k, 2:, 0]
        out.append((float(bounds[k]), (np.sqrt(eps / (w0 @ w0)) * w0).tolist()))
    return out


def _limit_lines(a: complex, b: complex, d: complex) -> list[tuple[complex, complex]]:
    """Unit vectors spanning the complex lines of {w^T c w = 0}, c = [[a, b], [b, d]] diagonal and not 0.

    b is a signed zero, kept so that the lines' zero parts follow c's.
    Their union is the limit disc D_0 of the level set of c, in the family frame.
    """
    if d == 0:
        return [(0j, 1 + 0j)]
    # w = (d, x) with x^2 + 2 b x + a d = 0
    root = cmath.sqrt(b * b - a * d)
    rows = [(d, -b + root)] + ([(d, -b - root)] if root != 0 else [])
    return [(x / size, y / size) for x, y in rows for size in (math.hypot(*parts(x, y)),)]


def verify_discs(cone: QuadraticCone, fam: DiscFamily, eps_grid) -> DiscReport:
    """Certify side * rho > 0 on each D_eps of the grid and on the limit disc, without samples.

    min_margin is the smallest, over eps in the grid, certified lower bound on
    side * rho over D_eps: for a normal-form family the closed form of
    _normal_minimum, evaluated after pulling the cone back through the
    family's transform T (the pullback P = sign * lam * rho(T w) differs from
    the model by at most delta |w|^2, delta the spectral norm of the real
    form of their difference, so the bound is the minimum of the model with
    delta |w|^2 subtracted, divided by lam); for a family without a model the
    multiplier bound of _multiplier_minima.  touch_residual is the exact
    minimum of side * rho over the limit disc D_0 (eps = 0) with |w| >= 1e-3
    in the family's own frame: D_0 is one or two complex lines,
    and on a line spanned by v, side * rho / |w|^2 is smallest at t v or i t v,
    t^2 a = |a| for a = v^T (T^T S T) v (module docstring).  Every bound is
    lowered by the rounding allowance CERT_ROUNDING * n * lam * |(|T|^T (|S|
    + |H|) |T|)|_F per unit |w|^2, in the pullback's units.  T may map into a
    cone in C^n, n >= 3 (a slice basis composed with the change of
    variables), so the allowance is that of the input, not of a restriction
    computed from it.

    The family's transform is required (ConeError without one).  The 2 x 2
    pullback, the allowance, the reach of D_eps, the closed forms and the
    points T w are Python scalars; for n >= 3 the pullback and T w come from
    numpy products.  Each bound comes with the point that attains it (for a
    multiplier bound, the eigenvector's point on D_eps), and one call (rho_at,
    or evaluate_many for n >= 3) evaluates rho at the frame's columns T e_1,
    T e_2, at these points and at each limit line's point at radius 1 and
    1e-3.  The checks run in this order: the frame's values are finite;
    D_eps is not empty within the unit radius (eps <= max |c_jj| for a level
    set, c being diagonal, and eps <= 1 for the affine line w1 = i eps); at
    each eps the value is finite and at least the bound,
    and the bound is positive; on the limit disc the same on every line, at
    the radius where the line's bound is smaller.  The report carries the
    points of the grid and of the limit disc, in that order.
    """
    if len(eps_grid) == 0:
        raise ConeError("eps_grid must be nonempty")
    if not all(eps > 0 for eps in eps_grid):
        raise ConeError("eps grid entries must be positive")
    if not fam.lam > 0:
        raise ConeError("lam must be positive")
    if fam.transform is None:
        raise ConeError("the disc family has no transform")
    side, lam, c, T = fam.side, fam.lam, fam.c, fam.transform
    pS, pH, (m00, m01, m11) = _pullback(cone, T)
    # mat_norm's Frobenius norm, nan where an entry is not finite as there
    guard = CERT_ROUNDING * cone.n * lam
    guard *= math.hypot(m00, m01, m01, m11) if math.isfinite(m00 + m01 + m11) else math.nan
    if c is None:
        reach = 1.0
    else:
        (c00, c01), (_, c11) = c
        reach = max(_abs(c00), _abs(c11))
    far = next((eps for eps in eps_grid if eps > reach), None)
    rows = [(1.0, 0.0), (0.0, 1.0)]  # the frame
    lines = []  # per limit line, the row of its point at radius 1; the next row is at 1e-3
    if far is None:
        eps_list = [float(eps) for eps in eps_grid]
        k = lam * side * (1 if fam.model is None else NORMAL_SIDE[fam.model.tag])
        P = tuple(k * p for p in pS), tuple(k * p for p in pH)
        if fam.model is not None:
            St, Ht = _table_form(fam.model)
            try:
                d = form_norm2(tuple(p - t for p, t in zip(P[0], St)), tuple(p - t for p, t in zip(P[1], Ht)))
            except ConeError:  # the real form of the difference is not finite
                d = math.nan
            minima = [_normal_minimum(fam, eps, d + guard) for eps in eps_list]
        else:
            minima = _multiplier_minima(P, eps_list, guard)
        rows += [w for _, w in minima]
        for u0, u1 in [(0j, 1 + 0j)] if c is None else _limit_lines(c00, c01, c11):
            # the minimum of side * rho / |w|^2 on the line is at its maximum point for side < 0
            t = _turn(pS, u0, u1)
            if side > 0:
                t *= 1j
            lines.append(len(rows))
            rows += [(t * u0, t * u1), (t * u0 * 1e-3, t * u1 * 1e-3)]
    if cone.n > 2:  # z = T w and rho by numpy products, as the pullback
        import numpy as np
        Z = np.array(rows, dtype=complex) @ np.asarray(T).T
        vals = [side * v for v in evaluate_many(cone, Z).tolist()]
        Z = Z.tolist()  # the checks below and the report read rows of Python complex
    else:
        (t00, t01), (t10, t11) = T
        Z = [(t00 * w0 + t01 * w1, t10 * w0 + t11 * w1) for w0, w1 in rows]
        vals = [side * v for v in rho_at(cone, Z)]
    _check_finite(vals[:2], Z, "disc family frame")
    if far is not None:
        raise VerificationFailed(f"no disc points found at eps={far}", eps=far)

    min_margin = math.inf
    for j, (eps, (bound, _)) in enumerate(zip(eps_grid, minima), start=2):
        bound /= lam
        val = vals[j]
        _check_finite([val], Z[j:], f"disc at eps={eps}", eps=eps)
        if not bound <= val:
            raise VerificationFailed(
                f"disc at eps={eps}: certified bound {bound:.3e} exceeds rho*side={val:.3e} at its point",
                eps=eps,
                z=Z[j],
            )
        if bound <= 0:
            raise VerificationFailed(
                f"disc at eps={eps} is not certified on the claimed side (bound on rho*side={bound:.3e})",
                eps=eps,
                z=Z[j],
            )
        min_margin = min(min_margin, bound)

    # per line, kappa = side * rho / |w|^2 at its point at radius 1 less the
    # allowance; kappa |w|^2 is smallest at 1e-3 for kappa >= 0, else (nan too) at 1
    picked, bounds = [], []
    for j in lines:
        kappa = vals[j] - guard / lam
        at_radius = not kappa >= 0
        picked.append(j if at_radius else j + 1)
        bounds.append(kappa if at_radius else kappa * 1e-3 * 1e-3)
    touch = [vals[j] for j in picked]
    _check_finite(touch, [Z[j] for j in picked], "limit disc", eps=0.0)
    j = max(range(len(lines)), key=lambda i: bounds[i] - touch[i])
    if bounds[j] > touch[j]:
        raise VerificationFailed(
            f"limit disc: certified bound {bounds[j]:.3e} exceeds rho*side={touch[j]:.3e} at its point",
            eps=0.0,
            z=Z[picked[j]],
        )
    j = min(range(len(lines)), key=bounds.__getitem__)
    if bounds[j] <= 0:
        raise VerificationFailed(
            f"limit disc touches the cone away from 0 (bound on rho*side={bounds[j]:.3e})",
            eps=0.0,
            z=Z[picked[j]],
        )
    return DiscReport(
        min_margin=float(min_margin),
        touch_residual=float(bounds[j]),
        points=tuple(map(tuple, Z[2 : 2 + len(minima)] + [Z[i] for i in picked])),
    )


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
    The points come from Python complex scalars and go through one rho_at
    call.
    """
    scale = max(cone.scale, 1e-300)
    (s00, s01), (_, s11) = cone.s2
    Z = []
    for germ in (witness.aplus, witness.aminus):
        v0, v1 = map(complex, germ.span)
        t = _turn((s00, s01, s11), v0, v1)
        it = 1j * t
        Z += [(t * v0, t * v1), (it * v0, it * v1)]
    vals = [v / (size * size * scale) for v, size in zip(rho_at(cone, Z), (math.hypot(*parts(*z)) for z in Z))]
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
    return SupportReport(plus_min, minus_max, points=tuple(Z))


def _germ(c0: complex, c1: complex, label: str) -> LinearGerm:
    """The germ {c0 z1 + c1 z2 = 0}, spanned by the unit vector along (-c1, c0)."""
    size = math.hypot(*parts(c0, c1))
    return LinearGerm(coeffs=(c0, c1), span=(-c1 / size, c0 / size), label=label)


def normal_frame_verdict(ntype: NormalFormType) -> Verdict:
    """The verdict of a normal form in its own coordinates.

    A one-sided type gets its explicit disc family, a two-sided type its
    pair of supporting lines (one line inside the cone when it is
    non-minimal).  M11_1 is two-sided when A = B (non-minimal; classify2
    snaps that stratum exactly) or A <= 1 within A_ONE_BOUNDARY_TOL; the
    A = 1 band carries a note.
    """
    tag, A, B = ntype
    proper = tag == "M11_1" and A != B  # A = B: rho vanishes on {z2 = i z1}
    if tag in ("M20", "M10_1") or proper and A > 1.0 + A_ONE_BOUNDARY_TOL:
        # M11_1 gets the affine line for B < 1, else the level set of -diag(A, B)
        return Verdict(discs=DiscFamily(side=NORMAL_SIDE[tag], model=ntype))
    if proper:
        note = "A = 1 boundary: two-sided clause applies" if abs(A - 1.0) <= A_ONE_BOUNDARY_TOL else ""
        witness = SupportWitness(_germ(0j, 1.0 + 0j, "{z2 = 0}"), _germ(1.0 + 0j, 0j, "{z1 = 0}"), "proper")
        return Verdict(witness=witness, note=note)
    if tag == "M11_2":
        lam1 = math.pi / 2 + phase(A)  # solves e^(2 i lam) = -A / conj(A)
        lam2 = lam1 + math.pi
        g1 = _germ(cmath.exp(1j * lam1), -1.0 + 0j, f"{{z2 = e^(i{lam1:.6f}) z1}}")
        g2 = _germ(cmath.exp(1j * lam2), -1.0 + 0j, f"{{z2 = e^(i{lam2:.6f}) z1}}")
        # rho on the line with angle lam is -|z1|^2 sin(lam)
        aplus, aminus = (g2, g1) if math.sin(lam1) > 0 else (g1, g2)
        return Verdict(witness=SupportWitness(aplus, aminus, "proper"))
    # non-minimal: one line inside the cone, {z1 = 0} for M11_3 and M10_2, else {z2 = i z1}
    line = _germ(1.0 + 0j, 0j, "{z1 = 0}") if tag in ("M11_3", "M10_2") else _germ(1j, -1.0 + 0j, "{z2 = i z1}")
    return Verdict(witness=SupportWitness(line, line, "nonminimal"))


def _pull_back_witness(w: SupportWitness, r: NormalFormResult) -> SupportWitness:
    """The witness's lines {z = T w : ell(w) = 0} in the cone's coordinates, unit coeffs and span.

    The functional is ell(T^-1 z), with coefficients T^-T ell = adj(T)^T ell
    / det T.  Both vectors are normalized, so T is first scaled by the power
    of two that brings its entries to at most 1 (nothing over- or
    underflows, and 2^k T gives the same germs bitwise), and 1 / det T
    enters only by its phase.
    """
    T = [complex(t) for row in r.T for t in row]
    t00, t01, t10, t11 = scaled(-exponent(*parts(*T)), *T)
    turn = cmath.rect(1.0, -phase(t00 * t11 - t01 * t10))

    def pull(germ: LinearGerm) -> LinearGerm:
        c0, c1 = germ.coeffs
        v0, v1 = germ.span
        f0, f1 = (t11 * c0 - t10 * c1) * turn, (t00 * c1 - t01 * c0) * turn
        z0, z1 = t00 * v0 + t01 * v1, t10 * v0 + t11 * v1
        nf, nz = math.hypot(*parts(f0, f1)), math.hypot(*parts(z0, z1))
        return LinearGerm(coeffs=(f0 / nf, f1 / nf), span=(z0 / nz, z1 / nz), label=germ.label)

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
        return Verdict(discs=v.discs._replace(transform=r.T, side=v.discs.side * r.sign, lam=r.lam))
    witness = _pull_back_witness(v.witness, r)
    if cone is not None:
        verify_support(cone, witness)
    return Verdict(witness=witness, note=v.note)


def jump_demo(seed: int = 0, samples: int = 10_000) -> JumpReport:
    """The jump decomposition f = F+ - F- on the motivating cone.

    f = z2^2/z1 - z1^2/z2 restricted to the cone is continuous up to 0 with
    f(0) = 0; F+ = z2^2/z1 and F- = z1^2/z2 are holomorphic on the two
    sides.  The identity residual is algebraically zero; the continuity
    ratio max |f| / |z| stays bounded because |z1| and |z2| are comparable
    on the cone.
    """
    import numpy as np
    cone = example_m()
    Z = sample_points(cone, seed=seed, count=samples)
    z1, z2 = Z[:, 0], Z[:, 1]
    safe = np.minimum(np.abs(z1), np.abs(z2)) >= 1e-2
    f = (z2**3 - z1**3) / (z1 * z2)  # same function, different rounding path
    f_plus = z2**2 / z1
    f_minus = z1**2 / z2
    identity_residual = float(np.max(np.abs(f_plus[safe] - f_minus[safe] - f[safe])))
    norms = _row_norms(Z)
    ratio = float(np.max(np.abs(f) / norms))
    return JumpReport(
        identity_residual=identity_residual,
        continuity_ratio=ratio,
        points_checked=int(samples),
    )
