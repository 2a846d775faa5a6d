"""The tests' oracles: seeded point samplers and the numpy forms of the n = 2 scalar code.

The library checks a witness at the points that attain its certified bounds
(decider.verify_discs, decider.verify_support).  The samplers draw many
more points, uniformly in the disc parameter, so the tests can confirm
that no sampled point beats a certified bound.

The library computes the n = 2 signatures, the pulled-back supporting lines
and their extremal points, and the disc certificate's pullback, allowance
and points on Python scalars.  The numpy_* functions compute the same from
numpy arrays, as the library did before, so the tests can compare the two
on spread inputs (spread_cones2) and on the benchmark's inputs.
"""

from __future__ import annotations

import math

import numpy as np

from quadcone.decider import (
    CERT_ROUNDING,
    NORMAL_SIDE,
    DiscFamily,
    DiscReport,
    LinearGerm,
    SupportWitness,
    VerificationFailed,
    _normal_minimum,
)
from quadcone.normalform import NormalFormResult, render_cone
from quadcone.quadform import (
    _FORM_BLOCK,
    ConeError,
    QuadraticCone,
    evaluate_many,
    form_distance,
    mat_norm,
    real_form_matrix,
)


def _solve_level_points(c: np.ndarray, eps: float, count: int, rng, radius: float) -> np.ndarray:
    """Points on {w^T c w = eps} with |w| <= radius, via a quadratic solve.

    The coordinate with the larger diagonal coefficient is solved for given
    polar samples of the other; degenerate leading coefficients fall back to
    the linear root.
    """
    j = 0 if abs(c[0, 0]) >= abs(c[1, 1]) else 1  # the column solved for
    a = c[j, j]
    m = count
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, m))
    free = r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, m))
    b = 2.0 * c[0, 1] * free
    cc = c[1 - j, 1 - j] * free**2 - eps
    if abs(a) > 1e-14:
        sq = np.sqrt(b * b - 4.0 * a * cc)
        W = np.empty((2, m, 2), dtype=complex)  # the + root's rows, then the - root's
        W[:, :, 1 - j] = free
        W[0, :, j] = (-b + sq) / (2 * a)
        W[1, :, j] = (-b - sq) / (2 * a)
        W = W.reshape(2 * m, 2)
    else:
        mask = np.abs(b) > 1e-14
        W = np.empty((int(mask.sum()), 2), dtype=complex)
        W[:, 1 - j] = free[mask]
        W[:, j] = -cc[mask] / b[mask]
    keep = np.linalg.norm(W, axis=1) <= radius
    return W[keep]


def _disc_points(fam: DiscFamily, eps: float, count: int, rng, radius: float = DiscFamily.radius) -> np.ndarray:
    """Points of the family's D_eps within |w| <= radius, in the family frame."""
    if fam.kind == "level_set":
        return _solve_level_points(fam.c, eps, count, rng, radius)
    if fam.kind == "affine_line":
        w1 = fam.shift * eps
        rmax = np.sqrt(max(radius**2 - abs(w1) ** 2, 0.0))
        r = rmax * np.sqrt(rng.uniform(0.0, 1.0, count))
        w2 = r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))
        return np.column_stack([np.full(count, w1), w2])
    raise ConeError(f"unknown disc family kind {fam.kind!r}")


def _germ_points(germ: LinearGerm, count: int, rng) -> np.ndarray:
    r = np.sqrt(rng.uniform(0.0, 1.0, count))
    t = r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))
    return np.outer(t, germ.span)


def spread_cones2(seed: int, count: int) -> list:
    """n = 2 cones with normal entries times 2^e, e uniform in [-1000, 1000].

    H is in turn general, singular (v v^* of rank one), diagonal, and with
    equal diagonal entries; S is general.
    """
    rng = np.random.default_rng(seed)

    def c():
        return complex(rng.standard_normal(), rng.standard_normal())

    cones = []
    for k in range(count):
        s00, s01, s11 = c(), c(), c()
        h00, h11, h01 = rng.standard_normal(), rng.standard_normal(), c()
        if k % 4 == 1:
            x, y = c(), c()
            h00, h01, h11 = abs(x) ** 2, x * y.conjugate(), abs(y) ** 2
        elif k % 4 == 2:
            h01 = 0j
        elif k % 4 == 3:
            h11 = h00
        f = math.ldexp(1.0, int(rng.integers(-1000, 1001)))
        S = f * np.array([[s00, s01], [s01, s11]])
        H = f * np.array([[h00, h01], [h01.conjugate(), h11]])
        cones.append(QuadraticCone(S, H))
    return cones


def numpy_interleaved_form(cone: QuadraticCone) -> np.ndarray:
    """quadform._interleaved_form's matrix from numpy products, in any C^n."""
    n = cone.n
    parts = np.concatenate([M.view(np.float64).reshape(n, n, 2) for M in (cone.S, cone.H)], axis=2)
    return (parts @ _FORM_BLOCK).reshape(n, n, 2, 2).transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)


def numpy_pull_back_witness(w: SupportWitness, r: NormalFormResult) -> SupportWitness:
    """decider._pull_back_witness through np.linalg.inv(T)."""
    Tinv = np.linalg.inv(r.T)

    def pull(germ: LinearGerm) -> LinearGerm:
        coeffs, span = Tinv.T @ germ.coeffs, r.T @ germ.span
        return LinearGerm(coeffs / np.linalg.norm(coeffs), span / np.linalg.norm(span), germ.label)

    ap, am = pull(w.aplus), pull(w.aminus)
    return SupportWitness(am, ap, w.kind) if r.sign < 0 else SupportWitness(ap, am, w.kind)


def _line_extremes(cone: QuadraticCone, spans: np.ndarray) -> np.ndarray:
    """Rows t v at the maximum and then the minimum of rho / |z|^2, per row v of spans.

    With a = v^T S v: t = e^(-i arg(a)/2) gives t^2 a = |a|, i t gives -|a|.
    """
    a = np.einsum("ij,jk,ik->i", spans, cone.S, spans)
    t = np.exp(-0.5j * np.angle(a))
    return np.stack([t[:, None] * spans, 1j * t[:, None] * spans], axis=1).reshape(-1, cone.n)


def numpy_line_values(cone: QuadraticCone, w: SupportWitness) -> tuple[np.ndarray, np.ndarray]:
    """(Z, rho(Z) / (|Z|^2 scale)) of verify_support: the maximum and minimum point of A+, then of A-."""
    Z = _line_extremes(cone, np.array([w.aplus.span, w.aminus.span]))
    return Z, evaluate_many(cone, Z) / (np.linalg.norm(Z, axis=1) ** 2 * max(cone.scale, 1e-300))


def _numpy_multiplier_minima(P: QuadraticCone, fam: DiscFamily, eps_grid, guard: float, sigma: float):
    """decider._multiplier_minima on the pullback cone P, its real forms from real_form_matrix."""
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


def _numpy_limit_lines(fam: DiscFamily) -> np.ndarray:
    """decider._limit_lines as the rows of an array."""
    if fam.kind == "affine_line":
        return np.array([[0.0, 1.0]], dtype=complex)
    (a, b), (_, d) = np.asarray(fam.c, dtype=complex)
    if d != 0:
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


def numpy_verify_discs(cone: QuadraticCone, fam: DiscFamily, eps_grid) -> DiscReport:
    """decider.verify_discs from numpy arrays: the pullback T^T S T, T^H H T as a cone, its
    form_distance to the rendered model, the SVD's sigma_max(c), and evaluate_many per check."""
    if len(eps_grid) == 0:
        raise ConeError("eps_grid must be nonempty")
    if not all(eps > 0 for eps in eps_grid):
        raise ConeError("eps grid entries must be positive")
    if not fam.lam > 0:
        raise ConeError("lam must be positive")
    frame = fam.map_points(np.eye(2, dtype=complex))
    vals = evaluate_many(cone, frame)
    for j, val in enumerate(vals):
        if not np.isfinite(val):
            raise VerificationFailed("disc family frame: rho is not finite at a checked point", z=frame[j])
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
        minima = _numpy_multiplier_minima(P, fam, [float(eps) for eps in eps_grid], guard, sigma)
    else:
        raise ConeError("an affine-line family needs its normal-form model")

    min_margin = np.inf
    disc_points = []
    for eps, (bound, w) in zip(eps_grid, minima):
        bound /= fam.lam
        z = fam.map_points(np.asarray(w, dtype=complex)[None, :])
        disc_points.append(z[0])
        val = fam.side * evaluate_many(cone, z)
        if not np.isfinite(val[0]):
            raise VerificationFailed(
                f"disc at eps={eps}: rho is not finite at a checked point", eps=eps, z=z[0]
            )
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

    U = _numpy_limit_lines(fam)
    Z = _line_extremes(cone, fam.map_points(U))[1 if fam.side > 0 else 0 :: 2]
    kappa = fam.side * evaluate_many(cone, Z) - guard / fam.lam
    radius = np.where(kappa >= 0, 1e-3, 1.0) * fam.radius
    Z = Z * radius[:, None]
    touch = fam.side * evaluate_many(cone, Z)
    for j, val in enumerate(touch):
        if not np.isfinite(val):
            raise VerificationFailed("limit disc: rho is not finite at a checked point", eps=0.0, z=Z[j])
    bounds = kappa * radius**2
    j = int(np.argmax(bounds - touch))
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
        points=tuple(map(tuple, np.vstack([disc_points, Z]).tolist())),
    )
