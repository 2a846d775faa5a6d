"""The tests' cone builder and oracles: seeded point samplers and the numpy forms of the n = 2 scalar code.

apply_change builds the tests' cones: it pulls a cone back through a
change of variables, in any C^n.  replace copies a record with fields
changed through its constructor, so the constructor's checks run again;
own_frame gives a family without a transform (a normal form's own, a
definite slice's) the identity, for verify_discs in the family's frame.  factor_preserver writes a preserver of
Im(z1 conj(z2)) as a phase times a real matrix; no command needs it.
real_form_matrix and oneone_frame_invariants are the reference forms that
the tests compare the library's answers with, and whole_batch_sample_points the reference
that sample_points must equal bitwise.  It keeps numpy's general paths:
np.linalg.norm, fancy row gathers and reference_real_roots, its own copy
of quadform._real_roots with 2-D np.nonzero indices.  list_jacobi4 and
summed_rho_at2 are the list-of-lists Jacobi and the summed n = 2 rho_at
that quadform's scalar kernels replaced, which those must equal bitwise.

The library checks a witness at the points that attain its certified bounds
(decider.verify_discs, decider.verify_support).  The samplers draw many
more points, uniformly in the disc parameter, so the tests can confirm
that no sampled point beats a certified bound.

The library computes the n = 2 signatures, the pulled-back supporting lines
and their extremal points, and the disc certificate's pullback, allowance
and points on Python scalars.  The numpy_* functions compute the same from
numpy arrays, as the library did before, so the tests can compare the two
on spread inputs (spread_cones2) and on the benchmark's inputs.

E_HERM and CHOFVAR are the arrays of the library's row constants: the
hermitian matrix of Im(z1 conj(z2)), and the change of variables from its
frame to the |z1|^2 - |z2|^2 frame (CHOFVAR^* E_HERM CHOFVAR = diag(1, -1)).
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
from quadcone.normalform import (
    _CHOFVAR,
    CHANGE_HADAMARD_MIN,
    NormalFormResult,
    NormalFormType,
    SingularMatrix,
    render_cone,
)
from quadcone.quadform import (
    _FORM_BLOCK,
    PRESCALE_BAND,
    SAMPLE_RESIDUAL_REL,
    ConeError,
    InsufficientSamples,
    QuadraticCone,
    _form2,
    _interleaved_form,
    evaluate_many,
    form_distance,
    mat_norm,
)
from quadcone.reduction import E_HERM_ROWS, exponent, parts, scaled

E_HERM = np.array(E_HERM_ROWS)
CHOFVAR = np.reshape(_CHOFVAR, (2, 2))
E_HERM.setflags(write=False)
CHOFVAR.setflags(write=False)
PRESERVER_REL = 1e-10


class NotPreserver(ConeError):
    pass


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


def replace(record, **changes):
    """A copy of a record (the package's NamedTuples) with the given fields changed.

    The copy is built by the record's constructor, so its checks run again,
    which NamedTuple._replace skips; an unknown field raises TypeError.
    """
    return type(record)(**{**record._asdict(), **changes})


def own_frame(fam: DiscFamily) -> DiscFamily:
    """The family with the identity transform where it has none, else the family itself."""
    return fam if fam.transform is not None else replace(fam, transform=np.eye(2))


def apply_change(cone: QuadraticCone, T, lam: float = 1.0, sign: int = 1) -> QuadraticCone:
    """Pull rho back through z -> T z and rescale: the congruence action.

    The result's rho at z is sign * lam * rho(T z), identically.
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


def real_form_matrix(cone: QuadraticCone):
    """The 2n x 2n real symmetric matrix G with rho = (x,y)^T G (x,y).

    Coordinates are ordered x_1..x_n, y_1..y_n.  With S = Sr+i*Si and
    H = Hr+i*Hi the identity is

        rho = x^T (Sr+Hr) x + y^T (Hr-Sr) y - 2 x^T (Si+Hi) y.

    A writable copy of the kept form of evaluate_many, reordered.
    """
    order = np.arange(2 * cone.n).reshape(cone.n, 2).T.ravel()  # 0, 2, ..., then 1, 3, ...
    return _interleaved_form(cone)[np.ix_(order, order)]


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


# (p, q, r, s) of each rotation of list_jacobi4's cyclic sweep: it zeroes the
# entry (p, q) and mixes the columns p and q of the rows r and s
_SWEEP = tuple((p, q, *(r for r in range(4) if r not in (p, q))) for p in range(3) for q in range(p + 1, 4))


def list_jacobi4(S: tuple, H: tuple) -> tuple[list, int]:
    """quadform._jacobi4 as it was on a 4 x 4 list of lists: the reference it must equal bitwise."""
    ps = parts(*S, *H)
    if not all(map(math.isfinite, ps)):
        raise ConeError("Array must not contain infs or NaNs")
    e = exponent(*ps)
    if abs(e) > PRESCALE_BAND:
        S, H = scaled(-e, *S), scaled(-e, *H)
    else:
        e = 0
    a = _form2(S, H)
    tol = 2.0**-55 * math.hypot(*a[0], *a[1], *a[2], *a[3])
    for _ in range(64):
        turned = False
        for p, q, r, s in _SWEEP:
            ap, aq = a[p], a[q]
            apq = ap[q]
            if not abs(apq) > tol:
                continue
            turned = True
            theta = (aq[q] - ap[p]) / (apq + apq)
            t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
            if theta < 0.0:
                t = -t
            c = 1.0 / math.sqrt(t * t + 1.0)
            sn = t * c
            ap[p] -= t * apq
            aq[q] += t * apq
            ap[q] = aq[p] = 0.0
            ar, at = a[r], a[s]
            x, y = ar[p], ar[q]
            ar[p] = ap[r] = c * x - sn * y
            ar[q] = aq[r] = sn * x + c * y
            x, y = at[p], at[q]
            at[p] = ap[s] = c * x - sn * y
            at[q] = aq[s] = sn * x + c * y
        if not turned:
            break
    return [a[0][0], a[1][1], a[2][2], a[3][3]], e


def summed_rho_at2(cone: QuadraticCone, Z) -> list:
    """quadform.rho_at for n = 2 as it was, x^T (G x) summed term by term: the reference it must equal bitwise.

    The outer sum is written as the loop that sum() ran on Python 3.11, left
    to right from the int start 0 (so a first term -0.0 gives 0.0), as the
    unrolled kernel adds; from Python 3.12 on, sum() adds floats with
    compensation, which would make the reference depend on the version.
    """
    (s00, s01), (_, s11) = cone.s2
    (h00, h01), (_, h11) = cone.h2
    G = _form2((s00, s01, s11), (h00, h01, h11))
    out = []
    for z0, z1 in Z:
        x = (z0.real, z0.imag, z1.real, z1.imag)
        total = 0
        for xj, g in zip(x, G):
            total += xj * (x[0] * g[0] + x[1] * g[1] + x[2] * g[2] + x[3] * g[3])
        out.append(total)
    return out


def reference_real_roots(a, b, c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """quadform._real_roots as it was, with 2-D np.nonzero indices: the reference it must equal bitwise."""
    disc = b * b - 4.0 * a * c
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.sqrt(disc)
        linear = np.abs(a) < 1e-14 * (np.abs(b) + np.abs(c) + 1e-300)
        qq = -0.5 * (b + np.copysign(sq, b))
        roots = np.column_stack([np.where(linear, -c / b, qq / a), c / qq])
    real = ~(disc < 0)
    valid = np.column_stack([real & (~linear | (np.abs(b) > 0)), real & ~linear & (np.abs(qq) > 0)])
    i, k = np.nonzero(valid)
    return i, k, roots[i, k]


def whole_batch_sample_points(cone: QuadraticCone, seed: int, count: int) -> np.ndarray:
    """quadform.sample_points as it was before it took its directions in chunks: the reference it must equal bitwise.

    It solves every direction of a batch and polishes every candidate,
    then keeps the first `count` points that pass.
    """
    if count < 1:
        raise ConeError("count must be >= 1")
    rng = np.random.default_rng(seed)
    n = cone.n
    batch = max(count, 256)
    scale = max(cone.scale, 1.0)
    points = []
    found = 0
    for _ in range(64):
        U, V = np.empty((2, batch, n), dtype=complex)
        for W in (U, V):
            W.real = rng.standard_normal((batch, n))
            W.imag = rng.standard_normal((batch, n))
        scales = rng.uniform(0.05, 1.0, size=2 * batch)
        a = evaluate_many(cone, V)
        c = evaluate_many(cone, U)
        i, k, t = reference_real_roots(a, evaluate_many(cone, U + V) - a - c, c)
        P = t[:, None] * V[i] + U[i]
        norm = np.linalg.norm(P, axis=1)
        far = ~(norm < 1e-9)
        i, k, P, norm = i[far], k[far], P[far], norm[far]
        P *= (scales[2 * i + k] / norm)[:, None]
        vnorm = np.maximum(np.linalg.norm(V, axis=1), 1e-300)
        dv = V[i] * (1.0 / vnorm[i])[:, None]
        r0 = evaluate_many(cone, P)
        g = evaluate_many(cone, P + dv * 1e-7) - r0
        step = np.divide(r0 * 1e-7, g, out=np.zeros_like(g), where=np.abs(g) > 1e-300)
        P -= dv * step[:, None]
        res = np.abs(evaluate_many(cone, P))
        ok = res <= SAMPLE_RESIDUAL_REL * np.linalg.norm(P, axis=1) ** 2 * scale
        points.append(P[ok])
        found += len(points[-1])
        if found >= count:
            return np.concatenate(points)[:count]
    raise InsufficientSamples(f"found {found} of {count} requested cone points")


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
        return _solve_level_points(np.asarray(fam.c), eps, count, rng, radius)
    if fam.kind == "affine_line":
        w1 = fam.shift * eps
        rmax = np.sqrt(max(radius**2 - abs(w1) ** 2, 0.0))
        r = rmax * np.sqrt(rng.uniform(0.0, 1.0, count))
        w2 = r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))
        return np.column_stack([np.full(count, w1), w2])
    raise ConeError(f"unknown disc family kind {fam.kind!r}")


def map_points(fam: DiscFamily, W: np.ndarray) -> np.ndarray:
    """The rows of W, points in the family frame, in cone coordinates."""
    return W if fam.transform is None else W @ np.asarray(fam.transform).T


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
    T = np.asarray(r.T)
    Tinv = np.linalg.inv(T)

    def pull(germ: LinearGerm) -> LinearGerm:
        coeffs, span = Tinv.T @ np.asarray(germ.coeffs), T @ np.asarray(germ.span)
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
    frame = map_points(fam, np.eye(2, dtype=complex))
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
        z = map_points(fam, np.asarray(w, dtype=complex)[None, :])
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
    Z = _line_extremes(cone, map_points(fam, U))[1 if fam.side > 0 else 0 :: 2]
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
