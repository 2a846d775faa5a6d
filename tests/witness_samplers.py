"""The tests' oracles: seeded point samplers and the numpy forms of the n = 2 scalar code.

The library checks a witness at the points that attain its certified bounds
(decider.verify_discs, decider.verify_support).  The samplers draw many
more points, uniformly in the disc parameter, so the tests can confirm
that no sampled point beats a certified bound.

The library computes the n = 2 signatures, the pulled-back supporting lines
and their extremal points on Python scalars.  The numpy_* functions compute
the same from numpy arrays, as the library did before, so the tests can
compare the two on spread inputs (spread_cones2).
"""

from __future__ import annotations

import math

import numpy as np

from quadcone.decider import DiscFamily, LinearGerm, SupportWitness, _line_extremes
from quadcone.normalform import NormalFormResult
from quadcone.quadform import _FORM_BLOCK, ConeError, QuadraticCone, evaluate_many


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


def _disc_points(fam: DiscFamily, eps: float, count: int, rng) -> np.ndarray:
    if fam.kind == "level_set":
        return _solve_level_points(fam.c, eps, count, rng, fam.radius)
    if fam.kind == "affine_line":
        w1 = fam.shift * eps
        rmax = np.sqrt(max(fam.radius**2 - abs(w1) ** 2, 0.0))
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


def numpy_line_values(cone: QuadraticCone, w: SupportWitness) -> tuple[np.ndarray, np.ndarray]:
    """(Z, rho(Z) / (|Z|^2 scale)) of verify_support: the maximum and minimum point of A+, then of A-."""
    Z = _line_extremes(cone, np.array([w.aplus.span, w.aminus.span]))
    return Z, evaluate_many(cone, Z) / (np.linalg.norm(Z, axis=1) ** 2 * max(cone.scale, 1e-300))
