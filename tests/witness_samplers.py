"""Seeded point samplers on disc families and supporting lines, the tests' oracle.

The library checks a witness at the points that attain its certified bounds
(decider.verify_discs, decider.verify_support).  These samplers draw many
more points, uniformly in the disc parameter, so the tests can confirm
that no sampled point beats a certified bound.
"""

from __future__ import annotations

import numpy as np

from quadcone.decider import DiscFamily, LinearGerm
from quadcone.quadform import ConeError


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
