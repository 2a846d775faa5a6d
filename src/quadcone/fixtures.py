"""Named cone fixtures: the motivating example, one representative per
normal-form row, one cone per slicing case, and the two-sided shapes in C^n.

Each entry is a zero-argument constructor so tests and the CLI can request
fixtures by name without sharing mutable state.  The matrices are lists of
rows, and the cones in C^2 skip the checked constructor, so building them
needs no numpy.
"""

from __future__ import annotations

from .normalform import NormalFormType, render_cone
from .quadform import QuadraticCone


def _sym(n, entries) -> list:
    S = [[0j] * n for _ in range(n)]
    for (i, j), v in entries.items():
        S[i][j] += v / (1 if i == j else 2)
        if i != j:
            S[j][i] += v / 2
    return S


def _diag(*d) -> list:
    return [[x if i == j else 0.0 for j in range(len(d))] for i, x in enumerate(d)]


def example_m() -> QuadraticCone:
    """Re(z1^2/2 + z2^2/3) + |z1|^2 - |z2|^2 = 0."""
    return QuadraticCone._symmetrized(_diag(0.5, 1.0 / 3.0), _diag(1.0, -1.0))


def table_row(tag: str) -> QuadraticCone:
    """A representative cone for each normal-form row, rendered directly."""
    reps = {
        "M20": NormalFormType("M20", a=2.0, b=0.5),
        "M11_1": NormalFormType("M11_1", a=0.5, b=1.0 / 3.0),
        "M11_2": NormalFormType("M11_2", a=1.0 + 1.0j),
        "M11_3": NormalFormType("M11_3"),
        "M10_1": NormalFormType("M10_1", a=0.5),
        "M10_2": NormalFormType("M10_2"),
        "M00_1": NormalFormType("M00_1"),
    }
    return render_cone(reps[tag])


def slice_pi2_axis() -> QuadraticCone:
    """n=3, pi>=2, big harmonic coefficient: the axis slice is of type M20."""
    S = _sym(3, {(0, 0): 2.0, (1, 1): 1.0})
    return QuadraticCone(S, _diag(1.0, 1.0, 1.0))


def slice_pi2_small() -> QuadraticCone:
    """n=3, pi>=2, A,B <= 1 with AB < 1: the axis slice is a definite cone."""
    S = _sym(3, {(0, 0): 0.5, (1, 1): 0.25, (2, 2): 1.0})
    return QuadraticCone(S, _diag(1.0, 1.0, -1.0))


def slice_pi2_shear_a() -> QuadraticCone:
    """n=3, A=B=1 with a z2 z3 coupling, built for the shear slice z3 = a z2.

    The axis slice decides it, as it does the other two shear fixtures: their
    restriction is semidefinite, and the definite-slice family certifies it.
    test_pi2_shear_candidates_verify_without_axis checks their shear slices.
    """
    S = _sym(3, {(0, 0): 1.0, (1, 1): 1.0, (1, 2): 2.0})
    return QuadraticCone(S, _diag(1.0, 1.0, 1.0))


def slice_pi2_shear_c() -> QuadraticCone:
    """n=3, A=B=1 with a z1 z3 coupling, built for the shear z3 = a z1; see slice_pi2_shear_a."""
    S = _sym(3, {(0, 0): 1.0, (1, 1): 1.0, (0, 2): 2.0})
    return QuadraticCone(S, _diag(1.0, 1.0, 1.0))


def slice_pi2_shear_b() -> QuadraticCone:
    """n=3, A=B=1 with only a z3^2 coupling, built for a complex shear; see slice_pi2_shear_a."""
    S = _sym(3, {(0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0})
    return QuadraticCone(S, _diag(1.0, 1.0, -1.0))


def _oneone_h(n: int) -> list:
    H = _diag(*[0.0] * n)
    H[0][1], H[1][0] = 0.5j, -0.5j  # Im(z1 conj(z2))
    return H


def slice_oneone_r0_onesided() -> QuadraticCone:
    """(1,1), q=0, no coupling: a product whose C^2 factor is one-sided.

    The 2x2 block is the Im(z1 conj(z2))-frame presentation of the cone
    Re(2 z1^2 + 0.5 z2^2) + |z1|^2 - |z2|^2, which extends from one side.
    """
    S = [[0.375, 0.625j, 0.0], [0.625j, -0.375, 0.0], [0.0, 0.0, 0.0]]
    return QuadraticCone(S, _oneone_h(3))


def slice_oneone_r_z1z3() -> QuadraticCone:
    """(1,1), q=0, coupling 2 z1 z3 with a z2^2 coefficient present."""
    S = _sym(3, {(0, 0): 1.0, (1, 1): 1.0 + 0.5j, (0, 2): 2.0})
    return QuadraticCone(S, _oneone_h(3))


def slice_oneone_r_z2z3() -> QuadraticCone:
    """(1,1), q=0, coupling 2 z2 z3 with a z1^2 coefficient present."""
    S = _sym(3, {(0, 0): 1.0 + 0.5j, (1, 1): 1.0, (1, 2): 2.0})
    return QuadraticCone(S, _oneone_h(3))


def slice_oneone_r_dependent() -> QuadraticCone:
    """(1,1), q=0, dependent couplings c z1 z3 + z2 z3, with a complex coupling ratio."""
    S = _sym(3, {(0, 0): 1.0, (1, 1): 0.5, (0, 2): 2.0 * (1.0 + 1.0j), (1, 2): 2.0})
    return QuadraticCone(S, _oneone_h(3))


def slice_oneone_r_dependent_real() -> QuadraticCone:
    """(1,1), q=0, dependent couplings with a real ratio with a real coupling ratio."""
    S = _sym(3, {(0, 0): 1.0, (1, 1): 0.5 + 0.25j, (0, 2): 4.0, (1, 2): 2.0})
    return QuadraticCone(S, _oneone_h(3))


def slice_oneone_r_independent() -> QuadraticCone:
    """n=4, (1,1), q=0, independent couplings z1 z3 + z2 z4 with no square terms."""
    S = _sym(4, {(0, 1): 1.4, (0, 2): 2.0, (1, 3): 2.0})
    return QuadraticCone(S, _oneone_h(4))


def slice_oneone_qnonzero() -> QuadraticCone:
    """(1,1) with a genuine quadratic z' part: reduces to an M10_1 slice."""
    S = _sym(3, {(0, 0): 1.0, (1, 1): 0.5, (0, 2): 1.0, (2, 2): 1.0})
    return QuadraticCone(S, _oneone_h(3))


def slice_onezero_l0() -> QuadraticCone:
    """(1,0) with l = 0 and q = z2^2 + z3^2: axis slice is of type M10_1."""
    S = _sym(3, {(0, 0): 0.5, (1, 1): 1.0, (2, 2): 1.0})
    return QuadraticCone(S, _diag(1.0, 0.0, 0.0))


def slice_onezero_dq() -> QuadraticCone:
    """(1,0) with l = z2 and a z2^2 term in q."""
    S = _sym(3, {(0, 0): 0.5, (0, 1): 1.0, (1, 1): 1.0, (2, 2): 1.0})
    return QuadraticCone(S, _diag(1.0, 0.0, 0.0))


def slice_onezero_dq_zero() -> QuadraticCone:
    """(1,0) with l = z2 and q independent of z2: slice in the z1 z3 plane."""
    S = _sym(3, {(0, 0): 0.5, (0, 1): 1.0, (2, 2): 1.0})
    return QuadraticCone(S, _diag(1.0, 0.0, 0.0))


def product_example_m() -> QuadraticCone:
    """example-M x C: a two-sided product cone in C^3."""
    return QuadraticCone(_diag(0.5, 1.0 / 3.0, 0.0), _diag(1.0, -1.0, 0.0))


def ts1_k3() -> QuadraticCone:
    """Re(z1^2 + z2^2 + z3^2) = 0 in C^3."""
    return QuadraticCone(_diag(1.0, 1.0, 1.0), _diag(0.0, 0.0, 0.0))


def ts2() -> QuadraticCone:
    """Re(z1 z2 + z1 conj(z3)) = 0 in C^3."""
    S = _sym(3, {(0, 1): 1.0})
    H = _diag(0.0, 0.0, 0.0)
    H[0][2], H[2][0] = 0.5, 0.5
    return QuadraticCone(S, H)


FIXTURES = {
    "example_m": example_m,
    "m20": lambda: table_row("M20"),
    "m11_1": lambda: table_row("M11_1"),
    "m11_2": lambda: table_row("M11_2"),
    "m11_3": lambda: table_row("M11_3"),
    "m10_1": lambda: table_row("M10_1"),
    "m10_2": lambda: table_row("M10_2"),
    "m00_1": lambda: table_row("M00_1"),
    "slice_pi2_axis": slice_pi2_axis,
    "slice_pi2_small": slice_pi2_small,
    "slice_pi2_shear_a": slice_pi2_shear_a,
    "slice_pi2_shear_c": slice_pi2_shear_c,
    "slice_pi2_shear_b": slice_pi2_shear_b,
    "slice_oneone_r0_onesided": slice_oneone_r0_onesided,
    "slice_oneone_r_z1z3": slice_oneone_r_z1z3,
    "slice_oneone_r_z2z3": slice_oneone_r_z2z3,
    "slice_oneone_r_dependent": slice_oneone_r_dependent,
    "slice_oneone_r_dependent_real": slice_oneone_r_dependent_real,
    "slice_oneone_r_independent": slice_oneone_r_independent,
    "slice_oneone_qnonzero": slice_oneone_qnonzero,
    "slice_onezero_l0": slice_onezero_l0,
    "slice_onezero_dq": slice_onezero_dq,
    "slice_onezero_dq_zero": slice_onezero_dq_zero,
    "product_example_m": product_example_m,
    "ts1_k3": ts1_k3,
    "ts2": ts2,
}
