"""Seeded input generators with recorded ground truth, one per workload.

The generators use numpy only, never the quadcone package, so the inputs a
seed produces do not change when the program is refactored.  Every cone is
built from a known normal form (or a known n >= 3 shape) pulled back through
a recorded change of variables T, a positive scale lam = 10**u and a sign s:

    rho_spec(z) = s * lam * rho_shape(T z).

Scales are stratified over u in U_RANGE, so a pass always covers the range
evenly.  The timed workloads use u in [-3, 3], where every op succeeds; the
program has known defects at extreme scales, which the failure census
(`run.py --census`) shows on one pass over CENSUS_U_RANGE = [-20, 20].
Everything that sets an op's cost apart from the scale and the change of
variables (normal form, stratum, dimension, two-sided kind) follows a fixed
round robin.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# Timed runs: six decades of scale, clear of the scale-dependent defects
# (the nearest starts above 1e4).  Census: the ROADMAP's 1e-20..1e20 range.
U_RANGE = (-3.0, 3.0)
CENSUS_U_RANGE = (-20.0, 20.0)
MAX_COND = 8.0

# The matrix of Im(z1 conj(z2)) as conj(z)^T H z.
E_HERM = np.array([[0.0, 0.5j], [-0.5j, 0.0]])

PLANAR_PASS = 252  # 14 blocks of the 18-slot planar round robin
VERIFY_PASS = 192  # verify ops per pass; a jump-demo op follows every 24th
JUMP_EVERY = 24
JUMP_SAMPLES = 10_000


@dataclass(frozen=True)
class Op:
    """One CLI call and the answer it must give."""

    kind: str  # "decide" | "verify" | "jump" | "slice"
    argv: tuple
    spec: str | None  # JSON fed on stdin, None for jump-demo
    cls: str  # latency class the op is reported under
    truth: dict = field(default_factory=dict)


# ---------------------------------------------------------------- n = 2 forms


def normal_form(tag: str, a=None, b=None) -> tuple[np.ndarray, np.ndarray]:
    """(S, H) of a row of the seven-type table."""
    if tag == "M20":
        return np.diag([a, b]).astype(complex), np.eye(2, dtype=complex)
    if tag == "M11_1":
        return np.diag([a, b]).astype(complex), np.diag([1.0, -1.0]).astype(complex)
    if tag == "M11_2":
        return np.diag([a, np.conj(a)]).astype(complex), E_HERM.copy()
    if tag == "M11_3":
        return np.diag([1.0, 0.0]).astype(complex), E_HERM.copy()
    if tag == "M10_1":
        return np.diag([a, 1.0]).astype(complex), np.diag([1.0, 0.0]).astype(complex)
    if tag == "M10_2":
        return np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex), np.diag([1.0, 0.0]).astype(complex)
    if tag == "M00_1":
        return np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)
    raise ValueError(tag)


def planar_verdict(tag: str, a=None, b=None) -> tuple[str, int | None]:
    """Outcome and extension side of a normal form in its own coordinates."""
    if tag in ("M20", "M10_1"):
        return "one_sided", +1
    if tag == "M11_1" and a > 1.0 and a != b:
        return "one_sided", -1
    return "two_sided", None


# Round-robin slots: the seven forms twice, then the four lower-dimensional
# strata, so the strata make up a fixed 4 of every 18 inputs.
PLANAR_SLOTS = (
    "M20", "M11_1", "M11_2", "M11_3", "M10_1", "M10_2", "M00_1",
    "M20", "M11_1", "M11_2", "M11_3", "M10_1", "M10_2", "M00_1",
    "M11_1:A=B", "M11_1:B=0", "M20:B=0", "M10_1:A=0",
)


def _planar_params(slot: str, big_a: bool, rng) -> tuple[str, object, object]:
    """Parameters kept clear of the stratum boundaries they do not sit on.

    big_a puts M11_1's A above 1 (one-sided unless A = B), else below 1.
    """
    tag, _, stratum = slot.partition(":")
    if tag == "M20":
        a = rng.uniform(1.2, 4.0)
        return tag, a, (0.0 if stratum else a * rng.uniform(0.0, 1.0))
    if tag == "M11_1":
        a = rng.uniform(1.25, 4.0) if big_a else rng.uniform(0.2, 0.8)
        if stratum == "A=B":
            return tag, a, a
        if stratum == "B=0":
            return tag, a, 0.0
        return tag, a, a * rng.uniform(0.1, 0.9)
    if tag == "M11_2":
        r, th = rng.uniform(0.3, 3.0), rng.uniform(0.1, 1.4)
        return tag, complex(r * np.cos(th), r * np.sin(th)), None
    if tag == "M10_1":
        return tag, (0.0 if stratum else rng.uniform(0.1, 3.0)), None
    return tag, None, None


# ----------------------------------------------------------------- helpers


def random_gl(n: int, rng) -> np.ndarray:
    """A random complex change of variables with condition number <= MAX_COND."""
    while True:
        T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(T) <= MAX_COND:
            return T


def pull_back(S, H, T, lam: float, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """(S, H) of z -> sign * lam * rho(T z), symmetrized exactly."""
    S2 = sign * lam * (T.T @ S @ T)
    H2 = sign * lam * (T.conj().T @ H @ T)
    return 0.5 * (S2 + S2.T), 0.5 * (H2 + H2.conj().T)


def spec_json(S, H) -> str:
    def mat(M):
        return [[{"re": float(v.real), "im": float(v.imag)} for v in row] for row in M]

    return json.dumps({"n": int(S.shape[0]), "S": mat(S), "H": mat(H)})


def stratified_exponents(count: int, rng, u_range=U_RANGE) -> np.ndarray:
    """count exponents u at the centres of count equal cells of u_range, shuffled.

    The same set of scales at every seed keeps the number of inputs past a
    scale-dependent defect fixed; the seed decides which input gets which.
    """
    lo, hi = u_range
    return lo + (hi - lo) * (rng.permutation(count) + 0.5) / count


def _slot_exponents(slots: int, per_slot: int, rng, u_range) -> np.ndarray:
    """Exponent table u[block, slot], stratified down each slot's column."""
    return np.column_stack([stratified_exponents(per_slot, rng, u_range) for _ in range(slots)])


# ----------------------------------------------------------- planar inputs


def planar_cases(seed: int, count: int, u_range=U_RANGE):
    """Yield (slot, tag, a, b, T, lam, sign, S, H) for count n = 2 cones."""
    rng = np.random.default_rng(seed)
    nslots = len(PLANAR_SLOTS)
    blocks = -(-count // nslots)
    u = _slot_exponents(nslots, blocks, rng, u_range)
    for k in range(count):
        slot = PLANAR_SLOTS[k % nslots]
        # alternate M11_1's A across 1 block by block, so the verdict mix is fixed
        tag, a, b = _planar_params(slot, (k // nslots + k % nslots) % 2 == 0, rng)
        T = random_gl(2, rng)
        sign = int(rng.choice((-1, 1)))
        lam = 10.0 ** u[k // nslots, k % nslots]
        S, H = pull_back(*normal_form(tag, a, b), T, lam, sign)
        yield slot, tag, a, b, T, lam, sign, S, H


def _planar_truth(tag, a, b, sign) -> dict:
    outcome, side = planar_verdict(tag, a, b)
    return {"tag": tag, "outcome": outcome, "side": None if side is None else sign * side}


def planar_decide(seed: int, u_range=U_RANGE) -> list[Op]:
    ops = []
    for _, tag, a, b, _, _, sign, S, H in planar_cases(seed, PLANAR_PASS, u_range):
        truth = _planar_truth(tag, a, b, sign)
        # two-sided verdicts run decide2's witness spot check, one-sided ones do not
        cls = "decide_onesided" if truth["outcome"] == "one_sided" else "decide_twosided"
        ops.append(Op("decide", ("decide", "-"), spec_json(S, H), cls, truth))
    return ops


def witness_sampling(seed: int, u_range=U_RANGE) -> list[Op]:
    # its own seed stream, so the cones differ from planar_decide's at one seed
    cases = planar_cases(seed + 0x5EED, VERIFY_PASS, u_range)
    ops = []
    for k, (_, tag, a, b, _, _, sign, S, H) in enumerate(cases):
        ops.append(Op("verify", ("verify", "-"), spec_json(S, H), "verify", _planar_truth(tag, a, b, sign)))
        if k % JUMP_EVERY == JUMP_EVERY - 1:
            jseed = seed * 1000 + k
            argv = ("jump-demo", "--samples", str(JUMP_SAMPLES), "--seed", str(jseed))
            ops.append(Op("jump", argv, None, "jump", {"samples": JUMP_SAMPLES}))
    return ops


# ------------------------------------------------------------- n >= 3 inputs


def _sym(n, entries) -> np.ndarray:
    S = np.zeros((n, n), dtype=complex)
    for (i, j), v in entries.items():
        if i == j:
            S[i, i] += v
        else:
            S[i, j] += v / 2
            S[j, i] += v / 2
    return S


def _oneone_h(n) -> np.ndarray:
    H = np.zeros((n, n), dtype=complex)
    H[:2, :2] = E_HERM
    return H


# The one-sided slicing shapes of the paper's case analysis, one per
# structured candidate generator branch: (size, S, H).
_R0 = np.zeros((3, 3), dtype=complex)
_R0[:2, :2] = [[0.375, 0.625j], [0.625j, -0.375]]
ONE_SIDED_SHAPES = {
    "pi2_axis": (_sym(3, {(0, 0): 2.0, (1, 1): 1.0}), np.eye(3)),
    "pi2_small": (_sym(3, {(0, 0): 0.5, (1, 1): 0.25, (2, 2): 1.0}), np.diag([1.0, 1.0, -1.0])),
    "pi2_shear_a": (_sym(3, {(0, 0): 1.0, (1, 1): 1.0, (1, 2): 2.0}), np.eye(3)),
    "pi2_shear_c": (_sym(3, {(0, 0): 1.0, (1, 1): 1.0, (0, 2): 2.0}), np.eye(3)),
    "pi2_shear_b": (_sym(3, {(0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0}), np.diag([1.0, 1.0, -1.0])),
    "oneone_r0": (_R0, _oneone_h(3)),
    "oneone_r_z1z3": (_sym(3, {(0, 0): 1.0, (1, 1): 1.0 + 0.5j, (0, 2): 2.0}), _oneone_h(3)),
    "oneone_r_z2z3": (_sym(3, {(0, 0): 1.0 + 0.5j, (1, 1): 1.0, (1, 2): 2.0}), _oneone_h(3)),
    "oneone_r_dependent": (
        _sym(3, {(0, 0): 1.0, (1, 1): 0.5, (0, 2): 2.0 * (1.0 + 1.0j), (1, 2): 2.0}),
        _oneone_h(3),
    ),
    "oneone_r_dependent_real": (
        _sym(3, {(0, 0): 1.0, (1, 1): 0.5 + 0.25j, (0, 2): 4.0, (1, 2): 2.0}),
        _oneone_h(3),
    ),
    "oneone_r_independent": (_sym(4, {(0, 1): 1.4, (0, 2): 2.0, (1, 3): 2.0}), _oneone_h(4)),
    "oneone_qnonzero": (
        _sym(3, {(0, 0): 1.0, (1, 1): 0.5, (0, 2): 1.0, (2, 2): 1.0}),
        _oneone_h(3),
    ),
    "onezero_l0": (_sym(3, {(0, 0): 0.5, (1, 1): 1.0, (2, 2): 1.0}), np.diag([1.0, 0.0, 0.0])),
    "onezero_dq": (
        _sym(3, {(0, 0): 0.5, (0, 1): 1.0, (1, 1): 1.0, (2, 2): 1.0}),
        np.diag([1.0, 0.0, 0.0]),
    ),
    "onezero_dq_zero": (
        _sym(3, {(0, 0): 0.5, (0, 1): 1.0, (2, 2): 1.0}),
        np.diag([1.0, 0.0, 0.0]),
    ),
}
ONE_SIDED_NAMES = tuple(ONE_SIDED_SHAPES)

# Two-dimensional factors of the two-sided products: two-sided planar forms.
PRODUCT_FACTORS = (("M11_2", 1.0 + 1.0j, None), ("M11_1", 0.5, 1.0 / 3.0), ("M11_3", None, None))
ND_DIMS = (3, 4, 5, 6, 7, 8)
# One pass holds every two-sided kind twice in each dimension, each after
# four one-sided cones: three structured shapes and one generic cone.
TWO_SIDED_SLOTS = tuple((kind, n) for n in ND_DIMS for kind in ("product", "ts1", "ts2"))
ONE_SIDED_SLOTS = ("shape", "shape", "shape", "generic")
ND_PASS = 2 * len(TWO_SIDED_SLOTS) * (len(ONE_SIDED_SLOTS) + 1)


def _embed(S, H, n) -> tuple[np.ndarray, np.ndarray]:
    """Pad a shape in C^m with an inert C^(n-m) factor."""
    m = S.shape[0]
    S2 = np.zeros((n, n), dtype=complex)
    H2 = np.zeros((n, n), dtype=complex)
    S2[:m, :m] = S
    H2[:m, :m] = H
    return S2, H2


def generic_cone(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """A random (S, H) whose real form has at least two positive and two negative directions."""
    while True:
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        S, H = 0.5 * (A + A.T), 0.5 * (B + B.conj().T)
        G = np.block([[S.real + H.real, -(S.imag + H.imag)], [-(S.imag - H.imag), H.real - S.real]])
        w = np.linalg.eigvalsh(0.5 * (G + G.T))
        tol = 1e-6 * np.abs(w).max()
        if np.sum(w > tol) >= 2 and np.sum(w < -tol) >= 2:
            return S, H


def two_sided_shape(kind: str, n: int, variant: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """A two-sided cone in C^n of the given kind and what the report must say.

    variant picks the product's planar factor, or the harmonic rank of ts1.
    """
    if kind == "product":
        tag, a, b = PRODUCT_FACTORS[variant % len(PRODUCT_FACTORS)]
        S, H = _embed(*normal_form(tag, a, b), n)
        return S, H, {"kind": "product", "inner_tag": tag}
    if kind == "ts1":
        k = 3 + (2 * variant) % (n - 2)
        S = np.diag([1.0] * k + [0.0] * (n - k)).astype(complex)
        return S, np.zeros((n, n), dtype=complex), {"kind": "ts1", "k": k}
    if kind == "ts2":
        # Re((z2 + conj(z3)) z1)
        S = _sym(n, {(0, 1): 1.0})
        H = np.zeros((n, n), dtype=complex)
        H[0, 2] = H[2, 0] = 0.5
        return S, H, {"kind": "ts2"}
    raise ValueError(kind)


def nd_cases(seed: int, count: int = ND_PASS, u_range=U_RANGE):
    """Yield (shape name, truth, T, lam, sign, S_shape, H_shape, S, H) for n >= 3 cones.

    Scales are stratified within each shape name and two-sided kind.
    """
    rng = np.random.default_rng(seed)
    per_block = len(ONE_SIDED_SLOTS) + 1
    plan = []
    shape_k = 0
    for k in range(count):
        block, slot = divmod(k, per_block)
        if slot < len(ONE_SIDED_SLOTS):
            n = ND_DIMS[(block + slot) % len(ND_DIMS)]
            if ONE_SIDED_SLOTS[slot] == "shape":
                plan.append((ONE_SIDED_NAMES[shape_k % len(ONE_SIDED_NAMES)], n))
                shape_k += 1
            else:
                plan.append(("generic", n))
        else:
            plan.append(TWO_SIDED_SLOTS[block % len(TWO_SIDED_SLOTS)])
    u = np.empty(count)
    for name in dict.fromkeys(name for name, _ in plan):
        idx = [k for k, (other, _) in enumerate(plan) if other == name]
        u[idx] = stratified_exponents(len(idx), rng, u_range)
    for k, (name, n) in enumerate(plan):
        if name in ONE_SIDED_SHAPES:
            S0, H0 = ONE_SIDED_SHAPES[name]
            S0, H0 = _embed(S0, H0, max(n, S0.shape[0]))
            truth = {"outcome": "one_sided"}
        elif name == "generic":
            S0, H0 = generic_cone(n, rng)
            truth = {"outcome": "one_sided"}
        else:
            S0, H0, truth = two_sided_shape(name, n, ND_DIMS.index(n))
            truth = {"outcome": "two_sided", **truth}
        T = random_gl(S0.shape[0], rng)
        sign = int(rng.choice((-1, 1)))
        lam = 10.0 ** u[k]
        S, H = pull_back(S0, H0, T, lam, sign)
        yield name, truth, T, lam, sign, S0, H0, S, H


def nd_slice(seed: int, u_range=U_RANGE) -> list[Op]:
    ops = []
    for _, truth, _, _, _, _, _, S, H in nd_cases(seed, u_range=u_range):
        cls = "slice_onesided" if truth["outcome"] == "one_sided" else "slice_twosided"
        ops.append(Op("slice", ("slice", "-"), spec_json(S, H), cls, truth))
    return ops


WORKLOADS = {
    "planar_decide": planar_decide,
    "witness_sampling": witness_sampling,
    "nd_slice": nd_slice,
}
