"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here, not configurable.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from quadcone import fixtures as fx
from quadcone.decider import (
    SupportWitness,
    VerificationFailed,
    decide2,
    jump_demo,
    verify_discs,
    verify_support,
)
from quadcone.fixtures import example_m as example_m_cone
from quadcone.normalform import (
    TAGS,
    NormalFormType,
    classify2,
    render_cone,
)
from quadcone.quadform import (
    QuadraticCone,
    evaluate_many,
    hermitian_signature,
    real_signature,
    sample_points,
)
from quadcone.reduction import (
    sl2_reduce_sym,
    so11_zero_diag,
    takagi2,
)
from quadcone.slicer import classify_two_sided_nd, find_good_slice
from test_reduction import entries, mat
from witness_samplers import E_HERM, apply_change, factor_preserver, oneone_frame_invariants


def _report(num, label, elapsed, limit):
    print(f"ACCEPTANCE {num}: PASS - {label} ({elapsed:.2f}s < {limit:.0f}s)")
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget"


def _random_gl2(rng, max_cond=30.0):
    while True:
        T = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if np.linalg.cond(T) < max_cond:
            return T


def test_criterion_1_motivating_fixture():
    t0 = time.perf_counter()
    cone = example_m_cone()
    res = classify2(cone)
    assert res.tag == "M11_1"
    A, B = res.ntype.params()
    assert abs(A - 0.5) <= 1e-8 and abs(B - 1.0 / 3.0) <= 1e-8
    verdict = decide2(res, cone)
    assert verdict.outcome == "two_sided"
    labels = {verdict.witness.aplus.label, verdict.witness.aminus.label}
    assert labels == {"{z2 = 0}", "{z1 = 0}"}
    rep = verify_support(cone, verdict.witness)
    assert rep.plus_min >= 0 and rep.minus_max <= 0
    _report(1, "example cone classifies to M11_1(0.5, 1/3) and is two-sided",
            time.perf_counter() - t0, 1.0)


def _draw(tag, rng):
    """In-range parameter draw; returns (ntype, excluded_reason_or_None)."""
    if tag == "M20":
        A = rng.uniform(1.0, 5.0)
        B = rng.uniform(0.0, A)
        if abs(A - 1.0) < 1e-4:
            return None, f"M20 A={A:.6g} near the A = 1 dimension boundary"
        return NormalFormType(tag, a=A, b=B), None
    if tag == "M11_1":
        A = rng.uniform(0.0, 3.0)
        B = rng.uniform(0.0, A) if A > 0 else 0.0
        if A < 1e-4:
            return None, f"M11_1 A={A:.2e} near the zero-matrix stratum"
        if abs(A - B) < 1e-4:
            return None, f"M11_1 A-B={A - B:.2e} near the equal-parameter stratum"
        if B < 1e-4:
            return None, f"M11_1 B={B:.2e} near the rank-one stratum"
        return NormalFormType(tag, a=A, b=B), None
    if tag == "M11_2":
        re, im = rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)
        if re < 1e-4:
            return None, f"M11_2 Re A={re:.2e} near the det P = 0 boundary"
        return NormalFormType(tag, a=complex(re, im)), None
    if tag == "M10_1":
        return NormalFormType(tag, a=rng.uniform(0.0, 4.0)), None
    return NormalFormType(tag), None


def test_criterion_2_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260810)
    excluded: list[str] = []
    attempted = 0
    failures = 0
    for tag in TAGS:
        drawn = 0
        while drawn < 100:
            ntype, reason = _draw(tag, rng)
            if ntype is None:
                excluded.append(reason)
                continue
            drawn += 1
            cone = render_cone(ntype)
            for _ in range(5):
                T = _random_gl2(rng)
                lam = float(np.exp(rng.uniform(-2, 2)))
                sign = int(rng.choice([-1, 1]))
                attempted += 1
                res = classify2(apply_change(cone, T, lam, sign))
                ok = getattr(res, "tag", None) == tag
                if ok:
                    for a, b in zip(res.ntype.params(), ntype.params()):
                        if abs(a - b) > 1e-6 * max(1.0, abs(b)):
                            ok = False
                if not ok:
                    failures += 1
    rate = 1.0 - failures / attempted
    if excluded:
        print(f"  [criterion 2] excluded {len(excluded)} boundary draws, e.g. {excluded[0]}")
    assert attempted == 7 * 100 * 5
    assert rate >= 0.99, f"round-trip success rate {rate:.4f}"
    _report(2, f"round-trip success {rate * 100:.2f}% over {attempted} transforms",
            time.perf_counter() - t0, 30.0)


def test_criterion_3_matrix_reductions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    for _ in range(1000):
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        S = (A + A.T) / 2
        tak = takagi2(entries(S))
        u = mat(tak.u)
        ns = np.linalg.norm(S, 2)
        assert np.linalg.norm(u.T @ S @ u - np.diag(tak.d), 2) <= 1e-10 * ns
        assert np.linalg.norm(u.conj().T @ u - np.eye(2), 2) <= 1e-12 * 10
        sv = np.linalg.svd(S, compute_uv=False)
        assert np.max(np.abs(np.array(tak.d) - sv)) <= 1e-10 * ns
    for _ in range(1000):
        A = rng.standard_normal((2, 2))
        P = (A + A.T) / 2
        g, canon = map(mat, sl2_reduce_sym(entries(P)))
        npn = np.linalg.norm(P, 2)
        assert np.linalg.norm(g.T @ P @ g - canon, 2) <= 1e-10 * npn
        assert abs(np.linalg.det(g) - 1.0) <= 1e-12 * 10
    done = 0
    while done < 1000:
        A = rng.standard_normal((2, 2))
        Q = (A + A.T) / 2
        if np.linalg.det(Q) > 0:
            continue
        done += 1
        Qp = mat(so11_zero_diag(entries(Q))[1])
        nq = np.linalg.norm(Q, 2)
        assert min(abs(Qp[0, 0]), abs(Qp[1, 1])) <= 1e-8 * nq
        assert abs(np.linalg.det(Qp) - np.linalg.det(Q)) <= 1e-10 * nq**2
    for _ in range(1000):
        g0 = rng.standard_normal((2, 2))
        d = np.linalg.det(g0)
        if abs(d) < 1e-3:
            continue
        if d < 0:
            g0[:, 0] = -g0[:, 0]
            d = -d
        g0 /= np.sqrt(d)
        k = np.exp(1j * rng.uniform(0, 2 * np.pi)) * g0
        theta, g = factor_preserver(k)
        assert np.linalg.norm(np.exp(1j * theta) * g - k, 2) <= 1e-10 * np.linalg.norm(k, 2)
    _report(3, "1000 random instances per matrix reduction within residual bounds",
            time.perf_counter() - t0, 5.0)


def test_criterion_4_disc_verification():
    t0 = time.perf_counter()
    cases = [
        NormalFormType("M20", a=2.0, b=0.0),
        NormalFormType("M11_1", a=2.0, b=0.5),
        NormalFormType("M11_1", a=2.0, b=1.5),
        NormalFormType("M10_1", a=0.0),
    ]
    for ntype in cases:
        cone = render_cone(ntype)
        verdict = decide2(classify2(cone), cone)
        assert verdict.outcome == "one_sided"
        rep = verify_discs(cone, verdict.discs, eps_grid=(1e-3, 1e-2, 1e-1))
        assert rep.min_margin > 0, ntype
        assert rep.touch_residual > 0, ntype
    _report(4, "strict disc margins for the four one-sided representatives",
            time.perf_counter() - t0, 10.0)


def test_criterion_5_two_sided_witnesses():
    t0 = time.perf_counter()
    cases = [
        NormalFormType("M11_2", a=1.0),
        NormalFormType("M11_2", a=1.0 + 1.0j),
        NormalFormType("M11_1", a=0.5, b=0.5),
        NormalFormType("M11_3"),
        NormalFormType("M10_2"),
        NormalFormType("M00_1"),
    ]
    for ntype in cases:
        cone = render_cone(ntype)
        verdict = decide2(classify2(cone), cone)
        assert verdict.outcome == "two_sided", ntype
        rep = verify_support(cone, verdict.witness)
        assert rep.plus_min >= -1e-12 and rep.minus_max <= 1e-12
        swapped = SupportWitness(
            aplus=verdict.witness.aminus, aminus=verdict.witness.aplus, kind="proper"
        )
        if verdict.witness.kind == "proper":
            with pytest.raises(VerificationFailed):
                verify_support(cone, swapped)
        else:
            # corrupt a non-minimal witness by tilting the line off the cone
            from quadcone.decider import LinearGerm

            bad_span = verdict.witness.aplus.span + np.array([0.3, 0.1j])
            bad_span /= np.linalg.norm(bad_span)
            bad = LinearGerm(coeffs=verdict.witness.aplus.coeffs, span=bad_span, label="bad")
            with pytest.raises(VerificationFailed):
                verify_support(cone, SupportWitness(aplus=bad, aminus=bad, kind="nonminimal"))
    _report(5, "support/containment witnesses verified; corrupted ones rejected",
            time.perf_counter() - t0, 10.0)


def test_criterion_6_jump_demo():
    t0 = time.perf_counter()
    rep = jump_demo(seed=6, samples=10_000)
    assert rep.identity_residual <= 1e-12
    assert np.isfinite(rep.continuity_ratio) and rep.continuity_ratio <= 10.0
    _report(
        6,
        f"jump identity residual {rep.identity_residual:.1e}, "
        f"continuity ratio {rep.continuity_ratio:.3f} <= 10",
        time.perf_counter() - t0,
        5.0,
    )


def test_criterion_7_slicer_suite():
    t0 = time.perf_counter()
    one_sided = [
        "slice_pi2_axis",
        "slice_pi2_small",
        "slice_pi2_shear_a",
        "slice_pi2_shear_c",
        "slice_pi2_shear_b",
        "slice_oneone_r0_onesided",
        "slice_oneone_r_z1z3",
        "slice_oneone_r_z2z3",
        "slice_oneone_r_dependent",
        "slice_oneone_r_dependent_real",
        "slice_oneone_r_independent",
        "slice_oneone_qnonzero",
        "slice_onezero_l0",
        "slice_onezero_dq",
        "slice_onezero_dq_zero",
    ]
    for name in one_sided:
        cone = fx.FIXTURES[name]()
        res = find_good_slice(cone, budget=256)
        assert res is not None, name
        rep = verify_discs(res.restricted, res.verdict.discs, eps_grid=(1e-2, 1e-1))
        assert rep.min_margin > 0 and rep.touch_residual > 0, name
    # the independent-coupling fixture uses the documented slice with
    # det S* = 3 and det P = -1
    from quadcone.normalform import normalize_hermitian
    from quadcone.slicer import _oneone_candidates, restrict
    from quadcone.quadform import canonical_sign

    cone0, _ = canonical_sign(fx.slice_oneone_r_independent())
    first, _ = next(iter(_oneone_candidates(*normalize_hermitian(cone0))))
    got = restrict(cone0, first)
    assert abs(np.linalg.det(got.S) - 3.0) <= 1e-9
    assert abs(np.linalg.det(got.S.real) + 1.0) <= 1e-9

    form = classify_two_sided_nd(fx.product_example_m())
    assert form.kind == "product" and form.inner.tag == "M11_1"
    form = classify_two_sided_nd(fx.ts1_k3())
    assert form.kind == "ts1" and form.k == 3
    form = classify_two_sided_nd(fx.ts2())
    assert form.kind == "ts2"
    _report(7, "all slicing fixtures resolved within budget 256",
            time.perf_counter() - t0, 60.0)


def test_criterion_8_invariance_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)

    # determinant certificates stable under 100 random preserver transforms
    cone = example_m_cone()
    ref = oneone_frame_invariants(classify2(cone).ntype)
    for _ in range(100):
        g = rng.standard_normal((2, 2))
        d = np.linalg.det(g)
        if abs(d) < 1e-3:
            continue
        if d < 0:
            g[:, 0] = -g[:, 0]
            d = -d
        g = g / np.sqrt(d)
        k = np.exp(1j * rng.choice([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])) * g
        moved = apply_change(cone, k, float(np.exp(rng.uniform(-1, 1))), 1)
        got = oneone_frame_invariants(classify2(moved).ntype)
        for a, b in zip(ref, got):
            assert abs(a - b) <= 1e-8 * max(1.0, abs(b))

    # signature invariance under 100 random congruences
    base = QuadraticCone(
        (lambda A: (A + A.T) / 2)(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))),
        np.diag([1.0, -1.0, 0.5]),
    )
    hs, rs = hermitian_signature(base), real_signature(base)
    for _ in range(100):
        T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        if np.linalg.cond(T) > 100:
            continue
        moved = apply_change(base, T)
        assert hermitian_signature(moved) == hs
        assert real_signature(moved) == rs

    # positive rescaling of the defining function preserves the side split
    cone = example_m_cone()
    scaled = QuadraticCone(4.2 * cone.S, 4.2 * cone.H)
    Z = rng.standard_normal((10_000, 2)) + 1j * rng.standard_normal((10_000, 2))
    assert np.all(np.sign(evaluate_many(cone, Z)) == np.sign(evaluate_many(scaled, Z)))
    _report(8, "certificate, signature, and side invariances hold",
            time.perf_counter() - t0, 10.0)


def test_acceptance_runtime_sampling():
    # sampling 10^4 cone points stays cheap; used by several criteria above
    t0 = time.perf_counter()
    pts = sample_points(example_m_cone(), seed=9, count=10_000)
    assert len(pts) == 10_000
    assert time.perf_counter() - t0 < 5.0


def test_readme_library_example_runs_as_documented():
    # the README's "Library example" block, run as written, gives what its comments say
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    ns: dict = {}
    exec(block, ns)
    assert ns["result"].tag == "M11_1"
    assert ns["result"].ntype.params() == pytest.approx((0.5, 1 / 3), abs=1e-8)
    verdict = ns["verdict"]
    assert verdict.outcome == "two_sided"
    assert {verdict.witness.aplus.label, verdict.witness.aminus.label} == {"{z2 = 0}", "{z1 = 0}"}
    assert ns["report"].points_checked == 4
