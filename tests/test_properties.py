"""Cross-module property tests driven by hypothesis."""

from __future__ import annotations

import importlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadcone.decider import (
    DiscFamily,
    Verdict,
    VerificationFailed,
    decide2,
    normal_frame_verdict,
    verify_discs,
    verify_support,
)
from quadcone.normalform import (
    DegeneracyReport,
    NormalFormResult,
    NormalFormType,
    classify2,
    render_cone,
)
from quadcone.quadform import (
    PRESCALE_BAND,
    ZERO_EIG_REL,
    ConeError,
    QuadraticCone,
    _form2,
    _inertia,
    _jacobi4,
    decompose_real_form,
    form_norm2,
    hermitian_signature,
    real_signature,
    replace,
    rho_at,
)
from quadcone.reduction import So11Unreachable, so11_zero_diag
from test_reduction import entries, mat
from witness_samplers import apply_change, list_jacobi4, real_form_matrix, summed_rho_at2

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(finite, min_size=10, max_size=10))
def test_decompose_is_inverse_of_render(vals):
    # any real symmetric 4x4 form decomposes and renders back exactly
    G = np.zeros((4, 4))
    idx = np.triu_indices(4)
    G[idx] = vals
    G = G + np.triu(G, 1).T
    cone = decompose_real_form(G)
    np.testing.assert_allclose(real_form_matrix(cone), G, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(finite, finite, finite)
def test_so11_congruence_preserves_determinant(p, q, r):
    Q = np.array([[p, q], [q, r]])
    nq = np.linalg.norm(Q, 2)
    if nq < 1e-3 or p * r - q * q > -1e-3 * nq**2:
        return  # outside the operation's domain or too close to its boundary
    if max(abs(p + r), abs(q)) <= 1e-3 * nq:
        # at or near c*diag(1,-1), which every SO(1,1) element fixes
        if p + r == 0 and q == 0:
            with pytest.raises(So11Unreachable):
                so11_zero_diag((p, q, r))
        return
    k, Qp = map(mat, so11_zero_diag(entries(Q)))
    assert abs(np.linalg.det(k) - 1.0) <= 1e-12 * 10
    assert abs(np.linalg.det(Qp) - np.linalg.det(Q)) <= 1e-10 * nq**2
    assert min(abs(Qp[0, 0]), abs(Qp[1, 1])) <= 1e-8 * nq


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=1.05, max_value=4.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=10_000),
)
def test_m20_roundtrip_property(a, b_frac, seed):
    ntype = NormalFormType("M20", a=a, b=b_frac * a)
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    if np.linalg.cond(T) > 50:
        return
    res = classify2(apply_change(render_cone(ntype), T, 1.0, 1))
    assert res.tag == "M20"
    A, B = res.ntype.params()
    assert A == pytest.approx(a, abs=1e-7 * max(1, a))
    assert B == pytest.approx(b_frac * a, abs=1e-7 * max(1, a))


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_m11_2_verdict_always_two_sided(re, im):
    ntype = NormalFormType("M11_2", a=complex(re, im))
    cone = render_cone(ntype)
    v = decide2(classify2(cone), cone)
    assert v.outcome == "two_sided"


def test_verification_failure_carries_location():
    cone = render_cone(NormalFormType("M20", a=2.0, b=0.5))
    fam = normal_frame_verdict(NormalFormType("M20", a=2.0, b=0.5)).discs
    bad = replace(fam, side=-1)
    with pytest.raises(VerificationFailed) as exc:
        verify_discs(cone, bad, eps_grid=(1e-2,))
    assert exc.value.eps == pytest.approx(1e-2)
    assert exc.value.z is not None and np.shape(exc.value.z) == (2,)


def test_rho_sign_partition_consistency():
    # the two open sides and the cone partition sampled space
    rng = np.random.default_rng(7)
    cone = render_cone(NormalFormType("M11_1", a=2.0, b=0.5))
    Z = rng.standard_normal((2000, 2)) + 1j * rng.standard_normal((2000, 2))
    from quadcone.quadform import evaluate_many

    vals = evaluate_many(cone, Z)
    assert np.sum(vals > 0) > 0 and np.sum(vals < 0) > 0


def test_immutability_of_cone():
    cone = render_cone(NormalFormType("M00_1"))
    with pytest.raises(AttributeError):
        cone.n = 3
    with pytest.raises((ValueError, RuntimeError)):
        cone.S[0, 0] = 5.0


# constructor arguments of the records that check them; any values build the others
_RECORD_ARGS = {"NormalFormType": ("M20", 2.0, 0.5), "Slice": (np.eye(3, 2), "axis")}


@pytest.mark.parametrize("module", ["cli", "decider", "normalform", "quadform", "reduction", "slicer"])
def test_records_are_read_only_and_replace_refuses_unknown_fields(module):
    mod = importlib.import_module(f"quadcone.{module}")
    records = [v for v in vars(mod).values() if isinstance(v, type) and issubclass(v, tuple)
               and v.__module__ == mod.__name__ and not v.__name__.startswith("_")]
    assert records
    for cls in records:
        rec = cls(*_RECORD_ARGS.get(cls.__name__, range(len(cls._fields))))
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
        with pytest.raises(AttributeError):
            rec.extra = None
        with pytest.raises(TypeError):
            replace(rec, extra=None)
        assert type(replace(rec)) is cls


def _spread(e_max: int):
    """m * 2^e with |e| <= e_max; small integer mantissas make zero, equal and cancelling entries likely."""
    return st.builds(
        math.ldexp,
        st.one_of(st.integers(min_value=-3, max_value=3).map(float), st.floats(min_value=-1.0, max_value=1.0)),
        st.integers(min_value=-e_max, max_value=e_max),
    )


spread = _spread(1000)


@st.composite
def spread_cones(draw, e_max: int = 1000):
    """n = 2 cones with every entry part m * 2^e, |e| <= e_max: H arbitrary, or of rank one."""
    part = _spread(e_max)
    s00, s01, s11 = (complex(draw(part), draw(part)) for _ in range(3))
    if draw(st.booleans()):
        h00, h11, h01 = draw(part), draw(part), complex(draw(part), draw(part))
    else:  # H = v v^*, singular; v's parts at most 2^(e_max / 2) so that H stays finite
        half = st.builds(
            math.ldexp, st.floats(min_value=-1.0, max_value=1.0), st.integers(-(e_max // 2), e_max // 2)
        )
        x, y = (complex(draw(half), draw(half)) for _ in range(2))
        h00, h01, h11 = abs(x) ** 2, x * y.conjugate(), abs(y) ** 2
    return QuadraticCone([[s00, s01], [s01, s11]], [[h00, h01], [h01.conjugate(), h11]])


@settings(max_examples=300, deadline=None)
@given(spread_cones())
def test_classify2_returns_a_result_or_a_report_at_any_scale(cone):
    # the reduction runs on Python scalars, which raise OverflowError,
    # ZeroDivisionError or ValueError where numpy returned inf or nan
    res = classify2(cone)
    assert isinstance(res, (NormalFormResult, DegeneracyReport))


@settings(max_examples=300, deadline=None)
@given(spread_cones())
def test_signatures_decide2_and_verify_support_return_or_fail_verification_at_any_scale(cone):
    # the signatures, the germs and the line extremes run on Python scalars
    # too; only a failed check may leave decide2 and verify_support
    hermitian_signature(cone)
    real_signature(cone)
    res = classify2(cone)
    if not isinstance(res, NormalFormResult):
        return
    try:
        assert isinstance(decide2(res, cone), Verdict)
    except VerificationFailed:
        pass
    verdict = decide2(res) if res.residual <= res.residual_bound else None
    if verdict is not None and verdict.outcome == "two_sided":
        try:
            verify_support(cone, verdict.witness)
        except VerificationFailed:
            pass


def _decided(res) -> str:
    """decide2's outcome on a classification, or "verification_failed"."""
    try:
        return decide2(res).outcome
    except VerificationFailed:
        return "verification_failed"


def _moved_exactly(got: np.ndarray, T: np.ndarray, f: float) -> bool:
    """got == f T in every real and imaginary part that is a normal float at both scales.

    A part below 2^-1022 at either scale (a subnormal, or 0 beside one)
    carries fewer than 53 bits: a rounding there moves it by up to a few
    units of 2^-1074 at its own scale, so such parts agree within 4 *
    2^-1074 * max(1, f).
    """
    got, T = np.asarray(got, dtype=complex), np.asarray(T, dtype=complex)
    g, t, w = got.view(float), T.view(float), (f * T).view(float)
    tiny = np.minimum(np.abs(t), np.abs(w)) < 2.0**-1022
    return bool(np.all(np.where(tiny, np.abs(g - w) <= 4 * 2.0**-1074 * max(1.0, f), g == w)))


@settings(max_examples=300, deadline=None)
@given(spread_cones(e_max=150), st.integers(min_value=-150, max_value=150).map(lambda h: 2 * h))
# M10_2 cones: T[1][0] = -A0 / (2 B0) h00^(-1/2) of the first moves to
# -1.09e-308, a subnormal; T[0][1] of the second has an imaginary part of
# 1.9e-312, a subnormal at both scales
@example(
    cone=QuadraticCone(
        [[2.885707299468856e-222j, 4.2817430781178796e45j], [4.2817430781178796e45j, 0j]],
        [[4.253529586511731e37, 0j], [0j, 0j]],
    ),
    k=-144,
)
@example(
    cone=QuadraticCone(
        [[4.3440882133631606e-66j, 1j], [1j, 0j]],
        [[0.002197265625, -9.510946745308514e-126j], [9.510946745308514e-126j, 4.116849003729106e-248]],
    ),
    k=4,
)
def test_classify2_keeps_the_power_of_two_scaling_law(cone, k):
    # rho -> 2^-k rho with k even, on inputs the scaling keeps exact: T takes
    # the factor 2^(k/2) bitwise (_moved_exactly), and tag, parameters, sign
    # and lambda stay (M00_1 keeps T and moves the scale into lambda); a
    # degenerate cone keeps its report, and decide2 its outcome
    scaled = QuadraticCone(2.0**-k * cone.S, 2.0**-k * cone.H)
    assume(np.array_equal(2.0**k * scaled.S, cone.S) and np.array_equal(2.0**k * scaled.H, cone.H))
    base, got = classify2(cone), classify2(scaled)
    if isinstance(base, DegeneracyReport):
        assert got == base
        return
    assert isinstance(got, NormalFormResult)
    f, lam = (1.0, 2.0**k * base.lam) if base.tag == "M00_1" else (2.0 ** (k // 2), base.lam)
    assert repr(got.ntype) == repr(base.ntype) and got.sign == base.sign
    assert got.lam == lam and _moved_exactly(got.T, base.T, f)
    assert _decided(got) == _decided(base)


# the one-sided families of the table, and the definite slice's family without a model
DISC_FAMILIES = [
    normal_frame_verdict(NormalFormType("M20", a=2.0, b=0.5)).discs,
    normal_frame_verdict(NormalFormType("M10_1", a=0.5)).discs,
    normal_frame_verdict(NormalFormType("M11_1", a=2.0, b=0.5)).discs,
    normal_frame_verdict(NormalFormType("M11_1", a=3.0, b=2.0)).discs,
    DiscFamily(side=1),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflows on these scales by design
@settings(max_examples=200, deadline=None)
@given(
    spread_cones(),
    st.lists(spread, min_size=8, max_size=8),
    st.sampled_from(DISC_FAMILIES),
    st.sampled_from((-1, 1)),
    st.integers(min_value=-1000, max_value=1000),
)
def test_verify_discs_returns_or_fails_verification_at_any_scale(cone, entries, fam, side, e):
    # the pullback, the allowance and the closed forms run on Python scalars,
    # and the model distance and the multiplier bound on numpy eigensolvers,
    # which raise LinAlgError on a form that is not finite: only a failed
    # check (VerificationFailed, a ConeError) may leave verify_discs
    T = (np.array(entries[0::2]) + 1j * np.array(entries[1::2])).reshape(2, 2)
    fam = replace(fam, transform=T, side=side, lam=math.ldexp(1.0, e))
    try:
        verify_discs(cone, fam, eps_grid=(1e-3, 1e-2, 1e-1))
    except ConeError:
        pass


# --- the pure-Python Jacobi of the n = 2 real form ------------------------------

# The Jacobi's eigenvalues lie within 5 u ||G||_F of the exact ones (u =
# 2^-53, G the 4 x 4 real form; measured against mpmath on 3,000 forms), and
# eigvalsh's within about 10 u ||G||_F on forms of one scale: the two agree
# within JACOBI_C u ||G||_F, plus a few units of 2^-1074 where G is near the
# subnormal range.  On forms whose entries span hundreds of orders of
# magnitude eigvalsh can be off by percents (S = (-2.5e264i, 1.3e67i,
# -2.9e-211i), H = (6.2e26, 1.3e103, -2.2e-70) gives +-2.468e264 for
# +-2.517e264); there the exact eigenvalues, from mpmath, are the reference.
JACOBI_C = 32


def _exact_eigenvalues(G) -> np.ndarray:
    import mpmath

    with mpmath.workdps(60):
        return np.sort([float(x) for x in mpmath.eigsy(mpmath.matrix(G.tolist()))[0]])


@st.composite
def n2_forms(draw, e_max: int = 1000):
    """(S, H) as entries (s00, s01, s11), (h00, h01, h11), every part m * 2^e with |e| <= e_max."""
    part = _spread(e_max)
    S = tuple(complex(draw(part), draw(part)) for _ in range(3))
    return S, (complex(draw(part)), complex(draw(part), draw(part)), complex(draw(part)))


_TWO = (1.0 + 0j, 0j, 1.0 + 0j)
_ZERO = (0j, 0j, 0j)


@settings(max_examples=400, deadline=None)
@given(n2_forms())
@example(form=(_ZERO, _ZERO))  # G = 0
@example(form=((0.5 + 0j, 0j, -0.25 + 0j), (1.0 + 0j, 0j, 2.0 + 0j)))  # diagonal G
@example(form=(_ZERO, _TWO))  # G = I: a fourfold eigenvalue
@example(form=((0j, 0.5 + 0.5j, 0j), _TWO))  # repeated pairs
@example(form=(tuple(math.ldexp(1.0, 1000) * z for z in (1 + 1j, 0.5j, -1 + 0j)), (0j, 0j, 0j)))
@example(form=(tuple(math.ldexp(1.0, -1000) * z for z in (1 + 1j, 0.5j, -1 + 0j)), _TWO))
@example(form=((math.ldexp(1.0, 1000) + 0j, 0j, 0j), (math.ldexp(1.0, -1000) + 0j, 0j, 0j)))
def test_the_jacobi_eigenvalues_are_eigvalsh_s_to_rounding(form):
    # _jacobi4's eigenvalues, the inertia the real signature reads from them
    # and form_norm2 against eigvalsh of the same form; on Python floats the
    # Jacobi never raises OverflowError or ZeroDivisionError
    S, H = form
    G = np.array(_form2(S, H))
    ref = np.linalg.eigvalsh(G)
    w, e = _jacobi4(S, H)
    got = np.sort([math.ldexp(x, e) for x in w])
    bound = JACOBI_C * 2.0**-53 * math.hypot(*G.ravel()) + 4 * 2.0**-1074
    if not np.abs(got - ref).max() <= bound:  # eigvalsh's own error: the exact eigenvalues decide
        ref = _exact_eigenvalues(G)
        assert np.abs(got - ref).max() <= bound
    assert abs(form_norm2(S, H) - np.abs(ref).max()) <= bound
    thr = ZERO_EIG_REL * np.abs(ref).max()
    if all(abs(abs(x) - thr) > bound for x in ref):
        assert _inertia(w) == (int(np.sum(ref > thr)), int(np.sum(ref < -thr)))


# --- the scalar n = 2 kernels against the code they replaced --------------------

# exponents at 2^+-1000 and on both sides of PRESCALE_BAND, where _jacobi4 prescales
_KERNEL_EXPONENTS = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.sampled_from([-1000, 1000, *(sign * (PRESCALE_BAND + d) for sign in (1, -1) for d in range(-3, 4))]),
)
# zero parts of either sign, and m * 2^e as _spread draws them
_KERNEL_PART = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(
        math.ldexp,
        st.one_of(st.integers(min_value=-3, max_value=3).map(float), st.floats(min_value=-1.0, max_value=1.0)),
        _KERNEL_EXPONENTS,
    ),
)


@st.composite
def kernel_forms(draw):
    """(S, H) as entries (s00, s01, s11), (h00, h01, h11), every part a _KERNEL_PART."""
    S = tuple(complex(draw(_KERNEL_PART), draw(_KERNEL_PART)) for _ in range(3))
    h00, h11 = complex(draw(_KERNEL_PART)), complex(draw(_KERNEL_PART))
    return S, (h00, complex(draw(_KERNEL_PART), draw(_KERNEL_PART)), h11)


def _hexes(xs) -> list:
    """Each float's bits, the sign of a zero included."""
    return [float.hex(x) for x in xs]


def _band_form(e: int):
    """A form with no zero entry whose largest part is 2^(e - 1), so that quadform's exponent is e."""
    f = math.ldexp(1.0, e - 1)
    return (f * (0.5 + 0.25j), f * (-0.75 + 0.125j), f * (1 + 0j)), (f * (0.5 + 0j), f * (0.25 - 0.5j), f * (-1 + 0j))


_NEG_ZEROS = (complex(-0.0, -0.0),) * 3


@settings(max_examples=300, deadline=None)
@given(kernel_forms())
@example(form=(_ZERO, _ZERO))
@example(form=(_NEG_ZEROS, _NEG_ZEROS))
@example(form=(_NEG_ZEROS, (complex(-0.0), 1j, complex(-0.0))))
@example(form=_band_form(PRESCALE_BAND))  # the band's edge: no prescale
@example(form=_band_form(PRESCALE_BAND + 1))  # just beyond it
@example(form=_band_form(-PRESCALE_BAND))
@example(form=_band_form(-PRESCALE_BAND - 1))
@example(form=_band_form(1000))
@example(form=_band_form(-1000))
def test_jacobi4_is_bitwise_the_list_of_lists_jacobi(form):
    S, H = form
    w, e = _jacobi4(S, H)
    ref_w, ref_e = list_jacobi4(S, H)
    assert e == ref_e
    assert _hexes(w) == _hexes(ref_w)


def test_the_band_forms_fall_on_both_sides_of_the_prescale_band():
    # the @examples above reach both branches of _jacobi4's prescale
    for k, prescaled in ((PRESCALE_BAND, False), (PRESCALE_BAND + 1, True), (-PRESCALE_BAND - 1, True)):
        assert (list_jacobi4(*_band_form(k))[1] != 0) is prescaled


_KERNEL_POINTS = st.lists(
    st.tuples(*(st.builds(complex, _KERNEL_PART, _KERNEL_PART) for _ in range(2))), min_size=1, max_size=5
)


@settings(max_examples=300, deadline=None)
@given(kernel_forms(), _KERNEL_POINTS)
@example(form=(_ZERO, _ZERO), Z=[(complex(-0.0, -0.0), complex(-0.0, -0.0))])
@example(form=(_NEG_ZEROS, (complex(-0.0), 1j, complex(-0.0))), Z=[(complex(-0.0, 1.0), complex(1.0, -0.0))])
@example(form=_band_form(1000), Z=[(1 + 1j, -1 + 0.5j), (complex(-0.0), 1e-300j)])
@example(form=_band_form(-1000), Z=[(math.ldexp(1.0, 1000) + 0j, 1j), (0j, complex(-0.0, 2.0))])
def test_rho_at_is_bitwise_the_summed_rho_at(form, Z):
    # the values, infinities, nans and signs of zero of the sum()-based kernel
    (s00, s01, s11), (h00, h01, h11) = form
    cone = QuadraticCone._symmetrized(((s00, s01), (s01, s11)), ((h00, h01), (h01.conjugate(), h11)))
    assert _hexes(rho_at(cone, Z)) == _hexes(summed_rho_at2(cone, Z))


# --- the power-of-two scaling law of the certificates ---------------------------


def _same_float(got: float, base: float) -> bool:
    """got == base bitwise, or within 4 * 2^-1074 where either is below 2^-1022 (as _moved_exactly)."""
    if min(abs(got), abs(base)) < 2.0**-1022:
        return abs(got - base) <= 4 * 2.0**-1074
    return got == base or (got != got and base != base)


def _certified(cone, verdict):
    """verify_discs' (min_margin, touch_residual), or the failure's type and text."""
    try:
        rep = verify_discs(cone, verdict.discs, eps_grid=(1e-3, 1e-2, 1e-1))
    except ConeError as exc:
        return type(exc), str(exc)
    return rep.min_margin, rep.touch_residual


@settings(max_examples=300, deadline=None)
@given(spread_cones(e_max=150), st.integers(min_value=-150, max_value=150).map(lambda h: 2 * h))
def test_the_certificates_keep_the_power_of_two_scaling_law(cone, k):
    # rho -> 2^-k rho with k even, on inputs the scaling keeps exact and
    # whose T moves exactly, with no part below 2^-1022 at either scale: a
    # one-sided verdict's verify_discs gives the same min_margin and
    # touch_residual (or fails with the same message), and a two-sided
    # verdict's pulled-back lines keep their coefficients and span, bitwise
    # apart from parts below 2^-1022 at either scale (_moved_exactly's
    # rule).  Where T has a part below 2^-1022 at one scale, its rounding
    # reaches the germs: the M10_2 cone S = [[0, c], [c, 0]], c = 1 +
    # 2.254e-303i, H = diag(0, 0.25) at k = -34 moves the span's imaginary
    # part -2.254392565328908e-303 by one unit
    scaled = QuadraticCone(2.0**-k * cone.S, 2.0**-k * cone.H)
    assume(np.array_equal(2.0**k * scaled.S, cone.S) and np.array_equal(2.0**k * scaled.H, cone.H))
    base, got = classify2(cone), classify2(scaled)
    assume(isinstance(base, NormalFormResult) and base.residual <= base.residual_bound)
    f = 1.0 if base.tag == "M00_1" else 2.0 ** (k // 2)
    Tb, Tg = (np.asarray(r.T, dtype=complex).view(float) for r in (base, got))
    # both ways: f * Tb rounds a part that f takes below 2^-1022 (to 0, say)
    assume(np.array_equal(Tg, f * Tb) and np.array_equal(Tg / f, Tb))
    assume(not np.any((np.abs(Tb) < 2.0**-1022) & (Tb != 0)))
    assume(not np.any((np.abs(Tg) < 2.0**-1022) & (Tg != 0)))
    vb, vg = decide2(base), decide2(got)
    assert vg.outcome == vb.outcome
    if vb.outcome == "one_sided":
        want, have = _certified(cone, vb), _certified(scaled, vg)
        if isinstance(want[0], type):
            assert have == want
        else:
            assert all(map(_same_float, have, want)), (have, want)
        return
    for g, b in ((vg.witness.aplus, vb.witness.aplus), (vg.witness.aminus, vb.witness.aminus)):
        assert _moved_exactly(g.coeffs, b.coeffs, 1.0) and _moved_exactly(g.span, b.span, 1.0)
