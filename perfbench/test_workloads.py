"""Self-tests of the benchmark's input generators (not of the program).

    python3 -m pytest perfbench/test_workloads.py -q

Each emitted spec must equal its recorded shape pulled back through the
recorded T, lam and sign, checked pointwise against the table's defining
functions written out independently of the generator's matrices.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import workloads as wl

Z = np.random.default_rng(7).standard_normal((64, 8)) + 1j * np.random.default_rng(8).standard_normal((64, 8))


def rho(S, H, Z):
    """rho over the rows of Z, from the coefficient pair."""
    return (np.einsum("ij,jk,ik->i", Z, S, Z) + np.einsum("ij,jk,ik->i", Z.conj(), H, Z)).real


def table_rho(tag, a, b, z):
    z1, z2 = z[:, 0], z[:, 1]
    if tag == "M20":
        return (a * z1**2 + b * z2**2).real + abs(z1) ** 2 + abs(z2) ** 2
    if tag == "M11_1":
        return (a * z1**2 + b * z2**2).real + abs(z1) ** 2 - abs(z2) ** 2
    if tag == "M11_2":
        return (a * z1**2 + np.conj(a) * z2**2).real + (z1 * z2.conj()).imag
    if tag == "M11_3":
        return (z1**2).real + (z1 * z2.conj()).imag
    if tag == "M10_1":
        return (a * z1**2 + z2**2).real + abs(z1) ** 2
    if tag == "M10_2":
        return (z1 * z2).real + abs(z1) ** 2
    if tag == "M00_1":
        return (z1**2 + z2**2).real
    raise ValueError(tag)


def spec_rho(spec: str, z):
    data = json.loads(spec)
    mat = [np.array([[complex(v["re"], v["im"]) for v in row] for row in data[k]]) for k in "SH"]
    return rho(*mat, z)


def assert_pulled_back(spec, T, lam, sign, shape_rho):
    n = T.shape[0]
    z = Z[:, :n]
    want = sign * lam * shape_rho(z @ T.T)
    got = spec_rho(spec, z)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_planar_specs_reproduce_the_recorded_normal_form(seed):
    tags = set()
    for _, tag, a, b, T, lam, sign, S, H in wl.planar_cases(seed, 2 * len(wl.PLANAR_SLOTS)):
        assert_pulled_back(wl.spec_json(S, H), T, lam, sign, lambda z: table_rho(tag, a, b, z))
        assert np.linalg.cond(T) <= wl.MAX_COND
        tags.add(tag)
    assert tags == {"M20", "M11_1", "M11_2", "M11_3", "M10_1", "M10_2", "M00_1"}


def nd_rho(name, truth, S0, H0, z):
    n = z.shape[1]
    if name == "ts1":
        return (z[:, : truth["k"]] ** 2).sum(axis=1).real
    if name == "ts2":
        return ((z[:, 1] + z[:, 2].conj()) * z[:, 0]).real
    if name == "product":
        factor = {t: (a, b) for t, a, b in wl.PRODUCT_FACTORS}[truth["inner_tag"]]
        return table_rho(truth["inner_tag"], *factor, z)
    # one-sided shapes are data: check the pull-back of their matrices
    assert S0.shape == (n, n)
    return rho(S0, H0, z)


@pytest.mark.parametrize("seed", [0, 3])
def test_nd_specs_reproduce_the_recorded_shape(seed):
    kinds = set()
    for name, truth, T, lam, sign, S0, H0, S, H in wl.nd_cases(seed):
        assert_pulled_back(wl.spec_json(S, H), T, lam, sign, lambda z: nd_rho(name, truth, S0, H0, z))
        kinds.add(truth.get("kind", truth["outcome"]))
    assert kinds == {"one_sided", "product", "ts1", "ts2"}


def test_scales_cover_the_range_evenly():
    u = wl.stratified_exponents(40, np.random.default_rng(0))
    lo, hi = wl.U_RANGE
    cells = np.floor((u - lo) / (hi - lo) * 40).astype(int)
    assert sorted(cells) == list(range(40))


@pytest.mark.parametrize("u_range", [wl.U_RANGE, wl.CENSUS_U_RANGE])
def test_scales_stay_in_the_requested_range(u_range):
    lo, hi = u_range
    u = [np.log10(case[5]) for case in wl.planar_cases(2, wl.PLANAR_PASS, u_range)]
    u += [np.log10(case[3]) for case in wl.nd_cases(2, u_range=u_range)]
    assert lo <= min(u) < lo + 1 and hi - 1 < max(u) <= hi


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    make = wl.WORKLOADS[name]
    assert make(5) == make(5)
    assert [op.spec for op in make(5)] != [op.spec for op in make(6)]
