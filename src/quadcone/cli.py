"""Command-line interface: JSON cone specs in, JSON reports out.

Sub-commands: classify, decide, verify, slice, jump-demo, atlas.  Exit
codes: 0 success, 2 degenerate input, 3 verification failure, 4 schema
error, 5 no one-sided slice found and the two-sided form is unknown.

Input schema (UTF-8 JSON), either coefficient matrices or a polynomial:

    {"n": 2,
     "S": [[{"re": 0.5}, {}], [{}, {"re": 0.3333333333}]],
     "H": [[{"re": 1}, {}], [{}, {"re": -1}]]}

    {"n": 2, "poly": [{"vars": ["x1", "x1"], "coeff": 1.0}, ...]}

Matrix entries are {"re": r, "im": i} objects (missing keys are 0) or bare
numbers.  Polynomial variables are x1..xn, y1..yn; every monomial must
have total degree two and a real coefficient.  Symmetrization is applied
to S/H and the adjustment magnitude echoed in the report; a non-finite
entry, given or produced by symmetrization, is a schema error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .decider import (
    JUMP_IDENTITY_TOL,
    JUMP_RATIO_BOUND,
    SUPPORT_TOL_REL,
    Verdict,
    VerificationFailed,
    _disc_points,
    _germ_points,
    decide2,
    jump_demo,
    verify_discs,
    verify_support,
)
from .fixtures import FIXTURES
from .normalform import (
    RESIDUAL_REL,
    DegeneracyReport,
    NormalFormResult,
    NormalFormType,
    classify2,
    real_degeneracy,
    render_cone,
)
from .quadform import (
    ZERO_EIG_REL,
    ConeError,
    NonHomogeneous,
    NonReal,
    QuadraticCone,
    decompose_poly,
    evaluate_many,
    hermitian_signature,
    real_signature,
)
from .slicer import classify_two_sided_nd, find_good_slice

EXIT_OK = 0
EXIT_DEGENERATE = 2
EXIT_VERIFICATION = 3
EXIT_SCHEMA = 4
EXIT_UNRESOLVED = 5

DEFAULT_EPS = (1e-3, 1e-2, 1e-1)
DEFAULT_GRID = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
# the only tolerance a caller may override: verify_support's support_rel
TOL_OVERRIDE_KEYS = ("support_rel",)


class SchemaError(ConeError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class ConeSpec:
    n: int
    cone: QuadraticCone
    source: dict
    s_adjustment: float
    h_adjustment: float


def _entry_to_complex(v, path: str) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, dict):
        extra = set(v) - {"re", "im"}
        if extra:
            raise SchemaError(path, f"unknown keys {sorted(extra)}")
        re = v.get("re", 0.0)
        im = v.get("im", 0.0)
        if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
            raise SchemaError(path, "re/im must be numbers")
        return complex(re, im)
    raise SchemaError(path, f"expected number or {{re, im}} object, got {type(v).__name__}")


def _parse_matrix(data, n: int, path: str) -> np.ndarray:
    if not isinstance(data, list) or len(data) != n:
        raise SchemaError(path, f"expected {n} rows")
    M = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{path}[{i}]", f"expected {n} entries")
        for j, v in enumerate(row):
            M[i, j] = _entry_to_complex(v, f"{path}[{i}][{j}]")
    return M


def _require_finite(M: np.ndarray, path: str) -> None:
    bad = np.argwhere(~np.isfinite(M))
    if bad.size:
        i, j = bad[0]
        raise SchemaError(f"{path}[{i}][{j}]", "entry is not finite after symmetrization")


def parse_spec(text: str) -> ConeSpec:
    """Validate a JSON cone spec and build the cone, symmetrizing S and H."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError("$", "top level must be an object")
    n = data.get("n")
    if not isinstance(n, int) or n < 2:
        raise SchemaError("n", "must be an integer >= 2")
    known = set(data) - {"n", "S", "H", "poly"}
    if known:
        raise SchemaError("$", f"unknown keys {sorted(known)}")

    if "poly" in data:
        if "S" in data or "H" in data:
            raise SchemaError("$", "give either poly or S/H, not both")
        terms = []
        poly = data["poly"]
        if not isinstance(poly, list):
            raise SchemaError("poly", "must be a list of terms")
        for k, term in enumerate(poly):
            path = f"poly[{k}]"
            if not isinstance(term, dict) or set(term) - {"vars", "coeff"}:
                raise SchemaError(path, "term must be {vars, coeff}")
            vars_ = term.get("vars")
            coeff = term.get("coeff", 0.0)
            if not isinstance(vars_, list) or not all(isinstance(v, str) for v in vars_):
                raise SchemaError(f"{path}.vars", "must be a list of variable names")
            if isinstance(coeff, dict):
                c = _entry_to_complex(coeff, f"{path}.coeff")
                if c.imag != 0:
                    raise NonReal(f"{path}.coeff: polynomial coefficients must be real")
                coeff = c.real
            if not isinstance(coeff, (int, float)):
                raise SchemaError(f"{path}.coeff", "must be a real number")
            if not math.isfinite(coeff):
                raise SchemaError(f"{path}.coeff", "must be finite")
            if len(vars_) != 2:
                raise NonHomogeneous(f"{path}: monomial degree {len(vars_)}, expected 2")
            terms.append((tuple(vars_), float(coeff)))
        try:
            cone = decompose_poly(n, terms)
        except (NonReal, NonHomogeneous):
            raise
        except ConeError as exc:
            raise SchemaError("poly", str(exc)) from exc
        return ConeSpec(n=n, cone=cone, source=data, s_adjustment=0.0, h_adjustment=0.0)

    if "S" not in data or "H" not in data:
        raise SchemaError("$", "need S and H matrices (or poly)")
    S = _parse_matrix(data["S"], n, "S")
    H = _parse_matrix(data["H"], n, "H")
    s_adj = float(np.linalg.norm(S - S.T) / 2)
    h_adj = float(np.linalg.norm(H - H.conj().T) / 2)
    S = 0.5 * (S + S.T)
    H = 0.5 * (H + H.conj().T)
    _require_finite(S, "S")
    _require_finite(H, "H")
    # S and H are exactly symmetric / hermitian now, so the checked
    # constructor's tests cannot fail; _symmetrized repeats the same
    # symmetrization, which keeps the cone bitwise equal to that constructor's
    cone = QuadraticCone._symmetrized(S, H)
    return ConeSpec(n=n, cone=cone, source=data, s_adjustment=s_adj, h_adjustment=h_adj)


def _c2j(z: complex):
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def _mat2j(M) -> list:
    M = np.asarray(M)
    return [[_c2j(M[i, j]) for j in range(M.shape[1])] for i in range(M.shape[0])]


def spec_to_json(spec: ConeSpec) -> dict:
    return {"n": spec.n, "S": _mat2j(spec.cone.S), "H": _mat2j(spec.cone.H)}


def _ntype_json(ntype: NormalFormType) -> dict:
    out = {"tag": ntype.tag}
    params = ntype.params()
    if ntype.tag in ("M20", "M11_1"):
        out["A"], out["B"] = params
    elif ntype.tag == "M11_2":
        out["A"] = _c2j(params[0])
    elif ntype.tag == "M10_1":
        out["A"] = params[0]
    return out


def _classification_json(res) -> dict:
    if isinstance(res, DegeneracyReport):
        return {"degenerate": {"reason": res.reason, "detail": res.detail}}
    return {
        "normal_form": _ntype_json(res.ntype),
        "T": _mat2j(res.T),
        "lambda": res.lam,
        "sign": res.sign,
        "residual": res.residual,
        "low_confidence": res.low_confidence,
        "boundary_margin": res.boundary_margin
        if np.isfinite(res.boundary_margin)
        else None,
    }


def _germ_json(germ) -> dict:
    return {
        "label": germ.label,
        "functional": [_c2j(c) for c in germ.coeffs],
        "span": [_c2j(c) for c in germ.span],
    }


def _verdict_json(v: Verdict) -> dict:
    out = {"outcome": v.outcome}
    if v.note:
        out["note"] = v.note
    if v.outcome == "one_sided":
        fam = v.discs
        out["side"] = v.side
        out["disc_family"] = {
            "kind": fam.kind,
            "side": fam.side,
            "radius": fam.radius,
        }
        if fam.kind == "level_set":
            out["disc_family"]["C"] = _mat2j(fam.c)
        else:
            out["disc_family"]["shift"] = _c2j(fam.shift)
        if fam.transform is not None:
            out["disc_family"]["transform"] = _mat2j(fam.transform)
    elif v.outcome == "two_sided":
        out["witness"] = {
            "kind": v.witness.kind,
            "a_plus": _germ_json(v.witness.aplus),
            "a_minus": _germ_json(v.witness.aminus),
        }
    else:
        out["degeneracy"] = {"reason": v.degeneracy.reason, "detail": v.degeneracy.detail}
    return out


def _base_report(command: str, args, spec: ConeSpec | None) -> dict:
    report = {
        "tool": {"name": "quadcone", "version": __version__},
        "command": command,
        "seed": getattr(args, "seed", None),
        "samples": getattr(args, "samples", None),
        "tolerances": {
            "support_rel": SUPPORT_TOL_REL,
            "eigenvalue_zero_rel": ZERO_EIG_REL,
            "classification_residual_rel": RESIDUAL_REL,
        },
        "timings": {},
    }
    if getattr(args, "tol_overrides", None):
        report["tolerances"]["overrides"] = args.tol_overrides
    if spec is not None:
        report["input"] = spec_to_json(spec)
        report["input"]["symmetrization_adjustment"] = {
            "S": spec.s_adjustment,
            "H": spec.h_adjustment,
        }
        report["signatures"] = {
            "hermitian": list(hermitian_signature(spec.cone).as_tuple()),
            "real": list(real_signature(spec.cone).as_tuple()),
        }
    return report


def _emit(report: dict, code: int) -> int:
    print(json.dumps(report, indent=2, sort_keys=True))
    return code


def _load_spec(args) -> ConeSpec:
    if args.fixture:
        cone = FIXTURES[args.fixture]()
        return ConeSpec(
            n=cone.n, cone=cone, source={"fixture": args.fixture}, s_adjustment=0.0, h_adjustment=0.0
        )
    if args.input == "-" or args.input is None:
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_spec(text)


def _done(report: dict, t0: float, code: int) -> int:
    report["timings"]["total_s"] = time.perf_counter() - t0
    return _emit(report, code)


def _classified(command: str, args):
    """The shared start of classify, decide and verify: (t0, spec, report, classification).

    The classification is None, and the report carries the error, when the
    cone is not in C^2.
    """
    t0 = time.perf_counter()
    spec = _load_spec(args)
    report = _base_report(command, args, spec)
    if spec.n != 2:
        report["error"] = f"{command} handles n = 2; use the slice command for n >= 3"
        return t0, spec, report, None
    res = classify2(spec.cone)
    report["classification"] = _classification_json(res)
    return t0, spec, report, res


def cmd_classify(args) -> int:
    t0, _, report, res = _classified("classify", args)
    if res is None:
        return _emit(report, EXIT_SCHEMA)
    return _done(report, t0, EXIT_DEGENERATE if isinstance(res, DegeneracyReport) else EXIT_OK)


def cmd_decide(args) -> int:
    t0, spec, report, res = _classified("decide", args)
    if res is None:
        return _emit(report, EXIT_SCHEMA)
    verdict = decide2(res, spec.cone)
    report["verdict"] = _verdict_json(verdict)
    return _done(report, t0, EXIT_DEGENERATE if verdict.outcome == "degenerate" else EXIT_OK)


def _write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def cmd_verify(args) -> int:
    t0, spec, report, res = _classified("verify", args)
    if res is None:
        return _emit(report, EXIT_SCHEMA)
    if isinstance(res, DegeneracyReport):
        return _done(report, t0, EXIT_DEGENERATE)
    try:
        # the supporting lines are checked below, at the caller's support_rel
        verdict = decide2(res)
        report["verdict"] = _verdict_json(verdict)
        if verdict.outcome == "one_sided":
            rep = verify_discs(spec.cone, verdict.discs, eps_grid=args.eps)
            report["verification"] = {
                "min_margin": rep.min_margin,
                "touch_residual": rep.touch_residual,
                "points_checked": rep.points_checked,
            }
        else:
            support_tol = (args.tol_overrides or {}).get("support_rel", SUPPORT_TOL_REL)
            rep = verify_support(spec.cone, verdict.witness, tol_rel=support_tol)
            report["verification"] = {
                "plus_min": rep.plus_min,
                "minus_max": rep.minus_max,
                "points_checked": rep.points_checked,
            }
    except VerificationFailed as exc:
        report["verification"] = {"failed": str(exc)}
        return _done(report, t0, EXIT_VERIFICATION)
    if args.csv:
        # (eps, points) batches: seeded disc points per eps and at the boundary
        # eps = 0, or seeded points on each supporting line
        rng = np.random.default_rng(args.seed)
        count = min(args.samples, 512)
        if verdict.outcome == "one_sided":
            fam = verdict.discs
            batches = [(eps, fam.map_points(_disc_points(fam, float(eps), count, rng)))
                       for eps in (*args.eps, 0.0)]
        else:
            batches = [(0.0, _germ_points(germ, count, rng))
                       for germ in (verdict.witness.aplus, verdict.witness.aminus)]
        rows = [
            [eps, z[0].real, z[0].imag, z[1].real, z[1].imag, float(r)]
            for eps, Z in batches
            for z, r in zip(Z, evaluate_many(spec.cone, Z))
        ]
        _write_csv(args.csv, ["eps", "re_z1", "im_z1", "re_z2", "im_z2", "rho"], rows)
        report["csv"] = args.csv
    return _done(report, t0, EXIT_OK)


def cmd_slice(args) -> int:
    t0 = time.perf_counter()
    spec = _load_spec(args)
    report = _base_report("slice", args, spec)
    if spec.n < 3:
        report["error"] = "slice handles n >= 3; use classify/decide for n = 2"
        return _emit(report, EXIT_SCHEMA)
    degenerate = real_degeneracy(spec.cone)
    if degenerate is not None:
        report["classification"] = _classification_json(degenerate)
        return _done(report, t0, EXIT_DEGENERATE)
    # a certified two-sided shape has no one-sided slice: skip the search
    form = classify_two_sided_nd(spec.cone)
    res = None if form.certified else find_good_slice(spec.cone, budget=args.budget, seed=args.seed)
    if res is not None:
        report["slice"] = {
            "description": res.slice.description,
            "basis": _mat2j(res.slice.basis),
            "restricted": {"S": _mat2j(res.restricted.S), "H": _mat2j(res.restricted.H)},
            "classification": _classification_json(res.classification),
            "verdict": _verdict_json(res.verdict),
            "disc_verification": {
                "min_margin": res.disc_report.min_margin,
                "touch_residual": res.disc_report.touch_residual,
            },
        }
        return _done(report, t0, EXIT_OK)
    report["slice"] = None
    report["two_sided_form"] = {
        "kind": form.kind,
        "k": form.k,
        "detail": form.detail,
        "fit_residual": None if np.isnan(form.fit_residual) else form.fit_residual,
    }
    if form.inner is not None:
        report["two_sided_form"]["inner"] = _classification_json(form.inner)
    return _done(report, t0, EXIT_UNRESOLVED if form.kind == "unknown" else EXIT_OK)


def cmd_jump_demo(args) -> int:
    t0 = time.perf_counter()
    report = _base_report("jump-demo", args, None)
    rep = jump_demo(seed=args.seed, samples=args.samples)
    report["jump"] = {
        "identity_residual": rep.identity_residual,
        "continuity_ratio": rep.continuity_ratio,
        "points_checked": rep.points_checked,
        "identity_tolerance": JUMP_IDENTITY_TOL,
        "ratio_bound": JUMP_RATIO_BOUND,
    }
    ok = rep.identity_residual <= JUMP_IDENTITY_TOL and rep.continuity_ratio <= JUMP_RATIO_BOUND
    return _done(report, t0, EXIT_OK if ok else EXIT_VERIFICATION)


def _atlas_types(tag: str, grid: list) -> list:
    out = []
    if tag in ("M20", "M11_1"):
        for a in grid:
            for b in grid:
                if b > a:
                    continue
                if tag == "M20" and a <= 1:
                    continue
                out.append(NormalFormType(tag, a=float(a), b=float(b)))
    elif tag == "M11_2":
        for a in grid:
            for b in grid:
                out.append(NormalFormType(tag, a=complex(a, b)))
    elif tag == "M10_1":
        out.extend(NormalFormType(tag, a=float(a)) for a in grid)
    else:
        out.append(NormalFormType(tag))
    return out


def cmd_atlas(args) -> int:
    t0 = time.perf_counter()
    report = _base_report("atlas", args, None)
    grid = args.grid
    rows = []
    for ntype in _atlas_types(args.tag, grid):
        res = NormalFormResult(
            ntype=ntype, T=np.eye(2, dtype=complex), lam=1.0, sign=1, residual=0.0
        )
        verdict = decide2(res, render_cone(ntype))
        row = {"params": _ntype_json(ntype), "outcome": verdict.outcome}
        if verdict.outcome == "one_sided":
            row["side"] = verdict.side
        else:
            row["witness_kind"] = verdict.witness.kind
        rows.append(row)
    report["atlas"] = {"tag": args.tag, "grid": grid, "cells": rows}
    if args.csv:
        cells = [
            [args.tag, json.dumps(row["params"], sort_keys=True), row["outcome"],
             row.get("side", row.get("witness_kind"))]
            for row in rows
        ]
        _write_csv(args.csv, ["tag", "params", "outcome", "side_or_kind"], cells)
        report["csv"] = args.csv
    return _done(report, t0, EXIT_OK)


def _float_list_parser(option: str, ok, requirement: str):
    """Parser of a comma-separated float list option whose entries all pass ok."""

    def parse(text: str) -> tuple:
        try:
            vals = tuple(float(x) for x in text.split(","))
        except ValueError as exc:
            raise SchemaError(option, f"bad float list: {text!r}") from exc
        if not all(map(ok, vals)):
            raise SchemaError(option, f"all entries must be {requirement}")
        return vals

    return parse


def _parse_overrides(text: str) -> dict:
    out = {}
    for item in text.split(","):
        if not item:
            continue
        if "=" not in item:
            raise SchemaError("--tol-overrides", f"expected key=value, got {item!r}")
        k, v = item.split("=", 1)
        if k not in TOL_OVERRIDE_KEYS:
            raise SchemaError(
                "--tol-overrides", f"unknown key {k!r}, supported: {', '.join(TOL_OVERRIDE_KEYS)}"
            )
        try:
            out[k] = float(v)
        except ValueError as exc:
            raise SchemaError("--tol-overrides", f"bad value for {k}: {v!r}") from exc
        if not 0 <= out[k] < math.inf:
            raise SchemaError("--tol-overrides", f"{k} must be finite and >= 0, got {v!r}")
    return out


def _int_parser(option: str, least: int):
    """Parser of an integer option whose value is at least least."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise SchemaError(option, f"not an integer: {text!r}") from exc
        if value < least:
            raise SchemaError(option, f"must be at least {least}, got {value}")
        return value

    return parse


# Options given as text, converted after parse_args: a SchemaError raised by a
# type= callback would be turned into argparse's usage error (exit 2) instead
# of the JSON schema error (exit 4).  Defaults are already converted.
_OPTION_PARSERS = {
    "eps": _float_list_parser("--eps", lambda v: 0 < v < math.inf, "positive and finite"),
    "grid": _float_list_parser("--grid", math.isfinite, "finite"),
    "tol_overrides": _parse_overrides,
    "samples": _int_parser("--samples", 1),
    "budget": _int_parser("--budget", 1),
    "seed": _int_parser("--seed", 0),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadcone",
        description="Classify quadratic cones, decide extension sides, verify witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", nargs="?", default=None, help="spec path or - for stdin")
            p.add_argument("--fixture", choices=sorted(FIXTURES), help="built-in cone by name")
        p.add_argument("--seed", default=0)
        p.add_argument("--samples", default=10_000)
        p.add_argument("--tol-overrides", default=None)

    p = sub.add_parser("classify", help="normal form of a cone in C^2")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("decide", help="one-sided vs two-sided verdict in C^2")
    common(p)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("verify", help="verify disc/support witnesses numerically")
    common(p)
    p.add_argument("--eps", default=DEFAULT_EPS)
    p.add_argument("--csv", default=None, help="dump sampled points to CSV")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("slice", help="find a deciding 2-dimensional slice, n >= 3")
    common(p)
    p.add_argument("--budget", default=256)
    p.set_defaults(func=cmd_slice)

    p = sub.add_parser("jump-demo", help="jump decomposition on the motivating cone")
    common(p, needs_input=False)
    p.set_defaults(func=cmd_jump_demo)

    p = sub.add_parser("atlas", help="sweep a normal-form row and tabulate verdicts")
    common(p, needs_input=False)
    p.add_argument("--tag", required=True, choices=["M20", "M11_1", "M11_2", "M11_3", "M10_1", "M10_2", "M00_1"])
    p.add_argument("--grid", default=DEFAULT_GRID)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_atlas)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses: built on first use, then kept for the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        for name, parse in _OPTION_PARSERS.items():
            value = getattr(args, name, None)
            if isinstance(value, str):
                setattr(args, name, parse(value))
        return args.func(args)
    except (SchemaError, NonReal, NonHomogeneous, FileNotFoundError) as exc:
        print(json.dumps({"error": {"kind": "schema", "message": str(exc)}}, indent=2))
        return EXIT_SCHEMA
    except VerificationFailed as exc:
        print(json.dumps({"error": {"kind": "verification", "message": str(exc)}}, indent=2))
        return EXIT_VERIFICATION
    except ConeError as exc:
        print(json.dumps({"error": {"kind": "cone", "message": str(exc)}}, indent=2))
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
