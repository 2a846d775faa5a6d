"""Command-line interface: JSON cone specs in, JSON reports out.

Sub-commands: classify, decide, verify, slice, jump-demo, atlas.  Exit
codes: 0 success, 2 degenerate input, 3 verification failure, 4 schema
or usage error, 5 no one-sided slice found and the two-sided form is
unknown.

Input schema (UTF-8 JSON), either coefficient matrices or a polynomial:

    {"n": 2,
     "S": [[{"re": 0.5}, {}], [{}, {"re": 0.3333333333}]],
     "H": [[{"re": 1}, {}], [{}, {"re": -1}]]}

    {"n": 2, "poly": [{"vars": ["x1", "x1"], "coeff": 1.0}, ...]}

Matrix entries are {"re": r, "im": i} objects (missing keys are 0) or bare
numbers.  Polynomial variables are x1..xn, y1..yn; every monomial must
have total degree two and a real coefficient.  Symmetrization is applied
to S/H and the adjustment magnitude echoed in the report; a non-finite
entry is a schema error.
"""

from __future__ import annotations

import argparse
import cmath
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
    decide2,
    jump_demo,
    normal_frame_verdict,
    verify_discs,
    verify_support,
)
from .fixtures import FIXTURES
from .normalform import (
    RESIDUAL_REL,
    TAGS,
    DegeneracyReport,
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
# exact types, since a JSON true or false parses to bool, a subclass of int
_NUMBER_TYPES = (int, float)


class SchemaError(ConeError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class ConeSpec:
    cone: QuadraticCone
    s_adjustment: float
    h_adjustment: float


def _entry_to_complex(v, path: str, *index: int) -> complex:
    """v as a complex; an error names path[i][j] for the given indices.

    The path is formatted only when an error is raised: valid entries are the
    common case, and a matrix has n^2 of them.
    """
    if type(v) in _NUMBER_TYPES:
        try:
            return complex(v)
        except OverflowError:
            return complex(_float(v))
    if isinstance(v, dict):
        # a key other than re and im: cheaper to count than to collect
        if len(v) > ("re" in v) + ("im" in v):
            extra = set(v) - {"re", "im"}
            raise SchemaError(_indexed(path, index), f"unknown keys {sorted(extra)}")
        re = v.get("re", 0.0)
        im = v.get("im", 0.0)
        if type(re) not in _NUMBER_TYPES or type(im) not in _NUMBER_TYPES:
            raise SchemaError(_indexed(path, index), "re/im must be numbers")
        try:
            return complex(re, im)
        except OverflowError:
            return complex(_float(re), _float(im))
    raise SchemaError(
        _indexed(path, index), f"expected number or {{re, im}} object, got {type(v).__name__}"
    )


def _float(x) -> float:
    """float(x), and +-inf for an int beyond the float range, as json reads a float literal beyond it.

    So such an entry is reported as not finite, where the conversion would
    raise OverflowError.
    """
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _indexed(path: str, index) -> str:
    return path + "".join(f"[{k}]" for k in index)


def _parse_matrix(data, n: int, path: str) -> list:
    """The rows of an n x n matrix as lists of Python complex."""
    if not isinstance(data, list) or len(data) != n:
        raise SchemaError(path, f"expected {n} rows")
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{path}[{i}]", f"expected {n} entries")
        rows.append([_entry_to_complex(v, path, i, j) for j, v in enumerate(row)])
    return rows


def _asymmetry(rows: list, conj: bool) -> float:
    """||M - M^T||_F / 2 (M^H when conj) of a matrix given by its rows of Python complex."""
    parts = []
    for i, row in enumerate(rows):
        for j, z in enumerate(row):
            d = z - (rows[j][i].conjugate() if conj else rows[j][i])
            parts += (d.real, d.imag)
    return 0.5 * math.hypot(*parts)


def _require_finite(rows: list, path: str) -> None:
    """Refuse the first entry in row order that is not finite after symmetrization: M[i][j] or M[j][i] is not."""
    for i, row in enumerate(rows):
        for j, z in enumerate(row):
            if not (cmath.isfinite(z) and cmath.isfinite(rows[j][i])):
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
            if type(coeff) not in _NUMBER_TYPES:
                raise SchemaError(f"{path}.coeff", "must be a real number")
            coeff = _float(coeff)
            if not math.isfinite(coeff):
                raise SchemaError(f"{path}.coeff", "must be finite")
            if len(vars_) != 2:
                raise NonHomogeneous(f"{path}: monomial degree {len(vars_)}, expected 2")
            terms.append((tuple(vars_), coeff))
        try:
            cone = decompose_poly(n, terms)
        except ConeError as exc:
            raise SchemaError("poly", str(exc)) from exc
        return ConeSpec(cone=cone, s_adjustment=0.0, h_adjustment=0.0)

    if "S" not in data or "H" not in data:
        raise SchemaError("$", "need S and H matrices (or poly)")
    S = _parse_matrix(data["S"], n, "S")
    H = _parse_matrix(data["H"], n, "H")
    _require_finite(S, "S")
    _require_finite(H, "H")
    # _symmetrized applies the checked constructor's symmetrization (halves
    # first, so finite entries stay finite); that constructor's tests cannot
    # fail on a finite result, so the cone is bitwise the one it would build
    cone = QuadraticCone._symmetrized(np.array(S, dtype=complex), np.array(H, dtype=complex))
    return ConeSpec(cone=cone, s_adjustment=_asymmetry(S, False), h_adjustment=_asymmetry(H, True))


def _c2j(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _mat2j(M) -> list:
    return [[{"re": z.real, "im": z.imag} for z in row]
            for row in np.asarray(M, dtype=complex).tolist()]


def spec_to_json(spec: ConeSpec) -> dict:
    return {"n": spec.cone.n, "S": _mat2j(spec.cone.S), "H": _mat2j(spec.cone.H)}


def _ntype_json(ntype: NormalFormType) -> dict:
    out = {"tag": ntype.tag}
    for name, p in zip("AB", ntype.params()):
        out[name] = _c2j(p) if isinstance(p, complex) else p
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
    else:
        out["witness"] = {
            "kind": v.witness.kind,
            "a_plus": _germ_json(v.witness.aplus),
            "a_minus": _germ_json(v.witness.aminus),
        }
    return out


def _base_report(command: str, args, spec: ConeSpec | None) -> dict:
    report = {
        "tool": {"name": "quadcone", "version": __version__},
        "command": command,
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


_encode_str = json.encoder.encode_basestring_ascii


def _float_text(x: float) -> str:
    """json's spelling of a float: its repr, or NaN, Infinity or -Infinity."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _scalar_text(v) -> str:
    """json's text of a scalar, subclasses of float, str and int included."""
    if isinstance(v, float):
        return _float_text(v)
    if isinstance(v, str):
        return _encode_str(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


_CONTAINERS = (dict, list, tuple)  # json writes a tuple as a list


def _write(o, nl: str, out: list) -> None:
    """Append to out the text of o as json.dumps(o, indent=2, sort_keys=True) spells it.

    nl is the newline and indent of o's own line.  Dict keys must be strings.
    """
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        if len(o) == 2 and type(o.get("re")) is float and type(o.get("im")) is float:
            # a complex number, the most common leaf of a report
            out.append(f'{{{inner}"im": {_float_text(o["im"])},{inner}"re": {_float_text(o["re"])}{nl}}}')
            return
        sep = "{"
        for k in sorted(o):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            v = o[k]
            if isinstance(v, _CONTAINERS):
                out.append(f"{sep}{inner}{_encode_str(k)}: ")
                _write(v, inner, out)
            else:
                out.append(f"{sep}{inner}{_encode_str(k)}: {_scalar_text(v)}")
            sep = ","
        out.append(nl + "}")
    elif isinstance(o, _CONTAINERS):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "["
        for v in o:
            if isinstance(v, _CONTAINERS):
                out.append(sep + inner)
                _write(v, inner, out)
            else:
                out.append(f"{sep}{inner}{_scalar_text(v)}")
            sep = ","
        out.append(nl + "]")
    else:
        out.append(_scalar_text(o))


def report_text(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, without its pure-Python encoder."""
    out = []
    _write(obj, "\n", out)
    return "".join(out)


def _load_spec(args) -> ConeSpec:
    if args.fixture:
        if args.input is not None:
            raise SchemaError("--fixture", f"takes no input path, got {args.input!r}")
        return ConeSpec(cone=FIXTURES[args.fixture](), s_adjustment=0.0, h_adjustment=0.0)
    if args.input == "-" or args.input is None:
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_spec(text)


def _done(report: dict, t0: float, code: int) -> int:
    report["timings"]["total_s"] = time.perf_counter() - t0
    print(report_text(report))
    return code


def _started(command: str, args):
    """The shared start of classify, decide, verify and slice: (t0, spec, report).

    A cone of the wrong dimension for the command is a schema error.
    """
    t0 = time.perf_counter()
    spec = _load_spec(args)
    if command == "slice":
        if spec.cone.n < 3:
            raise SchemaError("n", "slice handles n >= 3; use classify/decide for n = 2")
    elif spec.cone.n != 2:
        raise SchemaError("n", f"{command} handles n = 2; use the slice command for n >= 3")
    return t0, spec, _base_report(command, args, spec)


def _classified(command: str, args):
    """_started, then classify2: (t0, spec, report, classification)."""
    t0, spec, report = _started(command, args)
    res = classify2(spec.cone)
    report["classification"] = _classification_json(res)
    return t0, spec, report, res


def cmd_classify(args) -> int:
    t0, _, report, res = _classified("classify", args)
    return _done(report, t0, EXIT_DEGENERATE if isinstance(res, DegeneracyReport) else EXIT_OK)


def cmd_decide(args) -> int:
    t0, spec, report, res = _classified("decide", args)
    if isinstance(res, DegeneracyReport):
        return _done(report, t0, EXIT_DEGENERATE)
    try:
        verdict = decide2(res, spec.cone)
    except VerificationFailed as exc:
        report["verification"] = {"failed": str(exc)}
        return _done(report, t0, EXIT_VERIFICATION)
    report["verdict"] = _verdict_json(verdict)
    return _done(report, t0, EXIT_OK)


def _write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def cmd_verify(args) -> int:
    t0, spec, report, res = _classified("verify", args)
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
        # the checked points: one per disc D_eps, then eps = 0 on the limit
        # disc's lines or on the supporting lines
        eps = list(args.eps) if verdict.outcome == "one_sided" else []
        eps += [0.0] * (rep.points_checked - len(eps))
        Z = np.array(rep.points)
        rows = [
            [e, z[0].real, z[0].imag, z[1].real, z[1].imag, float(r)]
            for e, z, r in zip(eps, Z, evaluate_many(spec.cone, Z))
        ]
        _write_csv(args.csv, ["eps", "re_z1", "im_z1", "re_z2", "im_z2", "rho"], rows)
        report["csv"] = args.csv
    return _done(report, t0, EXIT_OK)


def cmd_slice(args) -> int:
    t0, spec, report = _started("slice", args)
    degenerate = real_degeneracy(spec.cone)
    if degenerate is not None:
        report["classification"] = _classification_json(degenerate)
        return _done(report, t0, EXIT_DEGENERATE)
    # a certified two-sided shape has no one-sided slice: skip the search
    form = classify_two_sided_nd(spec.cone)
    res = None if form.certified else find_good_slice(spec.cone, budget=args.budget)
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
    report["seed"], report["samples"] = args.seed, args.samples
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
    """The types of the tag's grid cells, in grid order, that NormalFormType accepts."""
    if tag in ("M20", "M11_1"):
        cells = [{"a": a, "b": b} for a in grid for b in grid]
    elif tag == "M11_2":
        cells = [{"a": complex(a, b)} for a in grid for b in grid]
    elif tag == "M10_1":
        cells = [{"a": a} for a in grid]
    else:
        cells = [{}]
    out = []
    for cell in cells:
        try:
            out.append(NormalFormType(tag, **cell))
        except ConeError:
            pass  # outside the tag's parameter range
    return out


def cmd_atlas(args) -> int:
    t0 = time.perf_counter()
    report = _base_report("atlas", args, None)
    grid = args.grid
    rows = []
    for ntype in _atlas_types(args.tag, grid):
        row = {"params": _ntype_json(ntype)}
        rows.append(row)
        verdict = normal_frame_verdict(ntype)
        if verdict.outcome == "one_sided":
            row.update(outcome="one_sided", side=verdict.side)
            continue
        try:
            verify_support(render_cone(ntype), verdict.witness)
            row.update(outcome="two_sided", witness_kind=verdict.witness.kind)
        except VerificationFailed as exc:  # one cell's supporting line fails, not the table
            row.update(outcome="verification_failed", failed=str(exc))
    report["atlas"] = {"tag": args.tag, "grid": grid, "cells": rows}
    if args.csv:
        cells = [
            [args.tag, json.dumps(row["params"], sort_keys=True), row["outcome"],
             row.get("side", row.get("witness_kind"))]
            for row in rows
        ]
        _write_csv(args.csv, ["tag", "params", "outcome", "side_or_kind"], cells)
        report["csv"] = args.csv
    failed = any(row["outcome"] == "verification_failed" for row in rows)
    return _done(report, t0, EXIT_VERIFICATION if failed else EXIT_OK)


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


# Options given as text, converted after parse_args: argparse would replace the
# message of a SchemaError raised by a type= callback with its own "invalid
# value" text.  Defaults are already converted.
_OPTION_PARSERS = {
    "eps": _float_list_parser("--eps", lambda v: 0 < v < math.inf, "positive and finite"),
    "grid": _float_list_parser("--grid", math.isfinite, "finite"),
    "tol_overrides": _parse_overrides,
    "samples": _int_parser("--samples", 1),
    "budget": _int_parser("--budget", 1),
    "seed": _int_parser("--seed", 0),
}


class _Parser(argparse.ArgumentParser):
    """argparse with a usage error raised as a SchemaError (exit 4), not exit 2.

    Exit 2 is a degenerate cone.  The sub-command parsers share this class.
    """

    def error(self, message):
        raise SchemaError(self.prog, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadcone",
        description="Classify quadratic cones, decide extension sides, verify witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", nargs="?", default=None, help="spec path or - for stdin")
        p.add_argument("--fixture", choices=sorted(FIXTURES), help="built-in cone by name")

    p = sub.add_parser("classify", help="normal form of a cone in C^2")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("decide", help="one-sided vs two-sided verdict in C^2")
    common(p)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("verify", help="verify disc/support witnesses numerically")
    common(p)
    p.add_argument("--eps", default=DEFAULT_EPS)
    p.add_argument("--tol-overrides", default=None)
    p.add_argument("--csv", default=None, help="write the checked points to CSV")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("slice", help="find a deciding 2-dimensional slice, n >= 3")
    common(p)
    p.add_argument("--budget", default=256)
    p.set_defaults(func=cmd_slice)

    p = sub.add_parser("jump-demo", help="jump decomposition on the motivating cone")
    p.add_argument("--seed", default=0)
    p.add_argument("--samples", default=10_000)
    p.set_defaults(func=cmd_jump_demo)

    p = sub.add_parser("atlas", help="sweep a normal-form row and tabulate verdicts")
    p.add_argument("--tag", required=True, choices=TAGS)
    p.add_argument("--grid", default=DEFAULT_GRID)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_atlas)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses: built on first use, then kept for the process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        for name, parse in _OPTION_PARSERS.items():
            value = getattr(args, name, None)
            if isinstance(value, str):
                setattr(args, name, parse(value))
        return args.func(args)
    except (SchemaError, NonReal, NonHomogeneous, FileNotFoundError) as exc:
        print(report_text({"error": {"kind": "schema", "message": str(exc)}}))
        return EXIT_SCHEMA
    except VerificationFailed as exc:
        print(report_text({"error": {"kind": "verification", "message": str(exc)}}))
        return EXIT_VERIFICATION
    except ConeError as exc:
        print(report_text({"error": {"kind": "cone", "message": str(exc)}}))
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
