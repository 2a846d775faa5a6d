"""Ground-truth checks of CLI reports.

check() returns None when a report is verified, otherwise (cause, detail):
the cause is one of CAUSES and the detail a short text with the numbers
masked, so failures with the same origin count together in the census.
"""

from __future__ import annotations

import json
import re

import numpy as np

CAUSES = ("exception", "exit_code", "wrong_tag", "wrong_verdict")
_NUMBER = re.compile(r"[-+]?\d+(\.\d+)?([eE][-+]?\d+)?")


def _mask(text: str) -> str:
    return _NUMBER.sub("#", text)[:120]


def _exit_detail(code: int, report: dict | None) -> str:
    if not isinstance(report, dict):
        return f"exit {code}: no JSON report"
    if "error" in report:
        err = report["error"]
        text = err.get("message", err) if isinstance(err, dict) else err
        return f"exit {code}: {_mask(str(text))}"
    cls = report.get("classification")
    if isinstance(cls, dict) and "degenerate" in cls:
        deg = cls["degenerate"]
        return f"exit {code}: degenerate {deg['reason']}: {_mask(deg['detail'])}"
    ver = report.get("verification")
    if isinstance(ver, dict) and "failed" in ver:
        return f"exit {code}: verification failed: {_mask(ver['failed'])}"
    form = report.get("two_sided_form")
    if isinstance(form, dict):
        return f"exit {code}: two_sided_form {form.get('kind')}"
    return f"exit {code}"


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(v["re"], v["im"]) for v in row] for row in rows])


def _check_planar(op, report):
    nf = report.get("classification", {}).get("normal_form")
    tag = None if nf is None else nf["tag"]
    if tag != op.truth["tag"]:
        return "wrong_tag", f"{op.truth['tag']} reported as {tag}"
    verdict = report["verdict"]
    if verdict["outcome"] != op.truth["outcome"] or verdict.get("side") != op.truth["side"]:
        got = f"{verdict['outcome']}/{verdict.get('side')}"
        return "wrong_verdict", f"{tag}: expected {op.truth['outcome']}/{op.truth['side']}, got {got}"
    return None


def _check_verify(op, report):
    bad = _check_planar(op, report)
    if bad is not None:
        return bad
    ver = report.get("verification", {})
    if "failed" in ver or ver.get("points_checked", 0) < 1:
        return "wrong_verdict", f"{op.truth['tag']}: verification section {sorted(ver)}"
    return None


def _check_jump(op, report):
    jump = report["jump"]
    ok = (
        jump["identity_residual"] <= jump["identity_tolerance"]
        and jump["continuity_ratio"] <= jump["ratio_bound"]
        and jump["points_checked"] == op.truth["samples"]
    )
    return None if ok else ("wrong_verdict", "jump identity or continuity bound missed")


def _check_slice(op, report):
    truth = op.truth
    slc = report.get("slice")
    if truth["outcome"] == "one_sided":
        if slc is None:
            return "wrong_verdict", f"one-sided cone: no slice, form {report['two_sided_form']['kind']}"
        if slc["verdict"]["outcome"] != "one_sided" or slc["verdict"]["side"] not in (-1, 1):
            return "wrong_verdict", "slice verdict is not one-sided"
        # the restricted cone must be the input restricted to the reported plane
        spec = json.loads(op.spec)
        B = _matrix(slc["basis"])
        S, H = _matrix(spec["S"]), _matrix(spec["H"])
        want_S, want_H = B.T @ S @ B, B.conj().T @ H @ B
        got_S, got_H = _matrix(slc["restricted"]["S"]), _matrix(slc["restricted"]["H"])
        scale = max(np.abs(want_S).max(), np.abs(want_H).max())
        err = max(np.abs(got_S - 0.5 * (want_S + want_S.T)).max(),
                  np.abs(got_H - 0.5 * (want_H + want_H.conj().T)).max())
        if not err <= 1e-9 * scale:
            return "wrong_verdict", "restricted cone does not match the reported slice"
        return None
    if slc is not None:
        return "wrong_verdict", f"two-sided {truth['kind']} cone given a one-sided slice"
    form = report["two_sided_form"]
    if form["kind"] != truth["kind"]:
        return "wrong_verdict", f"two-sided {truth['kind']} reported as {form['kind']}"
    if truth["kind"] == "ts1" and form["k"] != truth["k"]:
        return "wrong_verdict", "ts1 rank mismatch"
    if truth["kind"] == "product":
        inner = form.get("inner", {}).get("normal_form", {}).get("tag")
        if inner != truth["inner_tag"]:
            return "wrong_tag", f"product factor {truth['inner_tag']} reported as {inner}"
    return None


_CHECKS = {"decide": _check_planar, "verify": _check_verify, "jump": _check_jump, "slice": _check_slice}


def check(op, code: int | None, report, exc: BaseException | None = None):
    """Compare one op's outcome with its ground truth."""
    if exc is not None:
        return "exception", f"{type(exc).__name__}: {_mask(str(exc))}"
    if code != 0:
        return "exit_code", _exit_detail(code, report)
    try:
        return _CHECKS[op.kind](op, report)
    except (KeyError, TypeError, ValueError) as err:
        return "wrong_verdict", f"malformed report: {type(err).__name__}: {_mask(str(err))}"
