"""Spans around the calls into each quadcone module, recorded from outside.

Each entry of WRAPPED names a function as the *calling* module looks it up,
because `from .x import f` binds f in the caller's namespace: wrapping
`quadcone.slicer.classify2` times the slicer's calls to classify2 without
touching the package's source.  A name that is missing raises, so a
refactor that moves a call cannot silently drop a layer from the trace.

Span times are the thread's CPU time, the same clock the untraced run
times ops with.  Spans stay in memory as tuples and are written out once,
at the end.
"""

from __future__ import annotations

import gzip
import importlib
import statistics
import time
from collections import defaultdict

# (module, attribute) -> span name, "<layer>.<function>"
WRAPPED = {
    ("quadcone.cli", "main"): "cli.main",
    ("quadcone.cli", "parse_spec"): "cli.parse_spec",
    ("quadcone.cli", "hermitian_signature"): "quadform.hermitian_signature",
    ("quadcone.cli", "real_signature"): "quadform.real_signature",
    ("quadcone.cli", "classify2"): "normalform.classify2",
    ("quadcone.cli", "decide2"): "decider.decide2",
    ("quadcone.cli", "verify_discs"): "decider.verify_discs",
    ("quadcone.cli", "verify_support"): "decider.verify_support",
    ("quadcone.cli", "jump_demo"): "decider.jump_demo",
    ("quadcone.cli", "find_good_slice"): "slicer.find_good_slice",
    ("quadcone.cli", "classify_two_sided_nd"): "slicer.classify_two_sided_nd",
    ("quadcone.decider", "verify_support"): "decider.verify_support",
    ("quadcone.decider", "sample_points"): "quadform.sample_points",
    ("quadcone.normalform", "takagi2"): "reduction.takagi2",
    ("quadcone.normalform", "sl2_reduce_sym"): "reduction.sl2_reduce_sym",
    ("quadcone.normalform", "so11_zero_diag"): "reduction.so11_zero_diag",
    ("quadcone.slicer", "restrict"): "slicer.restrict",
    ("quadcone.slicer", "classify2"): "normalform.classify2",
    ("quadcone.slicer", "decide2"): "decider.decide2",
    ("quadcone.slicer", "verify_discs"): "decider.verify_discs",
}
REDUCTION = ("reduction.takagi2", "reduction.sl2_reduce_sym", "reduction.so11_zero_diag")
SIGNATURES = ("quadform.hermitian_signature", "quadform.real_signature")
VERIFIERS = ("decider.verify_discs", "decider.verify_support")

# span tuple fields
OP, SID, PARENT, NAME, T0, T1, OUT = range(7)


def _outcome(name: str, result):
    """The count a span carries: points checked or produced, or a search hit."""
    if name in VERIFIERS:
        return result.points_checked
    if name == "quadform.sample_points":
        return len(result)
    if name == "slicer.find_good_slice":
        return result is not None
    return None


class Tracer:
    """Installs span-recording wrappers; spans share the current op id."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._next = 0
        self._saved: list[tuple] = []

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            out = "raised"
            t0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
                out = _outcome(name, result)
                return result
            finally:
                t1 = time.thread_time()
                self._stack.pop()
                self.spans.append((self.op, sid, parent, name, t0, t1, out))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for (modname, attr), name in WRAPPED.items():
            mod = importlib.import_module(modname)
            if not hasattr(mod, attr):
                raise RuntimeError(f"traced layer entry {modname}.{attr} no longer exists")
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def write(self, path: str) -> None:
        """Dump the spans as tab-separated text: op, id, parent, name, start, end, outcome."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op\tid\tparent\tname\tstart_s\tend_s\toutcome\n")
            for s in self.spans:
                fh.write(f"{s[OP]}\t{s[SID]}\t{s[PARENT]}\t{s[NAME]}\t{s[T0]:.9f}\t{s[T1]:.9f}\t{s[OUT]}\n")


def _p50_ms(values) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def layer_metrics(spans, op_class: dict, passes: int) -> dict:
    """Per-layer figures derived from spans; op_class maps op id to its latency class.

    Figures for a layer the workload does not reach are 0.
    """
    by_id = {s[SID]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)
    named = defaultdict(list)
    for s in spans:
        named[s[NAME]].append(s)

    def dur(s):
        return s[T1] - s[T0]

    def self_time(s):
        return dur(s) - sum(dur(c) for c in children[s[SID]])

    def under(s, name):
        p = s[PARENT]
        while p is not None:
            if by_id[p][NAME] == name:
                return True
            p = by_id[p][PARENT]
        return False

    roots = named["cli.main"]
    ops = len(roots)
    twosided = {k for k, c in op_class.items() if c == "slice_twosided"}
    onesided = {k for k, c in op_class.items() if c == "slice_onesided"}
    m = {}
    m["cli.main_ms_p50"] = _p50_ms([dur(s) for s in roots])
    m["cli.parse_spec_ms_p50"] = _p50_ms([dur(s) for s in named["cli.parse_spec"]])
    m["cli.self_ms_p50"] = _p50_ms([self_time(s) for s in roots])

    sig = [sum(dur(c) for c in children[r[SID]] if c[NAME] in SIGNATURES) for r in roots]
    m["quadform.signatures_ms_p50"] = _p50_ms([v for v in sig if v > 0])
    sp = named["quadform.sample_points"]
    m["quadform.sample_points_ms_p50"] = _p50_ms([dur(s) for s in sp])
    sp_busy = sum(dur(s) for s in sp)
    m["quadform.sample_points_per_s"] = sum(s[OUT] for s in sp) / sp_busy if sp_busy else 0.0

    cl = named["normalform.classify2"]
    red = [s for name in REDUCTION for s in named[name]]
    m["reduction.busy_ms_per_classify"] = 1e3 * sum(dur(s) for s in red) / len(cl) if cl else 0.0
    m["reduction.calls_per_classify"] = len(red) / len(cl) if cl else 0.0
    m["normalform.classify2_ms_p50"] = _p50_ms([dur(s) for s in cl])
    m["normalform.classify2_self_ms_p50"] = _p50_ms([self_time(s) for s in cl])
    m["normalform.classify2_calls_per_op"] = len(cl) / ops if ops else 0.0

    m["decider.decide2_ms_p50"] = _p50_ms([dur(s) for s in named["decider.decide2"]])
    m["decider.verify_discs_ms_p50"] = _p50_ms([dur(s) for s in named["decider.verify_discs"]])
    # the CLI's own support checks, not decide2's 512-point spot check
    vs = [s for s in named["decider.verify_support"] if by_id[s[PARENT]][NAME] == "cli.main"]
    m["decider.verify_support_ms_p50"] = _p50_ms([dur(s) for s in vs])
    ver = [s for name in VERIFIERS for s in named[name] if s[OUT] != "raised"]
    ver_busy = sum(dur(s) for s in ver)
    points = sum(s[OUT] for s in ver)
    m["decider.points_per_s"] = points / ver_busy if ver_busy else 0.0
    m["decider.points_checked_per_op"] = points / ops if ops else 0.0
    m["decider.jump_demo_self_ms_p50"] = _p50_ms([self_time(s) for s in named["decider.jump_demo"]])

    fgs = named["slicer.find_good_slice"]
    m["slicer.find_good_slice_onesided_ms_p50"] = _p50_ms([dur(s) for s in fgs if s[OP] in onesided])
    m["slicer.find_good_slice_twosided_ms_p50"] = _p50_ms([dur(s) for s in fgs if s[OP] in twosided])
    m["slicer.classify_two_sided_nd_ms_p50"] = _p50_ms(
        [dur(s) for s in named["slicer.classify_two_sided_nd"]]
    )
    wasted = sum(dur(s) for s in fgs if s[OUT] is False)
    m["slicer.wasted_s"] = wasted / passes if passes else 0.0
    two_busy = sum(dur(r) for r in roots if r[OP] in twosided)
    m["slicer.wasted_share_twosided"] = (
        sum(dur(s) for s in fgs if s[OUT] is False and s[OP] in twosided) / two_busy if two_busy else 0.0
    )
    cand = defaultdict(int)
    for s in named["slicer.restrict"]:
        if under(s, "slicer.find_good_slice"):
            cand[s[OP]] += 1
    searched = {s[OP] for s in fgs}
    for label, group in (("onesided", onesided), ("twosided", twosided)):
        ids = searched & group
        m[f"slicer.candidates_per_{label}_op"] = sum(cand[k] for k in ids) / len(ids) if ids else 0.0
    checks = sum(1 for s in named["decider.verify_discs"] if under(s, "slicer.find_good_slice"))
    m["slicer.disc_checks_per_op"] = checks / len(fgs) if fgs else 0.0
    m["slicer.hit_ratio"] = sum(1 for s in fgs if s[OUT] is True) / len(fgs) if fgs else 0.0
    return m
