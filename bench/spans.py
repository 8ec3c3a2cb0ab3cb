"""Span recorder for the traced run, installed from outside the program.

Wrappers replace module attributes (functions, and methods on classes)
for the duration of the traced pass, so the program's own call path is
unchanged and nothing inside ``src/`` knows about tracing.  A span is
``[name, start, end, parent index, job id, extra]``; spans stay in
memory until the run ends.  A span's self time is its duration minus
the time its child spans cover.
"""

import functools
import os
import sys
import time

# (module, attribute path, span name).  Every binding of the same
# function in any ncsos module is replaced, so names imported with
# ``from .x import f`` are traced too.
TARGETS = (
    ("ncsos.soscone", "GramAssembly.__init__", "soscone.assembly"),
    ("ncsos.soscone", "GramAssembly.gram_inner", "soscone.gram_inner"),
    ("ncsos.soscone", "certify_membership", "soscone.certify"),
    ("ncsos.soscone", "interior_shift_certificate", "soscone.shift"),
    ("ncsos.soscone", "sos_feasibility", "soscone.feasibility"),
    ("ncsos.soscone", "round_and_project", "soscone.round"),
    ("ncsos.soscone", "exact_dual_witness", "soscone.dual"),
    ("ncsos.soscone", "verify_certificate", "soscone.verify"),
    ("ncsos.soscone", "verify_witness", "soscone.verify"),
    ("ncsos.soscone", "kazhdan_constant_finite", "soscone.kazhdan"),
    ("ncsos.sdp", "solve_margin_sdp", "sdp.solve"),
    ("ncsos.exactla", "solve_linear", "exactla.solve_linear"),
    ("ncsos.exactla", "ldlt_psd_qc", "exactla.ldlt"),
    ("ncsos.exactla", "char_poly", "exactla.char_poly"),
    ("ncsos.repwitness", "refutation_witness", "repwitness.refutation"),
    ("ncsos.repwitness", "gns_from_moment", "repwitness.gns"),
    ("ncsos.repwitness", "choi_dilation", "repwitness.dilation"),
    ("ncsos.repwitness", "verify_unitary_witness", "repwitness.verify"),
    ("ncsos.groupalg", "AlgebraElement.__mul__", "groupalg.mul"),
    ("ncsos.linprog", "solve_lp", "linprog.solve"),
    ("ncsos.cones", "membership", "cones.membership"),
    ("ncsos.cones", "separate_point", "cones.separate"),
    ("ncsos.cones", "evaluate_lex", "cones.evaluate_lex"),
)

ROOT = "cli.main"


def _assembly_extra(args, result, extra):
    asm = args[0]
    extra["n"], extra["m"] = asm.n, asm.m
    extra["nnz"] = sum(1 for A in asm.A_exact for row in A for v in row if v)


def _round_extra(args, result, extra):
    extra["ok"] = True          # round_and_project raises when it fails


def _sdp_extra(args, result, extra):
    extra["iterations"] = result.iterations


def _lp_extra(args, result, extra):
    A, _, c = args[:3]
    extra["cells"] = len(A) * len(c)


def _separate_extra(args, result, extra):
    extra["stages"] = len(result.stages)


# counts read after the wrapped call returns, outside the span's interval
EXTRAS = {
    "soscone.assembly": _assembly_extra,
    "soscone.round": _round_extra,
    "sdp.solve": _sdp_extra,
    "linprog.solve": _lp_extra,
    "cones.separate": _separate_extra,
}


class Recorder:
    """Collects spans while installed; ``job`` tags each span."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self._undo = []

    def span(self, name, fn, extra_fn=None):
        rec, clock = self, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else None,
                    rec.job, {}]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                rec.stack.pop()
            if extra_fn is not None:
                extra_fn(args, result, span[5])
            return result
        return traced

    def call(self, name, fn, *args):
        """Run fn(*args) as a root-level span (used for cli.main)."""
        return self.span(name, fn)(*args)

    def install(self):
        modules = {n: m for n, m in sys.modules.items()
                   if n == "ncsos" or n.startswith("ncsos.")}
        for mod_name, path, name in TARGETS:
            owner = modules[mod_name]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            wrapper = self.span(name, original, EXTRAS.get(name))
            bindings = [(owner, parts[-1])]
            if len(parts) == 1:
                bindings += [(m, attr) for m in modules.values()
                             for attr, v in vars(m).items()
                             if v is original and m is not owner]
            for obj, attr in bindings:
                setattr(obj, attr, wrapper)
                self._undo.append((obj, attr, original))

    def uninstall(self):
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo = []


def _outermost(spans, i):
    """True when no ancestor of span i has the same name."""
    name, p = spans[i][0], spans[i][3]
    while p is not None:
        if spans[p][0] == name:
            return False
        p = spans[p][3]
    return True


def _has_ancestor(spans, i, name):
    p = spans[i][3]
    while p is not None:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def summarize(spans):
    """Per (name, parent name): calls, inclusive and self seconds."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] is not None:
            child[s[3]] += s[2] - s[1]
    table = {}
    for i, s in enumerate(spans):
        parent = spans[s[3]][0] if s[3] is not None else None
        row = table.setdefault((s[0], parent), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s[2] - s[1]
        row[2] += (s[2] - s[1]) - child[i]
    rows = [{"name": n, "parent": p, "calls": r[0], "total_s": r[1],
             "self_s": r[2]} for (n, p), r in table.items()]
    return sorted(rows, key=lambda r: -r["total_s"]), child


def layer_metrics(spans, jobs: int, artifact_bytes: int):
    """Per-layer metrics of BENCHMARK.json, per job unless a ratio."""
    _, child = summarize(spans)
    total, self_t, calls = {}, {}, {}
    for i, s in enumerate(spans):
        dur = s[2] - s[1]
        self_t[s[0]] = self_t.get(s[0], 0.0) + dur - child[i]
        calls[s[0]] = calls.get(s[0], 0) + 1
        if _outermost(spans, i):
            total[s[0]] = total.get(s[0], 0.0) + dur

    def per_job(value):
        return value / jobs if jobs else 0.0

    def t(name):
        return per_job(total.get(name, 0.0))

    assemblies = [s[5] for s in spans if s[0] == "soscone.assembly"]
    largest = max(assemblies, key=lambda e: e["m"] * e["n"] ** 2,
                  default={"n": 0, "m": 0})
    cells = sum(e["m"] * e["n"] ** 2 for e in assemblies)
    fill = sum(e["nnz"] for e in assemblies) / cells if cells else 0.0
    rounds = [s for s in spans if s[0] == "soscone.round"]
    rungs = sum(1 for i, s in enumerate(spans) if s[0] == "exactla.ldlt"
                and _has_ancestor(spans, i, "soscone.round"))
    certs = sum(1 for s in rounds if s[5].get("ok"))
    sdp = [s for s in spans if s[0] == "sdp.solve"]
    iters = sum(s[5].get("iterations", 0) for s in sdp)
    sdp_time = sum(s[2] - s[1] for s in sdp)
    stages = [s[5]["stages"] for s in spans
              if s[0] == "cones.separate" and "stages" in s[5]]
    m = {
        "soscone.assembly_s": (t("soscone.assembly"), "s"),
        "soscone.basis_n": (largest["n"], "count"),
        "soscone.constraints_m": (largest["m"], "count"),
        "soscone.dense_fill": (fill, "ratio"),
        "soscone.gram_inner_s": (t("soscone.gram_inner"), "s"),
        "exactla.solve_linear_s": (t("exactla.solve_linear"), "s"),
        "soscone.round_s": (t("soscone.round"), "s"),
        "soscone.rungs_tried": (rungs / len(rounds) if rounds else 0.0,
                                "count"),
        "soscone.rung_success_frac": (certs / rungs if rungs else 0.0,
                                      "ratio"),
        "exactla.ldlt_s": (t("exactla.ldlt"), "s"),
        "exactla.ldlt_calls": (per_job(calls.get("exactla.ldlt", 0)),
                               "count"),
        "sdp.solve_s": (t("sdp.solve"), "s"),
        "sdp.iterations": (iters / len(sdp) if sdp else 0.0, "count"),
        "sdp.iter_ms": (1000 * sdp_time / iters if iters else 0.0, "ms"),
        "soscone.dual_s": (t("soscone.dual"), "s"),
        "repwitness.gns_s": (t("repwitness.gns"), "s"),
        "repwitness.dilation_s": (t("repwitness.dilation"), "s"),
        "repwitness.refutation_s": (t("repwitness.refutation"), "s"),
        "soscone.verify_s": (t("soscone.verify"), "s"),
        "repwitness.verify_s": (t("repwitness.verify"), "s"),
        "groupalg.mul_s": (t("groupalg.mul"), "s"),
        "groupalg.mul_calls": (per_job(calls.get("groupalg.mul", 0)),
                               "count"),
        "exactla.char_poly_s": (t("exactla.char_poly"), "s"),
        "exactla.char_poly_calls": (
            per_job(calls.get("exactla.char_poly", 0)), "count"),
        "soscone.kazhdan_self_s": (per_job(self_t.get("soscone.kazhdan",
                                                      0.0)), "s"),
        "linprog.solve_s": (t("linprog.solve"), "s"),
        "linprog.lp_calls": (per_job(calls.get("linprog.solve", 0)),
                             "count"),
        "linprog.lp_cells": (per_job(sum(s[5].get("cells", 0) for s in spans
                                         if s[0] == "linprog.solve")),
                             "count"),
        "cones.membership_s": (t("cones.membership"), "s"),
        "cones.separate_s": (t("cones.separate"), "s"),
        "cones.stages": (sum(stages) / len(stages) if stages else 0.0,
                         "count"),
        "cones.evaluate_lex_s": (t("cones.evaluate_lex"), "s"),
        "cli.self_s": (per_job(self_t.get(ROOT, 0.0)), "s"),
        "cli.artifact_bytes": (per_job(artifact_bytes), "bytes"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0
