"""Span tracing of witnesskit from outside the package.

``Tracer.install`` rebinds each traced public function in every loaded
``witnesskit`` module that holds it (so ``from .x import name`` copies
are traced too) and ``StructuredOperator.matvec`` on the class.  Each
call records one span (name, start, end, parent span id, task id, pass
index, and a note taken from the result); ``uninstall`` restores the
originals.  Spans stay in memory until ``write``.
"""

import functools
import gzip
import json
import sys
import time

import witnesskit.structured


def _note_minprod(res):
    return (res.restarts_used, bool(res.converged))


def _note_ppt(res):
    return res.starts_used


def _note_decomposition(res):
    return bool(res.success)


# span name -> (module, attribute, note taken from the return value)
TARGETS = (
    ("optimize.min_product_expectation", "witnesskit.optimize", "min_product_expectation", _note_minprod),
    ("operators.conditioned_matrix", "witnesskit.operators", "conditioned_matrix", None),
    ("structured.matvec", None, "matvec", None),
    ("lift.operator_norm", "witnesskit.lift", "operator_norm", None),
    ("lift.projector_sandwich_gap", "witnesskit.lift", "projector_sandwich_gap", None),
    ("lift.lift_state", "witnesskit.lift", "lift_state", None),
    ("lift.lift_witness", "witnesskit.lift", "lift_witness", None),
    ("optimize.ppt_violation_search", "witnesskit.optimize", "ppt_violation_search", _note_ppt),
    ("optimize.decomposition_search", "witnesskit.optimize", "decomposition_search", _note_decomposition),
    ("witness.classify", "witnesskit.witness", "classify", None),
    ("witness.witness_from_separable", "witnesskit.witness", "witness_from_separable", None),
    ("families.run_case", "witnesskit.families", "run_case", None),
    ("cli.main", "witnesskit.cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.spans = []  # index is the span id
        self.task = -1
        self.pass_index = -1
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                extra = note(result) if note is not None and result is not None else None
                spans[sid] = (name, start, end, parent, self.task, self.pass_index, extra)

        return traced

    def install(self):
        modules = [
            mod for key, mod in sys.modules.items()
            if key == "witnesskit" or key.startswith("witnesskit.")
        ]
        for name, module, attr, note in TARGETS:
            if module is None:
                owner = witnesskit.structured.StructuredOperator
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original, note))
                continue
            original = getattr(sys.modules[module], attr)
            wrapped = self._wrap(name, original, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path, header):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps([sid, *span]) + "\n")


def unit_of(metric):
    last = metric.rsplit(".", 1)[1]
    if last.endswith("_ratio"):
        return "ratio"
    if last.startswith("ms_"):
        return "ms"
    return "s" if last.endswith("_s") else "count"


def layer_metrics(spans, pass_index):
    """Per-layer counts and times of one traced pass.

    A span's self time is its duration minus the time its child spans
    cover; children of one span run one after another, so that cover is
    the sum of their durations.
    """
    child_time = {}
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] = child_time.get(span[3], 0.0) + span[2] - span[1]
    calls, total, self_s = {}, {}, {}
    restarts = unconverged = starts = wasted = successes = 0
    decomposed = {}  # (task, parent) -> end time of a successful decomposition
    chosen = [(sid, s) for sid, s in enumerate(spans) if s[5] == pass_index]
    for sid, (name, start, end, parent, task, _, extra) in chosen:
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + end - start
        self_s[name] = self_s.get(name, 0.0) + end - start - child_time.get(sid, 0.0)
        if name == "optimize.min_product_expectation" and extra is not None:
            restarts += extra[0]
            unconverged += not extra[1]
        elif name == "optimize.decomposition_search" and extra:
            successes += 1
            decomposed[(task, parent)] = end
    for name, start, end, parent, task, _, extra in (s for _, s in chosen):
        if name == "optimize.ppt_violation_search" and extra is not None:
            starts += extra
            if decomposed.get((task, parent), float("inf")) <= start:
                wasted += extra

    def ratio(num, den):
        return num / den if den else 0.0

    mp = "optimize.min_product_expectation"
    mv = "structured.matvec"
    ppt = "optimize.ppt_violation_search"
    dec = "optimize.decomposition_search"
    return {
        f"{mp}.calls": calls.get(mp, 0),
        f"{mp}.total_s": total.get(mp, 0.0),
        f"{mp}.restarts": restarts,
        f"{mp}.ms_per_restart": 1e3 * ratio(total.get(mp, 0.0), restarts),
        f"{mp}.unconverged_ratio": ratio(unconverged, calls.get(mp, 0)),
        "operators.conditioned_matrix.calls": calls.get("operators.conditioned_matrix", 0),
        "operators.conditioned_matrix.total_s": total.get("operators.conditioned_matrix", 0.0),
        f"{mv}.calls": calls.get(mv, 0),
        f"{mv}.total_s": total.get(mv, 0.0),
        f"{mv}.ms_per_call": 1e3 * ratio(total.get(mv, 0.0), calls.get(mv, 0)),
        "lift.operator_norm.calls": calls.get("lift.operator_norm", 0),
        "lift.operator_norm.total_s": total.get("lift.operator_norm", 0.0),
        "lift.projector_sandwich_gap.total_s": total.get("lift.projector_sandwich_gap", 0.0),
        "lift.lift_state.self_s": self_s.get("lift.lift_state", 0.0),
        "lift.lift_witness.self_s": self_s.get("lift.lift_witness", 0.0),
        f"{ppt}.calls": calls.get(ppt, 0),
        f"{ppt}.total_s": total.get(ppt, 0.0),
        f"{ppt}.starts_used": starts,
        f"{ppt}.starts_after_decomposition": wasted,
        f"{dec}.calls": calls.get(dec, 0),
        f"{dec}.total_s": total.get(dec, 0.0),
        f"{dec}.success_ratio": ratio(successes, calls.get(dec, 0)),
        "witness.classify.calls": calls.get("witness.classify", 0),
        "witness.classify.self_s": self_s.get("witness.classify", 0.0),
        "witness.witness_from_separable.calls": calls.get("witness.witness_from_separable", 0),
        "witness.witness_from_separable.self_s": self_s.get("witness.witness_from_separable", 0.0),
        "families.run_case.calls": calls.get("families.run_case", 0),
        "families.run_case.self_s": self_s.get("families.run_case", 0.0),
        "cli.main.calls": calls.get("cli.main", 0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
    }
