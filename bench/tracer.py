"""Spans around the package's public callables, installed from outside.

``Tracer.install`` wraps each target listed in ``TARGETS`` and, where a
module imported a target by name (``realizability.has_minor``, the
re-exports in ``realdim/__init__``), replaces that name too; ``restore``
puts every original back.  Each outermost call of a target records a
span (name, start, end, parent); a recursive call of a target already on
the stack is passed through, so inclusive times never count twice.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# (module, attribute path) of every traced callable, grouped by module.
TARGETS = {
    "realizability": ["is_1_realizable", "is_2_realizable", "realizable_dimension_bounds"],
    "certificates": [
        "DecompositionTree.switched", "DecompositionTree.replay", "certificate_to_json_dict",
        "certificate_from_json_dict", "covering_switch", "verify_decomposition",
        "RealizabilityVerdict.verify",
    ],
    "graphs": [
        "GainGraph.__init__", "GainGraph.switch_many", "GainGraph.contract_edge",
        "GainGraph.edges_between", "SimpleGraph.blocks", "GainGraph.balance",
        "GainGraph.canonical_form",
    ],
    "minors": ["has_minor", "contains_forbidden", "finite_has_minor", "MinorWitness.verify"],
    "frameworks": [
        "rigidity_matrix", "stress_kernel", "construct_psd_stress", "verify_super_stable",
        "stress_matrix", "signature", "conic_condition", "flatten", "span_check",
        "restrict_to_affine_span",
    ],
    "exactlinalg": ["rational_rank", "rational_inertia"],
    "documents": [
        "parse_graph_document", "parse_framework_document", "parse_weights_document",
        "serialize_graph_document", "serialize_framework_document",
    ],
    "cli": [
        "main", "cmd_classify", "cmd_minor", "cmd_balance", "cmd_stress", "cmd_superstable",
        "cmd_flatten", "cmd_verify_cert",
    ],
}

# Per-module metrics: metric name -> traced name whose inclusive time or
# call count it reports.
TIMES = {
    "realizability.d1_s": "realizability.is_1_realizable",
    "realizability.d2_s": "realizability.is_2_realizable",
    "realizability.bounds_s": "realizability.realizable_dimension_bounds",
    "certificates.switched_s": "certificates.DecompositionTree.switched",
    "certificates.to_json_s": "certificates.certificate_to_json_dict",
    "certificates.replay_s": "certificates.DecompositionTree.replay",
    "certificates.covering_switch_s": "certificates.covering_switch",
    "certificates.from_json_s": "certificates.certificate_from_json_dict",
    "graphs.switch_many_s": "graphs.GainGraph.switch_many",
    "graphs.contract_edge_s": "graphs.GainGraph.contract_edge",
    "graphs.edges_between_s": "graphs.GainGraph.edges_between",
    "graphs.blocks_s": "graphs.SimpleGraph.blocks",
    "graphs.balance_s": "graphs.GainGraph.balance",
    "graphs.canonical_form_s": "graphs.GainGraph.canonical_form",
    "minors.has_minor_s": "minors.has_minor",
    "minors.contains_forbidden_s": "minors.contains_forbidden",
    "minors.finite_minor_s": "minors.finite_has_minor",
    "minors.witness_replay_s": "minors.MinorWitness.verify",
    "frameworks.rigidity_matrix_s": "frameworks.rigidity_matrix",
    "frameworks.stress_kernel_s": "frameworks.stress_kernel",
    "frameworks.psd_stress_s": "frameworks.construct_psd_stress",
    "frameworks.superstable_s": "frameworks.verify_super_stable",
    "frameworks.stress_matrix_s": "frameworks.stress_matrix",
    "frameworks.signature_s": "frameworks.signature",
    "frameworks.conic_s": "frameworks.conic_condition",
    "frameworks.flatten_s": "frameworks.flatten",
    "frameworks.span_check_s": "frameworks.span_check",
    "exactlinalg.rank_s": "exactlinalg.rational_rank",
    "exactlinalg.inertia_s": "exactlinalg.rational_inertia",
}
COUNTS = {
    "certificates.switched_calls": "certificates.DecompositionTree.switched",
    "graphs.gaingraph_built": "graphs.GainGraph.__init__",
    "graphs.switch_many_calls": "graphs.GainGraph.switch_many",
    "graphs.contract_edge_calls": "graphs.GainGraph.contract_edge",
    "graphs.edges_between_calls": "graphs.GainGraph.edges_between",
    "graphs.canonical_form_calls": "graphs.GainGraph.canonical_form",
}
SUMS = {
    "documents.parse_s": ["documents.parse_graph_document", "documents.parse_framework_document",
                          "documents.parse_weights_document"],
    "documents.serialize_s": ["documents.serialize_graph_document",
                              "documents.serialize_framework_document"],
}
SEARCHES = ("minors.has_minor", "minors.contains_forbidden")
MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, inclusive seconds, self seconds]
        self.spans = []  # (name, start, end, parent index or -1)
        self.dropped = 0
        self.fallback_searches = 0
        self.reason_traces = 0
        self.search_canonical_forms = 0
        self._stack = []  # open spans: [name, start, child seconds, span index]
        self._active = {}  # name -> 1 while a call of it is open
        self._patches = []
        self._paused = False

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            active = tracer._active
            if tracer._paused or active.get(name):
                return tracer._note_result(name, fn(*args, **kwargs))
            tracer._note_call(name)
            active[name] = 1
            stack, spans = tracer._stack, tracer.spans
            parent = stack[-1][3] if stack else -1
            index = len(spans) if len(spans) < MAX_SPANS else -1
            if index >= 0:
                spans.append(None)  # filled in when the call returns
            frame = [name, time.perf_counter(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                active[name] = 0
                duration = end - frame[1]
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if index >= 0:
                    spans[index] = (name, frame[1], end, parent)
                else:
                    tracer.dropped += 1
            return tracer._note_result(name, result)

        return wrapper

    def _note_result(self, name, result):
        # Counted while paused too: reason traces come from named-fault operations.
        if name == "realizability.is_2_realizable":
            if type(result.certificate).__name__ == "ReasonTrace":
                self.reason_traces += 1
        return result

    def _note_call(self, name):
        open_names = [f[0] for f in self._stack]
        if name == "minors.has_minor" and any(n.startswith("realizability.") for n in open_names):
            self.fallback_searches += 1
        if name == "graphs.GainGraph.canonical_form" and any(n in SEARCHES for n in open_names):
            self.search_canonical_forms += 1

    def install(self):
        """Wrap every target; replace by-name imports across realdim modules."""
        import importlib

        modules = [importlib.import_module(f"realdim.{m}") for m in TARGETS]
        package = [m for k, m in sys.modules.items() if k == "realdim" or k.startswith("realdim.")]
        for module, attrs in zip(modules, TARGETS.values()):
            short = module.__name__.split(".")[-1]
            for path in attrs:
                owner = module
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr]
                name = f"{short}.{path}"
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, new)
                if outer:
                    continue
                for other in package:
                    for key, value in list(vars(other).items()):
                        if value is raw and not (other is owner and key == attr):
                            self._patches.append((other, key, raw))
                            setattr(other, key, new)

    def restore(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- results ---------------------------------------------------------------------

    def metrics(self) -> dict:
        def stat(name, k):
            return self.stats.get(name, [0, 0.0, 0.0])[k]

        out = {m: stat(n, 1) for m, n in TIMES.items()}
        out.update({m: stat(n, 0) for m, n in COUNTS.items()})
        out.update({m: sum(stat(n, 1) for n in names) for m, names in SUMS.items()})
        out["realizability.fallback_searches"] = self.fallback_searches
        out["realizability.reason_traces"] = self.reason_traces
        searches = sum(stat(n, 0) for n in SEARCHES)
        out["minors.canonical_forms_per_search"] = (
            self.search_canonical_forms / searches if searches else 0.0
        )
        for module in TARGETS:
            names = [n for n in self.stats if n.split(".", 1)[0] == module]
            out[f"{module}.calls"] = sum(self.stats[n][0] for n in names)
            out[f"{module}.self_s"] = sum(self.stats[n][2] for n in names)
        return out

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            if self.dropped:
                fh.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
