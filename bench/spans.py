"""In-memory span recorder for the traced run, and the per-layer metrics
computed from its spans.

Spans are taken from outside the package: around each public function the
benchmark calls, and around the names that one package module imports from
another (``equivalence.enumerate_orderings``, ``cli.check_theorem``, ...),
which the recorder rebinds for the length of a traced pass and restores
afterwards.  No file of the package is changed.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from types import SimpleNamespace

# public function -> (span name, what the span keeps of the result)
SPANNED = {
    "parse_graph6": ("graphs.parse", None),
    "enumerate_orderings": ("searches.enumerate", lambda r: len(r.orderings)),
    "run_search": ("searches.run", None),
    "is_search_ordering": ("validators.validate", lambda r: r[0]),
    "recognize_structure": ("patterns.recognize", None),
    "find_induced_small": ("patterns.detect", lambda r: r is not None),
    "find_induced_pan": ("patterns.detect", lambda r: r is not None),
    "orderings_subset": ("equivalence.decide", lambda r: r.verdict),
    "orderings_equal": ("equivalence.decide", lambda r: r.verdict),
    "check_theorem": ("equivalence.theorem", None),
    "connected_graphs": ("inventory.regen", len),
    "cli_main": ("cli.scan", None),
}

# package module -> names it imports from other modules; rebinding them
# spans the calls between layers that happen inside the package
REBOUND = {
    "equivalence": ("enumerate_orderings", "is_search_ordering",
                    "recognize_structure"),
    "cli": ("parse_graph6", "check_theorem"),
}

# per-layer metric -> (unit, end-to-end metric it should move, workloads
# where it should move them).  The benchmark reports every one of them on
# every workload; a layer a workload never calls reads 0.
LAYER_METRICS = {
    "searches.enumerate_calls": ("count", "scan_graphs_per_s, scan_graph_ms_p90; enum_orderings_per_s", "theorem_scan, enumerate_all"),
    "searches.enumerate_s": ("s", "scan_graphs_per_s, scan_graph_ms_p90; enum_orderings_per_s", "theorem_scan, enumerate_all"),
    "searches.orderings": ("count", "scan_graphs_per_s, scan_graph_ms_p90; enum_orderings_per_s", "theorem_scan, enumerate_all"),
    "equivalence.decide_calls": ("count", "scan_graphs_per_s", "theorem_scan"),
    "equivalence.decide_s": ("s", "scan_graphs_per_s", "theorem_scan"),
    "equivalence.refuted_ratio": ("ratio", "scan_graphs_per_s", "theorem_scan"),
    "validators.validate_calls": ("count", "validate_ops_per_s", "execute_validate"),
    "validators.validate_s": ("s", "validate_ops_per_s", "execute_validate"),
    "validators.valid_ratio": ("ratio", "validate_ops_per_s", "execute_validate"),
    "searches.run_calls": ("count", "search_ops_per_s", "execute_validate"),
    "searches.run_s": ("s", "search_ops_per_s", "execute_validate"),
    "patterns.detect_calls": ("count", "classify_graphs_per_s, classify_graph_ms_p90", "classify"),
    "patterns.detect_s": ("s", "classify_graphs_per_s, classify_graph_ms_p90", "classify"),
    "patterns.detect_hit_ratio": ("ratio", "classify_graphs_per_s, classify_graph_ms_p90", "classify"),
    "patterns.recognize_calls": ("count", "classify_graphs_per_s, classify_graph_ms_p90", "classify"),
    "patterns.recognize_s": ("s", "classify_graphs_per_s, classify_graph_ms_p90", "classify"),
    "inventory.regen_s": ("s", "inventory_graphs_per_s", "classify"),
    "inventory.graphs": ("count", "inventory_graphs_per_s", "classify"),
    "graphs.parse_calls": ("count", "none: the control", "all"),
    "graphs.parse_s": ("s", "none: the control", "all"),
    "cli.scan_s": ("s", "scan_graphs_per_s", "theorem_scan"),
    "cli.overhead_s": ("s", "scan_graphs_per_s", "theorem_scan"),
}


class Tracer:
    """Records spans as [name, start, end, parent index, graph id, outcome].

    ``graph`` is the id of the input graph the current call works on; the
    workloads set it through ``calls.mark``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.graph = None
        self._open = [None]

    def wrap(self, name, fn, outcome=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1], self.graph, None]
            self.spans.append(span)
            self._open.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if outcome is not None:
                span[5] = outcome(result)
            return result
        return traced

    def calls(self, plain):
        """The traced twin of a plain calls namespace."""
        traced = {name: (self.wrap(SPANNED[name][0], fn, SPANNED[name][1])
                         if name in SPANNED else fn)
                  for name, fn in vars(plain).items()}
        traced["mark"] = self._mark
        traced["traced"] = True
        return SimpleNamespace(**traced)

    def _mark(self, graph_id):
        self.graph = graph_id

    @contextmanager
    def rebound(self, modules: dict):
        """Span the calls package modules make into one another."""
        saved = []
        try:
            for module_name, names in REBOUND.items():
                module = modules[module_name]
                for name in names:
                    fn = getattr(module, name)
                    saved.append((module, name, fn))
                    span_name, outcome = SPANNED[name]
                    setattr(module, name, self.wrap(span_name, fn, outcome))
            yield
        finally:
            for module, name, fn in saved:
                setattr(module, name, fn)

    def write(self, path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**header,
                       "span_fields": ["name", "start", "end", "parent",
                                       "graph", "outcome"],
                       "spans": self.spans}, fh)


def _aggregate(spans):
    """Calls, self time, total time and outcomes per span name.

    A span's self time is its duration minus the durations of its direct
    children, which nest inside it without overlapping.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    outcomes: dict[str, list] = {}
    for i, (name, start, end, _, _, outcome) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
        outcomes.setdefault(name, []).append(outcome)
    return calls, self_s, total_s, outcomes


def self_times(spans) -> dict:
    """Self time per span name, largest first."""
    self_s = _aggregate(spans)[1]
    return dict(sorted(self_s.items(), key=lambda kv: -kv[1]))


def layer_metrics(spans) -> dict:
    """Every metric of LAYER_METRICS, as {"value", "unit"}, from the spans."""
    calls, self_s, total_s, outcomes = _aggregate(spans)

    def share_true(name):
        seen = outcomes.get(name, [])
        return sum(1 for o in seen if o) / len(seen) if seen else 0.0

    values = {
        "searches.enumerate_calls": calls.get("searches.enumerate", 0),
        "searches.enumerate_s": self_s.get("searches.enumerate", 0.0),
        "searches.orderings": sum(outcomes.get("searches.enumerate", [])),
        "equivalence.decide_calls": calls.get("equivalence.decide", 0),
        "equivalence.decide_s": (self_s.get("equivalence.decide", 0.0)
                                 + self_s.get("equivalence.theorem", 0.0)),
        "equivalence.refuted_ratio": (1.0 - share_true("equivalence.decide")
                                      if calls.get("equivalence.decide") else 0.0),
        "validators.validate_calls": calls.get("validators.validate", 0),
        "validators.validate_s": self_s.get("validators.validate", 0.0),
        "validators.valid_ratio": share_true("validators.validate"),
        "searches.run_calls": calls.get("searches.run", 0),
        "searches.run_s": self_s.get("searches.run", 0.0),
        "patterns.detect_calls": calls.get("patterns.detect", 0),
        "patterns.detect_s": self_s.get("patterns.detect", 0.0),
        "patterns.detect_hit_ratio": share_true("patterns.detect"),
        "patterns.recognize_calls": calls.get("patterns.recognize", 0),
        "patterns.recognize_s": self_s.get("patterns.recognize", 0.0),
        "inventory.regen_s": self_s.get("inventory.regen", 0.0),
        "inventory.graphs": sum(outcomes.get("inventory.regen", [])),
        "graphs.parse_calls": calls.get("graphs.parse", 0),
        "graphs.parse_s": self_s.get("graphs.parse", 0.0),
        "cli.scan_s": total_s.get("cli.scan", 0.0),
        "cli.overhead_s": self_s.get("cli.scan", 0.0),
    }
    return {name: {"value": values[name], "unit": LAYER_METRICS[name][0]}
            for name in LAYER_METRICS}
