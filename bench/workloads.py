"""The four benchmark workloads.

A workload makes its inputs from the seed when it is constructed, which is
part of the timed set-up.  It then runs passes over those inputs through a
``calls`` namespace: the package's public functions, plain or wrapped in
spans.  A pass keeps what every operation returned and how long it took;
``check`` compares the outputs with references that the package does not
compute the same way, and counts each operation that failed or raised.
"""

from __future__ import annotations

import io
import math
import random
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import inputs
from calibrate import Reference

ENUM_COUNTS = Path(__file__).resolve().parent / "enum_counts.txt"

KINDS = ("generic", "bfs", "dfs", "lexbfs", "lexdfs", "mns", "mcs")

# Inclusions between ordering sets: an ordering valid for a kind is valid
# for each kind listed with it.
SUPERSETS = {
    "generic": (),
    "bfs": ("generic",),
    "dfs": ("generic",),
    "mns": ("generic",),
    "lexbfs": ("bfs", "mns", "generic"),
    "lexdfs": ("dfs", "mns", "generic"),
    "mcs": ("mns", "generic"),
}

# The paper's theorems: the ClassLabel flag that predicts them, and each
# item as (label, kind X, kind Y, relation).
THEOREM_ITEMS = {
    "A": ("class_a", (("A2", "generic", "dfs", "subset"),
                      ("A3", "generic", "bfs", "subset"),
                      ("A4", "bfs", "dfs", "equal"))),
    "B": ("class_b", (("B2", "dfs", "lexdfs", "subset"),
                      ("B3", "bfs", "lexbfs", "subset"),
                      ("B4", "generic", "mns", "subset"))),
    "C": ("class_c", (("C2", "mns", "lexdfs", "subset"),
                      ("C3", "mns", "lexbfs", "subset"))),
    "corollary": ("class_a", (("A5", "generic", "lexdfs", "subset"),
                              ("A6", "generic", "lexbfs", "subset"))),
}


def plain_calls(api) -> SimpleNamespace:
    """The public functions every workload calls, unwrapped."""
    so = api.so
    return SimpleNamespace(
        parse_graph6=so.parse_graph6,
        enumerate_orderings=so.enumerate_orderings,
        run_search=so.run_search,
        is_search_ordering=so.is_search_ordering,
        recognize_structure=so.recognize_structure,
        find_induced_small=so.find_induced_small,
        find_induced_pan=so.find_induced_pan,
        orderings_subset=so.orderings_subset,
        orderings_equal=so.orderings_equal,
        check_theorem=so.check_theorem,
        connected_graphs=api.inventory.connected_graphs,
        cli_main=api.cli.main,
        mark=lambda graph_id: None,
        traced=False,
    )


def load_enum_counts() -> dict[str, tuple[int, ...]]:
    """graph6 line -> ordering count per kind, in KINDS order."""
    counts = {}
    for row in ENUM_COUNTS.read_text().splitlines():
        if row and not row.startswith("#"):
            line, *values = row.split()
            counts[line] = tuple(int(v) for v in values)
    return counts


def vertex_count(line: str) -> int:
    return ord(line[0]) - 63


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def steady(passes, operation: str) -> list[float]:
    """Each operation's median duration over the passes, at nominal speed.

    Every pass runs the same operations in the same order.  The machine's
    speed drifts by tens of percent over seconds, so each duration is first
    scaled by the reference kernel runs around it; the median over passes
    then sets aside the moments that scaling misses.
    """
    scaled = ([duration * p.reference.scale(start)
               for start, duration in p.timed[operation]] for p in passes)
    return [statistics.median(times) for times in zip(*scaled)]


def latency(prefix: str, durations) -> dict:
    """Median and 90th percentile, in ms, of per-operation durations."""
    return {f"{prefix}_p50": metric(1000 * percentile(durations, 0.5), "ms", len(durations)),
            f"{prefix}_p90": metric(1000 * percentile(durations, 0.9), "ms", len(durations))}


class Checks:
    """Operations attempted and failed, with the first few failures.

    ``wrong_first`` inverts the expectation of the first operation checked,
    so that a test can see a wrong verdict counted as a failure.
    """

    def __init__(self, wrong_first: bool = False):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._invert = wrong_first

    def op(self, ok: bool, what) -> None:
        self.attempted += 1
        if self._invert:
            ok, self._invert = not ok, False
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(str(what)[:500])


@dataclass
class Pass:
    """One pass over a workload's inputs."""

    reference: Optional[Reference] = None  # ticked between operations
    seconds: float = 0.0
    timed: dict = field(default_factory=dict)  # operation -> (start, duration) (s)
    outputs: list = field(default_factory=list)

    def call(self, operation: str, fn, *args):
        """Time fn(*args); an exception becomes the result, to be checked."""
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # counted as a failed operation
            result = exc
        self.timed.setdefault(operation, []).append(
            (start, time.perf_counter() - start))
        if self.reference is not None:
            self.reference.tick()
        return result


class Workload:
    name = ""
    # end-to-end metric named in BENCHMARK.json -> this workload's metric
    aliases: dict[str, str] = {}

    def __init__(self, api, seed: int, smoke: bool):
        self.api = api
        self.rng = random.Random(f"{self.name}:{seed}")

    def run_pass(self, calls, reference: Optional[Reference] = None) -> Pass:
        p = Pass(reference)
        start = time.perf_counter()
        self._run(calls, p)
        p.seconds = time.perf_counter() - start
        return p

    def _run(self, calls, p: Pass) -> None:
        raise NotImplementedError

    def check(self, p: Pass, checks: Checks) -> None:
        raise NotImplementedError

    def finish(self, calls, checks: Checks, reference: Pass) -> None:
        """Checks made once per run, after the passes; ``reference`` is the
        first untraced pass."""

    def metrics(self, passes: list[Pass]) -> dict:
        raise NotImplementedError

    def emit(self, graph) -> str:
        n, edges = graph
        return self.api.so.emit_graph6(self.api.so.Graph(n, edges))


class TheoremScan(Workload):
    """parse_graph6 then check_theorem for A, B, C and the corollary, per
    graph6 line: the unit of work of ``searchorder scan``."""

    name = "theorem_scan"
    aliases = {"ops_per_s": "scan_graphs_per_s",
               "op_ms_p50": "scan_graph_ms_p50",
               "op_ms_p90": "scan_graph_ms_p90",
               "aux_ops_per_s": "cli_scan_small_graphs_per_s"}
    # the scan of the small lines takes a tenth of a second, so it runs
    # several times a pass for its median to be steady
    CLI_REPEATS = 4

    def __init__(self, api, seed, smoke):
        super().__init__(api, seed, smoke)
        counts = load_enum_counts()
        lines = api.inventory.load_packaged_inventory()
        # All 112 graphs with n = 6: a sample of them moved the percentiles
        # by 4% from seed to seed.  With n = 7, K7 always, since it has the
        # most orderings of every kind (a third of a pass, and the peak
        # memory), plus a sample of the rest small enough to keep a pass
        # short.  Over 60 seeds the work of a pass then varies by 3%.
        self.small_n, k6, k7 = (4, 2, 1) if smoke else (5, 112, 7)

        def strata(line):  # work grows with the number of orderings
            return counts[line][0], sum(counts[line])

        def same_n(n):
            return [line for line in lines if vertex_count(line) == n]

        *n7, k_7 = sorted(same_n(7), key=strata)
        self.small = [line for line in lines if vertex_count(line) <= self.small_n]
        self.lines = (self.small
                      + inputs.systematic_sample(same_n(6), k6, self.rng, strata)
                      + [k_7] + inputs.systematic_sample(n7, k7, self.rng, strata))

    def composition(self) -> dict:
        by_n: dict[int, int] = {}
        for line in self.lines:
            by_n[vertex_count(line)] = by_n.get(vertex_count(line), 0) + 1
        return {"graphs": len(self.lines), "by_n": by_n,
                "sampling": "all n <= 5; n = 6, and n = 7 besides K7, "
                            "stratified on Generic then total ordering count",
                "cli_scan_small": f"the n <= {self.small_n} lines, "
                                  f"{self.CLI_REPEATS} times a pass"}

    def _scan_one(self, calls, line):
        g = calls.parse_graph6(line)
        return {r.theorem: (r.structural_prediction, r.items)
                for r in (calls.check_theorem(g, t) for t in THEOREM_ITEMS)}

    def _run(self, calls, p):
        for i, line in enumerate(self.lines):
            calls.mark(i)
            p.outputs.append(p.call("graph", self._scan_one, calls, line))
        calls.mark(None)
        for _ in range(self.CLI_REPEATS):
            p.outputs.append(p.call("cli", self._cli_scan, calls, self.small))

    def check(self, p, checks):
        graphs, scans = p.outputs[:len(self.lines)], p.outputs[len(self.lines):]
        for line, out in zip(self.lines, graphs):
            checks.op(self._consistent(out), f"{line}: {out!r}")
        for scan in scans:
            checks.op(scan == (0, ""), f"scan of the small lines returned {scan!r:.300}")

    @staticmethod
    def _consistent(out) -> bool:
        """Every item matches the structural prediction, as the theorems say."""
        if isinstance(out, Exception):
            return False
        for theorem, (_, items) in THEOREM_ITEMS.items():
            prediction, verdicts = out[theorem]
            labels = tuple(name.split(":")[0] for name, _ in verdicts)
            if labels != tuple(item[0] for item in items):
                return False
            if any(value != prediction for _, value in verdicts):
                return False
        return True

    def finish(self, calls, checks, reference):
        """One ``scan`` over all the lines; in the traced run, also the
        verdicts of the decomposed theorem items."""
        if calls.traced:
            for line, ref, dec in zip(self.lines, reference.outputs,
                                      self._decomposed(calls)):
                expected = (ref if isinstance(ref, Exception) else
                            {t: (pred, tuple(v for _, v in items))
                             for t, (pred, items) in ref.items()})
                checks.op(dec == expected,
                          f"{line}: decomposed {dec!r} != check_theorem {expected!r}")
        calls.mark(None)
        try:
            scan = self._cli_scan(calls, self.lines)
        except Exception as exc:  # checked as a failed scan
            scan = exc
        checks.op(scan == (0, ""), f"scan over the same lines returned {scan!r:.300}")

    def _decomposed(self, calls):
        """Theorem verdicts from one orderings_subset/orderings_equal call per
        item, with the prediction read off recognize_structure."""
        kind = self.api.so.SearchKind
        out = []
        for i, line in enumerate(self.lines):
            calls.mark(i)
            try:
                g = calls.parse_graph6(line)
                label = calls.recognize_structure(g)
                verdicts = {}
                for theorem, (flag, items) in THEOREM_ITEMS.items():
                    verdicts[theorem] = (bool(getattr(label, flag)), tuple(
                        (calls.orderings_subset if relation == "subset"
                         else calls.orderings_equal)(g, kind(x), kind(y)).verdict
                        for _, x, y, relation in items))
                out.append(verdicts)
            except Exception as exc:  # counted by the comparison in finish
                out.append(exc)
        return out

    @staticmethod
    def _cli_scan(calls, lines):
        """``searchorder scan - --theorem all`` in process; returns the exit
        code and stdout."""
        stdout = io.StringIO()
        saved, sys.stdin = sys.stdin, io.StringIO("\n".join(lines) + "\n")
        try:
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                code = calls.cli_main(["scan", "-", "--theorem", "all"])
        finally:
            sys.stdin = saved
        return code, stdout.getvalue()

    def metrics(self, passes):
        graphs = steady(passes, "graph")
        cli = statistics.median(steady(passes, "cli"))
        return {"scan_graphs_per_s": metric(len(graphs) / sum(graphs), "1/s",
                                            len(graphs)),
                **latency("scan_graph_ms", graphs),
                "cli_scan_small_graphs_per_s": metric(
                    len(self.small) / cli, "1/s", self.CLI_REPEATS * len(passes))}


class EnumerateAll(Workload):
    """enumerate_orderings for all seven kinds on n = 7 inventory graphs:
    K7, and a sample of the rest with weight growing with the edge count."""

    name = "enumerate_all"
    aliases = {"ops_per_s": "enum_orderings_per_s",
               "op_ms_p50": "enum_call_ms_p50",
               "op_ms_p90": "enum_call_ms_p90",
               "aux_ops_per_s": "enum_calls_per_s"}
    VALIDATED_PER_CALL = 2

    def __init__(self, api, seed, smoke):
        super().__init__(api, seed, smoke)
        counts = load_enum_counts()
        n7 = [line for line in api.inventory.load_packaged_inventory()
              if vertex_count(line) == 7]
        m = inputs.graph6_edge_count
        # K7 has twice the orderings of any other graph; left to the sample,
        # it split the seeds into two groups 10% apart in total work
        *rest, k_7 = sorted(n7, key=lambda line: sum(counts[line]))
        self.lines = [k_7] + inputs.systematic_sample(
            rest, 2 if smoke else 79, self.rng, key=lambda line: sum(counts[line]),
            weight=lambda line: m(line) - 5)
        self.expected = [counts[line] for line in self.lines]
        self.kinds = [api.so.SearchKind(kind) for kind in KINDS]
        self.pick = self.rng.random()

    def composition(self) -> dict:
        edges = [inputs.graph6_edge_count(line) for line in self.lines]
        return {"graphs": len(self.lines), "kinds": len(self.kinds),
                "mean_edges": sum(edges) / len(edges),
                "sampling": "n = 7: K7, and the rest stratified on total ordering count, "
                            "weight m - 5 for m edges"}

    def _run(self, calls, p):
        for i, line in enumerate(self.lines):
            calls.mark(i)
            g = calls.parse_graph6(line)
            for kind in self.kinds:
                result = p.call("call", calls.enumerate_orderings, g, kind)
                if isinstance(result, Exception):
                    p.outputs.append((i, kind, result))
                    continue
                rng = random.Random(f"{self.pick}:{i}:{kind.value}")
                picked = rng.sample(result.orderings,
                                    min(self.VALIDATED_PER_CALL, len(result.orderings)))
                p.outputs.append((i, kind, (len(result.orderings), result.truncated,
                                            picked)))

    def check(self, p, checks):
        so = self.api.so
        for i, kind, out in p.outputs:
            line = self.lines[i]
            if isinstance(out, Exception):
                checks.op(False, f"{line} {kind.value}: {out!r}")
                continue
            count, truncated, picked = out
            g = so.parse_graph6(line)
            expected = self.expected[i][KINDS.index(kind.value)]
            ok = (count == expected and not truncated
                  and all(so.is_search_ordering(g, o, kind)[0] for o in picked))
            checks.op(ok, f"{line} {kind.value}: {count} orderings (expected "
                          f"{expected}), truncated {truncated}, picked {picked}")

    def metrics(self, passes):
        durations = steady(passes, "call")
        orderings = sum(out[0] for _, _, out in passes[0].outputs
                        if not isinstance(out, Exception))
        return {"enum_orderings_per_s": metric(orderings / sum(durations), "1/s",
                                               len(durations)),
                **latency("enum_call_ms", durations),
                "enum_calls_per_s": metric(len(durations) / sum(durations), "1/s",
                                           len(durations))}


class ExecuteValidate(Workload):
    """run_search for every kind under seeded tie-breaks, then
    is_search_ordering of each result against all seven kinds, on random
    connected graphs too large to enumerate."""

    name = "execute_validate"
    aliases = {"ops_per_s": "validate_ops_per_s",
               "op_ms_p50": "validate_call_ms_p50",
               "op_ms_p90": "validate_call_ms_p90",
               "aux_ops_per_s": "search_ops_per_s"}
    DENSITIES = (0.1, 0.3)

    def __init__(self, api, seed, smoke):
        super().__init__(api, seed, smoke)
        sizes, self.tiebreaks = ((16,), 1) if smoke else (range(16, 49, 4), 3)
        self.graphs = [(n, p) for n in sizes for p in self.DENSITIES]
        self.lines = [self.emit(inputs.random_connected(n, p, self.rng))
                      for n, p in self.graphs]
        self.kinds = [api.so.SearchKind(kind) for kind in KINDS]
        self.seeded = [[[api.so.TieBreak.seeded(self.rng.randrange(2 ** 31))
                         for _ in range(self.tiebreaks)] for _ in self.kinds]
                       for _ in self.lines]

    def composition(self) -> dict:
        return {"graphs": [{"n": n, "p": p} for n, p in self.graphs],
                "kinds": len(self.kinds), "tiebreaks_per_kind": self.tiebreaks}

    def _run(self, calls, p):
        for i, line in enumerate(self.lines):
            calls.mark(i)
            g = calls.parse_graph6(line)
            for kind, tiebreaks in zip(self.kinds, self.seeded[i]):
                for tiebreak in tiebreaks:
                    order = p.call("search", calls.run_search, g, kind, tiebreak)
                    if isinstance(order, Exception):
                        p.outputs.append((i, kind, order, None))
                        continue
                    verdicts = {}
                    for other in self.kinds:
                        result = p.call("validate", calls.is_search_ordering,
                                        g, order, other)
                        verdicts[other.value] = (result if isinstance(result, Exception)
                                                 else result[0])
                    p.outputs.append((i, kind, order, verdicts))

    def check(self, p, checks):
        for i, kind, order, verdicts in p.outputs:
            where = f"{self.lines[i]} {kind.value} {order!r}"
            if verdicts is None:
                checks.op(False, where)
                continue
            checks.op(verdicts[kind.value] is True, f"{where}: rejected by its own kind")
            for other, valid in verdicts.items():
                ok = valid is False or (valid is True and all(
                    verdicts[wider] is True for wider in SUPERSETS[other]))
                checks.op(ok, f"{where}: {other} verdict {valid!r} breaks the "
                              f"inclusions, verdicts {verdicts}")

    def metrics(self, passes):
        validate = steady(passes, "validate")
        search = steady(passes, "search")
        return {"validate_ops_per_s": metric(len(validate) / sum(validate), "1/s",
                                             len(validate)),
                **latency("validate_call_ms", validate),
                "search_ops_per_s": metric(len(search) / sum(search), "1/s",
                                           len(search))}


class Classify(Workload):
    """Per graph, recognize_structure, the four find_induced_small patterns
    and find_induced_pan; and REGENERATIONS times a pass, spread through it,
    connected_graphs(k) for k <= 7 after cache_clear()."""

    name = "classify"
    aliases = {"ops_per_s": "classify_graphs_per_s",
               "op_ms_p50": "classify_graph_ms_p50",
               "op_ms_p90": "classify_graph_ms_p90",
               "aux_ops_per_s": "inventory_graphs_per_s"}
    DENSITIES = (0.4, 0.6)
    # one regeneration takes over half a second, so a run held too few of
    # them for their median to be steady; more than two would take more
    # time than the detectors, the layer this workload is for
    REGENERATIONS = 2

    def __init__(self, api, seed, smoke):
        super().__init__(api, seed, smoke)
        if smoke:
            random_sizes, per_size, class_sizes, self.inventory_n = (8,), 2, (6,), 5
        else:
            # many graphs of each kind, so that the percentiles, which fall
            # among the random graphs, move little from seed to seed
            random_sizes, per_size, class_sizes, self.inventory_n = (
                range(8, 15), 72, (8, 9, 10) * 3, 7)
        self.graphs = []  # (graph6, ClassLabel flag it must have, or None)
        for n in random_sizes:
            for j in range(per_size):
                p = self.DENSITIES[j % len(self.DENSITIES)]
                self.graphs.append(
                    (self.emit(inputs.random_connected(n, p, self.rng)), None))
        for n in class_sizes:
            for flag, generate in inputs.CLASS_GENERATORS.items():
                self.graphs.append((self.emit(generate(n, self.rng)), flag))
        self.inventory = [line for line in api.inventory.load_packaged_inventory()
                          if vertex_count(line) <= self.inventory_n]
        self.regenerate_at = range(0, len(self.graphs),
                                   -(-len(self.graphs) // self.REGENERATIONS))
        so = api.so
        self.patterns = (so.P4, so.C4, so.PAW, so.DIAMOND)

    def composition(self) -> dict:
        members: dict[str, int] = {}
        for _, flag in self.graphs:
            members[flag or "random"] = members.get(flag or "random", 0) + 1
        return {"graphs": len(self.graphs), "members": members,
                "inventory_upto_n": self.inventory_n}

    def _classify_one(self, calls, line):
        g = calls.parse_graph6(line)
        label = calls.recognize_structure(g)
        hits = {pattern: calls.find_induced_small(g, pattern)
                for pattern in self.patterns}
        return label, hits, calls.find_induced_pan(g)

    def _regenerate(self, calls):
        return [g for k in range(1, self.inventory_n + 1)
                for g in calls.connected_graphs(k)]

    def _run(self, calls, p):
        regenerated, classified = [], []
        for i, (line, _) in enumerate(self.graphs):
            if i in self.regenerate_at:
                calls.mark(None)
                self.api.inventory.connected_graphs.cache_clear()
                regenerated.append(p.call("regen", self._regenerate, calls))
            calls.mark(i)
            classified.append(p.call("graph", self._classify_one, calls, line))
        p.outputs.extend(regenerated + classified)

    def check(self, p, checks):
        so = self.api.so
        regenerations = len(self.regenerate_at)
        for regenerated in p.outputs[:regenerations]:
            emitted = (regenerated if isinstance(regenerated, Exception)
                       else [so.emit_graph6(g) for g in regenerated])
            checks.op(emitted == self.inventory,
                      f"regenerated inventory differs from the packaged one: {emitted!r:.200}")
        classified = p.outputs[regenerations:]
        p4, c4, _, diamond = self.patterns
        for (line, flag), out in zip(self.graphs, classified):
            if isinstance(out, Exception):
                checks.op(False, f"{line}: {out!r}")
                continue
            label, hits, pan = out
            ok = (label.class_c == (hits[p4] is None and hits[c4] is None)
                  and label.class_b == (pan is None and hits[diamond] is None)
                  and (flag is None or getattr(label, flag) is True))
            checks.op(ok, f"{line} ({flag or 'random'}): {label}, {hits}, {pan}")

    def metrics(self, passes):
        graphs = steady(passes, "graph")
        regens = steady(passes, "regen")
        return {"classify_graphs_per_s": metric(len(graphs) / sum(graphs), "1/s",
                                                len(graphs)),
                **latency("classify_graph_ms", graphs),
                "inventory_graphs_per_s": metric(
                    len(self.inventory) / statistics.median(regens), "1/s",
                    len(regens) * len(passes))}


WORKLOADS = {w.name: w for w in (TheoremScan, EnumerateAll, ExecuteValidate, Classify)}
