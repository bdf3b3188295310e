"""Command-line interface.

Exit codes are a stable contract:
    0  success / valid / equivalent / consistent
    1  invalid ordering or inequivalent pair
    2  parse error (graph, ordering, or flags)
    3  disconnected input where connectivity is required
    4  enumeration truncated at the cap, or an unknown ``equiv`` verdict

For ``equiv``, ``--cap`` bounds the complete orderings of the first kind
reached without a counterexample.  A counterexample found within the cap
settles the question, so that case exits 1; exit 4 means the cap was
reached first and the verdict is unknown (``"verdict": null``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from multiprocessing import Pool
from typing import Optional

from .graphs import (DisconnectedGraphError, Graph, Graph6ParseError,
                     parse_edge_list, parse_graph6)
from .searches import (DEFAULT_CAP, SearchKind, TieBreak, enumerate_orderings,
                       run_search)
from .validators import PointViolation, is_search_ordering
from .patterns import (C4, DIAMOND, P4, PAW, find_induced_pan,
                       find_induced_small, recognize_structure)
from .equivalence import (THEOREMS, SizeGuardError, check_theorem,
                          orderings_equal, orderings_subset)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_TRUNCATED = 4


def _read_graph(args) -> Graph:
    """``--format auto`` reads a lone token as a graph6 record (a single
    token is never a valid edge list) and anything else as an edge list."""
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input) as fh:
            text = fh.read()
    if args.format == "graph6" or (args.format == "auto"
                                   and len(text.split()) == 1):
        return parse_graph6(text)
    return parse_edge_list(text)


def _load_labels(path: str) -> dict[str, int]:
    """Label mapping file: one ``name index`` pair per line, # comments."""
    mapping: dict[str, int] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise ValueError(f"labels file line {lineno}: expected 'name index'")
            name, index = parts
            try:
                mapping[name] = int(index)
            except ValueError:
                raise ValueError(
                    f"labels file line {lineno}: non-integer index {index!r}") from None
    return mapping


def _parse_ordering(spec: str, labels: Optional[dict[str, int]] = None) -> list[int]:
    tokens = spec.replace(",", " ").split()
    out = []
    for t in tokens:
        if labels and t in labels:
            out.append(labels[t])
            continue
        try:
            out.append(int(t))
        except ValueError:
            raise ValueError(
                f"ordering token {t!r} is neither an integer nor a known label") from None
    return out


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _jobs(text: str) -> int:
    """``scan --jobs``: at least 1, at most the number of CPUs."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", nargs="?", default="-",
                   help="graph file (graph6 or edge list); '-' for stdin")
    p.add_argument("--format", choices=("auto", "graph6", "edgelist"),
                   default="auto")
    p.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="searchorder",
        description="Graph search orderings: run, validate, classify, compare.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="structural class flags for one graph")
    _add_input_args(p)

    p = sub.add_parser("validate", help="check an ordering against a paradigm")
    _add_input_args(p)
    p.add_argument("--kind", required=True)
    p.add_argument("--ordering", required=True,
                   help="comma- or space-separated vertex indices or labels")
    p.add_argument("--labels", default=None,
                   help="optional file mapping vertex labels to indices")

    p = sub.add_parser("run", help="execute one search")
    _add_input_args(p)
    p.add_argument("--kind", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--start", type=int, default=None)

    p = sub.add_parser("enumerate", help="all orderings a paradigm can produce")
    _add_input_args(p)
    p.add_argument("--kind", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = sub.add_parser("equiv", help="subset/equality of two paradigms' orderings")
    _add_input_args(p)
    p.add_argument("--kind-x", required=True)
    p.add_argument("--kind-y", required=True)
    p.add_argument("--relation", choices=("subset", "equal"), default="subset")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = sub.add_parser("scan",
                       help="bulk theorem verification over graph6 lines")
    p.add_argument("input", nargs="?", default="-",
                   help="file of graph6 lines; '-' for stdin")
    p.add_argument("--theorem", choices=THEOREMS + ("all",), default="all")
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="worker processes (at most the number of CPUs)")

    return parser


def cmd_classify(args) -> int:
    g = _read_graph(args)
    label = recognize_structure(g)
    payload = label.to_dict()
    if label.class_a is None:
        print("graph is disconnected; class flags unavailable", file=sys.stderr)
        return EXIT_DISCONNECTED
    hits = {}
    if not label.class_a:
        for pattern in (P4, C4, PAW, DIAMOND):
            hit = find_induced_small(g, pattern)
            if hit:
                hits["class_a_hit"] = hit.to_dict()
                break
    if not label.class_b:
        hit = find_induced_pan(g) or find_induced_small(g, DIAMOND)
        if hit:
            hits["class_b_hit"] = hit.to_dict()
    if not label.class_c:
        hit = find_induced_small(g, P4) or find_induced_small(g, C4)
        if hit:
            hits["class_c_hit"] = hit.to_dict()
    payload.update(hits)
    _emit(payload, args.json)
    return EXIT_OK


def cmd_validate(args) -> int:
    g = _read_graph(args)
    kind = SearchKind.from_name(args.kind)
    labels = _load_labels(args.labels) if args.labels else None
    ordering = _parse_ordering(args.ordering, labels)
    ok, witness = is_search_ordering(g, ordering, kind)
    payload = {"kind": kind.value, "ordering": ordering, "valid": ok}
    if isinstance(witness, PointViolation):
        payload["violation"] = witness.to_dict()
    elif witness is not None:
        payload["violating_vertex"] = witness
    _emit(payload, args.json)
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_run(args) -> int:
    g = _read_graph(args)
    kind = SearchKind.from_name(args.kind)
    ordering = run_search(g, kind, TieBreak(args.seed), start=args.start)
    if args.json:
        print(json.dumps({"kind": kind.value, "ordering": list(ordering)}))
    else:
        print(" ".join(str(v) for v in ordering))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    g = _read_graph(args)
    kind = SearchKind.from_name(args.kind)
    result = enumerate_orderings(g, kind, cap=args.cap)
    if args.json:
        print(json.dumps({"kind": kind.value,
                          "orderings": [list(o) for o in result.orderings],
                          "count": len(result.orderings),
                          "truncated": result.truncated}))
    else:
        for ordering in result.orderings:
            print(" ".join(str(v) for v in ordering))
        suffix = " TRUNCATED" if result.truncated else ""
        print(f"count: {len(result.orderings)}{suffix}")
    return EXIT_TRUNCATED if result.truncated else EXIT_OK


def cmd_equiv(args) -> int:
    g = _read_graph(args)
    kind_x = SearchKind.from_name(args.kind_x)
    kind_y = SearchKind.from_name(args.kind_y)
    fn = orderings_subset if args.relation == "subset" else orderings_equal
    report = fn(g, kind_x, kind_y, cap=args.cap)
    _emit(report.to_dict(), args.json)
    return {True: EXIT_OK, False: EXIT_NEGATIVE,
            None: EXIT_TRUNCATED}[report.verdict]


def _scan_one(item: tuple[int, str, tuple[str, ...]]) -> dict:
    lineno, line, theorems = item
    result = {"lineno": lineno, "graph6": line.strip(), "skipped": None,
              "inconsistencies": []}
    try:
        g = parse_graph6(line)
    except Graph6ParseError as exc:
        result["skipped"] = f"parse error: {exc}"
        return result
    try:
        for theorem in theorems:
            report = check_theorem(g, theorem)
            for name, value in report.items:
                if value != report.structural_prediction:
                    result["inconsistencies"].append(
                        {"theorem": theorem, "item": name,
                         "structural": report.structural_prediction,
                         "behavioral": value})
    except DisconnectedGraphError:
        result["skipped"] = "disconnected graph"
    except SizeGuardError as exc:
        result["skipped"] = str(exc)
    return result


def cmd_scan(args) -> int:
    if args.input == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.input) as fh:
            lines = fh.read().splitlines()
    theorems = THEOREMS if args.theorem == "all" else (args.theorem,)
    work = [(i, line, theorems) for i, line in enumerate(lines, start=1)
            if line.strip()]
    started = time.monotonic()
    if args.jobs > 1:
        with Pool(args.jobs) as pool:
            results = pool.map(_scan_one, work)
    else:
        results = [_scan_one(item) for item in work]
    elapsed_ms = int((time.monotonic() - started) * 1000)
    processed = 0
    skipped = []
    inconsistencies = []
    for result in results:
        if result["skipped"]:
            skipped.append((result["lineno"], result["skipped"]))
            continue
        processed += 1
        for inc in result["inconsistencies"]:
            inconsistencies.append((result["graph6"], inc))
    for graph6, inc in sorted(inconsistencies,
                              key=lambda x: (x[0], x[1]["theorem"], x[1]["item"])):
        print(json.dumps({"graph6": graph6, **inc}))
    print(f"scan: {processed} graphs processed, "
          f"{len(inconsistencies)} inconsistencies, "
          f"{len(skipped)} lines skipped, {elapsed_ms} ms", file=sys.stderr)
    for lineno, reason in skipped:
        print(f"  skipped line {lineno}: {reason}", file=sys.stderr)
    return EXIT_OK if not inconsistencies else EXIT_NEGATIVE


_COMMANDS = {
    "classify": cmd_classify,
    "validate": cmd_validate,
    "run": cmd_run,
    "enumerate": cmd_enumerate,
    "equiv": cmd_equiv,
    "scan": cmd_scan,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DisconnectedGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
