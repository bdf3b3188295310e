"""Benchmark of searchorder: four seeded workloads, timed from outside
through the package's public functions, each checked against references.

    python3 bench/run.py --workload theorem_scan --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

One workload runs serially in this process, with no threads and no worker
processes.  With ``--trace 0`` it repeats whole passes over its inputs for
``--seconds``, scales every duration to a reference kernel's nominal
speed (see calibrate.py), takes each operation's median over the passes,
and reports the end-to-end metrics named in BENCHMARK.json.  With
``--trace 1`` it runs one pass traced between two untraced ones, and
reports the per-layer metrics and the tracing overhead against the mean of
the untraced passes, unscaled, writing every span to ``bench/out/``.
``--workload all`` runs each workload in a fresh process of its own and
prints every metric with its unit and sample count.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the full
report, with each workload's own metric names, sample counts, the failures
and the run metadata.  Exit status: 0 when every output passed its check,
1 when one did not, 2 when the package source under ``src/`` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from calibrate import NOMINAL_S, Reference, timed_kernel
from spans import LAYER_METRICS, Tracer, layer_metrics, self_times
from workloads import WORKLOADS, Checks, metric, plain_calls

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 9
SETUP_KERNELS = 5  # kernel runs that scale each set-up


def import_package() -> SimpleNamespace:
    """Import searchorder afresh from src/, dropping any earlier import, so
    that set-up can be timed more than once in one process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "searchorder" or m.startswith("searchorder.")]:
        del sys.modules[name]
    so = importlib.import_module("searchorder")
    if Path(so.__file__).resolve().parent != SRC / "searchorder":
        raise ImportError(f"searchorder imported from {so.__file__}, not {SRC}")
    return SimpleNamespace(
        so=so,
        cli=importlib.import_module("searchorder.cli"),
        equivalence=importlib.import_module("searchorder.equivalence"),
        inventory=importlib.import_module("searchorder.inventory"))


def git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for row in (git / "packed-refs").read_text().splitlines():
            if row.endswith(" " + ref):
                return row.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package source and data, identifying the code
    measured where there is no commit."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "searchorder").rglob("*")):
        if path.suffix in (".py", ".g6"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata(seed: int, load_1m: float) -> dict:
    return {"python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "commit": git_commit(),
            "source_sha256": source_digest(),
            "seed": seed,
            "loadavg_1m_at_start": load_1m,
            "jobs": 1,
            "threads": "none started: workloads run serially in one process, "
                       "and scan runs with --jobs 1"}


def set_up(name: str, seed: int, smoke: bool):
    """Import plus input generation, repeated; the last one is used.
    Returns each set-up time, measured and at nominal speed, the latter
    scaled by kernel runs taken right after it."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        api = import_package()
        workload = WORKLOADS[name](api, seed, smoke)
        elapsed = time.perf_counter() - start
        kernel = statistics.median(timed_kernel() for _ in range(SETUP_KERNELS))
        times.append((elapsed, elapsed * NOMINAL_S / kernel))
    return api, workload, times


def measure(workload, calls, seconds: float, reference: Reference,
            checks: Checks) -> tuple[list, float]:
    """Whole passes until another one would end after ``seconds``, and the
    peak resident set size in MB after the first pass.

    Each pass's outputs are checked when it ends and then dropped, but for
    the first pass's.  The peak is read after the first pass because the
    allocator's fragmentation still adds megabytes with every later pass,
    and the number of passes follows the machine's speed."""
    passes = []
    start = time.perf_counter()
    while True:
        p = workload.run_pass(calls, reference)
        workload.check(p, checks)
        if passes:
            p.outputs.clear()
        else:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes.append(p)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, peak_mb


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, wrong_first: bool = False) -> dict:
    """Run one workload and return its full report."""
    load_1m = os.getloadavg()[0]
    api, workload, setup_times = set_up(name, seed, smoke)
    checks = Checks(wrong_first)
    plain = plain_calls(api)
    report = {"workload": name, "seed": seed, "trace": int(trace),
              "metadata": metadata(seed, load_1m),
              "composition": workload.composition(),
              "aliases": workload.aliases}
    if not trace:
        reference = Reference()
        passes, peak_mb = measure(workload, plain, seconds, reference, checks)
        workload.finish(plain, checks, passes[0])
        metrics = workload.metrics(passes)
        metrics["setup_s"] = metric(
            statistics.median(scaled for _, scaled in setup_times), "s",
            len(setup_times))
        metrics["peak_rss_mb"] = metric(peak_mb, "MB", 1)
        scales = [reference.scale(at) for at in reference.stamps]
        report.update(passes=len(passes), calibration={
            "kernel_runs": len(reference.times),
            "scale_min": min(scales), "scale_median": statistics.median(scales),
            "scale_max": max(scales),
            "setup_s_measured": statistics.median(t for t, _ in setup_times)})
    else:
        untraced = workload.run_pass(plain)
        tracer = Tracer()
        traced_calls = tracer.calls(plain)
        modules = {"equivalence": api.equivalence, "cli": api.cli}
        with tracer.rebound(modules):
            traced = workload.run_pass(traced_calls)
        after = workload.run_pass(plain)  # with the first, cancels steady drift
        with tracer.rebound(modules):
            workload.finish(traced_calls, checks, untraced)
        workload.check(untraced, checks)
        workload.check(after, checks)
        workload.check(traced, checks)
        metrics = layer_metrics(tracer.spans)
        plain_s = (untraced.seconds + after.seconds) / 2
        overhead = traced.seconds - plain_s
        metrics["trace.overhead_s"] = metric(overhead, "s", 1)
        metrics["trace.overhead_ratio"] = metric(overhead / plain_s, "ratio", 1)
        trace_file = OUT / f"trace-{name}-{seed}.json"
        tracer.write(trace_file, {"workload": name, "metadata": report["metadata"]})
        report.update(trace_file=str(trace_file.relative_to(ROOT)),
                      spans=len(tracer.spans),
                      self_times_s=self_times(tracer.spans),
                      layer_map={k: {"moves": v[1], "on": v[2]}
                                 for k, v in LAYER_METRICS.items()})
    metrics["failed_ratio"] = metric(checks.failed / max(1, checks.attempted),
                                     "ratio", checks.attempted)
    report.update(correct=checks.failed == 0, attempted=checks.attempted,
                  failed=checks.failed, failures=checks.failures, metrics=metrics)
    return report


def result_line(report: dict, bench: dict) -> dict:
    """The last stdout line: exactly the metrics BENCHMARK.json names for
    this mode, under those names."""
    wanted = bench["per_layer"] if report["trace"] else bench["end_to_end"]
    metrics = {}
    for spec in wanted:
        measured = report["metrics"][report["aliases"].get(spec["name"], spec["name"])]
        if measured["unit"] != spec["unit"]:
            raise ValueError(f"{spec['name']}: measured in {measured['unit']}, "
                             f"BENCHMARK.json says {spec['unit']}")
        metrics[spec["name"]] = {"value": measured["value"], "unit": spec["unit"]}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def run_all(args, bench: dict) -> int:
    """Each workload in a fresh process; prints every metric by name."""
    reports = []
    for spec in bench["workloads"]:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", spec["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        proc = subprocess.run(command, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        report = json.loads(lines[-2])
        reports.append(report)
        print(f"{spec['name']}: {spec['why']}")
        for name, m in report["metrics"].items():
            print(f"  {name:32} {m['value']:>14.6g} {m['unit']:6} n={m['samples']}")
    print(json.dumps({"correct": all(r["correct"] for r in reports),
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": sum(r["failed"] for r in reports),
                      "metrics": {r["workload"]: r["metrics"] for r in reports}}))
    return 0 if all(r["correct"] for r in reports) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "searchorder" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'searchorder'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, bench)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          smoke=args.smoke)
    print(json.dumps(report))
    print(json.dumps(result_line(report, bench)))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
