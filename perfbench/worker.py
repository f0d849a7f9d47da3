"""One benchmark process: set up one workload, run its ops, report as JSON.

Started by ``run.py`` in a fresh interpreter for every run.  It runs a closed
loop with one client: the next op starts only after the previous one and its
check have finished.  With ``--trace`` every other op goes through traced
wrappers around gmtannot's public functions, and per-layer metrics are
derived from the recorded spans.

    python3 perfbench/worker.py --workload W --inputs DIR [--seconds S]
        [--min-ops N] [--trace-out FILE --growth-inputs DIR4] [--setup-only]
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import gmtannot as lib  # noqa: E402

import host  # noqa: E402
import workloads  # noqa: E402

#: Ops between two samples of the calibration loop in a traced run.
CALIB_EVERY = 10
MERGE_POLICIES = ("keep-all", "dedup", "fold-alt")
AGRAPH_STAGES = ("parse_ag", "ag_to_gmt", "gmt_to_ag", "canonicalize_ag", "serialize_ag")
CLI_COMMANDS = ("validate", "resolve", "merge", "diff", "convert")


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans and counts recorded around calls into gmtannot, kept in memory.

    A span is ``[name, start, end, parent, op, counts, error]``; ``parent``
    is the index of the enclosing span (-1 for an op span).  Counts are
    taken after the call returns, outside the span.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self.current = -1
        self._sizes: dict[int, tuple[object, int, int]] = {}

    def begin_op(self, op: int, start: float) -> None:
        self.op, self.current = op, len(self.spans)
        self.spans.append(["op", start, 0.0, -1, op, None, None])

    def end_op(self, end: float) -> None:
        self.spans[self.current][2] = end
        self.current = -1
        self._sizes.clear()

    def wrap(self, name, fn, counts):
        spans, clock = self.spans, time.perf_counter

        def traced(*args, **kwargs):
            record = [name(args) if callable(name) else name, 0.0, 0.0, self.current, self.op, None, None]
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[2] = clock()
                record[6] = type(exc).__name__
                raise
            record[2] = clock()
            record[5] = counts(self, args, result)
            return result

        return traced

    def _size(self, obj) -> tuple[int, int]:
        """(struct nodes, features) of a document or node, alternatives included."""
        cached = self._sizes.get(id(obj))
        if cached is not None and cached[0] is obj:
            return cached[1], cached[2]
        nodes = features = 0
        stack = list(obj.roots) if isinstance(obj, lib.GmtDocument) else [obj]
        while stack:
            node = stack.pop()
            nodes += 1
            stack.extend(node.children)
            for item in node.items:
                if isinstance(item, lib.Feature):
                    features += 1
                elif isinstance(item, lib.AltSet):
                    for bundle in item.alternatives:
                        for member in bundle:
                            if isinstance(member, lib.Feature):
                                features += 1
                            else:
                                stack.append(member)
        self._sizes[id(obj)] = (obj, nodes, features)
        return nodes, features

    def nodes(self, obj) -> int:
        return self._size(obj)[0]

    def features(self, obj) -> int:
        return self._size(obj)[1]


def api_table() -> dict[str, tuple]:
    """Benchmark-side name -> (span name, public function, counts)."""
    return {
        "parse_gmt": ("xml_io.parse_gmt", lib.parse_gmt, lambda t, a, r: {
            "nodes": a[0].count("<struct"), "warnings": len(r[1].warnings)}),
        "serialize_gmt": ("xml_io.serialize_gmt", lib.serialize_gmt, lambda t, a, r: {
            "nodes": r.count("<struct")}),
        "validate_structure": ("model.validate_structure", lib.validate_structure, lambda t, a, r: {
            "nodes": t.nodes(a[0]), "findings": len(r.findings)}),
        "validate_categories": ("registry.validate_categories", lib.validate_categories, lambda t, a, r: {
            "features": t.features(a[0]), "findings": len(r.findings)}),
        "resolve_token": ("anchoring.resolve_seg.token", lib.resolve_seg, lambda t, a, r: {"segs": 1}),
        "resolve_layer": ("anchoring.resolve_seg.layer", lib.resolve_seg, lambda t, a, r: {"segs": 1}),
        "resolve_landmark": ("anchoring.resolve_seg.landmark", lib.resolve_seg, lambda t, a, r: {"segs": 1}),
        "derived_extent": ("anchoring.derived_extent", lib.derived_extent, lambda t, a, r: {
            "nodes": t.nodes(a[0])}),
        "build_landmark_table": ("anchoring.build_landmark_table", lib.build_landmark_table,
                                 lambda t, a, r: {"landmarks": len(r)}),
        "merge": (lambda a: f"merge.merge.{a[1].on_parallel}", lib.merge, lambda t, a, r: {
            "in_nodes": sum(t.nodes(d) for d in a[0]), "out_nodes": t.nodes(r), "warnings": len(a[2])}),
        "diff": ("merge.diff", lib.diff, lambda t, a, r: {"nodes": t.nodes(a[0]) + t.nodes(a[1])}),
        "parse_ag": ("agraph.parse_ag", lib.parse_ag, lambda t, a, r: {"arcs": len(r.arcs)}),
        "ag_to_gmt": ("agraph.ag_to_gmt", lib.ag_to_gmt, lambda t, a, r: {"arcs": len(a[0].arcs)}),
        "gmt_to_ag": ("agraph.gmt_to_ag", lib.gmt_to_ag, lambda t, a, r: {"arcs": len(r.arcs)}),
        "canonicalize_ag": ("agraph.canonicalize_ag", lib.canonicalize_ag, lambda t, a, r: {
            "arcs": len(a[0].arcs)}),
        "serialize_ag": ("agraph.serialize_ag", lib.serialize_ag, lambda t, a, r: {"arcs": len(a[0].arcs)}),
        "cli": (lambda a: f"cli.{a[0]}", workloads.run_cli, lambda t, a, r: {
            "exit": r.returncode}),
    }


def plain_api() -> SimpleNamespace:
    return SimpleNamespace(**{attr: fn for attr, (_, fn, _) in api_table().items()})


def traced_api(tracer: Tracer) -> SimpleNamespace:
    return SimpleNamespace(**{attr: tracer.wrap(name, fn, counts)
                              for attr, (name, fn, counts) in api_table().items()})


class Stage:
    def __init__(self) -> None:
        self.calls = 0
        self.dur = 0.0
        self.self_time = 0.0
        self.counts: dict[str, int] = {}
        self.errors: dict[str, int] = {}


def aggregate(spans: list[list]) -> tuple[dict[str, Stage], int]:
    """Per span name: calls, total and self time, summed counts; plus the op count."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    stages: dict[str, Stage] = {}
    for index, (name, start, end, parent, _, counts, error) in enumerate(spans):
        stage = stages.setdefault(name, Stage())
        stage.calls += 1
        stage.dur += end - start
        stage.self_time += end - start - covered[index]
        for key, value in (counts or {}).items():
            stage.counts[key] = stage.counts.get(key, 0) + value
        if error:
            stage.errors[error] = stage.errors.get(error, 0) + 1
    ops = stages.pop("op", Stage()).calls
    return stages, ops


def per_call_by_op(spans: list[list]) -> dict[str, dict[int, float]]:
    """Per span name and op: mean seconds per call within that op."""
    sums: dict[tuple[str, int], list[float]] = {}
    for name, start, end, parent, op, *_ in spans:
        if parent >= 0:
            entry = sums.setdefault((name, op), [0.0, 0])
            entry[0] += end - start
            entry[1] += 1
    out: dict[str, dict[int, float]] = {}
    for (name, op), (total, calls) in sums.items():
        out.setdefault(name, {})[op] = total / calls
    return out


def layer_metrics(stages: dict[str, Stage], ops: int, growth: dict[str, float],
                  harness: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric; a stage the workload never calls reads 0."""
    empty = Stage()

    def st(name: str) -> Stage:
        return stages.get(name, empty)

    def self_s(name: str) -> float:
        return st(name).self_time / ops if ops else 0.0

    def us_per(name: str, count: str) -> float:
        n = st(name).counts.get(count, 0)
        return st(name).dur / n * 1e6 if n else 0.0

    def per_op(name: str, count: str) -> float:
        return st(name).counts.get(count, 0) / ops if ops else 0.0

    def errors_per_op(name: str, error: str) -> float:
        return st(name).errors.get(error, 0) / ops if ops else 0.0

    m: dict[str, float] = {}
    for stage, unit in (("xml_io.parse_gmt", "node"), ("xml_io.serialize_gmt", "node"),
                        ("model.validate_structure", "node"),
                        ("registry.validate_categories", "feature")):
        m[f"{stage}.self_s"] = self_s(stage)
        m[f"{stage}.us_per_{unit}"] = us_per(stage, unit + "s")
        m[f"{stage}.growth_x4"] = growth.get(stage, 0.0)
    m["xml_io.parse_gmt.warnings"] = per_op("xml_io.parse_gmt", "warnings")
    m["xml_io.serialize_gmt.refused"] = errors_per_op("xml_io.serialize_gmt", "GmtSerializeError")
    m["model.validate_structure.findings"] = per_op("model.validate_structure", "findings")
    m["registry.validate_categories.findings"] = per_op("registry.validate_categories", "findings")
    m["registry.default_registry.ms"] = harness["default_registry_ms"]
    for kind in ("token", "layer", "landmark"):
        m[f"anchoring.resolve_seg.{kind}.us_per_seg"] = us_per(f"anchoring.resolve_seg.{kind}", "segs")
    m["anchoring.resolve_seg.layer.growth_x4"] = growth.get("anchoring.resolve_seg.layer", 0.0)
    m["anchoring.resolve_seg.unresolved"] = sum(
        errors_per_op(f"anchoring.resolve_seg.{kind}", "UnresolvedTargetError")
        for kind in ("token", "layer", "landmark"))
    m["anchoring.derived_extent.us_per_node"] = us_per("anchoring.derived_extent", "nodes")
    m["anchoring.build_landmark_table.us_per_landmark"] = us_per(
        "anchoring.build_landmark_table", "landmarks")
    for policy in MERGE_POLICIES:
        stage = f"merge.merge.{policy}"
        m[f"{stage}.self_s"] = self_s(stage)
        m[f"{stage}.growth_x4"] = growth.get(stage, 0.0)
        n_in = st(stage).counts.get("in_nodes", 0)
        m[f"{stage}.out_in_ratio"] = st(stage).counts.get("out_nodes", 0) / n_in if n_in else 0.0
    m["merge.merge.warnings"] = sum(per_op(f"merge.merge.{p}", "warnings") for p in MERGE_POLICIES)
    m["merge.diff.self_s"] = self_s("merge.diff")
    m["merge.diff.us_per_node"] = us_per("merge.diff", "nodes")
    m["merge.diff.growth_x4"] = growth.get("merge.diff", 0.0)
    for stage in AGRAPH_STAGES:
        m[f"agraph.{stage}.us_per_arc"] = us_per(f"agraph.{stage}", "arcs")
    m["agraph.roundtrip_mismatch"] = harness["graph_mismatch_per_op"]
    m["cli.import_ms"] = harness["cli_import_ms"]
    for command in CLI_COMMANDS:
        m[f"cli.{command}.p50_ms"] = harness["cli_p50_ms"].get(command, 0.0)
    m["cli.exit_mismatch"] = harness["exit_mismatch_per_op"]
    m["error_rate"] = harness["error_rate"]
    m["gc.gen2_per_op"] = harness["gen2_per_op"]
    m["trace.overhead_pct"] = harness["overhead_pct"]
    m["host.calib_ms"] = harness["calib_ms"]
    return m


# ---------------------------------------------------------------------------
# harness probes


def cli_import_ms(reps: int, cpus: list[int]) -> float:
    """Median of (start + import gmtannot.cli) minus a bare interpreter start, paired."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    deltas = []
    for _ in range(reps):
        host.settle(cpus)
        times = []
        for code in ("import gmtannot.cli", "pass"):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times.append(time.perf_counter() - start)
        deltas.append((times[0] - times[1]) * 1000)
    return statistics.median(deltas)


def default_registry_ms(reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        lib.default_registry()
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def gen2_collections() -> int:
    return gc.get_stats()[2]["collections"]


def growth_probe(workload, big, reps: int, cpus: list[int]) -> tuple[dict[str, float], list[list]]:
    """Per-call time of each stage on 4x inputs over that on the run's inputs.

    Ops on the two sizes alternate, so that a drift in host speed hits both.
    """
    tracer = Tracer()
    api = traced_api(tracer)
    for i in range(2 * reps):
        target = big if i % 2 else workload
        target.prepare(i)
        host.settle(cpus)
        tracer.begin_op(i, time.perf_counter())
        target.op(api, i // 2)
        tracer.end_op(time.perf_counter())
    growth = {}
    for name, by_op in per_call_by_op(tracer.spans).items():
        small = [t for op, t in by_op.items() if op % 2 == 0]
        large = [t for op, t in by_op.items() if op % 2 == 1]
        if small and large:
            growth[name] = statistics.median(large) / statistics.median(small)
    return growth, tracer.spans


# ---------------------------------------------------------------------------
# the run


def run(args: argparse.Namespace) -> dict:
    workload = workloads.make(args.workload, lib, args.inputs, SRC)
    ready = time.monotonic()
    tracing = args.trace_out is not None
    tracer = Tracer()
    apis = (plain_api(), traced_api(tracer) if tracing else None)
    # Op times scaled to the reference host (see host.py), untraced and traced.
    durations: tuple[list[float], list[float]] = ([], [])
    wall: list[float] = []
    failures: list[tuple[int, str]] = []
    calib: list[float] = []
    gen2 = 0
    gc.collect()
    loop_start = time.perf_counter()
    i = 0
    while i < args.min_ops or time.perf_counter() - loop_start < args.seconds:
        traced = tracing and i % 2 == 1
        workload.prepare(i)
        speed = host.settle(args.cpus)
        if tracing and i % CALIB_EVERY == 0:
            calib.append(host.calibrate())
        g0 = gen2_collections()
        start = time.perf_counter()
        if traced:
            tracer.begin_op(i, start)
        try:
            result = workload.op(apis[traced], i)
            error = None
        except Exception as exc:  # an op failure is counted, never retried
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(limit=3)
        end = time.perf_counter()
        if traced:
            tracer.end_op(end)
        gen2 += gen2_collections() - g0
        durations[traced].append((end - start) * speed)
        wall.append(end - start)
        if error is None:
            error = workload.check(i, result)
        if error is not None:
            failures.append((i, error))
        i += 1
    out = {
        "ready": ready,
        "durations": durations[0],
        "wall_p50_ms": statistics.median(wall) * 1000,
        "failures": failures,
        "rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli"
                                     else resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracing:
        ops = len(durations[0]) + len(durations[1])
        growth, probe_spans = ({}, []) if args.workload == "cli" else growth_probe(
            workload, workloads.make(args.workload, lib, args.growth_inputs, SRC), args.growth_reps,
            args.cpus)
        stages, traced_ops = aggregate(tracer.spans)
        cli_p50 = {}
        for command in CLI_COMMANDS:
            spans = [s for s in tracer.spans if s[0] == f"cli.{command}"]
            if spans:
                cli_p50[command] = statistics.median((s[2] - s[1]) * 1000 for s in spans)
        harness = {
            "default_registry_ms": default_registry_ms(5),
            "cli_import_ms": cli_import_ms(args.import_reps, args.cpus),
            "cli_p50_ms": cli_p50,
            "graph_mismatch_per_op": workload.mismatches["graph"] / ops,
            "exit_mismatch_per_op": workload.mismatches["exit"] / ops,
            "error_rate": len(failures) / ops,
            "gen2_per_op": gen2 / ops,
            "overhead_pct": (statistics.median(durations[1]) / statistics.median(durations[0]) - 1) * 100,
            "calib_ms": statistics.median(calib),
        }
        out["layers"] = layer_metrics(stages, traced_ops, growth, harness)
        out["meta"] = {
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": workload.truth["seed"], "nodes": workload.truth["nodes"],
            "bytes": workload.truth["bytes"], "ops": ops, "traced_ops": traced_ops, "growth": growth,
        }
        with gzip.open(args.trace_out, "wt", encoding="utf-8") as fh:
            json.dump({"meta": out["meta"], "metrics": out["layers"],
                       "failures": failures, "spans": tracer.spans,
                       "growth_spans": probe_spans}, fh)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("roundtrip", "align", "anchor", "cli"), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--min-ops", type=int, default=100)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--growth-inputs", type=Path)
    parser.add_argument("--growth-reps", type=int, default=5)
    parser.add_argument("--import-reps", type=int, default=7)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cpus", type=lambda v: [int(c) for c in v.split(",")],
                        default=sorted(os.sched_getaffinity(0)),
                        help="CPUs the op loop may move between (default: its affinity)")
    args = parser.parse_args()
    if args.setup_only:
        workloads.make(args.workload, lib, args.inputs, SRC)
        result = {"ready": time.monotonic()}
    else:
        result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
