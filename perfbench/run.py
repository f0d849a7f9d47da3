"""Benchmark entry point: generate one workload's inputs, run it, print the result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The inputs come from the seed alone and
are written under ``.perfbench/``; the workload then runs in fresh worker
processes (see ``worker.py``).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0``
the end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` its
per-layer metrics, taken from a traced run.  The spans of a traced run are
kept in ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import host

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
#: Set-up-only processes started besides the measured one; ``setup_s`` is the
#: median over all of them.
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 150


def spawn(argv: list[str], cpus: list[int]) -> tuple[dict, float]:
    """Run one worker; return its JSON result and its set-up time in seconds.

    Set-up runs from just before the process starts to the moment it is
    ready for its first op, both read on the shared monotonic clock, and is
    scaled to the reference host like op times (see host.py).
    """
    speed = host.settle(cpus)
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER), *argv, "--cpus", ",".join(map(str, cpus))],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"perfbench: worker {' '.join(argv[:2])} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, (result["ready"] - start) * speed


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(result: dict, setups: list[float]) -> dict[str, float]:
    durations = result["durations"]
    return {
        "op_p50_ms": statistics.median(durations) * 1000,
        "op_p90_ms": percentile(durations, 0.9) * 1000,
        "ops_per_s": len(durations) / sum(durations),
        "peak_rss_mb": result["rss_kb"] / 1024,
        "setup_s": statistics.median(setups),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs and few ops, for the benchmark's own tests")
    args = parser.parse_args()
    if not (ROOT / "src" / "gmtannot" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gmtannot sources under {ROOT / 'src'}; run from a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # Byte-compile up front, as an installed package would be, so that no run
    # pays for compiling and PYTHONDONTWRITEBYTECODE does not change the figures.
    for package in (ROOT / "src", WORKER.parent):
        compileall.compile_dir(package, quiet=1)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    cpus = sorted(os.sched_getaffinity(0))
    scale = 0.05 if args.quick else 1.0
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    common = ["--workload", args.workload, "--inputs", str(work / "x1")]
    try:
        gen.generate(args.workload, args.seed, work / "x1", scale)
        if args.trace:
            gen.generate(args.workload, args.seed, work / "x4", 4 * scale)
            traces = ROOT / ".perfbench" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            trace_out = traces / f"{args.workload}-{args.seed}.json.gz"
            reps = ["--growth-reps", "1", "--import-reps", "1"] if args.quick else []
            result, _ = spawn(common + [
                "--seconds", str(args.seconds), "--min-ops", "4" if args.quick else "100",
                "--trace-out", str(trace_out), "--growth-inputs", str(work / "x4")] + reps, cpus)
            values = result["layers"]
            meta = {k: result["meta"][k] for k in ("python", "nproc", "seed", "nodes", "bytes")}
            print(json.dumps({**meta, "trace": str(trace_out.relative_to(ROOT))}), file=sys.stderr)
        else:
            setups = [spawn(common + ["--setup-only"], cpus)[1]
                      for _ in range(0 if args.quick else SETUP_PROBES)]
            result, setup = spawn(common + ["--seconds", str(args.seconds),
                                            "--min-ops", "3" if args.quick else "100"], cpus)
            values = end_to_end(result, setups + [setup])
            print(f"perfbench: unscaled op_p50 {result['wall_p50_ms']:.3f} ms", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(values) != {m["name"] for m in wanted}:
        sys.exit(f"perfbench: metrics {sorted(set(values) ^ {m['name'] for m in wanted})} "
                 "do not match BENCHMARK.json")
    for index, reason in result["failures"]:
        print(f"perfbench: op {index} failed: {reason}", file=sys.stderr)
    attempted = len(result["durations"]) if not args.trace else result["meta"]["ops"]
    failed = len(result["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
