"""Re-measure the ROADMAP item 1 claims on the benchmark's generated inputs.

    python3 perfbench/roadmap_check.py [--seed N]

Prints one JSON object: best-of-3 seconds for ``parse_gmt`` and ``merge``
(dedup, fold-alt) on 4k- and 16k-word layers and their ratio, the wall time
of a bare interpreter start and of ``import gmtannot.cli``, and the time to
resolve 200 phrase segments against a 4k-word layer.  Inputs are written
under ``.perfbench/`` and removed afterwards.
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import worker

lib = worker.lib


def best_of(fn, reps: int = 3) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def startup_s(code: str, reps: int = 7) -> float:
    env = {"PYTHONPATH": str(worker.SRC)}
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    work = worker.ROOT / ".perfbench" / "roadmap_check"
    out: dict[str, object] = {"python": sys.version.split()[0]}
    try:
        for words in (4000, 16000):
            path = work / f"align{words}"
            truth = gen.generate("align", args.seed, path, words / gen.SIZES["align"]["words"])
            texts = [(path / f).read_text(encoding="utf-8") for f in truth["layers"]]
            docs = [lib.parse_gmt(t)[0] for t in texts]
            out[f"parse_gmt_s@{words}"] = best_of(lambda: lib.parse_gmt(texts[0]))
            for policy in ("dedup", "fold-alt"):
                merge_policy = lib.MergePolicy(on_parallel=policy)
                out[f"merge_{policy}_s@{words}"] = best_of(lambda: lib.merge(docs[:2], merge_policy))
        for stage in ("parse_gmt", "merge_dedup", "merge_fold-alt"):
            out[f"{stage}_growth_4k_to_16k"] = out[f"{stage}_s@16000"] / out[f"{stage}_s@4000"]
        # Bytecode is compiled first, as run.py does before every run.
        compileall.compile_dir(worker.SRC, quiet=1)
        bare = startup_s("pass")
        out["interpreter_start_s"] = bare
        out["import_gmtannot_cli_s"] = startup_s("import gmtannot.cli")
        out["import_gmtannot_cli_minus_start_s"] = out["import_gmtannot_cli_s"] - bare
        path = work / "anchor4000"
        scale = 4000 / gen.SIZES["anchor"]["words"]
        gen.generate("anchor", args.seed, path, scale)
        layer = lib.parse_gmt((path / "words.xml").read_text(encoding="utf-8"))[0]
        phrases = lib.parse_gmt((path / "phrases.xml").read_text(encoding="utf-8"))[0]
        segs = [item for node in phrases.root.children for item in node.items
                if isinstance(item, lib.SegmentRef)][:200]
        out["layer_segments"] = len(segs)
        out["layer_targets"] = sum(len(s.addr.ids) for s in segs)
        out["resolve_200_layer_segs_4k_s"] = best_of(
            lambda: [lib.resolve_seg(s, layers={"words": layer}) for s in segs], reps=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
