"""Tests of the benchmark itself: seeded inputs, the oracle, and the printed names."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import workloads
import worker

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def files(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload, tmp_path):
    gen.generate(workload, 7, tmp_path / "a", 0.2)
    gen.generate(workload, 7, tmp_path / "b", 0.2)
    gen.generate(workload, 8, tmp_path / "c", 0.2)
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert files(tmp_path / "a") != files(tmp_path / "c")


@pytest.mark.parametrize("workload", gen.WORKLOADS)
@pytest.mark.parametrize("scale", [0.05, 0.2])
def test_oracle_agrees_with_library(workload, scale, tmp_path):
    gen.generate(workload, 3, tmp_path, scale)
    load = workloads.make(workload, worker.lib, tmp_path, worker.SRC)
    api = worker.plain_api()
    # Every CLI command once; two passes over the other workloads' inputs.
    for i in range(len(load.commands) if workload == "cli" else 2):
        load.prepare(i)
        assert load.check(i, load.op(api, i)) is None


def test_oracle_sees_a_wrong_result(tmp_path):
    gen.generate("roundtrip", 3, tmp_path, 0.05)
    load = workloads.make("roundtrip", worker.lib, tmp_path, worker.SRC)
    text, structure, categories = load.op(worker.plain_api(), 0)
    assert load.check(0, (text.replace("W-level", "W-Level", 1), structure, categories))
    assert load.check(0, (text, structure, type(categories)(categories.findings[1:])))


def test_workload_names_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(gen.WORKLOADS)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", trace, "--quick"],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
