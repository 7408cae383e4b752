"""Smoke test of the benchmark at tiny size; not part of the tier-1 suite.

    python3 -m pytest bench/test_smoke.py -q

Every workload runs with --trace 0 and --trace 1 and must print every
metric BENCHMARK.json names, with its unit. Wrong references must count as
failed operations, and a directory without the d2dlab source must fail.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.fixture
def run_module():
    sys.path.insert(0, str(BENCH))
    import run

    yield run
    sys.path.remove(str(BENCH))


@pytest.mark.parametrize("workload", ["mc_large_cache", "sweep_small_cells"])
def test_wrong_hit_reference_fails_every_pass(run_module, workload, tmp_path):
    run = run_module
    wl = run.WORKLOADS[workload](3, "tiny", tmp_path, run.Tracer(False))
    wl.points = [(g_c, seed, reference + 0.1) for g_c, seed, reference in wl.points]
    ops = run.Ops()
    run.run_passes(wl, run.Clock(), run.Tracer(False), ops, seconds=0.0)
    assert ops.attempted == run.MIN_PASSES
    assert len(ops.errors) == ops.attempted
    assert "standard errors from the i.i.d. reference" in ops.errors[0]


def test_cli_output_is_compared_with_the_in_process_result(run_module, tmp_path):
    run = run_module
    wl = run.WORKLOADS["mc_large_cache"](3, "tiny", tmp_path, run.Tracer(False))
    ops = run.Ops()
    _, summary = run.run_passes(wl, run.Clock(), run.Tracer(False), ops, seconds=0.0)
    assert not ops.errors
    run.run_cli(wl, run.Clock(), ops, summary | {"hit_prob": summary["hit_prob"] + 0.01}, 1)
    assert len(ops.errors) == 1 and "hit_prob" in ops.errors[0]


def test_fails_without_the_d2dlab_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "fit_log", "--seed", "0", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
