"""The package's public surface, and the test oracles' independence of it."""
from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

import d2dlab
from d2dlab import simulator

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
BENCHMARK_WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_every_exported_name_resolves():
    missing = [name for name in d2dlab.__all__ if not hasattr(d2dlab, name)]
    assert missing == []
    assert len(set(d2dlab.__all__)) == len(d2dlab.__all__)
    namespace: dict = {}
    exec("from d2dlab import *", namespace)
    assert set(d2dlab.__all__) <= set(namespace)


def benchmark_imports() -> set[str]:
    """The d2dlab names bench/workloads.py imports."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "d2dlab" and node.level == 0
        for alias in node.names
    }


def test_names_the_benchmark_imports_are_exported():
    """bench/workloads.py fixes the public API: every name it imports is in __all__."""
    names = benchmark_imports()
    assert names
    assert sorted(names - set(d2dlab.__all__)) == []


def test_every_exported_name_is_reached_by_the_package_or_the_benchmark():
    """A name in __all__ is read or imported by some d2dlab module other than
    __init__.py, or imported by bench/workloads.py. A name only the tests
    reach belongs in the tests."""
    reached = set()
    for path in Path(d2dlab.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reached.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                reached.update(alias.name for alias in node.names)
    assert sorted(set(d2dlab.__all__) - reached - benchmark_imports()) == []


def test_oracles_import_only_the_popularity_model():
    """tests/oracles.py stays independent of the code it checks: the one
    d2dlab name it imports is PopularityModel."""
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "d2dlab":
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.split(".")[0] == "d2dlab")
    assert imported == {"PopularityModel"}


@pytest.mark.parametrize("name", BENCHMARK_WORKLOADS)
def test_one_benchmark_pass(name, tmp_path, monkeypatch):
    """Each benchmark workload's tiny pass still runs and checks out, so a break
    in any library call the benchmark makes shows here."""
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer
    from workloads import WORKLOADS

    assert sorted(WORKLOADS) == sorted(BENCHMARK_WORKLOADS)
    tracer = Tracer(False)
    workload = WORKLOADS[name](3, "tiny", tmp_path, tracer)
    workload.check(workload.run_pass(tracer))


def test_one_benchmark_mc_large_cache_pass_in_strips(tmp_path, monkeypatch):
    """The benchmark's mc_large_cache pass checks out when its trials run in strips.

    The tiny size holds 4,000 cache entries a trial, under the default
    budget, so the budget is set below one cluster row (2,000 entries) to
    put it on the strip path.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer
    from workloads import WORKLOADS

    monkeypatch.setattr(simulator, "_BATCH_ENTRIES", 1_000)
    tracer = Tracer(False)
    workload = WORKLOADS["mc_large_cache"](3, "tiny", tmp_path, tracer)
    out = workload.run_pass(tracer)
    net = out["network"]
    row_entries = net.n_users * net.cluster_side // net.side * workload.config.s_cache
    assert row_entries > simulator._BATCH_ENTRIES  # one row a strip
    workload.check(out)
