"""The package's public surface, and the test oracles' independence of it."""
from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import d2dlab
from d2dlab import simulator

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
BENCHMARK_WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The modules whose public names the namespace exports, in its order:
# every module but cli, the command line.
MODULES = ("analysis", "fixtures", "ingest", "network", "policy", "popularity", "simulator")
PACKAGE = Path(d2dlab.__file__).parent


def printed_by(script: str) -> str:
    """What script prints, run in a fresh process that finds this d2dlab."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_importing_the_package_loads_no_module():
    """The namespace resolves its names on first access, so a process that
    reads none of them loads none of the modules."""
    script = "import sys, d2dlab\nprint(sorted(m for m in sys.modules if m.startswith('d2dlab')))\n"
    assert printed_by(script) == "['d2dlab']\n"


@pytest.mark.parametrize("read, modules", [
    ("d2dlab.policy", ["network", "policy", "popularity"]),
    ("d2dlab.write_region_log", ["fixtures", "network", "popularity"]),
], ids=["module", "name"])
def test_reading_the_namespace_loads_only_what_it_reads(read, modules):
    """Reading a module, or one of its names, loads that module and its own
    imports, and leaves numpy.random unloaded."""
    script = (f"import sys, d2dlab\n{read}\n"
              "print(sorted(m for m in sys.modules if m.startswith('d2dlab')),"
              " 'numpy.random' in sys.modules)\n")
    loaded = ["d2dlab", *(f"d2dlab.{module}" for module in modules)]
    assert printed_by(script) == f"{loaded} False\n"


def top_level_names(path: Path) -> set[str]:
    """The names a module's own source binds at top level by def, class or
    assignment; a name it only imports is not one of them."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return names


def test_namespace_exports_each_module_public_names():
    """_EXPORTS is the one list of public names: for each module, the names
    its own source binds at top level without a leading underscore."""
    assert sorted(path.stem for path in PACKAGE.glob("*.py")) == sorted(
        ["__init__", "cli", *MODULES])
    assert list(d2dlab._EXPORTS) == list(MODULES)
    exported = [name for names in d2dlab._EXPORTS.values() for name in names]
    assert d2dlab.__all__ == ["__version__", *exported]
    for module_name, names in d2dlab._EXPORTS.items():
        bound = top_level_names(PACKAGE / f"{module_name}.py")
        assert sorted(names) == sorted(n for n in bound if not n.startswith("_")), module_name
        module = importlib.import_module(f"d2dlab.{module_name}")
        assert getattr(d2dlab, module_name) is module
        for name in names:
            assert getattr(d2dlab, name) is getattr(module, name), name


def test_no_module_but_the_package_assigns_all():
    """No module keeps a list of its public names beside _EXPORTS."""
    assigns = [path.name for path in sorted(PACKAGE.glob("*.py"))
               if "__all__" in top_level_names(path)]
    assert assigns == ["__init__.py"]


def test_dir_lists_every_exported_name():
    assert sorted(set(d2dlab.__all__) - set(dir(d2dlab))) == []


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'd2dlab' has no attribute 'no_such_name'"):
        d2dlab.no_such_name  # noqa: B018
    assert not hasattr(d2dlab, "_no_such_name")


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


@pytest.mark.parametrize("make", [
    lambda: d2dlab.CachingPolicy(probs=np.array([0.5, 0.5]), water_level=0.5, m_star=2),
    lambda: d2dlab.EmpiricalDistribution(np.array([3.0, 1.0])),
    lambda: d2dlab.TrialOutcome(n_users=2, hits=1, self_hits=0, d2d_available=1,
                                cluster_links=np.array([1]), throughput=np.array([0.25, 0.0])),
], ids=["CachingPolicy", "EmpiricalDistribution", "TrialOutcome"])
def test_types_that_hold_arrays_compare_and_hash_by_identity(make):
    """Comparing two equal objects whose fields hold arrays neither raises
    nor compares the arrays, and the objects can be hashed."""
    a, b = make(), make()
    assert a == a and not a == b and a != b
    assert len({a, b, a}) == 2


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
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reached.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                reached.update(alias.name for alias in node.names)
    assert sorted(set(d2dlab.__all__) - reached - benchmark_imports()) == []


def test_no_module_reads_the_environment():
    """No d2dlab module reads os.environ, os.environb or os.getenv: every
    input comes in through a parameter or a command-line flag."""
    readers = {"environ", "environb", "getenv"}
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        os_names = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names if alias.name == "os"}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in readers
                    and isinstance(node.value, ast.Name) and node.value.id in os_names):
                reads.append(f"{path.name}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{path.name}:{node.lineno} from os import {alias.name}"
                          for alias in node.names if alias.name in readers]
    assert reads == []


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
    budget, so the budget is set to one cluster's entries (1,000) to put it
    on the strip path, one cluster a strip.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer
    from workloads import WORKLOADS

    monkeypatch.setattr(simulator, "_BATCH_ENTRIES", 1_000)
    tracer = Tracer(False)
    workload = WORKLOADS["mc_large_cache"](3, "tiny", tmp_path, tracer)
    out = workload.run_pass(tracer)
    net = out["network"]
    cluster_entries = net.cluster_size * workload.config.s_cache
    assert cluster_entries >= simulator._BATCH_ENTRIES  # one cluster a strip
    workload.check(out)
