"""d2dlab benchmark: one seeded workload in one process, as a closed loop.

    python3 bench/run.py --workload fit_log --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; d2dlab is imported from its src/
directory, with D2DLAB_THREADS=1, on one CPU. One caller starts each pass
when the previous pass has ended. Times are scaled to a reference speed
(see Clock). With --trace 0 the run reports the end-to-end
metrics named in BENCHMARK.json; with --trace 1 it reports the per-layer
metrics from spans recorded around each call into d2dlab, and writes the
spans to .bench_out/. Either way the run prints a JSON run record and then,
as its last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A failed operation is an exception, a non-zero CLI exit or a failed output
check. bench/README.md describes the workloads and metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Import d2dlab from this checkout's src/ and nowhere else."""
    if not (SRC / "d2dlab" / "__init__.py").is_file():
        sys.exit(f"error: no d2dlab source under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["D2DLAB_THREADS"] = "1"


use_checkout_source()
import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import COUNTS, WORKLOADS, expect  # noqa: E402

WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

SETUP_SAMPLES = 5   # fresh processes timed for setup_s
CLI_RUNS = 5        # CLI runs timed for cli_s
IMPORT_SAMPLES = 3  # fresh `import d2dlab` timed for cli.import_s
MIN_PASSES = 3
TAIL_SAMPLES = 20   # run_trial samples per Monte Carlo point in the traced replay
SUBPROCESS_TIMEOUT_S = 60
IMPORT_PROBE = "import time; t = time.perf_counter(); import d2dlab; print(time.perf_counter() - t)"


def _python_kernel() -> None:
    total = 0
    for i in range(90_000):
        total += i


_WAVE = np.random.default_rng(0).random(350_000) + 0.5
_BUFFERS = (np.empty_like(_WAVE), np.empty_like(_WAVE))


def _array_kernel() -> None:
    # Into preallocated buffers, so the time does not depend on the state
    # of the allocator that the workload left behind.
    a, b = _BUFFERS
    np.log(_WAVE, out=a)
    a /= 7.0
    np.exp(a, out=a)
    np.cumsum(a, out=b)


# Reference kernels (fixed code that never calls d2dlab) and their median
# time on the 2-vCPU sandbox where the benchmark was defined.
KERNELS = {"python": (_python_kernel, 0.0040), "array": (_array_kernel, 0.0025)}
# Interpreter start-up and imports, the bulk of set-up, are interpreter-bound.
CHILD_KERNELS = ("python",)


def _nominal_s(kernels: tuple[str, ...]) -> float:
    return sum(KERNELS[name][1] for name in kernels)


class Clock:
    """Scales wall times to seconds at the reference speed.

    The host's speed swings by up to 1.6x over seconds to minutes as other
    tenants come and go. Every timed sample is bracketed by reference
    kernels of the kind of work it does. A pass (a few seconds at most) is
    scaled by the nominal over the measured time of its own brackets. A
    child process runs too long for its brackets to stand for it, so it is
    scaled by the median bracket time of the whole run. Raw times are kept.
    """

    def __init__(self) -> None:
        self.raw: dict[str, list[float]] = {}
        self._kernel_times: dict[tuple[str, ...], list[float]] = {}

    def _kernel_s(self, kernels: tuple[str, ...]) -> float:
        """Best of three runs of the kernels, so a hiccup does not set the speed."""
        best = float("inf")
        for _ in range(3):
            start = perf_counter()
            for name in kernels:
                KERNELS[name][0]()
            best = min(best, perf_counter() - start)
        self._kernel_times.setdefault(kernels, []).append(best)
        return best

    def time(self, what: str, kernels: tuple[str, ...], fn, *args):
        """fn(*args) and its wall time scaled by its own brackets."""
        before = self._kernel_s(kernels)
        start = perf_counter()
        result = fn(*args)
        elapsed = perf_counter() - start
        after = self._kernel_s(kernels)
        self.raw.setdefault(what, []).append(elapsed)
        return result, elapsed * 2.0 * _nominal_s(kernels) / (before + after)

    def kernel_medians(self) -> dict[str, float]:
        return {"+".join(k): statistics.median(v) for k, v in self._kernel_times.items()}

    def run_scaled(self, kernels: tuple[str, ...], values: list[float]) -> list[float]:
        """values scaled by the median bracket time over the whole run."""
        factor = _nominal_s(kernels) / statistics.median(self._kernel_times[kernels])
        return [v * factor for v in values]


class Ops:
    """Counts attempted operations and keeps the error of each failed one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []

    @contextmanager
    def attempt(self, what: str):
        """Count one operation; an exception inside fails it and is swallowed."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:
            self.errors.append(f"{what}: {exc!r}")


def run_passes(wl, clock: Clock, tracer: Tracer, ops: Ops,
               seconds: float) -> tuple[list[float], dict | None]:
    """Closed loop of passes for `seconds` (at least MIN_PASSES), each checked untimed."""
    times: list[float] = []
    first = None
    deadline = perf_counter() + seconds
    attempts = 0
    while attempts < MIN_PASSES or perf_counter() < deadline:
        attempts += 1
        gc.collect()
        with ops.attempt("pass"):
            what = "traced_pass_s" if tracer.enabled else "pass_s"
            out, elapsed = clock.time(what, wl.kernels["pass"], tracer.call, "pass",
                                      wl.run_pass, tracer)
            wl.check(out)
            summary = wl.summary(out)
            del out  # free the pass output before the next pass
            if first is None:
                first = summary
            expect(summary == first, "pass output differs from the first pass of this seed")
            times.append(elapsed)
    return times, first


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=CHILD_ENV, capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT_S)


def run_cli(wl, clock: Clock, ops: Ops, summary: dict | None, runs: int) -> list[float]:
    """Raw wall time of each run of the workload's CLI commands, outputs checked."""
    times = []
    for _ in range(runs):
        with ops.attempt("cli"):
            total = 0.0
            for argv in wl.cli_commands:
                proc, _ = clock.time("cli_s", wl.kernels["cli"], run_child,
                                     ["-m", "d2dlab.cli", *argv])
                elapsed = clock.raw["cli_s"][-1]
                total += elapsed
                expect(proc.returncode == 0,
                       f"d2dlab {argv[0]} exited {proc.returncode}: {proc.stderr.strip()}")
            expect(summary is not None, "no in-process result to compare the CLI with")
            wl.check_cli(summary)
            times.append(total)
    return times


def child_samples(clock: Clock, ops: Ops, what: str, argv: list[str], n: int,
                  printed: bool = False) -> list[float]:
    """Raw times of n fresh processes: their wall times, or the time each printed."""
    values = []
    for _ in range(n):
        with ops.attempt(what):
            proc, _ = clock.time(what, CHILD_KERNELS, run_child, argv)
            expect(proc.returncode == 0, f"{what} exited {proc.returncode}: {proc.stderr.strip()}")
            values.append(float(proc.stdout) if printed else clock.raw[what][-1])
    return values


def median(values: list[float], what: str, ops: Ops) -> float:
    """Median of the samples, or exit listing why no sample succeeded."""
    if not values:
        sys.exit(f"error: no successful {what} sample; errors: {ops.errors}")
    return statistics.median(values)


def tail(values: list[float]) -> float:
    """The highest order statistic with at least 10 samples above it (the max if none)."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - 11, 0)] if len(ordered) > 10 else ordered[-1]


def work_counts(wl, summary: dict) -> dict:
    """Exact per-pass work counts; 0 for layers the workload does not call."""
    return dict.fromkeys(COUNTS, 0) | wl.counts(summary)


def untraced_run(args, wl, clock: Clock, ops: Ops) -> tuple[dict, dict, dict]:
    setup = child_samples(clock, ops, "setup_s", [str(Path(__file__)), "--setup-only",
                                                  "--workload", args.workload, "--seed",
                                                  str(args.seed), "--size", args.size],
                          SETUP_SAMPLES)
    passes, summary = run_passes(wl, clock, Tracer(False), ops, args.seconds)
    cli = run_cli(wl, clock, ops, summary, CLI_RUNS)
    if hasattr(wl, "replay"):
        with ops.attempt("trial"):
            wl.replay(Tracer(False))
    setup = clock.run_scaled(CHILD_KERNELS, setup)
    cli = clock.run_scaled(wl.kernels["cli"], cli)
    pass_s = median(passes, "pass", ops)
    values = {
        "setup_s": median(setup, "setup", ops),
        "pass_s": pass_s,
        "cli_s": median(cli, "CLI", ops),
        "items_per_s": wl.items(summary) / pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, {"setup_s": setup, "pass_s": passes, "cli_s": cli}, work_counts(wl, summary)


def traced_run(args, wl, clock: Clock, tracer: Tracer, ops: Ops) -> tuple[dict, dict, dict]:
    imports = child_samples(clock, ops, "cli.import_s", ["-c", IMPORT_PROBE], IMPORT_SAMPLES,
                            printed=True)
    untraced, summary = run_passes(wl, clock, Tracer(False), ops, args.seconds / 2)
    traced, _ = run_passes(wl, clock, tracer, ops, args.seconds / 2)
    replay = {"trial_s": [], "pass_trial_s": 0.0, "mc_s": 0.0, "hits": 0}
    if hasattr(wl, "replay"):
        with ops.attempt("replay"):
            replay = tracer.call("replay", wl.replay, tracer, TAIL_SAMPLES)
    cli = clock.run_scaled(wl.kernels["cli"], run_cli(wl, clock, ops, summary, CLI_RUNS))
    imports = clock.run_scaled(CHILD_KERNELS, imports)

    passes = tracer.roots("pass")
    per_pass = [tracer.totals(root) for root in passes]

    def layer(name: str) -> float:
        return statistics.median(t.get(name, 0.0) for t in per_pass)

    pass_s = median(untraced, "pass", ops)
    replay_root = tracer.roots("replay")
    replay_totals = tracer.totals(replay_root[0]) if replay_root else {}
    counts = work_counts(wl, summary)
    import_s = median(imports, "import", ops)
    trial_s = replay["trial_s"]
    values = {
        "ingest.parse_log_s": layer("ingest.parse_log"),
        "ingest.dedup_unique_s": layer("ingest.dedup_unique"),
        "ingest.to_empirical_s": layer("ingest.to_empirical"),
        "popularity.fit_mzipf_s": layer("popularity.fit_mzipf"),
        "popularity.fit_us_per_eval": (layer("popularity.fit_mzipf") * 1e6
                                       / max(counts["popularity.kl_evals"], 1)),
        "popularity.model_s": layer("popularity.model"),
        "policy.optimal_policy_s": layer("policy.optimal_policy"),
        "analysis.tradeoff_curve_s": layer("analysis.tradeoff_curve"),
        "analysis.hit_prob_s": layer("analysis.hit_prob"),
        "simulator.simulate_tradeoff_s": layer("simulator.simulate_tradeoff"),
        "simulator.build_grid_s": replay_totals.get("simulator.build_grid", 0.0),
        "simulator.run_trial_s.p50": statistics.median(trial_s) if trial_s else 0.0,
        "simulator.run_trial_s.tail": tail(trial_s) if trial_s else 0.0,
        "simulator.run_trial_n": len(trial_s),
        "simulator.mc_overhead_s": replay["mc_s"] - replay["pass_trial_s"],
        "simulator.cache_draws_per_s": (counts["simulator.cache_draws"] / replay["pass_trial_s"]
                                        if replay["pass_trial_s"] else 0.0),
        "simulator.hits": replay["hits"],
        "fixtures.write_region_log_s": tracer.totals(tracer.roots("setup")[0]).get(
            "fixtures.write_region_log", 0.0),
        "cli.import_s": import_s,
        "cli.overhead_s": median(cli, "CLI", ops) - pass_s - import_s,
        "trace.overhead_frac": (median(traced, "traced pass", ops) - pass_s) / pass_s,
        "trace.span_coverage": statistics.median(tracer.coverage(root) for root in passes),
        **counts,
    }
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    samples = {"cli.import_s": imports, "pass_s": untraced, "traced_pass_s": traced, "cli_s": cli}
    return values, samples, counts


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    return proc.stdout.strip() or None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the workloads for the smoke test")
    parser.add_argument("--setup-only", action="store_true", dest="setup_only",
                        help="set the workload up and exit; timed by the parent for setup_s")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # One CPU for this process and the processes it starts, so the reference
    # kernels run where the timed work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        tracer = Tracer(enabled=args.trace == 1)
        wl = tracer.call("setup", WORKLOADS[args.workload], args.seed, args.size, workdir, tracer)
        if args.setup_only:
            return 0
        ops = Ops()
        clock = Clock()
        if args.trace:
            values, samples, counts = traced_run(args, wl, clock, tracer, ops)
        else:
            values, samples, counts = untraced_run(args, wl, clock, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if set(values) != set(names):
        sys.exit(f"error: metrics {sorted(set(values) ^ set(names))} differ from BENCHMARK.json")
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    failed = len(ops.errors)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "run": {"git_sha": git_sha(), "python": sys.version.split()[0], "numpy": np.__version__,
                "nproc": os.cpu_count(), "D2DLAB_THREADS": os.environ["D2DLAB_THREADS"]},
        "counts": counts,
        "samples": samples,
        "raw_wall_s": clock.raw,
        "kernel_s": {"nominal": {k: v[1] for k, v in KERNELS.items()},
                     "median": clock.kernel_medians()},
        "sample_counts": {k: len(v) for k, v in samples.items()}
        | ({"simulator.run_trial_s": values["simulator.run_trial_n"]} if args.trace else {}),
        "error_rate": failed / ops.attempted,
        "errors": ops.errors,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0, "attempted": ops.attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
