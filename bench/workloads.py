"""The benchmark's workloads: inputs made from the seed, one pass, output checks.

Each workload builds its inputs in its constructor (that is set-up), runs
one pass of library calls in run_pass, checks the pass output in check,
and reduces it in summary to the plain numbers that must repeat on every
pass of one seed and that its CLI commands must reproduce. bench/README.md
gives the reason for each workload.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from d2dlab import (
    REGIME1,
    REGION_PRESETS,
    NetworkConfig,
    PopularityModel,
    build_grid,
    dedup_unique,
    fit_mzipf,
    hit_prob_closed_form,
    hit_prob_lower_bound,
    optimal_policy,
    parse_log,
    run_monte_carlo,
    run_trial,
    simulate_tradeoff,
    to_empirical,
    tradeoff_curve,
    write_region_log,
)

# A simulated hit probability may sit at most this many of its standard
# errors from the exact i.i.d. reference. Generous because the error is
# estimated from as few as 10 trials, where |t| > 6 has odds of about 1e-4.
Z_MAX = 6.0
# Fitted MZipf parameters against the preset the log was sampled from.
GAMMA_TOL = 0.05
Q_REL_TOL = 0.3
# |sum(probs) - 1| allowed for a water-filled policy over 10^6 files.
PROB_SUM_TOL = 1e-6

# Exact work counts reported beside the per-layer timings; a workload
# reports 0 for a count whose layer it does not call.
COUNTS = (
    "ingest.rows", "ingest.malformed", "ingest.unique_pairs", "ingest.kept_ratio",
    "ingest.unique_ratio", "popularity.kl_evals", "policy.m_star", "analysis.points",
    "analysis.points_failed", "analysis.points_clamped", "simulator.trials",
    "simulator.cache_draws", "simulator.requests",
)


class CheckFailed(Exception):
    """An output of d2dlab is wrong."""


def expect(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def round10(x: float) -> float:
    """x as the CLI writes it: 10 significant digits."""
    return float(f"{x:.10g}")


def make_model(gamma: float, q: float, m_total: int) -> PopularityModel:
    """A PopularityModel with its pmf and cdf tables built."""
    model = PopularityModel(gamma=gamma, q=q, m_total=m_total)
    _ = model.cdf_values  # cached on the model; builds pmf_values too
    return model


def iid_hit_reference(model: PopularityModel, policy, draws: int) -> float:
    """Exact hit probability when a cluster holds `draws` i.i.d. cache draws."""
    return float(np.sum(model.pmf_values * (1.0 - (1.0 - policy.probs) ** draws)))


def check_policy(policy) -> None:
    """A water-filled policy is a pmf and carries its KKT certificate."""
    probs, z, nu, m = policy.probs, policy.z, policy.water_level, policy.m_star
    expect(np.all(probs >= 0.0), "negative caching probability")
    total = float(probs.sum())
    expect(abs(total - 1.0) <= PROB_SUM_TOL, f"caching probabilities sum to {total!r}")
    expect(z[m - 1] > nu, f"KKT: z[m*-1]={z[m - 1]!r} <= nu={nu!r} at m*={m}")
    if m < z.size:
        expect(nu >= z[m], f"KKT: nu={nu!r} < z[m*]={z[m]!r} at m*={m}")


def check_simulation(outcome, reference: float) -> None:
    hit = outcome.hit_prob_estimate
    expect(0.0 <= hit <= 1.0, f"hit probability {hit!r} outside [0, 1]")
    expect(abs(hit + outcome.outage_estimate - 1.0) <= 1e-12,
           f"hit {hit!r} + outage {outcome.outage_estimate!r} != 1")
    # A zero sample error (all trials equal) is floored at one request.
    se = max(outcome.hit_prob_se, 1.0 / (outcome.trials * outcome.n_users))
    z = (hit - reference) / se
    expect(abs(z) <= Z_MAX,
           f"hit {hit!r} is {z:.2f} standard errors from the i.i.d. reference {reference!r}")


def check_trial(trial, network, config) -> None:
    """Clusters with links share exactly C/K; clusters without carry nothing."""
    per_cluster = trial.throughput[network.members].sum(axis=1)
    active = trial.cluster_links > 0
    expect(np.allclose(per_cluster[active], config.cluster_rate, rtol=1e-9, atol=0.0),
           "cluster throughput does not sum to C/K")
    expect(not per_cluster[~active].any(), "cluster without links has throughput")


def check_tradeoff_points(points) -> None:
    for p in points:
        expect(p.error is None, f"tradeoff point g_c={p.g_c_used}: {p.error}")
        expect(math.isfinite(p.throughput) and math.isfinite(p.outage),
               f"tradeoff point g_c={p.g_c_used} is not finite")


def read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def expect_cli(written: str, value, what: str) -> None:
    """A CLI cell must equal the in-process value at 10 significant digits."""
    expect(float(written) == round10(value), f"CLI wrote {what}={written!r}, in-process {value!r}")


class Workload:
    """What run.py needs of a workload. The constructor, called as
    (seed, size, workdir, tracer), is the workload's set-up."""

    name: str
    # Reference kernels that time this workload's passes and CLI runs (see
    # run.Clock): "python" for interpreter-bound work, "array" for numpy-bound.
    kernels: dict[str, tuple[str, ...]]
    sizes: dict[str, dict]
    cli_commands: list[list[str]]  # d2dlab argument lists; one CLI run is all of them

    def run_pass(self, tr):
        raise NotImplementedError

    def check(self, out) -> None:
        raise NotImplementedError

    def summary(self, out) -> dict:
        raise NotImplementedError

    def items(self, summary: dict) -> int:
        """Work items in one pass, for items_per_s."""
        raise NotImplementedError

    def counts(self, summary: dict) -> dict:
        raise NotImplementedError

    def check_cli(self, summary: dict) -> None:
        raise NotImplementedError


class FitLog(Workload):
    """Access log -> region filter -> dedup -> ranking -> MZipf fit -> policy."""

    name = "fit_log"
    kernels = {"pass": ("python",), "cli": ("python",)}
    # The fit check needs about this many accesses: with fewer, the unseen
    # tail ranks bias the fitted gamma low by more than GAMMA_TOL.
    sizes = {"full": {"accesses": 66_000}, "tiny": {"accesses": 66_000}}
    region, s_cache, g_c = 2, 4, 100

    def __init__(self, seed: int, size: str, workdir: Path, tr) -> None:
        self.accesses = self.sizes[size]["accesses"]
        self.target = REGION_PRESETS[self.region][:2]
        self.log = workdir / "access.csv"
        self.rows = 0
        with open(self.log, "w", encoding="utf-8", newline="") as out:
            for region in (1, 2, 3):
                part = workdir / f"region{region}.csv"
                tr.call("fixtures.write_region_log", write_region_log, part,
                        region=region, n_accesses=self.accesses, seed=seed * 10 + region)
                with open(part, encoding="utf-8", newline="") as fh:
                    header = fh.readline()
                    body = fh.read()
                part.unlink()
                if region == 1:
                    out.write(header)
                out.write(body)
                rows = body.count("\n")
                self.rows += rows
                if region == self.region:
                    self.kept = rows
        self.output = workdir / "fit.json"
        self.cli_commands = [["fit", str(self.log), "--region", str(self.region),
                              "--output", str(self.output)]]

    def run_pass(self, tr):
        parsed = tr.call("ingest.parse_log", parse_log, self.log)
        records = [r for r in parsed.records if r.region_id == self.region]
        unique = tr.call("ingest.dedup_unique", dedup_unique, records)
        empirical = tr.call("ingest.to_empirical", to_empirical, unique)
        fit = tr.call("popularity.fit_mzipf", fit_mzipf, empirical)
        policy = tr.call("policy.optimal_policy", optimal_policy, fit.model, self.s_cache, self.g_c)
        return {"rows": parsed.rows, "malformed": parsed.malformed, "kept": len(records),
                "unique": unique.n_unique, "fit": fit, "policy": policy}

    def check(self, out) -> None:
        expect(out["rows"] == self.rows, f"parsed {out['rows']} rows, wrote {self.rows}")
        expect(out["malformed"] == 0, f"{out['malformed']} malformed rows")
        expect(out["kept"] == self.kept, f"kept {out['kept']} region rows, wrote {self.kept}")
        expect(out["unique"] == self.accesses,
               f"{out['unique']} unique pairs for {self.accesses} accesses")
        model = out["fit"].model
        gamma, q = self.target
        expect(abs(model.gamma - gamma) <= GAMMA_TOL,
               f"fitted gamma {model.gamma!r}, preset {gamma}")
        expect(abs(model.q - q) <= Q_REL_TOL * q, f"fitted q {model.q!r}, preset {q}")
        check_policy(out["policy"])

    def summary(self, out) -> dict:
        fit = out["fit"]
        return {"rows": out["rows"], "malformed": out["malformed"], "kept": out["kept"],
                "unique": out["unique"], "gamma": fit.model.gamma, "q": fit.model.q,
                "m_total": fit.model.m_total, "kl": fit.kl_distance,
                "kl_evals": len(fit.search_trace), "m_star": out["policy"].m_star,
                "nu": out["policy"].water_level}

    def items(self, summary: dict) -> int:
        return summary["rows"]

    def counts(self, summary: dict) -> dict:
        return {"ingest.rows": summary["rows"], "ingest.malformed": summary["malformed"],
                "ingest.unique_pairs": summary["unique"],
                "ingest.kept_ratio": summary["kept"] / summary["rows"],
                "ingest.unique_ratio": summary["unique"] / summary["kept"],
                "popularity.kl_evals": summary["kl_evals"], "policy.m_star": summary["m_star"]}

    def check_cli(self, summary: dict) -> None:
        payload = json.loads(self.output.read_text(encoding="utf-8"))
        for key, value in (("gamma", summary["gamma"]), ("q", summary["q"]),
                           ("kl_distance", summary["kl"])):
            expect_cli(str(payload[key]), value, key)
        expect(payload["m_total"] == summary["m_total"], "CLI m_total differs")
        expect(payload["unique_accesses"] == summary["unique"], "CLI unique_accesses differs")
        report = payload["report"]
        expect(report["rows"] == summary["rows"] and report["malformed"] == summary["malformed"],
               "CLI row report differs")


class Simulation(Workload):
    """Shared by the Monte Carlo workloads: replaying a pass one trial at a time.

    Subclasses set model, config (its n_users is the requested user count),
    trials, and points: (g_c, base_seed, i.i.d. hit reference) per Monte
    Carlo run of a pass.
    """

    def replay(self, tr, tail_samples: int = 0) -> dict:
        """Re-run each Monte Carlo of a pass with one library call per trial.

        Every trial's throughput is checked. With a live tracer, also time
        run_monte_carlo over the same seeds and run at least tail_samples
        trials per point; with a disabled one, check only the first trial.
        """
        out = {"trial_s": [], "pass_trial_s": 0.0, "mc_s": 0.0, "hits": 0}
        for g_c, base_seed, _ in self.points:
            network = tr.call("simulator.build_grid", build_grid, self.config.n_users, g_c)
            config = replace(self.config, cluster_size=g_c, n_users=network.n_users)
            policy = optimal_policy(self.model, config.s_cache, g_c)
            n = max(self.trials, tail_samples) if tr.enabled else 1
            if tr.enabled:
                outcome = tr.call("simulator.run_monte_carlo", run_monte_carlo, network, policy,
                                  self.model, config, self.trials, base_seed)
                out["mc_s"] += tr.last_duration
            hits = 0
            for i in range(n):
                trial = tr.call("simulator.run_trial", run_trial, network, policy, self.model,
                                config, base_seed + i)
                check_trial(trial, network, config)
                out["trial_s"].append(tr.last_duration)
                if i < self.trials:
                    out["pass_trial_s"] += tr.last_duration
                    hits += trial.hits
            if tr.enabled:
                estimate = hits / (self.trials * network.n_users)
                expect(math.isclose(estimate, outcome.hit_prob_estimate, rel_tol=1e-12),
                       f"trials hit {estimate!r}, run_monte_carlo {outcome.hit_prob_estimate!r}")
            out["hits"] += hits
        return out

    def _sim_counts(self, n_users: list[int]) -> dict:
        """Work counts of a pass whose Monte Carlo runs have these user counts."""
        requests = sum(n_users) * self.trials
        return {"simulator.trials": self.trials * len(n_users), "simulator.requests": requests,
                "simulator.cache_draws": requests * self.config.s_cache}


class LargeCacheSimulation(Simulation):
    """The README `simulate` command: S=100, so each trial draws 10^6 cache entries."""

    name = "mc_large_cache"
    kernels = {"pass": ("array",), "cli": ("array",)}
    sizes = {"full": {"n_users": 10_000, "s_cache": 100, "g_c": 100, "trials": 10},
             "tiny": {"n_users": 400, "s_cache": 10, "g_c": 100, "trials": 4}}
    region = 2

    def __init__(self, seed: int, size: str, workdir: Path, tr) -> None:
        p = self.sizes[size]
        self.trials = p["trials"]
        self.g_c = p["g_c"]
        self.model = tr.call("popularity.model", make_model, *REGION_PRESETS[self.region])
        self.config = NetworkConfig(n_users=p["n_users"], s_cache=p["s_cache"], rate_c=1.0,
                                    reuse_k=4, cluster_size=self.g_c)
        self.base_seed = seed * self.trials
        reference = iid_hit_reference(
            self.model, optimal_policy(self.model, p["s_cache"], self.g_c), p["s_cache"] * self.g_c)
        self.points = [(self.g_c, self.base_seed, reference)]
        self.output = workdir / "sim.json"
        gamma, q, m_total = REGION_PRESETS[self.region]
        self.cli_commands = [[
            "simulate", "--gamma", str(gamma), "--q", str(q), "--m-total", str(m_total),
            "--s-cache", str(p["s_cache"]), "--n-users", str(p["n_users"]),
            "--g-c", str(self.g_c), "--trials", str(self.trials), "--seed", str(self.base_seed),
            "--output", str(self.output)]]

    def run_pass(self, tr):
        s = self.config.s_cache
        policy = tr.call("policy.optimal_policy", optimal_policy, self.model, s, self.g_c)
        network = tr.call("simulator.build_grid", build_grid, self.config.n_users, self.g_c)
        config = replace(self.config, n_users=network.n_users)
        outcome = tr.call("simulator.run_monte_carlo", run_monte_carlo, network, policy,
                          self.model, config, self.trials, self.base_seed)
        return {"policy": policy, "network": network, "outcome": outcome}

    def check(self, out) -> None:
        check_policy(out["policy"])
        check_simulation(out["outcome"], self.points[0][2])

    def summary(self, out) -> dict:
        o = out["outcome"]
        return {"m_star": out["policy"].m_star, "n_users": out["network"].n_users,
                "trials": o.trials, "hit_prob": o.hit_prob_estimate, "outage": o.outage_estimate,
                "min_avg_throughput": o.min_avg_throughput,
                "per_user_throughput_mean": o.per_user_throughput_mean,
                "hit_prob_se": o.hit_prob_se, "throughput_se": o.throughput_se}

    def items(self, summary: dict) -> int:
        return summary["trials"]

    def counts(self, summary: dict) -> dict:
        return {"policy.m_star": summary["m_star"], **self._sim_counts([summary["n_users"]])}

    def check_cli(self, summary: dict) -> None:
        payload = json.loads(self.output.read_text(encoding="utf-8"))
        for key in ("m_star", "n_users", "trials"):
            expect(payload[key] == summary[key], f"CLI {key} differs")
        for key in ("hit_prob", "outage", "min_avg_throughput", "per_user_throughput_mean",
                    "hit_prob_se", "throughput_se"):
            expect_cli(str(payload[key]), summary[key], key)


class SmallCellSweep(Simulation):
    """A tradeoff sweep over tiny clusters: trials are cheap, overhead dominates."""

    name = "sweep_small_cells"
    kernels = {"pass": ("python", "array"), "cli": ("python", "array")}
    sizes = {"full": {"trials": 2000}, "tiny": {"trials": 40}}
    region, n_users, s_cache, g_c_list = 3, 25, 4, (4, 9, 16, 25)

    def __init__(self, seed: int, size: str, workdir: Path, tr) -> None:
        self.trials = self.sizes[size]["trials"]
        self.model = tr.call("popularity.model", make_model, *REGION_PRESETS[self.region])
        # The network the `tradeoff` CLI builds for this command line.
        self.config = NetworkConfig(n_users=self.n_users, s_cache=self.s_cache, rate_c=1.0,
                                    reuse_k=4, cluster_size=min(self.g_c_list))
        self.base_seed = base_seed = seed * self.trials * len(self.g_c_list)
        self.points = []
        self.m_star = 0
        for i, g_c in enumerate(self.g_c_list):
            policy = optimal_policy(self.model, self.s_cache, g_c)
            self.m_star += policy.m_star
            reference = iid_hit_reference(self.model, policy, self.s_cache * g_c)
            # simulate_tradeoff gives point i the seeds base_seed + i*trials onwards.
            self.points.append((g_c, base_seed + i * self.trials, reference))
        self.output = workdir / "curve.csv"
        gamma, q, m_total = REGION_PRESETS[self.region]
        self.cli_commands = [[
            "tradeoff", "--gamma", str(gamma), "--q", str(q), "--m-total", str(m_total),
            "--s-cache", str(self.s_cache), "--n-users", str(self.n_users),
            "--g-c-list", ",".join(map(str, self.g_c_list)), "--mode", "both",
            "--trials", str(self.trials), "--seed", str(base_seed), "--output", str(self.output)]]

    def run_pass(self, tr):
        g_c_list = list(self.g_c_list)
        points = tr.call("analysis.tradeoff_curve", tradeoff_curve, self.model, self.config,
                         g_c_list)
        sweep = tr.call("simulator.simulate_tradeoff", simulate_tradeoff, self.model, self.config,
                        g_c_list, trials=self.trials, base_seed=self.base_seed, max_workers=1)
        return {"points": points, "sweep": sweep}

    def check(self, out) -> None:
        check_tradeoff_points(out["points"])
        for point, (g_c, _, reference) in zip(out["sweep"], self.points):
            expect(point.g_c == g_c and point.error is None,
                   f"sweep point g_c={g_c}: {point.error}")
            check_simulation(point.outcome, reference)

    def summary(self, out) -> dict:
        analytic = {p.g_c_used: p for p in out["points"]}
        rows = {}
        for point in out["sweep"]:
            a, o = analytic[point.g_c], point.outcome
            rows[point.g_c] = {
                "T_analytic": a.throughput, "Po_analytic": a.outage, "clamped": a.clamped,
                "T_sim": o.min_avg_throughput, "Po_sim": o.outage_estimate,
                "hit_sim": o.hit_prob_estimate, "hit_se": o.hit_prob_se, "tp_se": o.throughput_se}
        return rows

    def items(self, summary: dict) -> int:
        return self.trials * len(summary)

    def counts(self, summary: dict) -> dict:
        n_users = [build_grid(self.n_users, g_c).n_users for g_c in self.g_c_list]
        return {"policy.m_star": self.m_star, "analysis.points": len(summary),
                "analysis.points_clamped": sum(r["clamped"] for r in summary.values()),
                **self._sim_counts(n_users)}

    def check_cli(self, summary: dict) -> None:
        rows = read_csv(self.output)
        expect(len(rows) == len(summary), "CLI wrote a different number of points")
        for row in rows:
            expected = summary[int(row["g_c"])]
            expect(row["error"] == "", f"CLI point g_c={row['g_c']}: {row['error']}")
            for key, value in expected.items():
                if key != "clamped":
                    expect_cli(row[key], value, f"{key} at g_c={row['g_c']}")


class LargeLibraryPolicy(Workload):
    """The analytic path at M=10^6 over cluster sizes in both regimes."""

    name = "policy_large_library"
    # The pass is numpy-bound; its CLI is dominated by the Python kkt_mstar loop.
    kernels = {"pass": ("array",), "cli": ("python",)}
    sizes = {"full": {"m_total": 1_000_000, "g_c": (100, 1_000, 10_000, 100_000, 350_000)},
             "tiny": {"m_total": 10_000, "g_c": (10, 100, 1_000, 5_000)}}
    region, s_cache = 2, 4

    def __init__(self, seed: int, size: str, workdir: Path, tr) -> None:
        p = self.sizes[size]
        self.gamma, self.q, _ = REGION_PRESETS[self.region]
        self.m_total = p["m_total"]
        # Up to 20% above each base size; the last base size sits beyond the
        # regime boundary gamma*M/(c1*S), the others below it.
        rng = np.random.default_rng(seed)
        self.g_c_list = [int(g * (1.0 + 0.2 * rng.random())) for g in p["g_c"]]
        self.config = NetworkConfig(n_users=max(self.g_c_list), s_cache=self.s_cache,
                                    rate_c=1.0, reuse_k=4, cluster_size=min(self.g_c_list))
        self.mstar_output = workdir / "mstar.csv"
        self.curve_output = workdir / "curve.csv"
        model_args = ["--gamma", str(self.gamma), "--q", str(self.q), "--m-total",
                      str(self.m_total), "--s-cache", str(self.s_cache),
                      "--g-c-list", ",".join(map(str, self.g_c_list))]
        self.cli_commands = [
            ["validate-mstar", *model_args, "--output", str(self.mstar_output)],
            ["tradeoff", *model_args, "--mode", "analytic", "--output", str(self.curve_output)],
        ]

    def run_pass(self, tr):
        model = tr.call("popularity.model", make_model, self.gamma, self.q, self.m_total)
        policies = [tr.call("policy.optimal_policy", optimal_policy, model, self.s_cache, g_c)
                    for g_c in self.g_c_list]
        points = tr.call("analysis.tradeoff_curve", tradeoff_curve, model, self.config,
                         self.g_c_list)
        hits = {}
        for p in points:
            hit_prob = hit_prob_closed_form if p.regime_tag == REGIME1 else hit_prob_lower_bound
            config = replace(self.config, cluster_size=p.g_c_used)
            hits[p.g_c_used] = tr.call("analysis.hit_prob", hit_prob, model, config)
        return {"policies": policies, "points": points, "hits": hits}

    def check(self, out) -> None:
        for policy in out["policies"]:
            check_policy(policy)
        check_tradeoff_points(out["points"])
        for g_c, hit in out["hits"].items():
            expect(0.0 <= hit <= 1.0, f"hit probability {hit!r} at g_c={g_c}")

    def summary(self, out) -> dict:
        rows = {p.g_c_used: {"T_analytic": p.throughput, "Po_analytic": p.outage,
                             "hit_analytic": out["hits"][p.g_c_used], "clamped": p.clamped,
                             "failed": p.error is not None}
                for p in out["points"]}
        for g_c, policy in zip(self.g_c_list, out["policies"]):
            rows[g_c]["m_star"] = policy.m_star
            rows[g_c]["nu"] = policy.water_level
        return rows

    def items(self, summary: dict) -> int:
        return 2 * len(summary)  # a policy and a tradeoff point per cluster size

    def counts(self, summary: dict) -> dict:
        rows = summary.values()
        return {"policy.m_star": sum(r["m_star"] for r in rows), "analysis.points": len(rows),
                "analysis.points_failed": sum(r["failed"] for r in rows),
                "analysis.points_clamped": sum(r["clamped"] for r in rows)}

    def check_cli(self, summary: dict) -> None:
        mstar = read_csv(self.mstar_output)
        expect([int(r["g_c"]) for r in mstar] == self.g_c_list, "CLI m* rows differ")
        for row in mstar:
            expect(int(row["kkt_m_star"]) == summary[int(row["g_c"])]["m_star"],
                   f"CLI kkt_m_star={row['kkt_m_star']} at g_c={row['g_c']}")
        curve = read_csv(self.curve_output)
        expect(len(curve) == len(summary), "CLI wrote a different number of points")
        for row in curve:
            expected = summary[int(row["g_c"])]
            for key in ("T_analytic", "Po_analytic", "hit_analytic"):
                expect_cli(row[key], expected[key], f"{key} at g_c={row['g_c']}")


WORKLOADS = {w.name: w for w in (FitLog, LargeCacheSimulation, SmallCellSweep, LargeLibraryPolicy)}
