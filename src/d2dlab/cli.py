"""Command-line front-end: fit, policy, tradeoff, simulate, validate-mstar.

Every output data file is deterministic for a fixed command line (seeds
are explicit flags, never wall-clock derived) and is accompanied by a
``<output>.manifest.json`` sidecar recording the invocation. Numbers are
written with 10 significant digits. A command writes all of its outputs or
none: each goes to a temporary sibling first, and the temporaries take the
outputs' places only once every write, the manifest's too, has succeeded.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

from . import __version__
from .analysis import _check_kappa, tradeoff_curve
from .ingest import LogFormatError, read_counts
from .network import NetworkConfig
from .policy import optimal_policy, theoretical_mstar
from .popularity import PopularityModel, fit_mzipf
from .simulator import (
    _check_seed,
    _check_trials,
    build_grid,
    run_monte_carlo,
    simulate_tradeoff,
)

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _fmt(x) -> str:
    """Render a number with 10 significant digits; empty for None/NaN; strings as is."""
    if isinstance(x, str):
        return x
    if x is None:
        return ""
    if isinstance(x, float) and math.isnan(x):
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    return f"{x:.10g}"


def _workers() -> int:
    """Sweep worker threads from D2DLAB_THREADS; unset or empty means 1."""
    raw = os.environ.get("D2DLAB_THREADS", "")
    try:
        workers = int(raw) if raw else 1
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"D2DLAB_THREADS must be a positive integer, got {raw!r}")
    return workers


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(args, started: str, record: dict) -> None:
    """Record the invocation, and what the command reports of its run, as <output>.manifest.json."""
    manifest = record | {
        "command": args.command,
        "parameters": dict(sorted((vars(args) | {"func": args.command}).items())),
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "started_at": started,
        "finished_at": _utc_now(),
    }
    _write_output(Path(args.output + ".manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n")


def _rounded(value):
    """value with every float in it rounded to 10 significant digits."""
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value


# (temporary, output) pairs written by the running command; main moves them
# into place when the command has succeeded and removes them when it has not.
_staged: list[tuple[Path, Path]] = []


def _write_output(output: Path, text: str) -> None:
    """Write text to a temporary sibling of output, staged for main to move into place."""
    temporary = output.with_name(f".{output.name}.{os.getpid()}.{len(_staged)}.tmp")
    _staged.append((temporary, output))
    try:
        with open(temporary, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:  # name the output the user gave, not its temporary
        raise OSError(exc.errno, exc.strerror, str(output)) from exc


def _write_json(output: Path, payload: dict) -> None:
    """Write payload as sorted, indented JSON, floats at 10 significant digits."""
    _write_output(output, json.dumps(_rounded(payload), indent=2, sort_keys=True) + "\n")


def _write_csv(output: Path, header: list[str], rows) -> None:
    """Write a header and rows, each cell rendered by _fmt."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows([_fmt(cell) for cell in row] for row in rows)
    _write_output(output, buffer.getvalue())


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.replace(" ", "").split(",") if tok]
    except ValueError:
        raise ValueError(f"expected a comma-separated list of integers, got {text!r}")
    if not values:
        raise ValueError("g_c list must not be empty")
    return values


def _model_from_args(args) -> PopularityModel:
    return PopularityModel(gamma=args.gamma, q=args.q, m_total=args.m_total)


def cmd_fit(args) -> tuple[str, dict]:
    started = perf_counter()
    empirical, report = read_counts(args.log, args.region)
    ingest = asdict(report) | {"wall_s": perf_counter() - started}
    result = fit_mzipf(empirical)

    output = Path(args.output)
    payload = {
        "gamma": result.model.gamma,
        "q": result.model.q,
        "m_total": result.model.m_total,
        "kl_distance": result.kl_distance,
        "unique_accesses": report.unique_pairs,
        "users": report.distinct_users,
        "report": {
            "rows": report.rows,
            "malformed": report.malformed,
            "unique_accesses": report.unique_pairs,
            "distinct_users": report.distinct_users,
            "distinct_contents": report.distinct_contents,
        },
    }
    ranks_csv = Path(args.ranks_csv) if args.ranks_csv else output.with_name(output.stem + "_ranks.csv")
    _write_csv(ranks_csv, ["rank", "count"],
               ((rank, int(count)) for rank, count in enumerate(empirical.counts, start=1)))
    _write_json(output, payload)

    return (f"fit: gamma={_fmt(result.model.gamma)} q={_fmt(result.model.q)} "
            f"M={result.model.m_total} kl={_fmt(result.kl_distance)} -> {output}"), {"ingest": ingest}


def cmd_policy(args) -> tuple[str, dict]:
    model = _model_from_args(args)
    policy = optimal_policy(model, args.s_cache, args.g_c)
    output = Path(args.output)
    payload = {
        "nu": policy.water_level,
        "m_star": policy.m_star,
        "theoretical_m_star": theoretical_mstar(model, args.s_cache, args.g_c),
        "p_c": policy.probs.tolist(),
    }
    _write_json(output, payload)
    return f"policy: m_star={policy.m_star} nu={_fmt(policy.water_level)} -> {output}", {}


def cmd_validate_mstar(args) -> tuple[str, dict]:
    model = _model_from_args(args)
    g_c_list = _parse_int_list(args.g_c_list)
    rows = []
    for g_c in g_c_list:
        m_star = optimal_policy(model, args.s_cache, g_c).m_star
        theo = theoretical_mstar(model, args.s_cache, g_c)
        rows.append((g_c, m_star, theo, abs(m_star - theo) / m_star))
    output = Path(args.output)
    _write_csv(output, ["g_c", "kkt_m_star", "theoretical_m_star", "rel_deviation"], rows)
    return f"validate-mstar: {len(g_c_list)} points -> {output}", {}


_TRADEOFF_COLUMNS = [
    "g_c", "regime", "T_analytic", "Po_analytic", "hit_analytic", "T_sim",
    "Po_sim", "hit_sim", "hit_se", "tp_se", "clamped", "error",
]


def _tradeoff_rows(args, model, g_c_list) -> list[dict]:
    # Every flag is checked whether or not the chosen mode reads it.
    _check_kappa(args.kappa)
    _check_trials(args.trials)
    _check_seed(args.seed)
    if args.n_users is not None and args.n_users < 1:
        raise ValueError(f"n_users must be >= 1, got {args.n_users}")
    workers = _workers()
    rows = [{"g_c": g} for g in g_c_list]
    n_users = max(g_c_list) if args.n_users is None else args.n_users
    base = NetworkConfig(
        n_users=max(n_users, max(g_c_list)),
        s_cache=args.s_cache,
        rate_c=args.rate_c,
        reuse_k=args.reuse_k,
        cluster_size=min(g_c_list),
    )
    if args.mode in ("analytic", "both"):
        for row, p in zip(rows, tradeoff_curve(model, base, g_c_list, kappa=args.kappa)):
            row["regime"] = p.regime_tag
            row["T_analytic"] = p.throughput
            row["Po_analytic"] = p.outage
            row["hit_analytic"] = p.hit_prob
            row["clamped"] = p.clamped
            row["error"] = p.error
    if args.mode in ("simulate", "both"):
        points = simulate_tradeoff(
            model, base, g_c_list, trials=args.trials, base_seed=args.seed,
            max_workers=workers,
        )
        for row, point in zip(rows, points):
            if point.error:
                row["error"] = "; ".join(filter(None, [row.get("error"), point.error]))
                continue
            out = point.outcome
            row["T_sim"] = out.min_avg_throughput
            row["Po_sim"] = out.outage_estimate
            row["hit_sim"] = out.hit_prob_estimate
            row["hit_se"] = out.hit_prob_se
            row["tp_se"] = out.throughput_se
    return rows


def cmd_tradeoff(args) -> tuple[str, dict]:
    model = _model_from_args(args)
    g_c_list = _parse_int_list(args.g_c_list)
    rows = _tradeoff_rows(args, model, g_c_list)
    output = Path(args.output)
    _write_csv(output, _TRADEOFF_COLUMNS,
               ([row.get(col) for col in _TRADEOFF_COLUMNS] for row in rows))
    return f"tradeoff: {len(rows)} points ({args.mode}) -> {output}", {}


def cmd_simulate(args) -> tuple[str, dict]:
    model = _model_from_args(args)
    network = build_grid(args.n_users, args.g_c)
    config = NetworkConfig(
        n_users=network.n_users,
        s_cache=args.s_cache,
        rate_c=args.rate_c,
        reuse_k=args.reuse_k,
        cluster_size=args.g_c,
    )
    policy = optimal_policy(model, args.s_cache, args.g_c)
    outcome = run_monte_carlo(network, policy, model, config, args.trials, args.seed)
    output = Path(args.output)
    payload = {
        "g_c": args.g_c,
        "n_users": network.n_users,
        "padding": network.padding,
        "trials": outcome.trials,
        "m_star": policy.m_star,
        "hit_prob": outcome.hit_prob_estimate,
        "outage": outcome.outage_estimate,
        "min_avg_throughput": outcome.min_avg_throughput,
        "per_user_throughput_mean": outcome.per_user_throughput_mean,
        "self_hit_rate": outcome.self_hit_rate,
        "d2d_hit_rate": outcome.d2d_hit_rate,
        "good_cluster_rate": outcome.good_cluster_rate,
        "hit_prob_se": outcome.hit_prob_se,
        "throughput_se": outcome.throughput_se,
    }
    _write_json(output, payload)
    return (f"simulate: hit={_fmt(outcome.hit_prob_estimate)} "
            f"outage={_fmt(outcome.outage_estimate)} -> {output}"), {}


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=float, required=True, help="Zipf factor (> 0)")
    p.add_argument("--q", type=float, required=True, help="plateau factor (>= 0)")
    p.add_argument("--m-total", type=int, required=True, dest="m_total", help="library size M")
    p.add_argument("--s-cache", type=int, default=1, dest="s_cache",
                   help="cache slots per device")


def _add_network_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rate-c", type=float, default=1.0, dest="rate_c", help="link rate C (bits/s/Hz)")
    p.add_argument("--reuse-k", type=int, default=4, dest="reuse_k", help="TDMA reuse factor K")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d2dlab",
        description="Caching-based D2D content delivery: fitting, policy, analysis, simulation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit an MZipf model to an access log")
    p.add_argument("log", help="CSV log: user_id,content_id,region_id[,timestamp]")
    p.add_argument("--region", type=int, default=None, help="keep only this region_id")
    p.add_argument("--output", required=True, help="output JSON path")
    p.add_argument("--ranks-csv", default=None, dest="ranks_csv",
                   help="rank/count CSV path (default: alongside the JSON)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("policy", help="compute the optimal caching distribution")
    _add_model_args(p)
    p.add_argument("--g-c", type=int, required=True, dest="g_c", help="cluster size")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_policy)

    p = sub.add_parser("validate-mstar", help="compare water-filled and closed-form m*")
    _add_model_args(p)
    p.add_argument("--g-c-list", required=True, dest="g_c_list",
                   help="comma-separated cluster sizes")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_validate_mstar)

    p = sub.add_parser("tradeoff", help="throughput-outage curve (analytic and/or simulated)")
    _add_model_args(p)
    _add_network_args(p)
    p.add_argument("--n-users", type=int, default=None, dest="n_users",
                   help="users N (defaults to the largest cluster size)")
    p.add_argument("--g-c-list", required=True, dest="g_c_list")
    p.add_argument("--mode", choices=["analytic", "simulate", "both"], default="analytic")
    p.add_argument("--kappa", type=float, default=10.0,
                   help="admissibility constant for q <= kappa*S*g_c/gamma")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("simulate", help="Monte Carlo run at a single cluster size")
    _add_model_args(p)
    _add_network_args(p)
    p.add_argument("--n-users", type=int, required=True, dest="n_users", help="users N")
    p.add_argument("--g-c", type=int, required=True, dest="g_c")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    """Run one command, write its manifest sidecar, and print its summary line.

    A command returns its summary line and the fields it adds to the manifest.
    """
    args = build_parser().parse_args(argv)
    started = _utc_now()
    try:
        message, record = args.func(args)
        _write_manifest(args, started, record)
        for temporary, output in _staged:
            os.replace(temporary, output)
    except (LogFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, MemoryError) as exc:  # parameters too large to run are bad parameters
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_PARAMS
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        for temporary, _ in _staged:
            with contextlib.suppress(OSError):
                temporary.unlink(missing_ok=True)
        _staged.clear()
    print(message)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
