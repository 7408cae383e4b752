"""Command-line front-end: fit, policy, tradeoff, simulate, validate-mstar.

Every output data file is deterministic for a fixed command line (seeds
are explicit flags, never wall-clock derived) and is accompanied by a
``<output>.manifest.json`` sidecar recording the invocation. Numbers are
written with 10 significant digits.

A command reads only its flags and its input files, never the
environment. It returns its summary line, the fields it adds to the
manifest, and its outputs as (path, text) pairs, and it writes nothing.
``main`` is the one writer, and it writes all of a command's outputs or
none. It refuses outputs that share a path or name a directory, writes
each output and then the manifest to a temporary sibling, and only once
every write has succeeded moves the temporaries into the outputs'
places. It also refuses an output at the path of a file the command
reads.

A command imports the modules it runs when it runs, so a process loads
only those: ``fit`` loads ``ingest``, ``policy`` and ``validate-mstar``
load ``policy``, ``tradeoff`` adds ``analysis`` for its analytic side and
``simulator`` for its simulated side, and ``simulate`` loads ``policy``
and ``simulator``. The module itself needs only ``network`` and
``popularity``.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import io
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

from . import __version__
from .network import NetworkConfig, _check_integer, _parse_integer
from .popularity import PopularityModel, fit_mzipf

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _fmt(x) -> str:
    """Render a number with 10 significant digits; empty for None; strings as is."""
    if isinstance(x, str):
        return x
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    return f"{x:.10g}"


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _manifest(args, started: str, record: dict) -> str:
    """The invocation, and what the command reports of its run, as manifest JSON."""
    manifest = record | {
        "command": args.command,
        "parameters": dict(sorted((vars(args) | {"func": args.command}).items())),
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "started_at": started,
        "finished_at": _utc_now(),
    }
    return json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n"


def _rounded(value):
    """value with every float in it rounded to 10 significant digits."""
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value


def _json(payload: dict) -> str:
    """payload as sorted, indented JSON, floats at 10 significant digits."""
    return json.dumps(_rounded(payload), indent=2, sort_keys=True) + "\n"


def _csv(header: list[str], rows) -> str:
    """A header and rows as CSV, each cell rendered by _fmt."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows([_fmt(cell) for cell in row] for row in rows)
    return buffer.getvalue()


def _stage(staged: list[tuple[Path, Path]], output: Path, text: str) -> None:
    """Write text to a temporary sibling of output and add (temporary, output) to staged."""
    if output.is_dir():  # refused here, before main moves any output into place
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(output))
    temporary = output.with_name(f".{output.name}.{os.getpid()}.{len(staged)}.tmp")
    staged.append((temporary, output))
    try:
        with open(temporary, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:  # name the output the user gave, not its temporary
        raise OSError(exc.errno, exc.strerror, str(output)) from exc


def _parse_int_list(text: str) -> list[int]:
    """Integers split on commas, each read by _parse_integer, as an integer
    flag is: it strips the field and refuses one that is empty or has
    whitespace inside it."""
    fields = text.split(",")
    if not any(field.strip() for field in fields):
        raise ValueError("g_c list must not be empty")
    try:
        return [_parse_integer(field) for field in fields]
    except ValueError:
        raise ValueError(f"g_c list: expected a comma-separated list of integers, got {text!r}")


def _integer(text: str) -> int:
    """An integer flag, read by _parse_integer as a log's region is. argparse
    shows the message of an ArgumentTypeError, not the name of this function."""
    try:
        return _parse_integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _real(text: str) -> float:
    """A real flag as a float, refused if it holds a digit-group underscore
    or a non-ASCII character, which float() alone takes. nan and inf pass, to
    the checks of the model and the network config."""
    try:
        if "_" not in text and text.isascii():
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid number {text!r}")


def _model_from_args(args) -> PopularityModel:
    return PopularityModel(gamma=args.gamma, q=args.q, m_total=args.m_total)


def _network_from_args(args, n_users: int, cluster_size: int) -> NetworkConfig:
    return NetworkConfig(n_users=n_users, s_cache=args.s_cache, rate_c=args.rate_c,
                         reuse_k=args.reuse_k, cluster_size=cluster_size)


def cmd_fit(args, output: Path) -> tuple[str, dict, list]:
    from .ingest import read_counts

    started = perf_counter()
    empirical, report = read_counts(args.log, args.region)
    ingest = asdict(report) | {"wall_s": perf_counter() - started}
    result = fit_mzipf(empirical)

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
    ranks = _csv(["rank", "count"],
                 ((rank, int(count)) for rank, count in enumerate(empirical.counts, start=1)))
    return (f"fit: gamma={_fmt(result.model.gamma)} q={_fmt(result.model.q)} "
            f"M={result.model.m_total} kl={_fmt(result.kl_distance)} -> {output}",
            {"ingest": ingest}, [(ranks_csv, ranks), (output, _json(payload))])


def cmd_policy(args, output: Path) -> tuple[str, dict, list]:
    from .policy import optimal_policy, theoretical_mstar

    model = _model_from_args(args)
    policy = optimal_policy(model, args.s_cache, args.g_c)
    payload = {
        "nu": policy.water_level,
        "m_star": policy.m_star,
        "theoretical_m_star": theoretical_mstar(model, args.s_cache, args.g_c),
        "p_c": policy.probs.tolist(),
    }
    return (f"policy: m_star={policy.m_star} nu={_fmt(policy.water_level)} -> {output}", {},
            [(output, _json(payload))])


def cmd_validate_mstar(args, output: Path) -> tuple[str, dict, list]:
    from .policy import optimal_policy, theoretical_mstar

    model = _model_from_args(args)
    g_c_list = _parse_int_list(args.g_c_list)
    rows = []
    for g_c in g_c_list:
        m_star = optimal_policy(model, args.s_cache, g_c).m_star
        theo = theoretical_mstar(model, args.s_cache, g_c)
        rows.append((g_c, m_star, theo, abs(m_star - theo) / m_star))
    return (f"validate-mstar: {len(g_c_list)} points -> {output}", {},
            [(output, _csv(["g_c", "kkt_m_star", "theoretical_m_star", "rel_deviation"], rows))])


_TRADEOFF_COLUMNS = [
    "g_c", "regime", "T_analytic", "Po_analytic", "hit_analytic", "T_sim",
    "Po_sim", "hit_sim", "hit_se", "tp_se", "clamped", "error",
]


def cmd_tradeoff(args, output: Path) -> tuple[str, dict, list]:
    model = _model_from_args(args)
    g_c_list = _parse_int_list(args.g_c_list)
    # Every flag is checked whether or not the chosen mode reads it.
    _check_integer("trials", args.trials, 1)
    _check_integer("seed", args.seed, 0)
    # Each sweep sets the cluster size of every point, and checks it there.
    n_users = args.n_users if args.n_users is not None else max(1, *g_c_list)
    base = _network_from_args(args, n_users, 1)
    rows = [{"g_c": g} for g in g_c_list]
    if args.mode in ("analytic", "both"):
        from .analysis import tradeoff_curve

        for row, p in zip(rows, tradeoff_curve(model, base, g_c_list)):
            if p.error:
                row["error"] = p.error
                continue
            row["regime"] = p.regime_tag
            row["T_analytic"] = p.throughput
            row["Po_analytic"] = p.outage
            row["hit_analytic"] = p.hit_prob
            row["clamped"] = p.clamped
    if args.mode in ("simulate", "both"):
        from .simulator import simulate_tradeoff

        points = simulate_tradeoff(model, base, g_c_list, trials=args.trials, base_seed=args.seed)
        for row, point in zip(rows, points):
            if point.error:
                row["error"] = "; ".join(dict.fromkeys(filter(None, [row.get("error"), point.error])))
                continue
            out = point.outcome
            row["T_sim"] = out.min_avg_throughput
            row["Po_sim"] = out.outage_estimate
            row["hit_sim"] = out.hit_prob_estimate
            row["hit_se"] = out.hit_prob_se
            row["tp_se"] = out.throughput_se
    csv_text = _csv(_TRADEOFF_COLUMNS, ([row.get(col) for col in _TRADEOFF_COLUMNS] for row in rows))
    return f"tradeoff: {len(rows)} points ({args.mode}) -> {output}", {}, [(output, csv_text)]


def cmd_simulate(args, output: Path) -> tuple[str, dict, list]:
    from .policy import optimal_policy
    from .simulator import build_grid, run_monte_carlo

    model = _model_from_args(args)
    network = build_grid(args.n_users, args.g_c)
    config = _network_from_args(args, network.n_users, args.g_c)
    policy = optimal_policy(model, args.s_cache, args.g_c)
    outcome = run_monte_carlo(network, policy, model, config, args.trials, args.seed)
    payload = {
        "g_c": args.g_c,
        "n_users": network.n_users,
        "padding": network.n_users - args.n_users,
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
    return (f"simulate: hit={_fmt(outcome.hit_prob_estimate)} "
            f"outage={_fmt(outcome.outage_estimate)} -> {output}", {},
            [(output, _json(payload))])


_COMMANDS = {
    "fit": cmd_fit,
    "policy": cmd_policy,
    "validate-mstar": cmd_validate_mstar,
    "tradeoff": cmd_tradeoff,
    "simulate": cmd_simulate,
}


# Flags that name a file a command reads; main writes no output over one.
_INPUTS = ("log",)


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=_real, required=True, help="Zipf factor (> 0)")
    p.add_argument("--q", type=_real, required=True, help="plateau factor (>= 0)")
    p.add_argument("--m-total", type=_integer, required=True, dest="m_total", help="library size M")
    p.add_argument("--s-cache", type=_integer, default=1, dest="s_cache",
                   help="cache slots per device")


def _add_network_args(p: argparse.ArgumentParser) -> None:
    _add_model_args(p)
    p.add_argument("--rate-c", type=_real, default=1.0, dest="rate_c", help="link rate C (bits/s/Hz)")
    p.add_argument("--reuse-k", type=_integer, default=4, dest="reuse_k", help="TDMA reuse factor K")
    p.add_argument("--trials", type=_integer, default=200)
    p.add_argument("--seed", type=_integer, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d2dlab",
        description="Caching-based D2D content delivery: fitting, policy, analysis, simulation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit an MZipf model to an access log")
    p.add_argument("log", help="CSV log: user_id,content_id,region_id[,timestamp]")
    p.add_argument("--region", type=_integer, default=None, help="keep only this region_id")
    p.add_argument("--ranks-csv", default=None, dest="ranks_csv",
                   help="rank/count CSV path (default: alongside the JSON)")

    p = sub.add_parser("policy", help="compute the optimal caching distribution")
    _add_model_args(p)
    p.add_argument("--g-c", type=_integer, required=True, dest="g_c", help="cluster size")

    p = sub.add_parser("validate-mstar", help="compare water-filled and closed-form m*")
    _add_model_args(p)
    p.add_argument("--g-c-list", required=True, dest="g_c_list",
                   help="comma-separated cluster sizes")

    p = sub.add_parser("tradeoff", help="throughput-outage curve (analytic and/or simulated)")
    _add_network_args(p)
    p.add_argument("--n-users", type=_integer, default=None, dest="n_users",
                   help="users N (defaults to the largest cluster size); "
                        "each point pads N to whole clusters")
    p.add_argument("--g-c-list", required=True, dest="g_c_list")
    p.add_argument("--mode", choices=["analytic", "simulate", "both"], default="analytic")

    p = sub.add_parser("simulate", help="Monte Carlo run at a single cluster size")
    _add_network_args(p)
    p.add_argument("--n-users", type=_integer, required=True, dest="n_users", help="users N")
    p.add_argument("--g-c", type=_integer, required=True, dest="g_c")

    for name, p in sub.choices.items():
        p.add_argument("--output", required=True,
                       help="output path; the manifest goes to <output>.manifest.json")
        p.set_defaults(func=_COMMANDS[name])
    return parser


def main(argv=None) -> int:
    """Run one command, write its outputs and manifest sidecar, and print its summary line."""
    args = build_parser().parse_args(argv)
    started = _utc_now()
    staged: list[tuple[Path, Path]] = []  # (temporary, output), in write order
    try:
        message, record, outputs = args.func(args, Path(args.output))
        manifest = Path(args.output + ".manifest.json")
        # unlike Path.resolve, realpath raises no error on a symlink loop
        inputs = {os.path.realpath(getattr(args, name)) for name in _INPUTS if hasattr(args, name)}
        seen = set()
        for path in [path for path, _ in outputs] + [manifest]:
            place = os.path.realpath(path)
            if place in inputs:
                raise ValueError(f"output {path} would overwrite an input")
            if place in seen:
                raise ValueError(f"two outputs share the path {path}")
            seen.add(place)
        for path, text in outputs:
            _stage(staged, path, text)
        _stage(staged, manifest, _manifest(args, started, record))
        for temporary, output in staged:
            os.replace(temporary, output)
    except OSError as exc:  # a missing or unwritable file, or a malformed log (LogFormatError)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, MemoryError) as exc:  # parameters too large to run are bad parameters
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_PARAMS
    except Exception as exc:  # a fault of the program itself
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        for temporary, _ in staged:
            with contextlib.suppress(OSError):
                temporary.unlink(missing_ok=True)
    print(message)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
