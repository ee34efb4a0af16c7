"""Command-line front end: single runs, sweeps, coexistence tables, and
equilibrium checks, all writing CSV/text outputs into a chosen directory.

This module is the one writer of result tables: every CSV goes through
``_write_csv``, which formats each cell with ``_fmt`` (floats to
``FLOAT_FORMAT``, nine significant digits; a missing value as ``nan``).
The config echo and the small-game export keep their formats next to
their own code, in ``scenario`` and ``game``.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import game, harness, wifi
from .agents import QDiagnostics
from .scenario import ALGORITHMS, ScenarioConfig, desk_config

FLOAT_FORMAT = ".9g"


def _parse_sets(pairs):
    mapping = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def _parse_list(flag, text, kind):
    """The non-empty entries of a comma-separated flag value, each read as
    ``kind``; an entry that does not read names the flag."""
    entries = []
    for entry in text.split(","):
        if not entry:
            continue
        try:
            entries.append(kind(entry))
        except ValueError:
            raise ValueError(f"{flag} takes comma-separated {kind.__name__} "
                             f"values, got {entry!r}") from None
    return entries


def _build_config(args, defaults=None) -> ScenarioConfig:
    if args.config:
        base = ScenarioConfig.from_file(args.config)
    elif defaults:
        base = desk_config(**defaults)
    else:
        base = desk_config()
    overrides = _parse_sets(args.set)
    if not overrides:
        return base
    mapping = base.to_mapping()
    mapping.update(overrides)
    return ScenarioConfig.from_mapping(mapping)


def _out_dir(args) -> Path:
    """The output directory, created just before the first write, once the
    command's inputs have passed, so a refused command leaves none."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _seed(args, config: ScenarioConfig) -> int:
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    return config.rng_seed if args.seed is None else args.seed


# CSV output ----------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:  # a mean over no converged run
        return "nan"
    if isinstance(value, float):
        return format(value, FLOAT_FORMAT)
    return str(value)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([_fmt(value) for value in row] for row in rows)


def _diag_columns(diag):
    if isinstance(diag, QDiagnostics):
        return (diag.target, diag.q_before, float("nan"), float("nan"))
    return (diag.e_alpha, diag.r_hat_alpha, diag.e_beta, diag.r_hat_beta)


def write_trace_csv(result: harness.RunResult, path) -> None:
    """Per-round, per-BS learning trace of a kept-records run."""
    _write_csv(path, ["round", "bs", "action", "e_alpha", "r_hat_alpha",
                      "e_beta", "r_hat_beta", "utility"],
               ([record.t, bs, record.joint_action[bs],
                 *(float(v) for v in _diag_columns(diag)),
                 record.utilities[bs]]
                for record in result.records
                for bs, diag in enumerate(record.diagnostics)))


def write_cdf_csv(samples, path) -> None:
    ordered = np.sort(np.asarray(samples, dtype=float)).tolist()
    _write_csv(path, ["rate_bps", "cdf"],
               ((value, (i + 1) / len(ordered))
                for i, value in enumerate(ordered)))


def write_rates_csv(rates, path) -> None:
    """Per-user achieved rates and serving BSs (-1 when not served)."""
    _write_csv(path, ["user", "dl_bps", "ul_bps", "serving_dl", "serving_ul"],
               zip(range(len(rates.dl_bps)), rates.dl_bps.tolist(),
                   rates.ul_bps.tolist(), rates.serving_dl.tolist(),
                   rates.serving_ul.tolist()))


def write_sweep_csv(cells, path) -> None:
    """One row per sweep cell: its axis value, then its replications'
    algorithm, size, duty cycle, means with 95% intervals, and
    convergence."""
    rows = []
    for cell in cells:
        r = cell.result
        rows.append([cell.axis, cell.value, r.algorithm, r.n_runs,
                     r.lte_fraction, r.wifi_overloaded, r.sum_rate_mean,
                     *r.sum_rate_ci, r.median_rate_mean, *r.median_rate_ci,
                     r.converged_fraction, r.mean_converged_at])
    _write_csv(path, ["axis", "value", "algorithm", "n_runs", "lte_fraction",
                      "wifi_overloaded", "sum_rate_mean", "sum_rate_ci_lo",
                      "sum_rate_ci_hi", "median_rate_mean",
                      "median_rate_ci_lo", "median_rate_ci_hi",
                      "converged_fraction", "mean_converged_at"], rows)


def _report(out: Path, config: ScenarioConfig, name: str, lines) -> None:
    """The closing step of a command: the config echo, the report text in
    ``name``, and the same text on stdout."""
    config.echo(out / "config_echo.txt")
    text = "\n".join(lines)
    (out / name).write_text(text + "\n")
    print(text)
    print(f"outputs in {out}")


def _run_summary_lines(result) -> list[str]:
    m = result.metrics
    lines = [
        f"algorithm = {result.algorithm}",
        f"seed = {result.seed}",
        f"rounds = {len(result.records)}",
        f"converged_at = {result.converged_at}",
        f"lte_fraction = {_fmt(result.lte_fraction)}",
        f"wifi_overloaded = {result.wifi_overloaded}",
        f"sum_rate_bps = {_fmt(m['sum_rate_bps'])}",
        f"median_user_rate_bps = {_fmt(m['median_user_rate_bps'])}",
        f"decoupled_users = {result.decoupled_users}",
    ]
    for n, value in enumerate(m["per_bs_utility"]):
        lines.append(f"utility_bs{n} = {_fmt(float(value))}")
    return lines


def cmd_run(args) -> int:
    config = _build_config(args)
    seed = _seed(args, config)
    result = harness.run(config, args.algorithm, seed)
    out = _out_dir(args)
    write_trace_csv(result, out / "trace.csv")
    write_cdf_csv(result.metrics["rate_cdf_bps"], out / "cdf.csv")
    write_rates_csv(result.final_rates, out / "rates.csv")
    _report(out, config, "summary.txt", _run_summary_lines(result))
    return 0


def cmd_sweep(args) -> int:
    config = _build_config(args)
    seed = _seed(args, config)
    values = _parse_list("--values", args.values, float)
    algorithms = [a for a in args.algorithms.split(",") if a]
    cells = harness.sweep(config, args.axis, values, algorithms,
                          n_runs=args.runs, base_seed=seed)
    out = _out_dir(args)
    write_sweep_csv(cells, out / "sweep.csv")
    lines = [f"axis = {args.axis}", f"cells = {len(cells)}",
             f"runs_per_cell = {args.runs}"]
    for cell in cells:
        r = cell.result
        lines.append(f"{args.axis}={_fmt(cell.value)} {r.algorithm}: "
                     f"sum_rate_mean={_fmt(r.sum_rate_mean)} "
                     f"median_rate_mean={_fmt(r.median_rate_mean)}")
    _report(out, config, "summary.txt", lines)
    return 0


def cmd_coexistence(args) -> int:
    config = _build_config(args)
    users = _parse_list("--wifi-users", args.wifi_users, int)
    rates = (_parse_list("--rates", args.rates, float)
             if args.rates else [config.wifi_rate_req_bps])
    # every row first: a bad entry must fail before any file is written
    rows = []
    for n_wifi in users:
        params = wifi.default_params(n_wifi)
        throughput = wifi.saturation_throughput(params)
        for r_w in rates:
            duty = wifi.lte_fraction(params, r_w)
            rows.append([n_wifi, r_w, params.tau_prob, throughput,
                         duty.lte_share, duty.wifi_overloaded])
    out = _out_dir(args)
    config.echo(out / "config_echo.txt")
    path = out / "coexistence.csv"
    _write_csv(path, ["n_wifi", "rate_req_bps", "tx_probability",
                      "throughput_bps", "lte_fraction", "wifi_overloaded"],
               rows)
    print(f"wrote {path}")
    return 0


NE_CHECK_DEFAULTS = dict(n_sbs=2, n_users=4, action_set_size=5,
                         reservoir_units=40, max_iterations=800,
                         convergence_window=40)


def cmd_ne_check(args) -> int:
    # defaults keep the joint space small enough for exact enumeration
    config = _build_config(args, defaults=NE_CHECK_DEFAULTS)
    seed = _seed(args, config)
    # the payoff table does not depend on the run: refuse a big game first
    inputs = harness.prepare_run(config, "esn", seed)
    payoffs = game.joint_payoffs(inputs.spaces, inputs.capacities, config.eta)
    result = harness.run(config, "esn", seed)
    if not result.records:
        raise ValueError("ne-check needs at least one round; "
                         "raise max_iterations")
    best = result.records[-1].greedy_action
    profile = [game.MixedStrategy.epsilon_greedy(space, best[n], config.epsilon)
               for n, space in enumerate(inputs.spaces)]
    probe = game.verify_mixed_ne(profile, payoffs)
    lines = [f"seed = {seed}", f"converged_at = {result.converged_at}",
             f"epsilon = {_fmt(config.epsilon)}"]
    all_ok = True
    for n, table in enumerate(probe.expected_by_action):
        table = np.asarray(table)
        current = probe.expected_current[n]
        gain = float(table.max() - current)
        # exploration keeps (1 - epsilon) weight off the best reply, so a
        # matching slack is the tightest certificate this profile can earn
        tol = config.epsilon * float(table.max() - table.mean()) + 1e-6
        ok = gain <= tol
        all_ok = all_ok and ok
        lines.append(f"bs{n}: best_swap_gain={_fmt(gain)} "
                     f"tolerance={_fmt(tol)} ok={ok}")
    lines.append(f"equilibrium = {all_ok}")
    out = _out_dir(args)
    game.export_small_game(payoffs, out / "small_game.txt")
    _report(out, config, "ne_report.txt", lines)
    return 0 if all_ok else 1


def _add_common(sub):
    sub.add_argument("--config", help="config file (JSON or key = value)")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override one config field (repeatable)")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", default="lteusim_out",
                     help="output directory (created if missing)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lteusim",
        description="Learning-based spectrum allocation simulator")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="one learning run")
    _add_common(p_run)
    p_run.add_argument("--algorithm", choices=ALGORITHMS, default="esn")
    p_run.set_defaults(func=cmd_run)

    p_sweep = subs.add_parser("sweep", help="Monte-Carlo parameter sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--axis", choices=sorted(harness.SWEEP_AXES),
                         required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values")
    p_sweep.add_argument("--algorithms", default=",".join(ALGORITHMS),
                         help="comma-separated algorithm names")
    p_sweep.add_argument("--runs", type=int, default=100,
                         help="Monte-Carlo replications per cell")
    p_sweep.set_defaults(func=cmd_sweep)

    p_coex = subs.add_parser("coexistence",
                             help="WiFi contention and duty-cycle table")
    _add_common(p_coex)
    p_coex.add_argument("--wifi-users", default="1,2,4,8",
                        help="comma-separated stations per WAP")
    p_coex.add_argument("--rates", default="",
                        help="comma-separated WiFi rate demands in bps "
                             "(default: the configured demand)")
    p_coex.set_defaults(func=cmd_coexistence)

    p_ne = subs.add_parser("ne-check",
                           help="run a small game and verify the converged "
                                "profile is an approximate equilibrium")
    _add_common(p_ne)
    p_ne.set_defaults(func=cmd_ne_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
