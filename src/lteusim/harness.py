"""Round-loop orchestration: builds a scenario, runs the synchronous
learning loop over all base stations, detects convergence, and aggregates
seeded replications into sweep tables.

Convergence is judged on the greedy profile (every BS playing its broadcast
best action, conflicts resolved): realized rewards keep fluctuating forever
under constant exploration, the greedy profile is what settles. A run stops
at the first round where the greedy total reward has range within tolerance
over a full window and the greedy association map is unchanged across it.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass

import numpy as np

from .agents import (QDiagnostics, algorithm_capacities, algorithm_spaces,
                     finish_round, make_agents, observe_outcome, reward_joint,
                     select_and_broadcast)
from .game import (JointEvaluator, enumerate_actions, resolve_conflicts,
                   resolved_utilities, validate_space)
from .rates import UserRates, build_capacities, compute_user_rates
from .scenario import ALGORITHMS, ScenarioConfig, draw_channel, generate_topology
from .wifi import default_params, duty_cycle_for_config, saturation_throughput

__all__ = [
    "RoundRecord", "RunResult", "MonteCarloResult", "SweepCell", "RunInputs",
    "prepare_run", "run", "monte_carlo", "sweep", "resolve_conflicts",
    "write_trace_csv", "write_cdf_csv", "write_sweep_csv", "SWEEP_AXES",
]

SWEEP_AXES = {
    "n_sbs": "n_sbs",
    "n_users": "n_users",
    "r_w": "wifi_rate_req_bps",
    "n_wifi": "wifi_users_per_wap",
}

FLOAT_FORMAT = ".9g"


@dataclass(frozen=True)
class RoundRecord:
    """One synchronous round: its broadcast (the played row ``joint_action``
    and the advertised-best row ``greedy_action``), what the played row
    earned, and what the greedy profile would have looked like."""

    t: int
    joint_action: tuple[int, ...]
    utilities: tuple[float, ...]
    total_reward: float
    greedy_action: tuple[int, ...]
    greedy_total: float
    association: tuple[tuple[int, int], ...]  # greedy (dl, ul) serving per user
    user_rates: UserRates
    diagnostics: tuple


@dataclass(frozen=True)
class RunResult:
    records: tuple[RoundRecord, ...]
    converged_at: int | None
    final_rates: UserRates
    metrics: dict
    config: ScenarioConfig
    algorithm: str
    seed: int
    lte_fraction: float
    wifi_overloaded: bool
    decoupled_users: int


@dataclass(frozen=True)
class RunInputs:
    """Everything a run derives from (config, algorithm, seed) before the
    first round; exposed so audits can rebuild a run's world exactly."""

    topology: object
    channel: object
    duty: object
    capacities: object
    spaces: tuple
    agent_seed: int


def prepare_run(config: ScenarioConfig, algorithm: str, seed: int) -> RunInputs:
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    parts = np.random.SeedSequence(int(seed)).generate_state(3 + config.n_bs)
    topology = generate_topology(config, int(parts[0]))
    channel = draw_channel(topology, config, int(parts[1]))
    duty = duty_cycle_for_config(config)
    caps = build_capacities(channel, config, duty.lte_share)
    spaces = tuple(enumerate_actions(n, topology, config, int(parts[3 + n]))
                   for n in range(config.n_bs))
    return RunInputs(topology=topology, channel=channel, duty=duty,
                     capacities=algorithm_capacities(caps, algorithm),
                     spaces=algorithm_spaces(spaces, algorithm),
                     agent_seed=int(parts[2]))


def _audit_wifi(config: ScenarioConfig, duty) -> None:
    # Every non-overloaded run must leave WiFi at least its demanded rate;
    # an overloaded WAP is flagged on the result instead (L is already 0).
    if config.n_waps == 0 or duty.wifi_overloaded:
        return
    params = default_params(config.wifi_users_per_wap)
    throughput = saturation_throughput(params)
    per_station = throughput * (1.0 - duty.lte_share) / config.wifi_users_per_wap
    if per_station < config.wifi_rate_req_bps * (1.0 - 1e-12):
        raise RuntimeError("WiFi guarantee audit failed: "
                           f"{per_station} < {config.wifi_rate_req_bps}")


def _audit_spaces(spaces, z_levels: int) -> None:
    for space in spaces:
        found = validate_space(space, z_levels)
        if found is not None:
            i, violation = found
            raise RuntimeError(
                f"infeasible action {i} in BS {space.owner} space: "
                f"{violation.constraint}")


def _empty_rates(n_users: int) -> UserRates:
    return UserRates(dl_bps=np.zeros(n_users), ul_bps=np.zeros(n_users),
                     serving_dl=np.full(n_users, -1, dtype=int),
                     serving_ul=np.full(n_users, -1, dtype=int))


def _metrics_from(rates: UserRates, per_bs_utility) -> dict:
    total = np.asarray(rates.total_bps, dtype=float)
    return {
        "sum_rate_bps": float(total.sum()),
        "median_user_rate_bps": float(np.median(total)) if total.size else 0.0,
        "rate_cdf_bps": tuple(float(v) for v in np.sort(total)),
        "per_bs_utility": tuple(float(u) for u in per_bs_utility),
    }


def _evaluator_rows(team, current, best) -> list:
    """The round's (n_bs + 2, n_bs) evaluator rows: each agent's reward
    joint in team order, then the played and the greedy joint."""
    rewards = [reward_joint(agent, current, best) for agent in team]
    return rewards + [current, best]


def run(config: ScenarioConfig, algorithm: str = "esn", seed: int | None = None,
        keep_records: bool = True) -> RunResult:
    """One full learning run; deterministic in (config, algorithm, seed).

    ``keep_records`` drops the per-round records (Monte-Carlo replications
    only need the end-state metrics).
    """
    if seed is None:
        seed = config.rng_seed
    inputs = prepare_run(config, algorithm, seed)
    caps, spaces = inputs.capacities, inputs.spaces
    _audit_wifi(config, inputs.duty)
    _audit_spaces(spaces, config.z_levels)
    team = make_agents(algorithm, spaces, config, inputs.agent_seed)
    # the coupled baseline is scored under classic single-BS association
    coupled = algorithm == "q_lteu_coupled"
    evaluator = JointEvaluator(spaces, caps, eta=config.eta, coupled=coupled)
    n_bs = len(spaces)

    records = []
    window = deque(maxlen=config.convergence_window)
    converged_at = None
    final_rates = None
    per_bs_utility = np.zeros(config.n_bs)
    # the stability test is vacuous until every agent has earned at least
    # one reward sample per action, so arm it only after full coverage
    visits = [np.zeros(len(space), dtype=int) for space in spaces]
    armed = False

    for t in range(1, config.max_iterations + 1):
        # the broadcast: the played row and the advertised-best row
        current, best = zip(*[select_and_broadcast(agent) for agent in team])
        # every resolved utility of the round in one evaluator call: agent
        # n's reward is entry (n, n), then the played and the greedy rows
        batch = evaluator.batch_utilities(_evaluator_rows(team, current, best))
        utilities, greedy_utilities = batch[n_bs], batch[n_bs + 1]
        diags = tuple(finish_round(agent, current, best, batch[n, n])
                      for n, agent in enumerate(team))

        # the played joint settled once; rates, the audit and the agents'
        # association bits all read this one block
        settled = resolve_conflicts(spaces, current, caps, coupled=coupled)
        user_rates = compute_user_rates(settled, caps)
        audit = resolved_utilities(settled, caps, eta=config.eta)
        # np.allclose(rtol=1e-9, atol=1e-9) written out, without its
        # overhead; unlike allclose, equal infinities fail
        if not (np.abs(utilities - audit) <= 1e-9 + 1e-9 * np.abs(audit)).all():
            raise RuntimeError("reward audit failed: evaluator and direct "
                               "recomputation disagree")
        for agent in team:
            observe_outcome(agent, settled)

        greedy = resolve_conflicts(spaces, best, caps, coupled=coupled)
        greedy_rates = compute_user_rates(greedy, caps)
        association = tuple(zip(greedy_rates.serving_dl.tolist(),
                                greedy_rates.serving_ul.tolist()))

        if keep_records:
            records.append(RoundRecord(
                t=t, joint_action=current,
                utilities=tuple(float(u) for u in utilities),
                total_reward=float(utilities.sum()),
                greedy_action=best, greedy_total=float(greedy_utilities.sum()),
                association=association, user_rates=user_rates,
                diagnostics=diags))

        final_rates = greedy_rates
        per_bs_utility = greedy_utilities
        for n, action_i in enumerate(current):
            visits[n][action_i] += 1
        if not armed and all((v > 0).all() for v in visits):
            armed = True
            window.clear()  # stability gathered before coverage is void
        window.append((float(greedy_utilities.sum()), association))
        if armed and len(window) == window.maxlen:
            totals = [w[0] for w in window]
            mean = sum(totals) / len(totals)
            stable_reward = (max(totals) - min(totals)
                             <= config.convergence_tol * max(1.0, abs(mean)))
            stable_map = all(w[1] == window[0][1] for w in window)
            if stable_reward and stable_map:
                converged_at = t
                break

    if final_rates is None:  # max_iterations == 0
        final_rates = _empty_rates(config.n_users)
    return RunResult(records=tuple(records), converged_at=converged_at,
                     final_rates=final_rates,
                     metrics=_metrics_from(final_rates, per_bs_utility),
                     config=config, algorithm=algorithm, seed=int(seed),
                     lte_fraction=float(inputs.duty.lte_share),
                     wifi_overloaded=bool(inputs.duty.wifi_overloaded),
                     decoupled_users=final_rates.decoupled_users())


# Monte-Carlo replication ---------------------------------------------------


@dataclass(frozen=True)
class MonteCarloResult:
    algorithm: str
    n_runs: int
    base_seed: int
    sum_rate_mean: float
    sum_rate_median: float
    sum_rate_ci: tuple[float, float]
    median_rate_mean: float
    median_rate_median: float
    median_rate_ci: tuple[float, float]
    pooled_cdf_bps: tuple
    converged_fraction: float
    mean_converged_at: float | None  # None when no run converged
    run_sum_rates: tuple
    run_median_rates: tuple
    run_converged_at: tuple
    run_decoupled_users: tuple
    lte_fraction: float
    wifi_overloaded: bool


def _bootstrap_ci(values, rng, n_resamples=1000):
    values = np.asarray(values, dtype=float)
    if values.size == 1:
        return (float(values[0]), float(values[0]))
    picks = rng.integers(0, values.size, size=(n_resamples, values.size))
    means = values[picks].mean(axis=1)
    return (float(np.percentile(means, 2.5)),
            float(np.percentile(means, 97.5)))


def monte_carlo(config: ScenarioConfig, algorithm: str, n_runs: int,
                base_seed: int = 0) -> MonteCarloResult:
    """Independent seeded replications with 95% bootstrap intervals on the
    mean sum-rate and mean median-user-rate, plus the pooled rate CDF."""
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    seeds = np.random.SeedSequence(int(base_seed)).generate_state(n_runs)
    results = [run(config, algorithm, int(s), keep_records=False)
               for s in seeds]

    sum_rates = np.array([r.metrics["sum_rate_bps"] for r in results])
    med_rates = np.array([r.metrics["median_user_rate_bps"] for r in results])
    converged = [r.converged_at for r in results]
    done = [c for c in converged if c is not None]
    pooled = np.sort(np.concatenate(
        [r.metrics["rate_cdf_bps"] for r in results]))
    rng = np.random.default_rng(np.random.SeedSequence([int(base_seed), 1]))
    return MonteCarloResult(
        algorithm=algorithm, n_runs=n_runs, base_seed=int(base_seed),
        sum_rate_mean=float(sum_rates.mean()),
        sum_rate_median=float(np.median(sum_rates)),
        sum_rate_ci=_bootstrap_ci(sum_rates, rng),
        median_rate_mean=float(med_rates.mean()),
        median_rate_median=float(np.median(med_rates)),
        median_rate_ci=_bootstrap_ci(med_rates, rng),
        pooled_cdf_bps=tuple(float(v) for v in pooled),
        converged_fraction=len(done) / n_runs,
        mean_converged_at=float(np.mean(done)) if done else None,
        run_sum_rates=tuple(float(v) for v in sum_rates),
        run_median_rates=tuple(float(v) for v in med_rates),
        run_converged_at=tuple(converged),
        run_decoupled_users=tuple(r.decoupled_users for r in results),
        lte_fraction=results[0].lte_fraction,
        wifi_overloaded=results[0].wifi_overloaded)


# sweeps --------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    axis: str
    value: float
    algorithm: str
    n_runs: int
    lte_fraction: float
    wifi_overloaded: bool
    sum_rate_mean: float
    sum_rate_ci_lo: float
    sum_rate_ci_hi: float
    median_rate_mean: float
    median_rate_ci_lo: float
    median_rate_ci_hi: float
    converged_fraction: float
    mean_converged_at: float | None


def sweep(template: ScenarioConfig, axis: str, values, algorithms=None,
          n_runs: int = 100, base_seed: int = 0) -> list[SweepCell]:
    """Cross-product of axis values and algorithms, one Monte-Carlo cell
    each. All algorithms at one axis value share the same base seed, so
    their replications are pairwise comparable."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; "
                         f"choose from {sorted(SWEEP_AXES)}")
    if algorithms is None:
        algorithms = ALGORITHMS
    field = SWEEP_AXES[axis]
    kind = type(getattr(template, field))
    values = list(values)
    # a count axis must not truncate 12.5 to 12 and still report 12.5
    if kind is int:
        for value in values:
            if not float(value).is_integer():
                raise ValueError(f"sweep axis {axis!r} takes whole numbers, "
                                 f"got {value!r}")
    cells = []
    for value in values:
        config = template.with_overrides(**{field: kind(value)})
        for algorithm in algorithms:
            mc = monte_carlo(config, algorithm, n_runs, base_seed)
            cells.append(SweepCell(
                axis=axis, value=float(value), algorithm=algorithm,
                n_runs=n_runs, lte_fraction=mc.lte_fraction,
                wifi_overloaded=mc.wifi_overloaded,
                sum_rate_mean=mc.sum_rate_mean,
                sum_rate_ci_lo=mc.sum_rate_ci[0],
                sum_rate_ci_hi=mc.sum_rate_ci[1],
                median_rate_mean=mc.median_rate_mean,
                median_rate_ci_lo=mc.median_rate_ci[0],
                median_rate_ci_hi=mc.median_rate_ci[1],
                converged_fraction=mc.converged_fraction,
                mean_converged_at=mc.mean_converged_at))
    return cells


# CSV output ----------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:  # a mean over no converged run
        return "nan"
    if isinstance(value, float):
        return format(value, FLOAT_FORMAT)
    return str(value)


def _diag_columns(diag):
    if isinstance(diag, QDiagnostics):
        return (diag.target, diag.q_before, float("nan"), float("nan"))
    return (diag.e_alpha, diag.r_hat_alpha, diag.e_beta, diag.r_hat_beta)


def write_trace_csv(result: RunResult, path) -> None:
    """Per-round, per-BS learning trace of a kept-records run."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["round", "bs", "action", "e_alpha", "r_hat_alpha",
                         "e_beta", "r_hat_beta", "utility"])
        for record in result.records:
            for bs, diag in enumerate(record.diagnostics):
                e_a, r_a, e_b, r_b = _diag_columns(diag)
                writer.writerow([record.t, bs, record.joint_action[bs],
                                 _fmt(float(e_a)), _fmt(float(r_a)),
                                 _fmt(float(e_b)), _fmt(float(r_b)),
                                 _fmt(record.utilities[bs])])


def write_cdf_csv(samples, path) -> None:
    ordered = np.sort(np.asarray(samples, dtype=float))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["rate_bps", "cdf"])
        for i, value in enumerate(ordered):
            writer.writerow([_fmt(float(value)),
                             _fmt((i + 1) / len(ordered))])


def write_sweep_csv(cells, path) -> None:
    names = ["axis", "value", "algorithm", "n_runs", "lte_fraction",
             "wifi_overloaded", "sum_rate_mean", "sum_rate_ci_lo",
             "sum_rate_ci_hi", "median_rate_mean", "median_rate_ci_lo",
             "median_rate_ci_hi", "converged_fraction", "mean_converged_at"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for cell in cells:
            writer.writerow([_fmt(getattr(cell, name)) for name in names])
