"""Round-loop orchestration: builds a scenario, runs the synchronous
learning loop over all base stations, detects convergence, and aggregates
seeded replications into sweep cells. Writing results to files is the
command line's job (``cli``); nothing here writes a table.

Convergence is judged on the greedy profile (every BS playing its broadcast
best action, conflicts resolved): realized rewards keep fluctuating forever
under constant exploration, the greedy profile is what settles. A run stops
at the first round where the greedy total reward has range within tolerance
over a full window and the greedy association map is unchanged across it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .agents import (algorithm_spaces, finish_round, make_agents,
                     reward_joint, select_and_broadcast)
from .game import (JointEvaluator, enumerate_actions, resolve_conflicts,
                   resolved_utilities)
from .rates import (UserRates, build_capacities, check_grants,
                    compute_user_rates)
from .scenario import ALGORITHMS, ScenarioConfig, draw_channel, generate_topology
from .wifi import duty_cycle_for_config

__all__ = [
    "RoundRecord", "RunResult", "MonteCarloResult", "SweepCell", "RunInputs",
    "prepare_run", "run", "monte_carlo", "sweep", "SWEEP_AXES",
]

SWEEP_AXES = {
    "n_sbs": "n_sbs",
    "n_users": "n_users",
    "r_w": "wifi_rate_req_bps",
    "n_wifi": "wifi_users_per_wap",
}

CONVERGENCE_TOL = 1e-3  # greedy-total range bound, times max(1, |mean|)

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
    """What a run reads of its world, derived from (config, algorithm,
    seed) before the first round; exposed so audits can rebuild it exactly.
    ``capacities`` is the same for every algorithm; ``spaces`` is gated."""

    duty: object
    capacities: object
    spaces: tuple
    agent_seed: int


def prepare_run(config: ScenarioConfig, algorithm: str, seed: int) -> RunInputs:
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    parts = np.random.SeedSequence(int(seed)).generate_state(3 + config.n_bs)
    topology = generate_topology(config, int(parts[0]))
    channel = draw_channel(topology, int(parts[1]))
    duty = duty_cycle_for_config(config)
    caps = build_capacities(channel, duty.lte_share)
    spaces = tuple(enumerate_actions(n, topology, config, int(parts[3 + n]))
                   for n in range(config.n_bs))
    return RunInputs(duty=duty, capacities=caps, agent_seed=int(parts[2]),
                     spaces=algorithm_spaces(spaces, algorithm))


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
    An omitted ``seed`` is ``config.rng_seed``.

    ``keep_records=False`` drops the per-round records (Monte-Carlo
    replications only need the end-state metrics), and with them the played
    joint's per-round rates; its grants are still checked every round.

    ``max_iterations = 0`` runs the set-up alone and reports empty rates
    (``_empty_rates``); the benchmark times set-up (``setup_s``) by such
    runs, so the value must stay accepted.
    """
    if seed is None:
        seed = config.rng_seed
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    inputs = prepare_run(config, algorithm, seed)
    caps, spaces = inputs.capacities, inputs.spaces
    team = make_agents(algorithm, spaces, config, inputs.agent_seed)
    # the coupled baseline is scored under classic single-BS association
    coupled = algorithm == "q_lteu_coupled"
    evaluator = JointEvaluator(spaces, caps, coupled=coupled)
    n_bs = len(spaces)

    records = []
    converged_at = None
    final_rates = None
    per_bs_utility = np.zeros(config.n_bs)
    # the stability test is vacuous until every agent has earned at least
    # one reward sample per action, so arm it only after full coverage;
    # the greedy totals are kept from the arming round on
    unplayed = [set(range(len(space))) for space in spaces]
    armed = False
    totals = deque(maxlen=config.convergence_window)
    # rounds in a row, this one included, with the same greedy association
    held, last_association = 0, None

    for t in range(1, config.max_iterations + 1):
        # the broadcast: the played row and the advertised-best row
        current, best = zip(*[select_and_broadcast(agent) for agent in team])
        # every resolved utility of the round in one evaluator call: agent
        # n's reward is entry (n, n), then the played and the greedy rows
        batch = evaluator.batch_utilities(_evaluator_rows(team, current, best))
        utilities, greedy_utilities = batch[n_bs], batch[n_bs + 1]

        # the played joint settled once; its grant check, the audit, the
        # agents' association bits and a record's rates all read this block,
        # and no agent learns before the audit has passed
        settled = resolve_conflicts(spaces, current, caps, coupled=coupled)
        if keep_records:
            user_rates = compute_user_rates(settled, caps)
        else:
            check_grants(settled, caps)
        audit = resolved_utilities(settled, caps)
        # np.allclose(rtol=1e-9, atol=1e-9) written out, without its
        # overhead; unlike allclose, equal infinities fail
        if not (np.abs(utilities - audit) <= 1e-9 + 1e-9 * np.abs(audit)).all():
            raise RuntimeError("reward audit failed: evaluator and direct "
                               "recomputation disagree")
        diags = tuple(finish_round(agent, current, best, batch[n, n], settled)
                      for n, agent in enumerate(team))

        greedy = resolve_conflicts(spaces, best, caps, coupled=coupled)
        greedy_rates = compute_user_rates(greedy, caps)
        association = tuple(zip(greedy_rates.serving_dl.tolist(),
                                greedy_rates.serving_ul.tolist()))
        greedy_total = float(greedy_utilities.sum())

        if keep_records:
            records.append(RoundRecord(
                t=t, joint_action=current,
                utilities=tuple(float(u) for u in utilities),
                total_reward=float(utilities.sum()),
                greedy_action=best, greedy_total=greedy_total,
                association=association, user_rates=user_rates,
                diagnostics=diags))

        final_rates = greedy_rates
        per_bs_utility = greedy_utilities
        held = held + 1 if association == last_association else 1
        last_association = association
        if not armed:
            for left, action_i in zip(unplayed, current):
                left.discard(action_i)
            armed = not any(unplayed)
        if armed:
            totals.append(greedy_total)
            full = len(totals) == totals.maxlen
            if full and held >= config.convergence_window:
                mean = sum(totals) / len(totals)
                if (max(totals) - min(totals)
                        <= CONVERGENCE_TOL * max(1.0, abs(mean))):
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
    sum_rate_ci: tuple[float, float]
    median_rate_mean: float
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
                base_seed: int | None = None) -> MonteCarloResult:
    """Independent seeded replications with 95% bootstrap intervals on the
    mean sum-rate and mean median-user-rate, plus the pooled rate CDF.
    An omitted ``base_seed`` is ``config.rng_seed``."""
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    if base_seed is None:
        base_seed = config.rng_seed
    if base_seed < 0:
        raise ValueError(f"base_seed must be nonnegative, got {base_seed}")
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
        sum_rate_ci=_bootstrap_ci(sum_rates, rng),
        median_rate_mean=float(med_rates.mean()),
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
    """One (axis value, algorithm) cell of a sweep and its replications."""

    axis: str
    value: float
    result: MonteCarloResult


def check_entries(name: str, entries) -> None:
    """Refuse an empty list, which would write a header-only table, and a
    repeated entry, which would compute the same rows again; each message
    begins with ``name``."""
    if not entries:
        raise ValueError(f"{name} must not be empty")
    for i, entry in enumerate(entries):
        if entry in entries[:i]:
            raise ValueError(f"{name} must not repeat an entry, "
                             f"got {entry!r} twice")


def sweep(template: ScenarioConfig, axis: str, values, algorithms=None,
          n_runs: int = 100, base_seed: int | None = None) -> list[SweepCell]:
    """Cross-product of axis values and algorithms, one Monte-Carlo cell
    each; neither list may be empty or repeat an entry, and every algorithm
    must be known before the first cell runs. Every cell shares the same
    base seed, an omitted one being ``template.rng_seed``, so the
    algorithms' replications at one axis value are pairwise comparable."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; "
                         f"choose from {sorted(SWEEP_AXES)}")
    algorithms = ALGORITHMS if algorithms is None else list(algorithms)
    values = list(values)
    for name, given in (("values", values), ("algorithms", algorithms)):
        check_entries(f"sweep {name}", given)
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
    # every cell's config first: the config refuses a value (a count of
    # 12.5, say) before any cell runs
    configs = [template.with_overrides(**{SWEEP_AXES[axis]: value})
               for value in values]
    cells = []
    for value, config in zip(values, configs):
        for algorithm in algorithms:
            cells.append(SweepCell(
                axis=axis, value=float(value),
                result=monte_carlo(config, algorithm, n_runs, base_seed)))
    return cells
