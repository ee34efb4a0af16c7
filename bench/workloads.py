"""Workloads of the lteusim benchmark and the per-run probe.

Each workload is one call into ``lteusim.harness`` made from the seed
alone; the simulator only ever sees a config and a seed. The load is a
closed loop: one process, one workload call at a time.

The probe rebinds three names: ``harness.run`` (entry and exit),
``harness.make_agents`` (the end of set-up, and the team it returns) and
``harness.select_and_broadcast``, whose call for the team's first agent
marks the start of each round. After every run it checks the outputs and
the learners and records the run's fingerprint and timings.

Other tenants of a shared host slow each of its CPUs in phases of
seconds, and mostly not all CPUs at once. So at a round start the probe
moves the process to the next CPU it may use, at most every ``MOVE_S``;
the process stays single-threaded, and the fastest rounds then come
from whichever CPU was left alone.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from tracer import package_modules, rebind, restore


MOVE_S = 0.25  # least seconds between two CPU moves


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                # "desk" (desk_config()) or "reference"
    algorithms: tuple[str, ...]
    n_runs: int | None         # replications; None: direct harness.run

    def make_config(self, scenario):
        if self.config == "desk":
            return scenario.desk_config()
        return scenario.ScenarioConfig()

    def call(self, harness, config, seed: int) -> None:
        for algorithm in self.algorithms:
            if self.n_runs is None:
                harness.run(config, algorithm, seed)
            else:
                harness.monte_carlo(config, algorithm, self.n_runs, seed)


Q_VARIANTS = ("q_lteu_decoupled", "q_lte_decoupled", "q_lteu_coupled")

# Why each workload exists is recorded beside its name in BENCHMARK.json.
# ref_esn (reference defaults: 1000-unit CSR reservoirs, ARPACK set-up, no
# replication layer, learners that diverge at several seeds) is left out
# of BENCHMARK.json: a call is one 2000-round run, so a process gives one
# per-round figure and no faster run to pick, and its ten-seed
# ms_per_round spread has exceeded the largest allowed bound. Its set-up
# samples (~1.6 s of ARPACK each) would also take most of the time budget.
# Run it by hand with --workload ref_esn.
WORKLOADS = {w.name: w for w in (
    Workload("desk_esn_mc", "desk", ("esn",), 4),
    Workload("ref_esn", "reference", ("esn",), None),
    Workload("desk_q_mc", "desk", Q_VARIANTS, 8),
)}


# per-run checks -----------------------------------------------------------


def learners_finite(team) -> bool:
    """Every ESN readout and Q-table of the team is finite."""
    for agent in team:
        if hasattr(agent, "q_table"):
            tables = (agent.q_table,)
        else:
            tables = (agent.ro_alpha.w_out, agent.ro_beta.w_out)
        if not all(np.isfinite(t).all() for t in tables):
            return False
    return True


def rates_valid(result) -> bool:
    """Final rates non-negative and finite, and a positive sum rate."""
    for part in (result.final_rates.dl_bps, result.final_rates.ul_bps):
        part = np.asarray(part, dtype=float)
        if not (np.isfinite(part).all() and (part >= 0).all()):
            return False
    return bool(result.metrics["sum_rate_bps"] > 0)


@dataclass
class RunOutcome:
    """What one ``harness.run`` call produced, seen from outside."""

    algorithm: str
    seed: int
    setup_s: float | None = None
    wall_s: float = 0.0
    error: str | None = None
    rounds: int = 0
    converged_at: int | None = None
    sum_rate_bps: float = float("nan")
    median_user_rate_bps: float = float("nan")
    rates_valid: bool = False
    learners_finite: bool = False
    runtime_warnings: int = 0
    round_starts: list[float] = field(default_factory=list, repr=False)

    @property
    def ok(self) -> bool:
        """run() returned (its audits passed) with valid rates."""
        return self.error is None and self.rates_valid

    @property
    def healthy(self) -> bool:
        return self.ok and self.learners_finite

    def fingerprint(self) -> tuple:
        return (self.rounds, self.converged_at, self.sum_rate_bps,
                self.median_user_rate_bps)

    def ms_per_round(self) -> float | None:
        """Host ms per simulated round after set-up."""
        if not (self.ok and self.rounds and self.setup_s is not None):
            return None
        return 1e3 * (self.wall_s - self.setup_s) / self.rounds

    def round_ms(self) -> list[float]:
        """Host ms of each round but the last, start to next start; empty
        unless the probe saw the start of every round."""
        starts = self.round_starts
        if not (self.ok and self.rounds > 1 and len(starts) == self.rounds):
            return []
        return [1e3 * (b - a) for a, b in zip(starts, starts[1:])]


@dataclass
class RunProbe:
    """Hooks on ``harness.run``, ``harness.make_agents`` and, when the
    harness has it, ``harness.select_and_broadcast``."""

    harness: object
    outcomes: list[RunOutcome] = field(default_factory=list)
    _team: object = None
    _lead: object = None
    _ready: float | None = None
    _starts: list[float] = field(default_factory=list)
    _cpus: tuple[int, ...] = ()
    _moves: int = 0
    _moved: float = 0.0

    @contextlib.contextmanager
    def installed(self):
        run, make_agents = self.harness.run, self.harness.make_agents
        select = getattr(self.harness, "select_and_broadcast", None)
        signature = inspect.signature(run)
        patches = []
        self._cpus = tuple(sorted(os.sched_getaffinity(0)))

        def probed_make_agents(*args, **kwargs):
            self._team = make_agents(*args, **kwargs)
            self._lead = self._team[0] if len(self._team) else None
            self._ready = time.perf_counter()
            return self._team

        def probed_select(agent, *args, **kwargs):
            if agent is self._lead:
                now = time.perf_counter()
                self._starts.append(now)
                if len(self._cpus) > 1 and now - self._moved > MOVE_S:
                    self._moves += 1
                    os.sched_setaffinity(
                        0, {self._cpus[self._moves % len(self._cpus)]})
                    self._moved = now
            return select(agent, *args, **kwargs)

        def probed_run(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            config, seed = bound.arguments["config"], bound.arguments["seed"]
            outcome = RunOutcome(
                algorithm=bound.arguments["algorithm"],
                seed=int(config.rng_seed if seed is None else seed))
            self._team = self._lead = self._ready = None
            self._starts = outcome.round_starts
            entry = time.perf_counter()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                try:
                    result = run(*args, **kwargs)
                except Exception as exc:
                    outcome.error = f"{type(exc).__name__}: {exc}"
                    raise
                finally:
                    outcome.wall_s = time.perf_counter() - entry
                    if self._ready is not None:
                        outcome.setup_s = self._ready - entry
                    outcome.runtime_warnings = sum(
                        issubclass(w.category, RuntimeWarning)
                        for w in caught)
                    self.outcomes.append(outcome)
            outcome.converged_at = result.converged_at
            outcome.rounds = (result.converged_at
                              if result.converged_at is not None
                              else config.max_iterations)
            outcome.sum_rate_bps = result.metrics["sum_rate_bps"]
            outcome.median_user_rate_bps = result.metrics[
                "median_user_rate_bps"]
            outcome.rates_valid = rates_valid(result)
            outcome.learners_finite = learners_finite(self._team)
            return result

        modules = package_modules()
        try:
            rebind(modules, make_agents, probed_make_agents, patches)
            rebind(modules, run, probed_run, patches)
            if select is not None:
                rebind(modules, select, probed_select, patches)
            yield self
        finally:
            restore(patches)
            os.sched_setaffinity(0, self._cpus)

    def take(self) -> list[RunOutcome]:
        taken, self.outcomes = self.outcomes, []
        return taken
