"""The lteusim benchmark: one workload, one seed, one closed-loop process.

    python3 bench/run.py --workload desk_esn_mc --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the simulator is imported from its
``src/`` and nowhere else. ``--trace 0`` repeats the workload call (same
seed) until ``--seconds`` is spent, with no tracer installed, and reports
the end-to-end metrics. ``--trace 1`` alternates an untraced call with a
traced one and reports per-layer metrics plus the tracing overhead.
Every run's outputs are checked; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``, and a
fuller record goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer  # numpy-free, so safe before the BLAS settings

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
BLAS_THREADS = "1"  # single-threaded BLAS keeps run-to-run timing steady
SETUP_CHUNK = 16  # scenarios set up after each untraced call
WARMUP_ROUNDS = 50
ROUND_SHARE = 0.01  # ms_per_round: a scenario's fastest hundredth of rounds
MIN_ROUNDS = 50  # fewer round times than this: fall back to per-run figures

E2E_UNITS = {
    "wall_s": "s", "ms_per_round": "ms", "setup_s": "s", "peak_rss_mb": "MB",
    "failed_fraction": "fraction", "sum_rate_bps": "bps",
    "median_user_rate_bps": "bps", "converged_fraction": "fraction",
    "mean_rounds": "rounds",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_simulator():
    """lteusim from this checkout's src/, or None when it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lteusim.harness
        import lteusim.scenario
    except ImportError as exc:
        print(f"cannot import lteusim from {src}: {exc}", file=sys.stderr)
        return None
    if src.resolve() not in Path(lteusim.__file__).resolve().parents:
        print(f"lteusim resolved outside {src}: {lteusim.__file__}",
              file=sys.stderr)
        return None
    return lteusim


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS that numpy and scipy load."""
    import ctypes

    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                getter = getattr(handle, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    found[f"{package.__name__}:{lib.name}"] = getter()
                    break
    return found


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
    }


# measurement ----------------------------------------------------------------


def timed_call(workload, harness, config, seed, probe, tracer=None) -> dict:
    """One workload call; spans are recorded only when ``tracer`` is given."""
    gc.collect()
    error = None
    start = time.perf_counter()
    try:
        if tracer is None:
            with probe.installed():
                workload.call(harness, config, seed)
        else:
            with tracer.installed(), probe.installed():
                workload.call(harness, config, seed)
    except Exception as exc:  # the call is the unit that may fail; go on
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    runs = probe.take()
    return {"traced": tracer is not None, "wall_s": wall, "error": error,
            "rounds": sum(r.rounds for r in runs), "runs": runs}


def setup_chunk(harness, config, probe, algorithms, key) -> list:
    """Set-ups of zero-round run() calls, which stop where the first round
    would start: every algorithm on SETUP_CHUNK fresh scenarios whose
    seeds derive from ``key``. Returns (algorithm, seconds) pairs."""
    import numpy as np

    probe_config = config.with_overrides(max_iterations=0)
    with probe.installed():
        for seed in np.random.SeedSequence(key).generate_state(SETUP_CHUNK):
            for algorithm in algorithms:
                harness.run(probe_config, algorithm, int(seed),
                            keep_records=False)
    return [(r.algorithm, r.setup_s) for r in probe.take()
            if r.setup_s is not None]


def measure(args, workload, harness, config, probe):
    """Workload calls until ``args.seconds`` is spent (at least one).

    Without tracing, a chunk of set-ups on fresh scenarios follows each
    call, so that set-up samples come from the whole measured time. With
    tracing, short untimed runs first pay the process's first-call costs
    (a first call here is often 5-10% slower), then calls come in
    (untraced, traced) pairs whose order alternates.
    """
    tracer = Tracer() if args.trace else None
    calls, pairs = [], []
    began = time.perf_counter()
    if tracer is not None:
        short = config.with_overrides(max_iterations=WARMUP_ROUNDS)
        for algorithm in workload.algorithms:
            harness.run(short, algorithm, args.seed, keep_records=False)
    while True:
        step_began = time.perf_counter()
        if tracer is None:
            call = timed_call(workload, harness, config, args.seed, probe)
            call["setups"] = setup_chunk(harness, config, probe,
                                         workload.algorithms,
                                         [args.seed, len(calls)])
            calls.append(call)
        else:
            order = (None, tracer) if len(pairs) % 2 == 0 else (tracer, None)
            pair = [timed_call(workload, harness, config, args.seed, probe, t)
                    for t in order]
            pair.sort(key=lambda c: c["traced"])
            pairs.append(pair)
            calls += pair
        now = time.perf_counter()
        if now - began + (now - step_began) > args.seconds:
            return calls, pairs, tracer


# metrics -----------------------------------------------------------------------


def run_summary(calls) -> dict:
    """Outputs and health over every run; quality means use healthy runs."""
    runs = [r for c in calls for r in c["runs"]]
    call_errors = sum(c["error"] is not None and
                      all(r.error is None for r in c["runs"]) for c in calls)
    attempted = len(runs) + call_errors
    failed = sum(not r.ok for r in runs) + call_errors
    unhealthy = sum(not r.healthy for r in runs) + call_errors
    healthy = [r for r in runs if r.healthy]
    returned = [r for r in runs if r.error is None]
    mean = lambda xs: statistics.fmean(xs) if xs else float("nan")
    fingerprints = {tuple(r.fingerprint() for r in c["runs"]) for c in calls}
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": unhealthy / attempted,
        "sum_rate_bps": mean([r.sum_rate_bps for r in healthy]),
        "median_user_rate_bps": mean([r.median_user_rate_bps
                                      for r in healthy]),
        "converged_fraction": (sum(r.converged_at is not None
                                   for r in returned) / len(returned)
                               if returned else float("nan")),
        "mean_rounds": mean([r.rounds for r in returned]),
        "runtime_warnings": sum(r.runtime_warnings for r in runs),
        "distinct_fingerprints": len(fingerprints),
    }


def fastest(values, share: float) -> float:
    """The lower ``share`` quantile (lower sample) of ``values``.

    Other tenants of a shared host slow the process in phases of seconds;
    the fastest samples show what the simulator itself costs, where a
    mean or median would mostly show how busy the host was.
    """
    return sorted(values)[int(len(values) * share)]


def round_cost(calls) -> float | None:
    """Host ms per simulated round after set-up.

    For each algorithm and scenario (run seed), the fastest hundredth of
    the round times of all its runs; then the mean over the algorithm's
    scenarios, and the mean over algorithms, so every scenario and every
    algorithm of the call moves it by its own cost. Rounds of a scenario
    cost nearly the same, while a busy host slows them by up to 2x in
    phases of seconds to minutes; a run of many rounds still holds some
    rounds the host left alone. A scenario whose round starts the probe
    did not see counts with its fastest (wall - set-up) / rounds instead.
    None when no run reached its first round.
    """
    pools = {}
    for run in (r for c in calls for r in c["runs"]):
        per_run = run.ms_per_round()
        if per_run is not None:
            key = (run.algorithm, run.seed)
            rounds, runs = pools.setdefault(key, ([], []))
            rounds += run.round_ms()
            runs.append(per_run)
    by_algorithm = {}
    for (algorithm, _), (rounds, runs) in pools.items():
        value = (fastest(rounds, ROUND_SHARE) if len(rounds) >= MIN_ROUNDS
                 else min(runs))
        by_algorithm.setdefault(algorithm, []).append(value)
    if not by_algorithm:
        return None
    return statistics.fmean(statistics.fmean(v)
                            for v in by_algorithm.values())


def setup_cost(calls) -> float:
    """Set-up seconds per run: for each algorithm, the fastest twentieth
    of the set-ups of the calls' runs and of the chunks between calls,
    then the mean over algorithms.

    ESN set-up cost depends on the scenario's reservoirs, and ARPACK's
    random start makes some set-ups take ten times the rest, so set-ups
    are sampled on many scenarios and only the fastest few are kept.
    """
    by_algorithm = {}
    for call in calls:
        own = [(r.algorithm, r.setup_s) for r in call["runs"]
               if r.setup_s is not None]
        for algorithm, seconds in own + call["setups"]:
            by_algorithm.setdefault(algorithm, []).append(seconds)
    return statistics.fmean(fastest(v, 0.05) for v in by_algorithm.values())


def end_to_end(calls) -> dict:
    return {
        "wall_s": statistics.median(c["wall_s"] for c in calls),
        "ms_per_round": round_cost(calls),
        "setup_s": setup_cost(calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer(tracer, traced_calls, pairs) -> dict:
    layers = tracer.layer_totals()
    n_calls = len(traced_calls)
    rounds = sum(c["rounds"] for c in traced_calls)

    def self_s(layer):
        return layers.get(layer, {"self_s": 0.0})["self_s"] / n_calls

    def per_round(layer):
        return layers.get(layer, {"calls": 0})["calls"] / rounds

    beta_calls = layers.get("agents.beta_expectation", {"calls": 0})["calls"]
    rows = tracer.counts["game.batch_utilities.rows"] / rounds
    metrics = {f"{layer}_s": self_s(layer) for layer in SELF_TIME_LAYERS}
    metrics.update({
        "harness.run.self_s": self_s("harness.run"),
        "harness.monte_carlo.self_s": self_s("harness.monte_carlo"),
        "agents.beta_expectation.calls_per_round":
            per_round("agents.beta_expectation"),
        "agents.beta_expectation.exact_ratio":
            (tracer.counts["agents.beta_expectation.exact"] / beta_calls
             if beta_calls else 0.0),
        "esn.peek_state.calls_per_round": per_round("esn.peek_state"),
        "game.batch_utilities.rows_per_round": rows,
        "game.joint_resolutions_per_round": rows + sum(
            per_round(layer) for layer in RESOLVER_LAYERS),
        "trace_overhead_s": statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in pairs),
    })
    metrics.update({f"{layer}.calls_per_round": per_round(layer)
                    for layer in RESOLVER_LAYERS})
    return metrics


SELF_TIME_LAYERS = (
    "agents.beta_expectation", "agents.build_opponent_model",
    "agents.select_and_broadcast", "agents.finish_round",
    "agents.observe_outcome", "agents.make_agents",
    "esn.peek_state", "esn.readout_all", "esn.readout", "esn.train_step",
    "esn.update_state", "esn.init",
    "game.batch_utilities", "game.resolve_conflicts",
    "game.resolved_utilities", "rates.compute_user_rates",
    "harness.prepare_run", "game.enumerate_actions",
    "rates.build_capacities", "wifi.duty_cycle_for_config",
)
RESOLVER_LAYERS = ("game.resolve_conflicts", "game.resolved_utilities",
                   "rates.compute_user_rates")


# output -----------------------------------------------------------------------


def fmt(value) -> str:
    return format(value, ".6g") if isinstance(value, float) else str(value)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    lteusim = import_simulator()
    if lteusim is None:
        return 2
    from workloads import WORKLOADS, RunProbe

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    harness = lteusim.harness
    config = workload.make_config(lteusim.scenario)
    probe = RunProbe(harness)
    env = environment()

    calls, pairs, tracer = measure(args, workload, harness, config, probe)
    if round_cost(calls) is None:
        # every run failed, or the harness no longer goes through the two
        # names the probe hooks (run per replication, make_agents per run)
        attempted = max(1, sum(len(c["runs"]) for c in calls), len(calls))
        print("no run reached its first round through harness.run and "
              "harness.make_agents; nothing to measure", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted, "metrics": {}}))
        return 1
    summary = run_summary(calls)
    name = f"{workload.name}-seed{args.seed}"
    OUT_DIR.mkdir(exist_ok=True)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    report = {"workload": workload.name, "why": why.get(workload.name),
              "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "summary": summary}
    if tracer is None:
        metrics = {**end_to_end(calls),
                   **{k: summary[k] for k in E2E_UNITS if k in summary}}
        units = E2E_UNITS
        listed = spec["end_to_end"]
    else:
        metrics = per_layer(tracer, [c for c in calls if c["traced"]], pairs)
        units = {k: layer_unit(k) for k in metrics}
        report["layers"] = tracer.layer_totals()
        listed = spec["per_layer"]
        tracer.save_spans(OUT_DIR / f"{name}-spans.npz")
    report["metrics"] = metrics
    report["calls"] = [{**c, "runs": [
        {k: v for k, v in vars(r).items() if k != "round_starts"}
        for r in c["runs"]]} for c in calls]
    (OUT_DIR / f"{name}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    print(f"lteusim benchmark  workload={workload.name} seed={args.seed} "
          f"trace={args.trace} calls={len(calls)} runs={summary['attempted']}")
    print("env  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for key in ("runtime_warnings", "distinct_fingerprints"):
        print(f"{key} = {summary[key]}")
    for key, value in metrics.items():
        print(f"{key} = {fmt(value)} {units[key]}")
    if tracer is not None:
        n = len(pairs)
        print("layers by self time (s per traced call, calls per call):")
        for layer, total in sorted(report["layers"].items(),
                                   key=lambda kv: -kv[1]["self_s"]):
            if total["calls"]:
                print(f"  {layer:34s} {total['self_s'] / n:10.4f} "
                      f"{total['calls'] / n:10.0f}")

    correct = summary["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
