"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/steadiness.py --workloads desk_esn_mc ref_esn desk_q_mc \
        --seeds 10 --trace 0

For every workload, runs ``bench/run.py`` once per seed (one at a time),
then prints each metric's median and its quartile spread, (Q3 - Q1) /
median with the quartiles of ``statistics.quantiles(values, n=4)``, next
to the metric's bound in BENCHMARK.json; metrics that BENCHMARK.json lists
are starred. Results go to
``bench/out/steadiness-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    results = {}
    ok = True
    for workload in args.workloads:
        rows = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and proc.returncode == 0 and last["correct"]
            report = json.loads((BENCH_DIR / "out" / (
                f"{workload}-seed{seed}-trace{args.trace}.json")).read_text())
            rows.append({"seed": seed, "returncode": proc.returncode, **last,
                         "all_metrics": report["metrics"],
                         "summary": report["summary"], "env": report["env"],
                         "fingerprints": [
                             [[r["rounds"], r["converged_at"],
                               r["sum_rate_bps"], r["median_user_rate_bps"]]
                              for r in call["runs"]]
                             for call in report["calls"]]})
            print(f"{workload} seed={seed} rc={proc.returncode} "
                  f"correct={last['correct']} " + " ".join(
                      f"{k}={v['value']:.6g}"
                      for k, v in last["metrics"].items()), flush=True)
        table = {}
        for name in rows[0]["all_metrics"]:
            values = [r["all_metrics"][name] for r in rows]
            finite = [v for v in values if math.isfinite(v)]
            table[name] = {
                "median": statistics.median(finite) if finite else None,
                "spread": spread(finite) if len(finite) > 1 else None,
                "bound": bounds.get(name), "listed": name in bounds,
                "values": values}
        results[workload] = {"runs": rows, "metrics": table}
        print(f"== {workload}")
        for name, t in table.items():
            bound = "" if t["bound"] is None else f" bound={t['bound']}"
            print(f"   {'*' if t['listed'] else ' '} {name:45s} "
                  f"median={t['median']} spread={t['spread']}{bound}")
    out = BENCH_DIR / "out" / f"steadiness-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
