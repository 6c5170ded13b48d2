"""Run sets of benchmark runs and print each metric's median and quartiles.

    python3 bench/sets.py [--workloads cubic_escalate,vdp_absorb] [--out F]

Runs two sets of ten runs; each set runs every chosen workload once per
seed (set k uses seeds 100*k + 1 ... 100*k + 10) with the run length from
BENCHMARK.json.  For each workload and end-to-end metric it prints, per
set, the median, the first and third quartiles
(``statistics.quantiles(n=4)``) and the spread (third minus first quartile
over the median), then the change of the median from the first set to the
second, both as shares.  It also prints the share of failed operations per
set.  ``--out`` saves every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(done.stdout.splitlines()[-1])
    result["wall_s"] = time.monotonic() - started
    return result


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",")

    runs = {}
    for k in range(SETS):
        for workload in names:
            for seed in range(100 * k + 1, 100 * k + RUNS + 1):
                result = run_once(workload, seed, spec["run_seconds"])
                runs.setdefault(workload, {}).setdefault(k, []).append(result)
                print(f"# set {k + 1} {workload} seed {seed}: "
                      f"{result['wall_s']:.1f} s wall, "
                      f"correct={result['correct']}, "
                      f"failed {result['failed']}/{result['attempted']}",
                      file=sys.stderr, flush=True)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))

    for workload in names:
        sets = runs[workload]
        print(f"\n{workload}")
        shares = [sum(r["failed"] for r in sets[k])
                  / sum(r["attempted"] for r in sets[k]) for k in sets]
        print("  failed share per set: "
              + ", ".join(f"{s:.6f}" for s in shares))
        print(f"  {'metric':18s} {'set':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s} {'change':>7s}")
        for metric in bounds:
            first = None
            for k in sorted(sets):
                values = [r["metrics"][metric]["value"] for r in sets[k]]
                median = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                first = median if first is None else first
                change = median / first - 1 if first else 0.0
                print(f"  {metric:18s} {k + 1:3d} {median:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {(q3 - q1) / median:7.3f} "
                      f"{bounds[metric]:6.2f} {change:+7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
