"""switchcert benchmark: one workload per invocation.

    python3 bench/run.py --workload vdp_absorb --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout (``src/`` and ``systems/`` beside
``bench/``) and uses only the stdlib here; each pass of the workload runs
in a fresh process (``bench/worker.py``), which imports numpy, scipy and
switchcert from ``src/``.  BLAS threading is left as users get it.

With ``--trace 0`` passes run, one process each, until their timed
operations have taken ``--seconds``, and the result holds the end-to-end
metrics.  An operation's time is the median of its samples over all
passes; ``certify_s``, ``verify_s`` and ``simulate_s`` sum the times of
their operations and ``pass_s`` sums all of them.  So ``pass_s`` is the
sum of per-operation medians, each operation counted once, not the wall
time of a measured pass, which also holds the repeats.  ``setup_s`` is
the median over the set-up-only probes and the pass processes, measured
after one untimed start that compiles the ``.pyc`` files.  With
``--trace 1`` one process runs a warm-up pass, then untraced and traced
passes in alternating order, and the result holds the per-layer metrics,
the traced ``pass_s`` and the tracing overhead (traced minus untraced
``pass_s``, both warm).  The last line of standard output is the JSON
result; the lines before it list every metric with its unit.
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
WORKLOADS = ("cubic_escalate", "planar_suite", "vdp_absorb")
CATEGORIES = ("certify", "verify", "simulate")
SETUP_PROBES = 3
DEADLINE_S = 170.0


def start_worker(args, extra, deadline):
    """Run one worker process; returns (set-up seconds, its result)."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               *extra]
    started = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - started))
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    lines = done.stdout.splitlines()
    ready = [float(line.split()[1]) for line in lines
             if line.startswith("READY ")]
    results = [json.loads(line[len("RESULT "):]) for line in lines
               if line.startswith("RESULT ")]
    if len(ready) != 1 or len(results) != ("--setup-only" not in extra):
        raise RuntimeError("worker output is malformed")
    return ready[0] - started, results[0] if results else None


def pass_times(samples, categories):
    """Median time of each operation, summed per category and overall."""
    spent = dict.fromkeys(CATEGORIES, 0.0)
    for name, values in samples.items():
        spent[categories[name]] += statistics.median(values)
    return sum(spent.values()), spent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    missing = [p for p in ("src/switchcert", "systems")
               if not (ROOT / p).is_dir()]
    if missing:
        print(f"not a switchcert checkout: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    try:
        if args.trace:
            _, result = start_worker(
                args, ["--seconds", str(args.seconds), "--trace", "1"],
                deadline)
            runs = [result]
        else:
            setup = []
            start_worker(args, ["--setup-only"], deadline)  # writes .pyc
            for _ in range(SETUP_PROBES):
                setup.append(start_worker(args, ["--setup-only"],
                                          deadline)[0])
            runs, samples, measured = [], {}, 0.0
            while not runs or measured < args.seconds:
                seconds, result = start_worker(args, [], deadline)
                setup.append(seconds)
                runs.append(result)
                for name, values in result["samples"].items():
                    samples.setdefault(name, []).extend(values)
                    measured += sum(values)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    categories = runs[0]["categories"]
    radius = runs[0]["absorbing_radius"]
    correct = radius is not None and not any(r["unexpected"] for r in runs)
    if args.trace:
        untraced_s = pass_times(result["samples"], categories)[0]
        traced_s = pass_times(result["traced_samples"], categories)[0]
        metrics = dict(result["layers"])
        metrics["trace.pass_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    else:
        pass_s, spent = pass_times(samples, categories)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "pass_s": (pass_s, "s"),
            **{f"{c}_s": (spent[c], "s") for c in CATEGORIES},
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"]
                                              for r in runs), "MB"),
            "absorbing_radius": (radius or 0.0, "norm"),
        }
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"# {args.workload} seed {args.seed}: {len(runs)} process(es), "
          f"{attempted} operations attempted, {failed} failed, "
          f"correct={correct}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
