"""One workload process: set up, run timed passes, check, report.

    python3 bench/worker.py --workload NAME --seed N [--seconds S] [--trace 1]
    python3 bench/worker.py --workload NAME --seed N --setup-only

Prints ``READY <monotonic time>`` when set-up ends and, unless
``--setup-only``, ``RESULT <json>`` at the end.  A pass runs the
operations of the workload in their fixed order, then checks the outputs.
Passes repeat until their timed operations, traced ones included, have taken
``--seconds`` (one pass by default).  The result holds every operation's
time samples, its category, the counts of operations attempted and failed,
the peak RSS and the headline absorbing radius; ``run.py`` turns them into
metrics.  With ``--trace 1`` an untimed pass runs first, then untraced and
traced passes alternate, so both run warm and neither always runs first;
the result also holds the traced samples and the per-layer metrics of
set-up plus the first run of each operation in a traced pass (median over
traced passes).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (imports numpy and switchcert)
from tracing import Tracer, layer_metrics, median_metrics  # noqa: E402

def run_pass(workload, samples, log, tracer=None, phase=None):
    """Run the operations of one pass in order, adding each time to
    ``samples[operation]``, then check the outputs.  With a tracer, spans
    of each operation's first run get the given phase and those of its
    repeats the phase "repeat".

    Returns (peak RSS in MB before the checks, operations attempted,
    operations failed, check failures other than a named known fault)."""
    workload.out.clear()
    raised = {}
    repeats = {}
    for name, _, operation in workload.operations():
        if tracer:
            tracer.phase = "repeat" if name in repeats else phase
        repeats[name] = repeats.get(name, 0) + 1
        t0 = time.perf_counter()
        try:
            operation()
        except Exception:  # a raising operation fails; the pass goes on
            raised[name] = raised.get(name, 0) + 1
            log(f"{workload.name}: operation {name} raised\n"
                + traceback.format_exc(limit=4))
        samples.setdefault(name, []).append(time.perf_counter() - t0)
    attempted = sum(repeats.values())
    # the checks below allocate too, so the peak is read before them
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = workloads.Report()
    unexpected = sum(raised.values())
    if tracer:
        tracer.phase = "check"    # spans of the checks are not measured
    try:
        workload.check(report)
    except Exception:  # outputs the checks cannot read
        unexpected += 1
        log(f"{workload.name}: checks raised\n" + traceback.format_exc())
    for kind, found in (("check failed", report.failures),
                        ("known fault", report.known)):
        for name, messages in found.items():
            for message in messages:
                log(f"{workload.name}: {kind} in {name}: {message}")
    # the repeats of an operation return the same output, checked once; a
    # check failure fails every repeat, a named known fault one operation
    failed = sum(repeats[name] if name in report.failures
                 else 1 if name in report.known else raised.get(name, 0)
                 for name in repeats)
    unexpected += sum(repeats[name] for name in report.failures)
    return peak_rss_mb, attempted, failed, unexpected


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    def log(text):
        print(text, file=sys.stderr, flush=True)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload.setup()
    if tracer:
        tracer.uninstall()
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    categories = {name: category
                  for name, category, _ in workload.operations()}
    untraced, traced, layer_runs = {}, {}, []
    totals = [0, 0, 0]      # attempted, failed, unexpected
    peak_rss_mb = None

    def traced_pass():
        phase = f"pass{len(layer_runs)}"
        tracer.install()
        try:
            outcome = run_pass(workload, traced, log, tracer, phase)
        finally:
            tracer.uninstall()
        metrics, calls = layer_metrics(tracer.spans, {"setup", phase})
        silent = [name for name in workload.layers if not calls.get(name)]
        if silent:
            log(f"{workload.name}: traced layers recorded no calls: "
                + ", ".join(silent))
            sys.exit(3)     # the zero-call self-check of the traced run
        metrics["trace.spans"] = (sum(calls.values()), "count")
        layer_runs.append(metrics)
        return outcome

    def untraced_pass():
        return run_pass(workload, untraced, log)

    steps = [untraced_pass]
    if tracer:
        # an untimed pass first, so that traced and untraced passes both
        # run warm; their order then alternates from pair to pair
        totals = list(run_pass(workload, {}, log)[1:])
        steps.append(traced_pass)
    while True:
        for step in steps:
            outcome = step()
            if step is untraced_pass:
                peak_rss_mb = peak_rss_mb or outcome[0]
            totals = [a + b for a, b in zip(totals, outcome[1:])]
        steps.reverse()
        timed = list(untraced.values()) + list(traced.values())
        if sum(map(sum, timed)) >= args.seconds:
            break

    result = {"attempted": totals[0], "failed": totals[1],
              "unexpected": totals[2], "categories": categories,
              "samples": untraced, "peak_rss_mb": peak_rss_mb,
              "absorbing_radius": workload.radius}
    if tracer:
        result["traced_samples"] = traced
        result["layers"] = median_metrics(layer_runs)
        out_dir = HERE / "runs"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"{args.workload}-seed{args.seed}.trace.npz")
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
