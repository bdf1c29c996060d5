"""Benchmark of the matern-interference library and CLI.

    python3 perfbench/run.py --workload palm-gate --seed 1 --seconds 15 --trace 0

Workloads (see NOTES.md): palm-gate and palm-default. With --trace 0 the
run repeats Palm rounds for --seconds in a closed loop, with analytic sweeps
and cold CLI runs spread over the same time, and prints every end-to-end
metric; with --trace 1 it runs a fixed amount of the same work untraced and
then traced, and prints the per-layer metrics. Either way the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Results, the environment record and
the span file go to perfbench/out/.

Exit code 2 when the package cannot be imported (for instance outside a
checkout); no result line is printed then.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import sys

import common


def environment_record() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in common.THREAD_PINS},
    }


def execute(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Set up, run one workload, and return the result record."""
    with common.Launcher() as launcher:
        return _execute(workload, seed, seconds, trace, sizes, launcher)


def _execute(workload, seed, seconds, trace, sizes, launcher) -> dict:
    load_start = os.getloadavg()
    setup_s, refs, cli_refs = common.set_up()
    import workloads
    from tracer import Tracer

    sizes = sizes or workloads.Sizes()
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "env": environment_record()}

    if not trace:
        # the set-up probes run as side operations, spread over the run
        run = workloads.Run(seed, refs, cli_refs, sizes, launcher)
        run.closed_loop(workload, seconds)
        setups = [setup_s] + run.setup_samples
        metrics, details = run.end_to_end(statistics.median(setups))
        error_rate = len(run.failures) / run.attempted
        record.update(details=details, error_rate=error_rate, rounds=run.rounds,
                      wall_s=run.wall_s, counts=run.exact_counts(), digests=run.digests)
        runs = [run]
    else:
        setups = [setup_s] + [workloads.child_setup_s(launcher)
                              for _ in range(sizes.setup_repeats - 1)]
        untraced = workloads.Run(seed, refs, cli_refs, sizes, launcher)
        untraced.fixed_pass(workload)
        tracer = Tracer()
        tracer.install()
        try:
            traced = workloads.Run(seed, refs, cli_refs, sizes, launcher, tracer)
            traced.fixed_pass(workload, importtime=True)
        finally:
            tracer.restore()
        metrics = traced.layer_metrics(tracer, untraced)
        counts_u, counts_t = untraced.exact_counts(), traced.exact_counts(tracer)
        if untraced.digests != traced.digests:
            traced.failures.append("digests differ between the untraced and traced passes")
        if any(counts_u[k] != counts_t[k] for k in counts_u) or \
                counts_t["traced_stream_calls"] != counts_t["stream_calls"]:
            traced.failures.append("exact counts differ between the untraced and traced passes")
        common.OUT.mkdir(parents=True, exist_ok=True)
        span_file = common.OUT / f"spans-{workload}-seed{seed}.json"
        tracer.write(span_file)
        record.update(counts=counts_t, digests=traced.digests, span_file=str(span_file),
                      wall_s={"untraced": untraced.wall_s, "traced": traced.wall_s})
        runs = [untraced, traced]

    record["setup_s_samples"] = setups
    record["attempted"] = sum(r.attempted for r in runs)
    record["failures"] = [f for r in runs for f in r.failures]
    record["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    record["loadavg"] = {"start": load_start, "end": os.getloadavg()}
    return record


def result_line(record: dict) -> str:
    failed = len(record["failures"])
    return json.dumps({"correct": failed == 0, "attempted": record["attempted"],
                       "failed": failed, "metrics": record["metrics"]})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=tuple(common.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must be a non-negative 63-bit integer")

    common.pin_threads()
    # find the package without importing it, so set-up timing still covers the import
    if importlib.util.find_spec("matern_interference") is None:
        print(f"error: the package is not importable from {common.SRC}", file=sys.stderr)
        return 2

    record = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    common.OUT.mkdir(parents=True, exist_ok=True)
    out_file = common.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# env {json.dumps(record['env'])} loadavg {json.dumps(record['loadavg'])}")
    if not args.trace:
        print(f"error_rate = {record['error_rate']:.6g} ratio "
              f"({len(record['failures'])} of {record['attempted']})")
        details = record["details"]
        print(f"eir_p50_us = {details['eir']['p50_us']:.6g} us (not gated)")
        for key in ("approx", "quad"):
            cold = details[f"cold_{key}"]
            print(f"cold_{key}_p50_ms = {cold['p50_ms']:.6g} ms (not gated)")
            print(f"cold_{key}_tail_ms = {cold['tail_ms']:.6g} ms (not gated; "
                  f"p{cold['tail_percentile']:.0f} of {cold['samples']})")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for failure in record["failures"][:20]:
        print(f"# FAILED {failure}")
    print(f"# details in {out_file.relative_to(common.ROOT)}")
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
