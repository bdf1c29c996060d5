"""Fast self-test of the benchmark at tiny size (well under a minute).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, that the traced and untraced passes agree on digests and
exact counts, that two traced runs with one seed repeat them, and that a
check fed a deliberately wrong reference value counts as a failure. Prints
one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import math
import sys

import common

common.pin_threads()

import run as bench  # noqa: E402  (after the thread pins)

SEED = 7
TINY_GRID = ((0.5, 0.25, 2.5), (2.0, 2.0, 3.0), (4.0, 2.0, 4.0))


def tiny_sizes():
    import workloads

    # enough replicates for the z checks' normal approximation on the
    # heavy-tailed type I case
    return workloads.Sizes(
        reps={"gate": 128, "default": 64}, chunks={"I-2-1-a4": 2}, sweeps=1,
        cli_pairs=1, mc_replicates=16,
        grid=TINY_GRID, setup_repeats=1, trace_rounds={"gate": 1, "default": 1},
        trace_sweeps=1, trace_cli_pairs=1)


def main() -> int:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    sizes = tiny_sizes()
    for trace in (False, True):
        for workload in names:
            rec = bench.execute(workload, SEED, 0.0, trace, sizes)
            got = {name: m["unit"] for name, m in rec["metrics"].items()}
            kind = "per-layer" if trace else "end-to-end"
            check(got == want[trace], f"{workload}: every {kind} metric with its unit")
            check(not rec["failures"], f"{workload}: no failed operation "
                                       f"(trace={int(trace)}) {rec['failures'][:3]}")
            if not trace:
                check(all(m["value"] > 0 and math.isfinite(m["value"])
                          for m in rec["metrics"].values()),
                      f"{workload}: end-to-end values positive and finite")

    first = bench.execute("palm-gate", SEED, 0.0, True, sizes)
    second = bench.execute("palm-gate", SEED, 0.0, True, sizes)
    check(first["counts"] == second["counts"], "two traced runs: same exact counts")
    check(first["digests"] == second["digests"], "two traced runs: same digests")
    untraced = bench.execute("palm-gate", SEED, 0.0, False, sizes)
    check(untraced["digests"] == first["digests"], "untraced run: same digests as traced")

    import workloads

    _, refs, cli_refs = common.set_up()
    wrong = dict(refs)
    mean, lam = wrong["II-1-1-a3"]
    wrong["II-1-1-a3"] = (2.0 * mean, lam)
    with common.Launcher() as launcher:
        run = workloads.Run(SEED, wrong, cli_refs, sizes, launcher)
        for op in run.palm_round("gate", 0, 64):
            op()
        check(len(run.failures) == 1 and "II-1-1-a3" in run.failures[0],
              "a wrong Palm reference fails exactly its case")
        run = workloads.Run(SEED, refs, dict(cli_refs, approximation="0"), sizes, launcher)
        for op in run.cli_pair():
            op()
        check(len(run.failures) == 1 and "approximation" in run.failures[0],
              "a wrong CLI reference fails exactly its invocation")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
