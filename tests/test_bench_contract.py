"""The benchmark (perfbench/) drives the Palm ensemble and both estimators
and checks every result it reads against the quadrature mean and the
closed-form intensity. One Palm round at the benchmark self-test's sizes and
seed must finish with no failed operation, so that a library change that
breaks what the benchmark reads fails here, not only in a benchmark run.
Nothing is timed here."""

import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_one_palm_gate_round_has_no_failed_operation(monkeypatch):
    # the benchmark's own directory is left as it is, without __pycache__
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import common

    # set_up() pins the thread pools through the environment; the pins are
    # undone after the test
    for name, value in common.THREAD_PINS.items():
        monkeypatch.setenv(name, value)
    import selftest
    import workloads

    _, refs, cli_refs = common.set_up()
    # a Palm round starts no child process, so it needs no launcher
    run = workloads.Run(selftest.SEED, refs, cli_refs, selftest.tiny_sizes(),
                        launcher=None)
    ops = run.palm_round("gate", 0, 64)
    for op in ops:
        op()
    assert run.attempted == len(ops) == 7
    assert not run.failures, run.failures
