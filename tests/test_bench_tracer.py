"""The benchmark's tracer (perfbench/tracer.py) wraps module-level names of
the package from outside. Each name it wraps must exist, and restore() must
put every original back, or a traced benchmark run breaks on a rename that
the rest of the suite does not notice. The Palm code must also run under
it: the tracer hands the simulator a KD-tree stand-in with query_pairs
only, counts streams through simulate.replicate_rng, and the traced
metrics divide by the points the tree saw. Nothing is benchmarked here."""

import importlib.util
import pathlib
import sys

import scipy.spatial

from matern_interference import analytic, interference, simulate

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TRACER = BENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_existing_names_and_restores_them():
    owners = (scipy.spatial, analytic, interference, simulate)
    before = [dict(vars(owner)) for owner in owners]
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        wrapped = list(tracer._originals)
        assert wrapped
        for owner, attr, original in wrapped:
            # the original was a module attribute before install()
            assert original is before[owners.index(owner)][attr], attr
            assert getattr(owner, attr) is not original, attr
        counted = {attr for owner, attr, _ in wrapped if owner is interference}
        assert {"v_union", "pair_retention_type2"} <= counted
    finally:
        tracer.restore()
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, attr
    for owner, names in zip(owners, before):
        after = vars(owner)
        assert after.keys() == names.keys()
        assert all(after[name] is value for name, value in names.items())


def test_a_traced_palm_round_matches_the_untraced_one(monkeypatch):
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
    runs = []
    for tracer in (None, load_tracer().Tracer()):
        # a Palm round and a sweep start no child process, so no launcher
        run = workloads.Run(selftest.SEED, refs, cli_refs, selftest.tiny_sizes(),
                            launcher=None, tracer=tracer)
        if tracer is not None:
            tracer.install()
        try:
            for op in run.palm_round("gate", 0, 64):
                op()
            run.analytic_sweep(0)
        finally:
            if tracer is not None:
                tracer.restore()
        assert not run.failures, run.failures
        runs.append(run)
    untraced, traced = runs

    def palm(run):
        return {key: value for key, value in run.digests.items()
                if key.startswith("palm/")}

    assert palm(traced) and palm(traced) == palm(untraced)
    counts = traced.exact_counts(tracer)
    assert counts["traced_stream_calls"] == counts["stream_calls"] > 0
    assert counts["neighbour_points"] > 0
