"""The benchmark's tracer (perfbench/tracer.py) wraps module-level names of
the package from outside. Each name it wraps must exist, and restore() must
put every original back, or a traced benchmark run breaks on a rename that
the rest of the suite does not notice. Nothing is benchmarked here."""

import importlib.util
import pathlib

import scipy.spatial

from matern_interference import analytic, interference, simulate

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
