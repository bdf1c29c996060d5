"""The package's eleven records keep the contract of the frozen dataclasses
they once were: constructor parameters, repr, equality and hash over the
fields, no assignment or deletion, and copy and pickle round trips."""

import copy
import inspect
import pickle

import numpy as np
import pytest

from matern_interference.analytic import AffineVBound
from matern_interference.interference import EirReport
from matern_interference.models import (
    HardCoreParams,
    InterferenceEstimate,
    PointPattern,
    PowerLawPathLoss,
    ProcessKind,
    TabulatedPathLoss,
)
from matern_interference.numerics import QuadratureResult
from matern_interference.simulate import (
    KFunctionEstimate,
    PalmEnsemble,
    SimulationConfig,
    TailPolicy,
)

_NONE = inspect.Parameter.empty

# record -> (constructor parameters with their defaults, a factory for one
# instance, that instance's repr)
_HASHABLE = {
    HardCoreParams: (
        [("lambda_p", _NONE), ("delta", _NONE), ("kind", ProcessKind.MATERN_I)],
        lambda: HardCoreParams(2.0, 0.5, ProcessKind.MATERN_II),
        "HardCoreParams(lambda_p=2.0, delta=0.5, "
        "kind=<ProcessKind.MATERN_II: 'matern2'>)"),
    PowerLawPathLoss: (
        [("alpha", _NONE), ("r0", 0.0)],
        lambda: PowerLawPathLoss(3.0, 0.25),
        "PowerLawPathLoss(alpha=3.0, r0=0.25)"),
    TabulatedPathLoss: (
        [("r_grid", _NONE), ("g_grid", _NONE)],
        lambda: TabulatedPathLoss((0.0, 1.0, 2.0), (1.0, 0.5, 0.0)),
        "TabulatedPathLoss(r_grid=(0.0, 1.0, 2.0), g_grid=(1.0, 0.5, 0.0))"),
    InterferenceEstimate: (
        [("mean", _NONE), ("std_error", _NONE), ("ci_low", _NONE),
         ("ci_high", _NONE), ("replicates", _NONE),
         ("tail_correction", _NONE)],
        lambda: InterferenceEstimate(1.5, 0.25, 1.0, 2.0, 400, 0.125),
        "InterferenceEstimate(mean=1.5, std_error=0.25, ci_low=1.0, "
        "ci_high=2.0, replicates=400, tail_correction=0.125)"),
    QuadratureResult: (
        [("value", _NONE), ("abs_error_estimate", _NONE),
         ("subdivisions_used", _NONE), ("converged", _NONE)],
        lambda: QuadratureResult(0.5, 1e-12, 3, True),
        "QuadratureResult(value=0.5, abs_error_estimate=1e-12, "
        "subdivisions_used=3, converged=True)"),
    AffineVBound: (
        [("a", _NONE), ("b", _NONE)],
        lambda: AffineVBound(0.5, 2.0),
        "AffineVBound(a=0.5, b=2.0)"),
    EirReport: (
        [("mean_hardcore", _NONE), ("mean_poisson_hole", _NONE),
         ("eir_linear", _NONE), ("eir_db", _NONE)],
        lambda: EirReport(2.0, 1.0, 2.0, 3.010299956639812),
        "EirReport(mean_hardcore=2.0, mean_poisson_hole=1.0, eir_linear=2.0, "
        "eir_db=3.010299956639812)"),
    SimulationConfig: (
        [("window_radius", _NONE), ("replicates", 1000), ("seed", 0),
         ("tail_policy", TailPolicy.ANALYTIC_TAIL)],
        lambda: SimulationConfig(6.0, 50, 7, TailPolicy.TRUNCATE_ONLY),
        "SimulationConfig(window_radius=6.0, replicates=50, seed=7, "
        "tail_policy=<TailPolicy.TRUNCATE_ONLY: 'truncate-only'>)"),
}
# records with array fields: equal only field by field identity, unhashable
_WITH_ARRAYS = {
    PointPattern: (
        [("points", _NONE), ("window_radius", _NONE), ("marks", None)],
        lambda: PointPattern(np.array([[0.0, 0.0], [3.0, 4.0]]), 6.0,
                             np.array([0.25, 0.5])),
        "PointPattern(points=array([[0., 0.],\n       [3., 4.]]), "
        "window_radius=6.0, marks=array([0.25, 0.5 ]))"),
    PalmEnsemble: (
        [("radii", _NONE), ("rep_ids", _NONE), ("replicates", _NONE),
         ("window_radius", _NONE), ("delta", _NONE),
         ("acceptance_rate", None)],
        lambda: PalmEnsemble(np.array([1.0, 2.5]), np.array([0, 1]), 2, 6.0,
                             0.5),
        "PalmEnsemble(radii=array([1. , 2.5]), rep_ids=array([0, 1]), "
        "replicates=2, window_radius=6.0, delta=0.5, acceptance_rate=None)"),
    KFunctionEstimate: (
        [("radii", _NONE), ("k_values", _NONE), ("std_errors", _NONE),
         ("intensity_estimate", _NONE), ("replicates", _NONE)],
        lambda: KFunctionEstimate(np.array([1.0, 2.0]), np.array([0.5, 1.5]),
                                  np.array([0.0, 0.125]), 1.25, 40),
        "KFunctionEstimate(radii=array([1., 2.]), k_values=array([0.5, 1.5]), "
        "std_errors=array([0.   , 0.125]), intensity_estimate=1.25, "
        "replicates=40)"),
}
_RECORDS = {**_HASHABLE, **_WITH_ARRAYS}


def _ids(records):
    return [cls.__name__ for cls in records]


def _names(cls):
    return [name for name, _ in _RECORDS[cls][0]]


def _same_fields(a, b):
    """Same class and equal fields, arrays compared by value."""
    if type(a) is not type(b):
        return False
    for name in _names(type(a)):
        x, y = getattr(a, name), getattr(b, name)
        if not (np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y):
            return False
    return True


@pytest.mark.parametrize("cls", _RECORDS, ids=_ids(_RECORDS))
def test_record_constructor_keeps_its_parameters(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == _RECORDS[cls][0]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


@pytest.mark.parametrize("cls", _RECORDS, ids=_ids(_RECORDS))
def test_record_repr_is_the_dataclass_repr(cls):
    _, make, want = _RECORDS[cls]
    assert repr(make()) == want


@pytest.mark.parametrize("cls", _HASHABLE, ids=_ids(_HASHABLE))
def test_records_with_equal_fields_are_equal_and_hash_equal(cls):
    a = _HASHABLE[cls][1]()
    b = cls(**{name: getattr(a, name) for name in _names(cls)})
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("cls", _WITH_ARRAYS, ids=_ids(_WITH_ARRAYS))
def test_records_with_arrays_compare_fields_and_are_unhashable(cls):
    a = _WITH_ARRAYS[cls][1]()
    b = copy.copy(a)  # shares the field objects
    assert a is not b
    assert a == b and not a != b
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize("cls", _RECORDS, ids=_ids(_RECORDS))
def test_record_differs_from_another_class_with_equal_values(cls):
    a = _RECORDS[cls][1]()
    other = type("Other" + cls.__name__, (cls,), {})
    b = other(**{name: getattr(a, name) for name in _names(cls)})
    assert a != b and b != a
    assert not a == b


@pytest.mark.parametrize("cls", _RECORDS, ids=_ids(_RECORDS))
def test_record_refuses_assignment_and_deletion(cls):
    a = _RECORDS[cls][1]()
    first = _names(cls)[0]
    before = repr(a)
    with pytest.raises(AttributeError):
        setattr(a, first, 1.0)
    with pytest.raises(AttributeError):
        delattr(a, first)
    with pytest.raises(AttributeError):
        a.not_a_field = 1.0
    assert repr(a) == before


@pytest.mark.parametrize("cls", _RECORDS, ids=_ids(_RECORDS))
def test_record_survives_copy_and_pickle(cls):
    a = _RECORDS[cls][1]()
    for b in (copy.copy(a), pickle.loads(pickle.dumps(a))):
        assert _same_fields(a, b)
        if cls in _HASHABLE:
            assert b == a and hash(b) == hash(a)
        with pytest.raises(AttributeError):
            setattr(b, _names(cls)[0], 1.0)
