"""Mean interference at the typical node of hard-core transmitter processes.

The library computes the mean interference observed at a randomly chosen
(retained) node of a Matern hard-core process of type I or II, compares it
with a Poisson process of the same intensity whose interferers simply keep
out of a disk around the receiver, and reports the ratio of the two means,
the excess interference ratio. Closed forms, guaranteed bounds, adaptive
quadrature, and Palm-conditioned Monte Carlo all live behind the same small
set of dataclasses.

The analytic modules import only the standard library. The names that
belong to the simulator (``simulate``, which needs numpy and scipy) are
served on first access through the module ``__getattr__`` below, so
``import matern_interference`` stays light and
``from matern_interference import sample_palm`` still works.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .analytic import (
    AffineVBound,
    BoundSide,
    affine_v_bounds,
    k2delta_lower_bound,
    k_derivative,
    k_function,
    pair_retention_type1,
    pair_retention_type2,
    v_union,
)
from .errors import ToleranceError, UnsupportedMethodError, ValidationError
from .interference import (
    EirMethod,
    EirReport,
    NU_TYPE2_UNIVERSAL,
    eir,
    eir_type1_approximation,
    eir_type2_bound,
    h_bound,
    h_integral,
    interference_outside_2delta,
    mean_interference_inside_2delta,
    mean_interference_poisson_hole,
    mean_interference_quadrature,
)
from .models import (
    FadingKind,
    FadingModel,
    HardCoreParams,
    InterferenceEstimate,
    PointPattern,
    PowerLawPathLoss,
    ProcessKind,
    TabulatedPathLoss,
    default_window_radius,
    intensity,
)
from .numerics import (
    QuadratureConfig,
    QuadratureResult,
    integrate,
    upper_incomplete_gamma,
)

__all__ = [
    "AffineVBound",
    "BoundSide",
    "EirMethod",
    "EirReport",
    "FadingKind",
    "FadingModel",
    "HardCoreParams",
    "InterferenceEstimate",
    "KFunctionEstimate",
    "NU_TYPE2_UNIVERSAL",
    "PalmEnsemble",
    "PointPattern",
    "PowerLawPathLoss",
    "ProcessKind",
    "QuadratureConfig",
    "QuadratureResult",
    "SimulationConfig",
    "TabulatedPathLoss",
    "TailPolicy",
    "ToleranceError",
    "UnsupportedMethodError",
    "ValidationError",
    "affine_v_bounds",
    "default_window_radius",
    "eir",
    "eir_type1_approximation",
    "eir_type2_bound",
    "estimate_intensity",
    "estimate_k_function",
    "estimate_mean_interference",
    "h_bound",
    "h_integral",
    "integrate",
    "intensity",
    "intensity_estimate_from_ensemble",
    "interference_estimate_from_ensemble",
    "interference_outside_2delta",
    "k2delta_lower_bound",
    "k_derivative",
    "k_function",
    "mean_interference_inside_2delta",
    "mean_interference_poisson_hole",
    "mean_interference_quadrature",
    "pair_retention_type1",
    "pair_retention_type2",
    "replicate_rng",
    "run_palm_ensemble",
    "sample_palm",
    "sample_parent",
    "thin",
    "upper_incomplete_gamma",
    "v_union",
    "__version__",
]


def __getattr__(name: str):
    """Serve a simulator name, importing ``simulate`` on first use (PEP 562).

    Every other public name is bound by the imports above, so a name in
    ``__all__`` that reaches this function belongs to ``simulate``.
    """
    if name in __all__:
        from . import simulate

        value = getattr(simulate, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
