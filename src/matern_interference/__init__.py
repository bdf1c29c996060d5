"""Mean interference at the typical node of hard-core transmitter processes.

The library computes the mean interference observed at a randomly chosen
(retained) node of a Matern hard-core process of type I or II, compares it
with a Poisson process of the same intensity whose interferers simply keep
out of a disk around the receiver, and reports the ratio of the two means,
the excess interference ratio. Closed forms, guaranteed bounds, adaptive
quadrature, and Palm-conditioned Monte Carlo all live behind the same small
set of records.

The package exports the names of the README's library quick start, the
errors a caller catches and ``__version__``; everything else is imported
from its submodule (``analytic``, ``interference``, ``models``,
``numerics``, ``simulate``). The analytic modules import only the standard
library. The two simulator names (``SimulationConfig`` and
``estimate_mean_interference``, from ``simulate``, which needs numpy and
scipy) are served on first access through the module ``__getattr__``
below, so ``import matern_interference`` stays light.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import ToleranceError, UnsupportedMethodError, ValidationError
from .interference import EirMethod, eir
from .models import HardCoreParams, PowerLawPathLoss, ProcessKind

__all__ = [
    "EirMethod",
    "HardCoreParams",
    "PowerLawPathLoss",
    "ProcessKind",
    "SimulationConfig",
    "ToleranceError",
    "UnsupportedMethodError",
    "ValidationError",
    "eir",
    "estimate_mean_interference",
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
