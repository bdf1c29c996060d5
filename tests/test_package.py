"""The package's public surface: every exported name resolves, including
the simulator names served lazily by the package ``__getattr__``, and the
surface is the README's library quick start plus the errors and version."""

import importlib
import pathlib
import re

import pytest

import matern_interference
from matern_interference import models, simulate
from matern_interference.models import HardCoreParams, ProcessKind


def test_every_exported_name_resolves():
    for name in matern_interference.__all__:
        value = getattr(matern_interference, name)
        if name in simulate.__all__:
            assert value is getattr(simulate, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(matern_interference, "no_such_name")
    with pytest.raises(ImportError):
        from matern_interference import no_such_name  # noqa: F401


@pytest.mark.parametrize("module", ["analytic", "interference", "models",
                                    "numerics", "simulate"])
def test_every_submodule_export_resolves(module):
    mod = importlib.import_module(f"matern_interference.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.{name}"


def test_readme_quick_start_imports_the_exported_surface():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"from matern_interference import \(([^)]*)\)",
                      readme.read_text(encoding="utf-8"))
    assert block is not None
    names = [name.strip() for name in block.group(1).split(",") if name.strip()]
    assert names
    for name in names:
        assert name in matern_interference.__all__, name
        getattr(matern_interference, name)
    assert set(matern_interference.__all__) - set(names) == {
        "ToleranceError", "UnsupportedMethodError", "ValidationError", "__version__"}


# the criterion-6 parameter sets and their default windows, max(10*delta,
# 20/sqrt(lambda_p)), as the simulator computed them before the function
# moved to models
@pytest.mark.parametrize("lam, delta, window", [
    (1.0, 1.0, 20.0),
    (2.0, 0.5, 14.14213562373095),
    (2.0, 1.0, 14.14213562373095),
])
@pytest.mark.parametrize("kind", [ProcessKind.MATERN_I, ProcessKind.MATERN_II])
def test_default_window_radius_lives_in_models(lam, delta, window, kind):
    assert simulate.default_window_radius is models.default_window_radius
    assert models.default_window_radius(HardCoreParams(lam, delta, kind)) == window
