"""The package's public surface: every exported name resolves, including
the simulator names served lazily by the package ``__getattr__``, and the
surface is the README's library quick start plus the errors and version."""

import ast
import importlib
import pathlib
import re

import pytest

import matern_interference
from matern_interference import models, simulate
from matern_interference.models import HardCoreParams, ProcessKind

_ROOT = pathlib.Path(__file__).resolve().parents[1]


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
    readme = _ROOT / "README.md"
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


def _module_imports(tree):
    """The import statements at module level, including those under a
    module-level ``if`` or ``try``."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", sorted(
    str(p.relative_to(_ROOT)) for d in ("src", "scripts") for p in (_ROOT / d).rglob("*.py")))
def test_no_dead_module_imports(path):
    # every name a module-level import binds is used in the module, listed
    # in its __all__, or marked "# noqa: F401" on the import
    source = (_ROOT / path).read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    dead = []
    for node in _module_imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                dead.append(f"{path}:{node.lineno} {name}")
    assert not dead
