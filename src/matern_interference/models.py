"""Domain types shared by every other module.

Conventions: lengths are dimensionless model units, intensities are points
per unit area, and interference values are linear power (path-loss
normalized). Decibel conversion happens only at the CLI boundary. All types
are immutable value objects and safe to share across threads; every record
of the package, here and in the other modules, derives from ``_Record``.

Import layering: this module imports only the standard library at module
level, so that the analytic core (``analytic``, ``interference``,
``numerics``) and the analytic CLI commands never load numpy, whose import
takes close to half of a cold ``eir`` run. The scalar value types,
``intensity`` and ``default_window_radius`` use ``math`` alone, and
``PowerLawPathLoss`` evaluates a positive Python float with ``math`` too.
Only the array-side code imports numpy, inside the methods that need it:
``PowerLawPathLoss`` on any other input, ``TabulatedPathLoss`` and
``PointPattern``. The records do not use ``dataclasses`` either: its import
loads ``inspect`` (with ``ast``, ``dis`` and ``tokenize``), and each frozen
dataclass execs six generated methods, which together took about a sixth
of a cold ``eir`` run.
"""

from __future__ import annotations

import enum
import math
import sys
from typing import TYPE_CHECKING, Optional, Union

from .errors import ValidationError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ProcessKind",
    "HardCoreParams",
    "PowerLawPathLoss",
    "TabulatedPathLoss",
    "PathLossModel",
    "PointPattern",
    "InterferenceEstimate",
    "intensity",
    "default_window_radius",
]


class _Record:
    """Base of the package's immutable records.

    A subclass declares its fields as class annotations, in order, with
    defaults as class attributes, and gets what ``dataclass(frozen=True)``
    would give it: an ``__init__`` taking the fields (its own after those
    of a record base), which stores them and then calls
    ``__post_init__`` where the class has one; the dataclass ``repr``;
    equality and hash over the field tuple, with ``NotImplemented``
    across classes; and an ``AttributeError`` on any assignment or
    deletion. A ``__post_init__`` that normalizes a field stores it with
    ``object.__setattr__``. ``_fields`` names the fields.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # own annotations only (Python >= 3.10), after the inherited fields
        fields = cls._fields + tuple(cls.__annotations__)
        cls._fields = cls.__match_args__ = fields
        # one positional-or-keyword __init__ per class, as dataclasses
        # writes it: a generic *args/**kwargs one constructs 2.5x slower,
        # and storing through self.__dict__ slows every attribute read
        namespace = {"_set": object.__setattr__}
        params = []
        for name in fields:
            if hasattr(cls, name):
                namespace[f"_dflt_{name}"] = getattr(cls, name)
                params.append(f"{name}=_dflt_{name}")
            else:
                params.append(name)
        body = [f"    _set(self, {name!r}, {name})" for name in fields]
        if hasattr(cls, "__post_init__"):
            body.append("    self.__post_init__()")
        exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body),
             namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        items = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields)
        return f"{type(self).__qualname__}({items})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ProcessKind(enum.Enum):
    """Which transmitter process the parameters describe.

    ``POISSON_HOLE`` is the reference process: a Poisson process of constant
    intensity whose interference integral at the typical point starts at the
    hard-core distance (a PPP with an exclusion ball around the receiver).
    """

    MATERN_I = "matern1"
    MATERN_II = "matern2"
    POISSON_HOLE = "poisson"


class HardCoreParams(_Record):
    """Parent intensity, hard-core distance and process type.

    ``lambda_p`` is the intensity of the parent Poisson process before
    thinning (for ``POISSON_HOLE`` it is simply the process intensity).
    ``delta`` is the minimum separation the thinning enforces; ``delta = 0``
    degenerates both Matérn types to the parent process. The area
    2*pi*delta^2 and the mean number of parents in an exclusion disk,
    lambda_p*pi*delta^2, must be finite floats, and delta^2 must not
    underflow to zero when delta > 0.
    """

    lambda_p: float
    delta: float
    kind: ProcessKind = ProcessKind.MATERN_I

    def __post_init__(self):
        if not (self.lambda_p > 0 and math.isfinite(self.lambda_p)):
            raise ValidationError(f"lambda_p must be > 0, got {self.lambda_p}")
        if not (self.delta >= 0 and math.isfinite(self.delta)):
            raise ValidationError(f"delta must be >= 0, got {self.delta}")
        # every formula of the package is built on the union area of two
        # exclusion disks, up to 2*pi*delta^2, and on the mean number of
        # parents in one disk, lambda_p*pi*delta^2, as intensity forms it
        d = self.delta
        if (math.isinf(2.0 * math.pi * d * d)
                or math.isinf(self.lambda_p * math.pi * d * d)):
            raise ValidationError(
                f"2*pi*delta^2 or lambda_p*pi*delta^2 overflows a float at "
                f"lambda_p = {self.lambda_p:g}, delta = {d:g}")
        # the type II kernel divides by the disk area pi*delta^2
        if d > 0.0 and d * d == 0.0:
            raise ValidationError(
                f"delta^2 leaves the float range (underflows to zero) at "
                f"delta = {d:g}")
        if not isinstance(self.kind, ProcessKind):
            raise ValidationError(f"kind must be a ProcessKind, got {self.kind!r}")


def intensity(params: HardCoreParams) -> float:
    """Intensity of the (thinned) process.

    Type I retains a parent point only if it has no neighbour closer than the
    hard-core distance, type II resolves conflicts by marks, and the Poisson
    reference is not thinned at all. The type II expression is evaluated
    through ``expm1`` so it stays exact as ``lambda_p * pi * delta**2 -> 0``,
    and keeps its digits where lambda_p itself is near the float range's
    lower end.
    """
    lam_p, d = params.lambda_p, params.delta
    if params.kind is ProcessKind.POISSON_HOLE:
        return lam_p
    x = lam_p * math.pi * d * d
    if params.kind is ProcessKind.MATERN_I:
        return lam_p * math.exp(-x)
    if x == 0.0:
        return lam_p
    retain = -math.expm1(-x)
    if lam_p * retain < sys.float_info.min:
        # lam_p*retain is subnormal or 0 (from lambda_p of about 1e-154 at
        # delta = 1), while retain/x is about 1: divide first
        return lam_p * (retain / x)
    return lam_p * retain / x


def default_window_radius(params: HardCoreParams) -> float:
    """Window that keeps the analytic tail below about a percent of the
    total for cubic-law path loss."""
    return max(10.0 * params.delta, 20.0 / math.sqrt(params.lambda_p))


# ---------------------------------------------------------------------------
# Path loss
# ---------------------------------------------------------------------------


class PowerLawPathLoss(_Record):
    """g(r) = (max{r0, r})^(-alpha).

    ``alpha > 2`` is required for every tail integral to converge. The inner
    cutoff ``r0`` must not exceed the hard-core distance of the process the
    model is paired with (validated where the two meet), so the closed forms
    built on a pure power law over [delta, 2*delta] always apply.
    """

    alpha: float
    r0: float = 0.0

    def __post_init__(self):
        if not (self.alpha > 2 and math.isfinite(self.alpha)):
            raise ValidationError(
                f"power path loss requires alpha > 2, got {self.alpha}")
        if not (self.r0 >= 0 and math.isfinite(self.r0)):
            raise ValidationError(f"r0 must be >= 0, got {self.r0}")

    def __call__(self, r):
        # A positive Python float (the quadrature integrands' case) takes
        # the math path, which gives the same bits as the NumPy path below.
        # Zero, negatives, NaN, an overflowing power, NumPy scalars and
        # arrays keep NumPy's semantics (inf, NaN propagation, warnings).
        if type(r) is float and r > 0.0:
            try:
                return max(self.r0, r) ** -self.alpha
            except OverflowError:
                pass
        import numpy as np

        return np.maximum(self.r0, r) ** (-self.alpha)

    def radial_integral(self, lower: float, upper: float = math.inf) -> float:
        """Exact integral of g(r) * r over [lower, upper]."""
        if lower < 0 or upper < lower:
            raise ValidationError("bad radial integration range")

        def antideriv_from(lo: float, hi: float) -> float:
            # integral over [lo, hi] with lo >= r0, pure power region
            a = self.alpha
            head = _power(lo, 2.0 - a, "r^(2 - alpha)")
            if math.isinf(hi):
                return head / (a - 2.0)
            return (head - hi ** (2.0 - a)) / (a - 2.0)

        r0 = self.r0
        if lower >= r0:
            if lower == 0.0:  # r0 == 0 as well: diverges at the origin
                raise ValidationError(
                    "power path loss with r0 = 0 is not integrable down to r = 0")
            return antideriv_from(lower, upper)
        cut = min(r0, upper)
        flat = _power(r0, -self.alpha, "r0^-alpha") * (cut * cut - lower * lower) / 2.0
        if upper <= r0:
            return flat
        return flat + antideriv_from(r0, upper)


class TabulatedPathLoss(_Record):
    """Path loss given as a table of (r, g(r)) samples.

    Linear interpolation between knots; constant extension below the first
    knot and zero beyond the last (compact support), so the plane integral is
    always finite and window truncation needs no modelling assumptions. The
    table must be nonnegative and nonincreasing.
    """

    r_grid: tuple[float, ...]
    g_grid: tuple[float, ...]

    def __post_init__(self):
        import numpy as np

        r = np.asarray(self.r_grid, dtype=float)
        g = np.asarray(self.g_grid, dtype=float)
        if r.ndim != 1 or r.shape != g.shape or r.size < 2:
            raise ValidationError("tabulated path loss needs matching 1-d grids "
                                  "with at least two samples")
        if not np.all(np.diff(r) > 0) or r[0] < 0:
            raise ValidationError("tabulated r grid must be strictly increasing "
                                  "and nonnegative")
        if np.any(g < 0) or np.any(np.diff(g) > 0):
            raise ValidationError("tabulated g must be nonnegative and nonincreasing")
        # trapezoidal estimate of the plane integral; rejects NaN/inf tables
        plane = 2.0 * math.pi * float(np.trapezoid(g * r, r))
        if not math.isfinite(plane):
            raise ValidationError("tabulated path loss has a non-finite plane integral")
        object.__setattr__(self, "r_grid", tuple(float(v) for v in r))
        object.__setattr__(self, "g_grid", tuple(float(v) for v in g))

    def __call__(self, r):
        import numpy as np

        return np.interp(r, self.r_grid, self.g_grid, left=self.g_grid[0], right=0.0)

    @property
    def support_end(self) -> float:
        return self.r_grid[-1]

    def radial_integral(self, lower: float, upper: float = math.inf) -> float:
        """Integral of g(r) * r over [lower, upper] (g vanishes past the table)."""
        if lower < 0 or upper < lower:
            raise ValidationError("bad radial integration range")
        hi = min(upper, self.support_end)
        if hi <= lower:
            return 0.0
        import numpy as np

        knots = [x for x in self.r_grid if lower < x < hi]
        grid = np.array([lower] + knots + [hi])
        # g is piecewise linear, so g*r is piecewise quadratic; Simpson on
        # each piece (via midpoint refinement) is exact
        mids = (grid[:-1] + grid[1:]) / 2.0
        widths = np.diff(grid)
        fa = self(grid[:-1]) * grid[:-1]
        fm = self(mids) * mids
        fb = self(grid[1:]) * grid[1:]
        return float(np.sum(widths * (fa + 4.0 * fm + fb) / 6.0))


PathLossModel = Union[PowerLawPathLoss, TabulatedPathLoss]


def _power(base: float, exponent: float, name: str) -> float:
    """base ** exponent for a positive base; a validation error that names
    ``name`` where the power overflows a float."""
    try:
        return base ** exponent
    except OverflowError:
        raise ValidationError(f"{name} = {base:g}^{exponent:g} leaves the float "
                              f"range") from None


# ---------------------------------------------------------------------------
# Point patterns and estimates
# ---------------------------------------------------------------------------


class PointPattern(_Record):
    """A finite planar point set with optional marks and its sampling window.

    The window is the disk of radius ``window_radius`` centred at the origin;
    every point must lie inside it. Marks, when present, live in [0, 1).
    """

    points: np.ndarray  # shape (n, 2)
    window_radius: float
    marks: Optional[np.ndarray] = None

    def __post_init__(self):
        import numpy as np

        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "points", pts)
        if not (self.window_radius > 0 and math.isfinite(self.window_radius)):
            raise ValidationError("window_radius must be positive and finite")
        r2 = np.einsum("ij,ij->i", pts, pts)
        if np.any(r2 > self.window_radius**2 * (1 + 1e-12)):
            raise ValidationError("all points must lie within the sampling window")
        if self.marks is not None:
            marks = np.asarray(self.marks, dtype=float)
            if marks.shape != (len(pts),):
                raise ValidationError("marks must match the number of points")
            if np.any(marks < 0) or np.any(marks >= 1):
                raise ValidationError("marks must lie in [0, 1)")
            object.__setattr__(self, "marks", marks)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def radii(self) -> np.ndarray:
        """Distances of the points from the origin."""
        import numpy as np

        return np.hypot(self.points[:, 0], self.points[:, 1])


class InterferenceEstimate(_Record):
    """Monte Carlo mean interference with its uncertainty.

    ``tail_correction`` is the analytic mean added for the region beyond the
    simulation window; it is already included in ``mean`` and the confidence
    bounds.
    """

    mean: float
    std_error: float
    ci_low: float
    ci_high: float
    replicates: int
    tail_correction: float

    def __post_init__(self):
        if not (self.ci_low <= self.mean <= self.ci_high):
            raise ValidationError("confidence interval must bracket the mean")
        if self.std_error < 0 or self.tail_correction < 0:
            raise ValidationError("std_error and tail_correction must be >= 0")
