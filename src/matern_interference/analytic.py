"""Closed-form second-order structure of the hard-core processes.

Everything here is a deterministic function of the process parameters: the
two-disk union area that drives pair retention, the retention probabilities
for both thinning rules, the resulting K-functions and their radial
derivatives, and the closed-form lower bound on K at twice the hard-core
distance.

Transition integrals (over [delta, r] with r <= 2*delta) are taken in
s = sqrt(2*delta - r). The union area has a square-root branch point at
r = 2*delta, V'(r) = 2*sqrt(delta**2 - r**2/4), which an adaptive rule in r
can only approach by bisection; in s every integrand built from V is
analytic, and the Gauss-Kronrod rule converges in one to three panels.

Every transition integral integrates one closure per process kind, built
by ``_k_prime(params, loss=None)``: K'(r) times the path loss on
[delta, 2*delta), where no loss is the unit loss. ``k_function`` integrates
it without a loss and ``interference`` with one. The factory computes the
per-parameter constants once and the closure evaluates a node in one frame,
a power-law loss included (only a table is called per node); the pointwise
``v_union``, ``pair_retention_type2``, ``k_derivative`` and
``PowerLawPathLoss`` are the public references it equals bit for bit. The
closure guards neither end of the interval: ``k_derivative`` answers
outside it, and both public entry points turn a float overflow into a
validation error.
"""

from __future__ import annotations

import math
import sys

from .errors import ValidationError
from .models import (
    HardCoreParams,
    PowerLawPathLoss,
    ProcessKind,
    _Record,
    intensity,
)
from .numerics import integrate

__all__ = [
    "C2_LENS",
    "AffineVBound",
    "v_union",
    "affine_v_bounds",
    "pair_retention_type1",
    "pair_retention_type2",
    "k_derivative",
    "k_function",
    "k2delta_lower_bound",
]

_SQRT3 = math.sqrt(3.0)
_SQRT7 = math.sqrt(7.0)

# The union area at contact distance in units of delta**2:
# v_union(delta, delta) = C2_LENS * delta**2.
C2_LENS = 4.0 * math.pi / 3.0 + _SQRT3 / 2.0


def v_union(delta: float, u: float) -> float:
    """Area of the union of two disks of radius ``delta`` with centers ``u`` apart.

    Saturates at the disjoint value ``2*pi*delta**2`` for ``u >= 2*delta``.
    The arccos argument is clamped so rounding at ``u = 2*delta`` cannot
    produce NaN.
    """
    if delta < 0 or u < 0:
        raise ValidationError("v_union requires delta >= 0 and u >= 0")
    if delta == 0.0:
        return 0.0
    d2 = delta * delta
    if u >= 2.0 * delta:
        return 2.0 * math.pi * d2
    half_ratio = min(u / (2.0 * delta), 1.0)
    lens_height_sq = max(d2 - 0.25 * u * u, 0.0)
    return (2.0 * math.pi * d2
            - 2.0 * d2 * math.acos(half_ratio)
            + u * math.sqrt(lens_height_sq))


class AffineVBound(_Record):
    """Affine comparison line for the union area on ``delta < r < 2*delta``.

    Encodes V(r) compared against ``(pi + a)*delta**2 + b*delta*r``. The
    union area is concave in r on the transition interval, so its tangent
    lies above it and its chord lies below it.
    """

    a: float
    b: float


def affine_v_bounds() -> tuple[AffineVBound, AffineVBound]:
    """The sandwich pair (lower-on-V, upper-on-V) for the union area.

    Lower line: chord through the exact values at r = delta and r = 2*delta.
    Upper line: tangent at r = 3*delta/2.
    """
    lower = AffineVBound(a=_SQRT3 - math.pi / 3.0,
                         b=2.0 * math.pi / 3.0 - _SQRT3 / 2.0)
    upper = AffineVBound(a=2.0 * math.asin(0.75) - 3.0 * _SQRT7 / 8.0,
                         b=_SQRT7 / 2.0)
    return lower, upper


# ---------------------------------------------------------------------------
# Pair retention
# ---------------------------------------------------------------------------


def pair_retention_type1(params: HardCoreParams, u: float) -> float:
    """Probability that two parent points at distance u both survive type I
    thinning: both their exclusion disks must be empty of further parents."""
    if u < 0:
        raise ValidationError("u must be >= 0")
    if u < params.delta:
        return 0.0
    return math.exp(-params.lambda_p * v_union(params.delta, u))


def pair_retention_type2(params: HardCoreParams, r: float) -> float:
    """Probability that two parent points at distance ``r >= delta`` both
    survive mark-based (type II) thinning.

    The closed form is a ratio whose numerator and denominator both vanish
    to second order as the parent density goes to zero, so for
    ``lambda_p * V < 1e-4`` the exact series through third order is used
    instead; the two branches agree to better than ten significant digits at
    the switch point. For ``r >= 2*delta`` the expression collapses to the
    squared retention probability of a single point, evaluated in the
    cancellation-safe form.
    """
    delta = params.delta
    if delta == 0.0:
        return 1.0
    if r < delta:
        raise ValidationError(
            f"pair retention (type II) is defined for r >= delta, got r={r}")
    lam_p = params.lambda_p
    area_disk = math.pi * delta * delta
    x = lam_p * area_disk
    if r >= 2.0 * delta:
        single = -math.expm1(-x) / x if x > 0.0 else 1.0
        return single * single
    v = v_union(delta, r)
    y = lam_p * v
    if y < 1e-4:
        return (1.0
                - (x + y) / 3.0
                + (x * x + x * y + y * y) / 12.0
                - (x ** 3 + x * x * y + x * y * y + y ** 3) / 60.0)
    num = 2.0 * v * (-math.expm1(-x)) - 2.0 * area_disk * (-math.expm1(-y))
    den = lam_p * lam_p * area_disk * v * (v - area_disk)
    return num / den


# ---------------------------------------------------------------------------
# K-function
# ---------------------------------------------------------------------------


def _in_s(f, delta: float, end: float, knots=()):
    """The integral of ``f`` over [delta, end], end <= 2*delta, rewritten in
    s = sqrt(2*delta - r).

    With r = 2*delta - s**2 and dr = -2*s ds it is the integral of
    g(s) = 2*s*f(2*delta - s**2) over [sqrt(2*delta - end), sqrt(delta)].
    Each knot b inside (delta, end) becomes the breakpoint sqrt(2*delta - b)
    in s; the others are dropped. Returns (g, lower, upper, breakpoints),
    the arguments of the caller's ``integrate``.
    """
    two_delta = 2.0 * delta

    def g(s: float) -> float:
        return 2.0 * s * f(two_delta - s * s)

    breakpoints = [math.sqrt(two_delta - b) for b in knots if delta < b < end]
    return g, math.sqrt(two_delta - end), math.sqrt(delta), breakpoints


def _k_prime(params: HardCoreParams, loss=None):
    """The integrand of every transition integral, as one closure of r on
    [delta, 2*delta): K'(r) times the path loss ``loss(r)``, where no loss
    is the unit loss. Returns (closure, P): the integrand is
    closure(r) * e^P. Requires delta > 0.

    Every per-parameter constant is computed here once, and the closure
    evaluates a node in a single frame: the union area (``v_union``), the
    type II retention (``pair_retention_type2``) and a power-law loss
    (``PowerLawPathLoss``, whose r0 <= delta) are written inline with their
    operations in their order, so each value without a loss equals that of
    the pointwise ``k_derivative`` bit for bit, and each value with one that
    of the pointwise chain. Only a table loss is called per node. The
    closure tests neither end of the interval: ``k_derivative`` answers
    below delta and from 2*delta on itself, and ``k_function`` integrates
    strictly inside; both map an overflow to a validation error. With a
    loss the type I closure is scaled by its peak at r = delta, to
    exp(lambda_p*(V(delta) - V(r))) with V(delta) in the closure's own
    operation order, and P = lambda_p*(2*pi*delta^2 - V(delta)), so nothing
    overflows at any density; P is 0 otherwise. A type II kernel whose
    (lambda/lambda_p)^2 or retention denominator leaves the normal float
    range folds the first into the second, and is then finite where the
    pointwise retention underflows.
    """
    delta = params.delta
    lam_p = params.lambda_p
    kind = params.kind
    acos, sqrt, exp, expm1 = math.acos, math.sqrt, math.exp, math.expm1
    two_pi = 2.0 * math.pi
    two_delta = 2.0 * delta
    # v_union's constants. Below 2*delta its arccos argument is below 1 and
    # the squared lens height is >= 0 after rounding, so its clamps are
    # no-ops there and are left out.
    d2 = delta * delta
    disk_pair = two_pi * d2
    two_d2 = 2.0 * d2
    # The loss factor of a node is r ** power, unless the loss is a table.
    # No loss is power 0.0, so the factor is 1.0; a power law is evaluated
    # here, as r ** -alpha, which on [delta, 2*delta) is PowerLawPathLoss's
    # max(r0, r) ** -alpha bit for bit, since its r0 <= delta.
    power, table = 0.0, None
    if isinstance(loss, PowerLawPathLoss):
        power = -loss.alpha
    elif loss is not None:
        table = loss

    if kind is ProcessKind.POISSON_HOLE:
        return (lambda r: two_pi * (r ** power if table is None else float(table(r)))
                * r), 0.0

    if kind is ProcessKind.MATERN_I:
        # (lambda_p/lambda)^2 * k(r) folded into one exponent,
        # lambda_p*(ref - V(r)). Without a loss ref is 2*pi*delta^2, grouped
        # ((2*pi)*delta)*delta as before (it can differ from disk_pair in
        # the last bit); with one it is the peak V(delta).
        two_disks = two_pi * delta * delta
        ref = two_disks
        if loss is not None:
            ref = (disk_pair - two_d2 * acos(delta / two_delta)
                   + delta * sqrt(d2 - 0.25 * delta * delta))

        def k_prime(r: float) -> float:
            if r >= two_delta:
                v = disk_pair
            else:
                v = disk_pair - two_d2 * acos(r / two_delta) + r * sqrt(d2 - 0.25 * r * r)
            return (two_pi * (r ** power if table is None else float(table(r))) * r
                    * exp(lam_p * (ref - v)))
        return k_prime, lam_p * (two_disks - ref)

    # type II: pair_retention_type2's constants, and (lambda/lambda_p)^2
    area_disk = math.pi * delta * delta
    x = lam_p * area_disk
    retain_x = -expm1(-x)
    single = retain_x / x if x > 0.0 else 1.0
    far_field = single * single
    two_area = 2.0 * area_disk
    den_scale = lam_p * lam_p * area_disk
    ratio = intensity(params) / lam_p
    ratio_sq = ratio * ratio
    if not (min(ratio_sq, den_scale) >= sys.float_info.min
            and den_scale * disk_pair * area_disk < math.inf):
        # (lambda/lambda_p)^2 or the retention's denominator leaves the
        # normal float range (from lambda_p*pi*delta^2 of about 1e154, or
        # at a tiny lambda_p), although their quotient, the one K' needs,
        # is of order one: fold the first into the second,
        # den_scale*ratio^2 = retain_x^2/area_disk.
        den_scale, ratio_sq = retain_x * retain_x / area_disk, 1.0

    def k_prime(r: float) -> float:
        if r >= two_delta:
            p = far_field
        else:
            v = disk_pair - two_d2 * acos(r / two_delta) + r * sqrt(d2 - 0.25 * r * r)
            y = lam_p * v
            if y < 1e-4:
                p = (1.0
                     - (x + y) / 3.0
                     + (x * x + x * y + y * y) / 12.0
                     - (x ** 3 + x * x * y + x * y * y + y ** 3) / 60.0)
            else:
                p = ((2.0 * v * retain_x - two_area * (-expm1(-y)))
                     / (den_scale * v * (v - area_disk)))
        return (two_pi * (r ** power if table is None else float(table(r))) * r
                * p / ratio_sq)
    return k_prime, 0.0


def k_derivative(params: HardCoreParams, r: float) -> float:
    """Radial derivative K'(r): 2*pi*r times the pair correlation.

    Beyond twice the hard-core distance each process has exactly Poisson
    second-order structure, so K'(r) = 2*pi*r there; the hard core forces
    K'(r) = 0 below delta. On the transition interval the value is that of
    the transition-integral kernel ``_k_prime``; a dense type I process
    past the float range raises a validation error.
    """
    if r < 0:
        raise ValidationError("r must be >= 0")
    if r < params.delta:
        return 0.0
    if r >= 2.0 * params.delta:
        return 2.0 * math.pi * r
    try:
        value = _k_prime(params)[0](r)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise _float_range_error(params, "the type I K'(r)")
    return value


def k_function(params: HardCoreParams, r: float) -> float:
    """Expected number of further points within distance r of a typical
    point, normalized by intensity.

    The transition interval [delta, min(r, 2*delta)] is integrated
    adaptively in s = sqrt(2*delta - r); the part beyond 2*delta is the
    exact Poisson increment pi*(r^2 - 4*delta^2). Raises a tolerance error
    when the quadrature does not converge, and a validation error when a
    dense type I process takes K past the float range.
    """
    if r < 0:
        raise ValidationError("r must be >= 0")
    delta = params.delta
    if params.kind is ProcessKind.POISSON_HOLE:
        return math.pi * max(r * r - delta * delta, 0.0)
    if delta == 0.0:
        return math.pi * r * r
    if r <= delta:
        return 0.0
    inner_end = min(r, 2.0 * delta)
    try:
        result = integrate(*_in_s(_k_prime(params)[0], delta, inner_end))
    except OverflowError:
        result = None
    if result is None or math.isinf(result.value):
        raise _float_range_error(params, "the K-function transition integral")
    result.require("K-function transition integral")
    total = result.value
    if r > 2.0 * delta:
        total += math.pi * (r * r - 4.0 * delta * delta)
    return total


def k2delta_lower_bound(params: HardCoreParams) -> float:
    """Closed-form lower bound on K(2*delta) for the type I process.

    Comes from bounding the union area by its chord on the transition
    interval; always strictly below the quadrature value for delta > 0, and
    0 at delta = 0 to match K(0) = 0. Evaluated with expm1 so small
    exponents keep full precision.
    """
    if params.kind is not ProcessKind.MATERN_I:
        raise ValidationError("the K(2*delta) lower bound applies to the "
                              "type I process only")
    lam_p, delta = params.lambda_p, params.delta
    chord, _ = affine_v_bounds()
    exponent = lam_p * delta * delta * chord.b
    try:
        value = (2.0 * math.pi / (_SQRT3 * lam_p)) * math.expm1(exponent)
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise _float_range_error(params, "the K(2*delta) lower bound")
    return value


def _float_range_error(params: HardCoreParams, what: str) -> ValidationError:
    return ValidationError(
        f"{what} overflows a float at lambda_p*delta^2 = "
        f"{params.lambda_p * params.delta * params.delta:g}")
