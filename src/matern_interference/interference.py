"""Mean interference at the typical point, and the excess interference ratio.

All means are reduced-Palm expectations: the contribution of the typical
point itself is excluded. Values are linear power (path-loss normalized);
the only decibel field is the one carried by EirReport.

Structure used throughout: for every process kind the pair correlation is
exactly Poisson beyond twice the hard-core distance, so the mean splits into
an adaptive-quadrature part on [delta, 2*delta] and a closed-form tail.

The quadrature part uses the identity mean = lambda * integral of
loss(r) * K'(r) dr, taken without the factor lambda, which underflows for a
dense type I process, and in s = sqrt(2*delta - r), where the integrand is
analytic (see ``analytic``). The integrand is ``analytic._k_prime(params,
pathloss)``, the package's one K' closure per process kind, whose bare K' is
the same closure at unit loss; this module holds no pair-correlation
formula. For type I that closure is scaled by its peak e^P
at r = delta, and P is carried as a logarithm: ``eir`` forms
ln EIR = P + ln(I~ + e^-P * outer) - ln(reference) from the scaled
integral I~ and the closed-form integrals of the loss beyond 2*delta and
beyond delta, so its decibels are finite at every density that
``HardCoreParams`` accepts. The paper's type I band is such a log-EIR
too (``eir_affine_bound``), finite in decibels wherever its scaled
incomplete gammas are floats. For a power law all are taken at delta = 1
(``_at_unit_delta``), from lambda_p*delta^2.
"""

from __future__ import annotations

import enum
import math
import sys
import warnings
from typing import NamedTuple

from .analytic import C2_LENS, AffineVBound, _in_s, _k_prime, affine_v_bounds
# No integrand here calls these two any more. The benchmark's tracer
# (perfbench/tracer.py) still counts calls to interference.v_union and
# interference.pair_retention_type2, so they stay importable from here
# until that count comes from a diagnostics record.
from .analytic import pair_retention_type2, v_union  # noqa: F401
from .errors import ApproximationWarning, UnsupportedMethodError, ValidationError
from .models import (
    HardCoreParams,
    PathLossModel,
    PowerLawPathLoss,
    ProcessKind,
    TabulatedPathLoss,
    _power,
    _Record,
    intensity,
)
from .numerics import _ABS_TOL, _QK21, integrate, upper_incomplete_gamma

__all__ = [
    "NU_TYPE2_UNIVERSAL",
    "TYPE1_GROWTH_EXPONENT",
    "EirMethod",
    "EirReport",
    "mean_interference_quadrature",
    "mean_interference_inside_2delta",
    "interference_outside_2delta",
    "mean_interference_poisson_hole",
    "h_integral",
    "h_bound",
    "eir_affine_bound",
    "eir",
    "eir_type2_bound",
]

_LOG10_E10 = 10.0 * math.log10(math.e)  # multiplies a natural log into decibels
_FLOAT_MIN = sys.float_info.min  # the smallest normal float

#: Universal cap on the type II excess interference ratio, valid for every
#: integrable radial path loss: 12*pi / (8*pi + 3*sqrt(3)) < 5/4.
NU_TYPE2_UNIVERSAL = 12.0 * math.pi / (8.0 * math.pi + 3.0 * math.sqrt(3.0))

# the upper line on the union area, its tangent at r = 3*delta/2
_TANGENT = affine_v_bounds()[1]

#: Coefficient of lambda_p*delta^2 in the exponential growth of the type I
#: EIR approximation: pi - a - b for the tangent-line constants. Exceeds 1,
#: which is what makes the growth strictly faster than exp(lambda_p*delta^2).
TYPE1_GROWTH_EXPONENT = math.pi - _TANGENT.a - _TANGENT.b


class EirMethod(enum.Enum):
    QUADRATURE = "quadrature"
    UPPER_BOUND = "upper-bound"
    APPROXIMATION = "approximation"


class EirReport(_Record):
    """Excess interference ratio together with the two means it compares."""

    mean_hardcore: float
    mean_poisson_hole: float
    eir_linear: float
    eir_db: float

    def __post_init__(self):
        if math.isfinite(self.eir_linear) and self.eir_linear > 0:
            if abs(self.eir_db - _LOG10_E10 * math.log(self.eir_linear)) > 1e-9:
                raise ValidationError("eir_db does not match eir_linear")


class _Unit(NamedTuple):
    """A call's process and path loss at the scale its integrals are taken
    at (``_at_unit_delta``). The first three fields are HardCoreParams',
    which are all that ``analytic._k_prime`` and ``intensity`` read, so the
    frame stands in for the process there without a second validation."""

    lambda_p: float
    delta: float
    kind: ProcessKind
    loss: PathLossModel
    # delta^(2 - alpha), the factor every mean carries back to the caller's
    # delta (inf where it leaves the float range), or None where the frame
    # is the caller's own
    scale: float | None


def _at_unit_delta(params: HardCoreParams, pathloss: PathLossModel) -> _Unit:
    """For a power law at delta > 0, the same kind at delta = 1, parent
    intensity c = lambda_p*delta*delta (at least the smallest normal float,
    where the kernel is Poisson to rounding), cutoff r0/delta <= 1 and the
    scale delta^(2 - alpha), formed once per public call; a table, with its
    own length scale, or delta = 0 comes back as is."""
    delta = params.delta
    if not isinstance(pathloss, PowerLawPathLoss) or delta == 0.0:
        return _Unit(params.lambda_p, delta, params.kind, pathloss, None)
    if pathloss.r0 > delta:
        raise ValidationError(
            f"path loss inner cutoff r0={pathloss.r0} exceeds the "
            f"hard-core distance delta={delta}")
    c = max(params.lambda_p * delta * delta, _FLOAT_MIN)
    loss = (pathloss if pathloss.r0 == 0.0
            else PowerLawPathLoss(pathloss.alpha, pathloss.r0 / delta))
    scale = None
    if delta != 1.0:  # delta^(2 - alpha), or inf where it leaves the float range
        p = 2.0 - pathloss.alpha
        scale = delta ** p if abs(p * math.log(delta)) < 708.0 else math.inf
    return _Unit(c, 1.0, params.kind, loss, scale)


def _mean(params: HardCoreParams, unit: _Unit, value: float,
          factors: tuple[float, ...], exponents: tuple[float, ...]) -> float:
    """e^sum(exponents) * prod(factors) * value, times the frame's scale
    delta^(2 - alpha): a mean from its lambda-free ``value`` at ``unit``'s
    scale. The plain product where each partial product is a normal float,
    else taken in decimal: 0 below the float range, inf above it, never nan."""
    if value == 0.0 or 0.0 in factors:
        return 0.0
    terms = [math.exp(x) if x < 709 else math.inf for x in exponents] + [*factors, value]
    if unit.scale is not None:
        terms.append(unit.scale)
    mean = 1.0
    for term in terms:
        mean *= term
        if not _FLOAT_MIN <= mean < math.inf:
            break
    else:
        return mean
    from decimal import Decimal, Overflow, localcontext

    with localcontext() as ctx:
        ctx.prec, ctx.traps[Overflow] = 40, False
        log_scale = sum(map(Decimal, exponents), Decimal(0))
        if unit.scale is not None:
            log_scale += (2 - Decimal(unit.loss.alpha)) * Decimal(params.delta).ln()
        return float(math.prod(map(Decimal, (*factors, value)), start=log_scale.exp()))


def _exp(x: float) -> float:
    """e^x, and inf where that overflows a float."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _table_knots(pathloss: PathLossModel, delta: float) -> list[float]:
    """The radii of a path loss table inside (delta, 2*delta), where its
    linear interpolation has kinks; none for a power law."""
    if isinstance(pathloss, TabulatedPathLoss):
        return [r for r in pathloss.r_grid if delta < r < 2.0 * delta]
    return []


# how far from r = delta the first node of one Gauss-Kronrod panel over the
# whole annulus, s in [0, sqrt(delta)], lies, in units of delta (0.0043)
_FIRST_NODE_REACH = 1.0 - (0.5 * (1.0 + _QK21[0][0])) ** 2
# lambda_p*delta^2 (about 133) above which the type I boundary layer's
# width w = 1/(sqrt(3)*lambda_p*delta) is below that reach
_LAYER_ONSET = 1.0 / (math.sqrt(3.0) * _FIRST_NODE_REACH)


def _transition_integral(unit: _Unit) -> tuple[float, float]:
    """(I~, P) for the lambda-free integral I = I~ * e^P of the path loss
    against K'(r) over [delta, 2*delta), so that the annulus' mean
    interference is lambda * I. Requires delta > 0.

    I~ integrates ``analytic._k_prime``'s kernel in s (see ``_in_s``), with
    knots at a table's kinks and across a dense type I boundary layer; for
    type I the kernel is scaled by its peak, and both values stay finite at
    any accepted density. Where 2*pi*loss(delta)*delta^2 is below 1 (a
    table: a power law comes at delta = 1), the absolute tolerance is taken
    in units of it, so that the relative one holds for a steep table too.
    """
    delta, pathloss = unit.delta, unit.loss
    kernel, log_peak = _k_prime(unit, pathloss)
    size = 2.0 * math.pi * float(pathloss(delta)) * delta * delta
    if size == 0.0:
        return 0.0, log_peak  # a nonincreasing table vanishes on the annulus
    if size == math.inf:
        raise ValidationError(
            f"2*pi*loss(delta)*delta^2 = {size:g} leaves the float range "
            f"at delta = {delta:g}")
    knots = _table_knots(pathloss, delta)
    if (unit.kind is ProcessKind.MATERN_I
            and unit.lambda_p * delta * delta > _LAYER_ONSET):
        # The scaled kernel falls from r = delta like exp(-(r - delta)/w).
        # A layer that ends short of the first node is invisible to the
        # rule, which then reports convergence far from the value, so it
        # is cut at delta + 4^k*w: through 64w, which leaves e^-64 of it
        # beyond the last knot, and on while 4^k*w is below the reach.
        w = 1.0 / (math.sqrt(3.0) * unit.lambda_p * delta)
        knots += [delta + w * 4.0**k for k in range(4)]
        w *= 256.0
        while w < _FIRST_NODE_REACH * delta:
            knots.append(delta + w)
            w *= 4.0
    result = integrate(*_in_s(kernel, delta, 2.0 * delta, knots),
                       abs_tol=_ABS_TOL * min(size, 1.0))
    result.require("transition-annulus interference integral")
    return result.value, log_peak


def _annulus_mean(params: HardCoreParams, unit: _Unit, scaled: float) -> float:
    """lambda * e^P * I~ (``_transition_integral``), where for type I the
    exponent of lambda * e^P, lambda_p*delta^2*(pi - C2_LENS), is < 0."""
    if params.kind is not ProcessKind.MATERN_I:
        return _mean(params, unit, scaled, (intensity(params),), ())
    lam_p, delta = params.lambda_p, params.delta
    return _mean(params, unit, scaled, (lam_p,),
                 (lam_p * delta * delta * (math.pi - C2_LENS),))


def mean_interference_inside_2delta(params: HardCoreParams,
                                    pathloss: PathLossModel) -> float:
    """Mean interference received from the transition annulus
    delta <= ||x|| < 2*delta, by adaptive quadrature of the exact pair
    correlation. Zero when delta = 0."""
    if params.delta == 0.0:
        return 0.0
    unit = _at_unit_delta(params, pathloss)
    return _annulus_mean(params, unit, _transition_integral(unit)[0])


def _times_intensity(params: HardCoreParams, unit: _Unit, value: float,
                     log_eir: float = 0.0) -> float:
    """2*pi * lambda * e^log_eir * value (``_mean``), where a type I lambda
    is lambda_p * e^-x with x = (lambda_p*delta*delta)*pi, as at delta = 1."""
    lam_p, delta = params.lambda_p, params.delta
    if params.kind is ProcessKind.MATERN_I:
        return _mean(params, unit, value, (lam_p, 2.0 * math.pi),
                     (-lam_p * delta * delta * math.pi, log_eir))
    return _mean(params, unit, value, (intensity(params), 2.0 * math.pi), (log_eir,))


def interference_outside_2delta(params: HardCoreParams,
                                pathloss: PathLossModel) -> float:
    """Mean interference from beyond 2*delta, where every process kind has
    exactly Poisson second-order structure at its own intensity; closed form
    for the power law, exact piecewise integral for tabulated loss."""
    if params.delta <= 0:
        raise ValidationError("interference_outside_2delta requires delta > 0")
    unit = _at_unit_delta(params, pathloss)
    return _times_intensity(
        params, unit, unit.loss.radial_integral(2.0 * unit.delta, math.inf))


def mean_interference_quadrature(params: HardCoreParams,
                                 pathloss: PathLossModel) -> float:
    """Total mean interference at the typical point.

    Sum of the transition-annulus quadrature and the exact Poisson tail from
    2*delta outward. At delta = 0 all kinds degenerate to the parent process
    and the value is the closed-form integral from the origin, which exists
    only when the path loss is bounded (r0 > 0 or tabulated).
    """
    if params.delta == 0.0:
        return 2.0 * math.pi * params.lambda_p * pathloss.radial_integral(0.0, math.inf)
    inner = mean_interference_inside_2delta(params, pathloss)
    return inner + interference_outside_2delta(params, pathloss)


def mean_interference_poisson_hole(params: HardCoreParams,
                                   pathloss: PathLossModel) -> float:
    """Mean interference of the reference process: a Poisson process whose
    intensity matches the (thinned) process, observed outside a hole of
    radius delta. Closed form 2*pi*lambda*delta^(2-alpha)/(alpha-2) for a
    power law with cutoff below delta."""
    unit = _at_unit_delta(params, pathloss)
    return _times_intensity(params, unit,
                            unit.loss.radial_integral(unit.delta, math.inf))


# ---------------------------------------------------------------------------
# Affine bounds on the transition part
# ---------------------------------------------------------------------------


def _h_integral_parts(v: float, x: float, alpha: float) -> tuple[float, float, float]:
    """h_integral(v, x, alpha) as the product of v^(alpha-2), exp(-v*x) and
    a difference of scaled incomplete gammas, each of which stays in range
    when the product does not; below v*x = 2^-54, where the gammas overflow
    alone, at the v -> 0 limit, x^(2-alpha)*(1 - 2^(2-alpha))/(alpha - 2)."""
    if not (v > 0 and math.isfinite(v)):
        raise ValidationError(f"v must be > 0, got {v}")
    if not (x > 0 and math.isfinite(x)):
        raise ValidationError(f"x must be > 0, got {x}")
    if not (alpha > 2 and math.isfinite(alpha)):
        raise ValidationError(f"alpha must be > 2, got {alpha}")
    s = 2.0 - alpha
    decay = math.exp(-v * x)
    if v * x < 2.0**-54:  # within v*x of the value
        return 1.0, decay, (_power(x, s, "x^(2 - alpha)")
                            * -math.expm1(s * math.log(2.0)) / (alpha - 2.0))
    g1 = upper_incomplete_gamma(s, v * x, scaled=True)
    g2 = upper_incomplete_gamma(s, 2.0 * v * x, scaled=True)
    return _power(v, alpha - 2.0, "v^(alpha - 2)"), decay, g1 - decay * g2


def h_integral(v: float, x: float, alpha: float) -> float:
    """The weighted radial integral of r^(1-alpha)*exp(-v*r) over [x, 2*x],
    expressed through upper incomplete gamma functions of order 2 - alpha.

    Computed from exponentially scaled gamma evaluations with a single
    leading exp(-v*x) factor, so intermediate values neither overflow nor
    underflow until the result itself is subnormal (v*x beyond about 700).
    """
    power, decay, gammas = _h_integral_parts(v, x, alpha)
    return power * decay * gammas


def h_bound(params: HardCoreParams, pathloss: PathLossModel,
            bound: AffineVBound) -> float:
    """Transition-annulus interference with the union area replaced by an
    affine comparison line.

    An upper line on the union area under-counts retained pairs, giving a
    LOWER interference bound; the lower (chord) line gives an UPPER bound.
    Closed form via h_integral for power-law loss, quadrature otherwise.
    """
    if params.delta <= 0:
        raise ValidationError("h_bound requires delta > 0")
    unit = _at_unit_delta(params, pathloss)
    lam_p, delta, loss = unit.lambda_p, unit.delta, unit.loss
    rate = lam_p * bound.b * delta  # of the closed forms' exp(-rate*r)
    if isinstance(loss, PowerLawPathLoss):
        value = h_integral(rate, delta, loss.alpha)
    else:
        result = integrate(lambda r: float(loss(r)) * r * math.exp(-rate * r),
                           delta, 2.0 * delta, _table_knots(loss, delta))
        result.require("affine-bound interference integral")
        value = result.value
    return _mean(params, unit, value, (2.0 * math.pi, params.lambda_p),
                 (-lam_p * bound.a * delta * delta,))


def eir_affine_bound(params: HardCoreParams, pathloss: PathLossModel,
                     bound: AffineVBound) -> EirReport:
    """The type I EIR bound (t + 1) / 2^(alpha - 2) for a power law, where
    t = h_bound(params, pathloss, bound) / interference_outside_2delta: the
    lower bound for an upper line on the union area, the upper for a lower.

    Neither mean is formed: at delta = 1, with c = lambda_p*delta^2, ln t
    is c*(pi - a - b) plus the log of the scaled closed form of h_integral
    over the tail integral from 2, and ln EIR comes from ln t without
    forming t. Where that scaled closed form is no float, a validation
    error naming the float range is raised.
    """
    if params.kind is not ProcessKind.MATERN_I:
        raise ValidationError("the affine bounds apply to the type I process only")
    if not isinstance(pathloss, PowerLawPathLoss):
        raise UnsupportedMethodError(
            "the closed-form affine-bound EIR requires power-law path loss")
    if params.delta <= 0:
        raise ValidationError("the affine-bound EIR requires delta > 0")
    unit = _at_unit_delta(params, pathloss)
    c, alpha = unit.lambda_p, unit.loss.alpha
    power, _, gammas = _h_integral_parts(c * bound.b, 1.0, alpha)
    scaled = power * gammas
    if not 0.0 < scaled < math.inf:
        raise ValidationError(
            "the scaled affine-bound transition integral leaves the float "
            f"range at lambda_p*delta^2 = {c:g}")
    log_t = (c * (math.pi - bound.a - bound.b)
             + math.log(scaled / unit.loss.radial_integral(2.0, math.inf)))
    # ln(t + 1) = max(ln t, 0) + log1p(e^-|ln t|)
    log_eir = (max(log_t, 0.0) + math.log1p(math.exp(-abs(log_t)))
               - (alpha - 2.0) * math.log(2.0))
    return _closed_form_report(params, unit,
                               unit.loss.radial_integral(1.0, math.inf), log_eir)


# ---------------------------------------------------------------------------
# Excess interference ratio
# ---------------------------------------------------------------------------


def _report(mean_hardcore: float, mean_poisson: float, log_eir: float) -> EirReport:
    """The report of an EIR given by its natural log; ``eir_linear`` is inf
    once the ratio overflows, while ``eir_db`` stays finite."""
    return EirReport(mean_hardcore=mean_hardcore, mean_poisson_hole=mean_poisson,
                     eir_linear=_exp(log_eir), eir_db=_LOG10_E10 * log_eir)


def _closed_form_report(params: HardCoreParams, unit: _Unit,
                        hole: float, log_eir: float) -> EirReport:
    """The report of a closed-form EIR e^log_eir: the Poisson-hole mean from
    its lambda-free ``hole`` integral, and e^log_eir times it."""
    return _report(_times_intensity(params, unit, hole, log_eir),
                   _times_intensity(params, unit, hole), log_eir)


def eir(params: HardCoreParams, pathloss: PathLossModel,
        method: EirMethod = EirMethod.QUADRATURE) -> EirReport:
    """Excess interference ratio: mean interference of the process divided
    by that of the matched-intensity Poisson reference with a hole.

    Methods: QUADRATURE computes both means (exact up to quadrature
    tolerance; the ratio is exactly 1 for the Poisson reference and at
    delta = 0), with a finite ``eir_db`` at every accepted density:
    ``eir_linear`` is inf once the ratio overflows (type I,
    lambda_p*delta^2 above about 580), computed at delta = 1 for a power
    law, while the means may be 0 or inf. A table that vanishes beyond
    delta is a validation error. UPPER_BOUND is the type II
    closed-form cap; APPROXIMATION is the paper's type I closed form for a
    power law, which is close to quadrature only near lambda_p*delta^2 = 9
    (see ``_approximation_log_eir``).
    """
    kind = params.kind
    if not isinstance(method, EirMethod):
        raise UnsupportedMethodError(f"unknown EIR method {method!r}")
    if method is EirMethod.UPPER_BOUND and kind is not ProcessKind.MATERN_II:
        raise UnsupportedMethodError(
            "the closed-form EIR upper bound exists for the type II "
            "process only")
    if method is EirMethod.APPROXIMATION:
        if kind is not ProcessKind.MATERN_I:
            raise UnsupportedMethodError(
                "the closed-form EIR approximation exists for the type I "
                "process only")
        if not isinstance(pathloss, PowerLawPathLoss):
            raise UnsupportedMethodError(
                "the EIR approximation requires power-law path loss")

    unit = _at_unit_delta(params, pathloss)
    if method is EirMethod.APPROXIMATION:
        log_eir = _approximation_log_eir(params, pathloss.alpha)
    elif method is EirMethod.UPPER_BOUND:
        log_eir = math.log(eir_type2_bound(
            pathloss.alpha if isinstance(pathloss, PowerLawPathLoss) else None))
    hole = unit.loss.radial_integral(unit.delta, math.inf)
    if method is not EirMethod.QUADRATURE:
        return _closed_form_report(params, unit, hole, log_eir)
    mean_poisson = _times_intensity(params, unit, hole)
    if kind is ProcessKind.POISSON_HOLE:
        return _report(mean_poisson, mean_poisson, 0.0)
    if params.delta == 0.0:
        mean_hardcore = mean_interference_quadrature(params, pathloss)
        return _report(mean_hardcore, mean_poisson, 0.0)
    # both means carry the factor lambda, so the ratio is formed from
    # lambda-free integrals, with the type I peak e^P as a logarithm
    scaled, log_peak = _transition_integral(unit)
    two_pi = 2.0 * math.pi
    radial = unit.loss.radial_integral(2.0 * unit.delta, math.inf)
    total = scaled + math.exp(-log_peak) * (two_pi * radial)  # (I + outer) * e^-P
    reference = two_pi * hole
    if total == 0.0 or reference == 0.0:  # a table, as a power law is > 0
        raise ValidationError(
            f"the path loss is zero beyond delta = {params.delta} (its table "
            f"ends at r = {pathloss.support_end}): the EIR compares two zero means")
    log_eir = log_peak + math.log(total) - math.log(reference)
    # mean_interference_quadrature's value, bit for bit
    mean_hardcore = (_annulus_mean(params, unit, scaled)
                     + _times_intensity(params, unit, radial))
    return _report(mean_hardcore, mean_poisson, log_eir)


# the EIR approximation warns at and below this lambda_p*delta^2
_SPARSE_APPROXIMATION = 4.0


def _warn_sparse_approximation(got: str, stacklevel: int = 2) -> None:
    """The ApproximationWarning of the EIR approximation, for the
    lambda_p*delta^2 described by ``got``."""
    warnings.warn(
        f"EIR approximation is inaccurate for lambda_p*delta^2 <= 4 (got {got}); "
        "it comes closest to the exact value near lambda_p*delta^2 = 9",
        ApproximationWarning, stacklevel=stacklevel)


def _approximation_log_eir(params: HardCoreParams, alpha: float) -> float:
    """ln of ``eir``'s closed-form type I APPROXIMATION, built from the
    lower affine bound and the asymptotics of h_integral.

    Grows like exp(lambda_p * delta^2 * TYPE1_GROWTH_EXPONENT), so its log
    keeps the decibels finite. It is not accurate for lambda_p*delta^2 > 4:
    the exact EIR grows with exponent 2*pi/3 - sqrt(3)/2 = 1.2284, so the
    approximation falls ever further below it. At alpha = 3, approximation
    minus quadrature is +2.35 dB at lambda_p*delta^2 = 5, +0.69 dB at 8,
    -13.47 dB at 36 and -92.5 dB at 196; it is within 1 dB only on about
    [7.5, 11]. Warns for lambda_p*delta^2 <= 4, where it is worse still.
    A lambda_p*b*delta^2 below the normal float range is a validation error.
    """
    if params.delta <= 0:
        raise ValidationError("the EIR approximation requires delta > 0")
    density = params.lambda_p * params.delta * params.delta  # c, unclamped
    tangent_term = density * _TANGENT.b
    if tangent_term < _FLOAT_MIN:
        raise ValidationError(
            f"lambda_p*b*delta^2 = {tangent_term:g} of the EIR approximation "
            f"leaves the normal float range")
    if density <= _SPARSE_APPROXIMATION:
        _warn_sparse_approximation(f"{density:g}", stacklevel=4)
    return (math.log(alpha - 2.0)
            + (alpha - 2.0) * math.log(2.0)
            + density * TYPE1_GROWTH_EXPONENT
            - math.log(tangent_term))


def eir_type2_bound(alpha: float | None = None) -> float:
    """Cap on the type II EIR: the universal constant when alpha is omitted
    (valid for any integrable path loss), sharpened for a power law of
    exponent alpha."""
    if alpha is None:
        return NU_TYPE2_UNIVERSAL
    if not (alpha > 2 and math.isfinite(alpha)):
        raise ValidationError(f"alpha must be > 2, got {alpha}")
    return NU_TYPE2_UNIVERSAL - (NU_TYPE2_UNIVERSAL - 1.0) * 2.0 ** (2.0 - alpha)
