"""Mean interference at the typical point, and the excess interference ratio.

All means are reduced-Palm expectations: the contribution of the typical
point itself is excluded. Values are linear power (path-loss normalized);
the only decibel field is the one carried by EirReport.

Structure used throughout: for every process kind the pair correlation is
exactly Poisson beyond twice the hard-core distance, so the mean splits into
an adaptive-quadrature part on [delta, 2*delta] and a closed-form tail.

The quadrature part uses the identity mean = lambda * integral of
loss(r) * K'(r) dr. The integral is taken without the factor lambda, which
for a dense type I process is so small that the quadrature's relative
tolerance would turn into an absolute one (or lambda underflows to zero),
and in s = sqrt(2*delta - r), where the integrand is analytic (see
``analytic``). ``eir`` forms its ratio from these lambda-free integrals.
The integrand is ``analytic._k_prime(params, pathloss)``, the one K'
kernel of the package; this module holds no pair-correlation formula.
The ratios of the affine bounds to the tail are likewise formed without
lambda (``h_bound_over_tail``).
"""

from __future__ import annotations

import enum
import math
import sys
import warnings
from dataclasses import dataclass

from .analytic import C2_LENS, AffineVBound, _in_s, _k_prime
# No integrand here calls these two any more. The benchmark's tracer
# (perfbench/tracer.py) still counts calls to interference.v_union and
# interference.pair_retention_type2, so they stay importable from here
# until that count comes from a diagnostics record.
from .analytic import pair_retention_type2, v_union  # noqa: F401
from .errors import UnsupportedMethodError, ValidationError
from .models import (
    HardCoreParams,
    PathLossModel,
    PowerLawPathLoss,
    ProcessKind,
    TabulatedPathLoss,
    intensity,
)
from .numerics import QuadratureConfig, integrate, upper_incomplete_gamma

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
    "h_bound_over_tail",
    "eir",
    "eir_type1_approximation",
    "eir_type2_bound",
]

_LOG10_E10 = 10.0 / math.log(10.0)  # multiplies a natural log into decibels
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

#: Universal cap on the type II excess interference ratio, valid for every
#: integrable radial path loss: 12*pi / (8*pi + 3*sqrt(3)) < 5/4.
NU_TYPE2_UNIVERSAL = 12.0 * math.pi / (8.0 * math.pi + 3.0 * math.sqrt(3.0))

#: Coefficient of lambda_p*delta^2 in the exponential growth of the type I
#: EIR approximation: pi - a - b for the tangent-line constants. Exceeds 1,
#: which is what makes the growth strictly faster than exp(lambda_p*delta^2).
TYPE1_GROWTH_EXPONENT = (
    math.pi - (2.0 * math.asin(0.75) - 3.0 * math.sqrt(7.0) / 8.0) - math.sqrt(7.0) / 2.0
)


class EirMethod(enum.Enum):
    QUADRATURE = "quadrature"
    UPPER_BOUND = "upper-bound"
    APPROXIMATION = "approximation"


@dataclass(frozen=True)
class EirReport:
    """Excess interference ratio together with the two means it compares."""

    mean_hardcore: float
    mean_poisson_hole: float
    eir_linear: float
    eir_db: float
    method: EirMethod

    def __post_init__(self):
        if math.isfinite(self.eir_linear) and self.eir_linear > 0:
            if abs(self.eir_db - _LOG10_E10 * math.log(self.eir_linear)) > 1e-9:
                raise ValidationError("eir_db does not match eir_linear")


def _check_power_law_cutoff(params: HardCoreParams, pathloss: PathLossModel) -> None:
    # The closed forms on [delta, 2*delta] need a pure power law there, so
    # the inner cutoff must not reach past delta. When delta = 0 all three
    # processes coincide and any cutoff is acceptable.
    if isinstance(pathloss, PowerLawPathLoss):
        if params.delta > 0 and pathloss.r0 > params.delta:
            raise ValidationError(
                f"path loss inner cutoff r0={pathloss.r0} exceeds the "
                f"hard-core distance delta={params.delta}")


def _transition_quad_config(pathloss: PathLossModel, delta: float,
                            quad: QuadratureConfig) -> QuadratureConfig:
    if isinstance(pathloss, TabulatedPathLoss):
        knots = [r for r in pathloss.r_grid if delta < r < 2.0 * delta]
        if knots:
            return quad.with_breakpoints(*knots)
    return quad


class _FloatRangeError(ValidationError):
    """The lambda-free transition integral, or the EIR formed from it,
    leaves the float range (a type I process with lambda_p*delta^2 > 570)."""

    def __init__(self, params: HardCoreParams):
        super().__init__(
            "the transition integral overflows a float at lambda_p*delta^2 = "
            f"{params.lambda_p * params.delta * params.delta:g}; the type I "
            "approximation method stays finite in decibels")


def _transition_integral(params: HardCoreParams, pathloss: PathLossModel,
                         quad: QuadratureConfig) -> float:
    """The lambda-free transition integral: the path loss against K'(r) over
    [delta, 2*delta), so that the annulus' mean interference is lambda times
    this value. Requires delta > 0.

    Integrated in s = sqrt(2*delta - r) (see ``analytic``), where the
    integrand is analytic. Without the factor lambda, which underflows for a
    dense type I process, the integral is no smaller than that of
    2*pi*r*loss(r), so the relative tolerance holds unless the path loss
    itself is tiny across the annulus.
    """
    delta = params.delta
    lam_p = params.lambda_p
    # the exponent of K' peaks at r = delta, lambda_p*delta^2 times
    # 2*pi/3 - sqrt(3)/2
    if (params.kind is ProcessKind.MATERN_I and lam_p * (
            2.0 * math.pi * delta * delta - C2_LENS * delta * delta) > _LOG_FLOAT_MAX):
        raise _FloatRangeError(params)
    g, lower, upper, cfg = _in_s(_k_prime(params, pathloss), delta, 2.0 * delta,
                                 _transition_quad_config(pathloss, delta, quad))
    result = integrate(g, lower, upper, cfg)
    if math.isinf(result.value):
        raise _FloatRangeError(params)
    result.require("transition-annulus interference integral")
    return result.value


def mean_interference_inside_2delta(
        params: HardCoreParams,
        pathloss: PathLossModel,
        quad: QuadratureConfig = QuadratureConfig()) -> float:
    """Mean interference received from the transition annulus
    delta <= ||x|| < 2*delta, by adaptive quadrature of the exact pair
    correlation. Zero when delta = 0."""
    _check_power_law_cutoff(params, pathloss)
    if params.delta == 0.0:
        return 0.0
    try:
        inner = _transition_integral(params, pathloss, quad)
    except _FloatRangeError:
        # lambda times the integral is far below the smallest float there
        return 0.0
    return _times_intensity(params, inner)


def _times_intensity(params: HardCoreParams, value: float) -> float:
    """intensity(params) * value. A type I intensity is subnormal or zero
    (lambda_p*pi*delta^2 > 708) long before that product is, so there the
    product is formed in the log domain."""
    lam = intensity(params)
    if (params.kind is not ProcessKind.MATERN_I or lam >= sys.float_info.min
            or value == 0.0):
        return lam * value
    return math.exp(math.log(params.lambda_p) + math.log(value)
                    - params.lambda_p * math.pi * params.delta * params.delta)


def interference_outside_2delta(params: HardCoreParams,
                                pathloss: PathLossModel) -> float:
    """Mean interference from beyond 2*delta, where every process kind has
    exactly Poisson second-order structure at its own intensity; closed form
    for the power law, exact piecewise integral for tabulated loss."""
    _check_power_law_cutoff(params, pathloss)
    if params.delta <= 0:
        raise ValidationError("interference_outside_2delta requires delta > 0")
    lam = intensity(params)
    return 2.0 * math.pi * lam * pathloss.radial_integral(2.0 * params.delta, math.inf)


def mean_interference_quadrature(
        params: HardCoreParams,
        pathloss: PathLossModel,
        quad: QuadratureConfig = QuadratureConfig()) -> float:
    """Total mean interference at the typical point.

    Sum of the transition-annulus quadrature and the exact Poisson tail from
    2*delta outward. At delta = 0 all kinds degenerate to the parent process
    and the value is the closed-form integral from the origin, which exists
    only when the path loss is bounded (r0 > 0 or tabulated).
    """
    _check_power_law_cutoff(params, pathloss)
    if params.delta == 0.0:
        return 2.0 * math.pi * params.lambda_p * pathloss.radial_integral(0.0, math.inf)
    inner = mean_interference_inside_2delta(params, pathloss, quad)
    return inner + interference_outside_2delta(params, pathloss)


def mean_interference_poisson_hole(params: HardCoreParams,
                                   pathloss: PathLossModel) -> float:
    """Mean interference of the reference process: a Poisson process whose
    intensity matches the (thinned) process, observed outside a hole of
    radius delta. Closed form 2*pi*lambda*delta^(2-alpha)/(alpha-2) for a
    power law with cutoff below delta."""
    _check_power_law_cutoff(params, pathloss)
    lam = intensity(params)
    return 2.0 * math.pi * lam * pathloss.radial_integral(params.delta, math.inf)


# ---------------------------------------------------------------------------
# Affine bounds on the transition part
# ---------------------------------------------------------------------------


def _h_integral_parts(v: float, x: float, alpha: float) -> tuple[float, float, float]:
    """h_integral(v, x, alpha) as the product of v^(alpha-2), exp(-v*x) and
    a difference of scaled incomplete gammas, each of which stays in range
    when the product does not."""
    if not (v > 0 and math.isfinite(v)):
        raise ValidationError(f"v must be > 0, got {v}")
    if not (x > 0 and math.isfinite(x)):
        raise ValidationError(f"x must be > 0, got {x}")
    if not (alpha > 2 and math.isfinite(alpha)):
        raise ValidationError(f"alpha must be > 2, got {alpha}")
    s = 2.0 - alpha
    g1 = upper_incomplete_gamma(s, v * x, scaled=True)
    g2 = upper_incomplete_gamma(s, 2.0 * v * x, scaled=True)
    decay = math.exp(-v * x)
    return v ** (alpha - 2.0), decay, g1 - decay * g2


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
    _check_power_law_cutoff(params, pathloss)
    if params.delta <= 0:
        raise ValidationError("h_bound requires delta > 0")
    lam_p, delta = params.lambda_p, params.delta
    prefactor = 2.0 * math.pi * lam_p * math.exp(-lam_p * bound.a * delta * delta)
    if isinstance(pathloss, PowerLawPathLoss):
        return prefactor * h_integral(lam_p * bound.b * delta, delta, pathloss.alpha)
    rate = lam_p * bound.b * delta

    def integrand(r: float) -> float:
        return float(pathloss(r)) * r * math.exp(-rate * r)

    cfg = _transition_quad_config(pathloss, delta, QuadratureConfig())
    result = integrate(integrand, delta, 2.0 * delta, cfg)
    result.require("affine-bound interference integral")
    return prefactor * result.value


def h_bound_over_tail(params: HardCoreParams, pathloss: PathLossModel,
                      bound: AffineVBound) -> float:
    """h_bound(params, pathloss, bound) / interference_outside_2delta(params,
    pathloss) for a type I process and a power law, formed without lambda.

    Both means carry lambda_p * exp(-lambda_p * delta^2 * c), so the ratio
    is exp(lambda_p*delta^2*(pi - a - b)) times the scaled closed form of
    h_integral over the tail integral from 2*delta. Where lambda underflows
    the quotient of the two means is 0/0, but this ratio stays finite until
    it leaves the float range itself, where a validation error is raised.
    The affine-bound EIR is (this + 1) / 2^(alpha - 2).
    """
    _check_power_law_cutoff(params, pathloss)
    if params.kind is not ProcessKind.MATERN_I:
        raise ValidationError("the affine bounds apply to the type I process only")
    if not isinstance(pathloss, PowerLawPathLoss):
        raise UnsupportedMethodError(
            "the lambda-free affine-bound ratio requires power-law path loss")
    if params.delta <= 0:
        raise ValidationError("h_bound_over_tail requires delta > 0")
    lam_p, delta = params.lambda_p, params.delta
    power, _, gammas = _h_integral_parts(lam_p * bound.b * delta, delta, pathloss.alpha)
    exponent = lam_p * delta * delta * (math.pi - bound.a - bound.b)
    try:
        ratio = (math.exp(exponent) * power * gammas
                 / pathloss.radial_integral(2.0 * delta, math.inf))
    except OverflowError:
        ratio = math.inf
    if math.isinf(ratio):
        raise ValidationError(
            "the ratio of the affine-bound interference to the tail overflows "
            f"a float at lambda_p*delta^2 = {lam_p * delta * delta:g}")
    return ratio


# ---------------------------------------------------------------------------
# Excess interference ratio
# ---------------------------------------------------------------------------


def _report(mean_hardcore: float, mean_poisson: float, eir_linear: float,
            method: EirMethod, log_eir: float | None = None) -> EirReport:
    if log_eir is not None:
        eir_db = _LOG10_E10 * log_eir
    elif eir_linear > 0 and math.isfinite(eir_linear):
        eir_db = _LOG10_E10 * math.log(eir_linear)
    else:
        eir_db = math.inf
    return EirReport(mean_hardcore=mean_hardcore, mean_poisson_hole=mean_poisson,
                     eir_linear=eir_linear, eir_db=eir_db, method=method)


def eir(params: HardCoreParams, pathloss: PathLossModel,
        method: EirMethod = EirMethod.QUADRATURE,
        quad: QuadratureConfig = QuadratureConfig()) -> EirReport:
    """Excess interference ratio: mean interference of the process divided
    by that of the matched-intensity Poisson reference with a hole.

    Methods: QUADRATURE computes both means (exact up to quadrature
    tolerance; the ratio is exactly 1 for the Poisson reference and at
    delta = 0); UPPER_BOUND is the type II closed-form cap; APPROXIMATION is
    the paper's type I closed form, which is close to quadrature only near
    lambda_p*delta^2 = 9 (see eir_type1_approximation).
    """
    kind = params.kind
    if method is EirMethod.UPPER_BOUND:
        if kind is not ProcessKind.MATERN_II:
            raise UnsupportedMethodError(
                "the closed-form EIR upper bound exists for the type II "
                "process only")
        mean_poisson = mean_interference_poisson_hole(params, pathloss)
        alpha = pathloss.alpha if isinstance(pathloss, PowerLawPathLoss) else None
        ratio = eir_type2_bound(alpha)
        return _report(ratio * mean_poisson, mean_poisson, ratio, method)
    if method is EirMethod.APPROXIMATION:
        if kind is not ProcessKind.MATERN_I:
            raise UnsupportedMethodError(
                "the closed-form EIR approximation exists for the type I "
                "process only")
        if not isinstance(pathloss, PowerLawPathLoss):
            raise UnsupportedMethodError(
                "the EIR approximation requires power-law path loss")
        _check_power_law_cutoff(params, pathloss)
        return eir_type1_approximation(params, pathloss.alpha)
    if method is not EirMethod.QUADRATURE:
        raise UnsupportedMethodError(f"unknown EIR method {method!r}")

    mean_poisson = mean_interference_poisson_hole(params, pathloss)
    if kind is ProcessKind.POISSON_HOLE:
        return _report(mean_poisson, mean_poisson, 1.0, method)
    if params.delta == 0.0:
        mean_hardcore = mean_interference_quadrature(params, pathloss, quad)
        return _report(mean_hardcore, mean_poisson, 1.0, method)
    # both means carry the factor lambda, so the ratio is formed from
    # lambda-free integrals; lambda underflows for a dense type I process
    inner = _transition_integral(params, pathloss, quad)
    outer = 2.0 * math.pi * pathloss.radial_integral(2.0 * params.delta, math.inf)
    if isinstance(pathloss, PowerLawPathLoss):
        # the reference mean is the tail integral stretched from 2*delta
        # back to delta, a factor 2^(alpha-2) for a pure power law
        ratio = (inner / outer + 1.0) / 2.0 ** (pathloss.alpha - 2.0)
    else:
        ratio = (inner + outer) / (
            2.0 * math.pi * pathloss.radial_integral(params.delta, math.inf))
    if math.isinf(ratio):
        raise _FloatRangeError(params)
    return _report(_times_intensity(params, inner + outer), mean_poisson, ratio, method)


def eir_type1_approximation(params: HardCoreParams, alpha: float) -> EirReport:
    """Closed-form type I EIR approximation, built from the lower affine
    bound and the asymptotics of h_integral.

    Grows like exp(lambda_p * delta^2 * TYPE1_GROWTH_EXPONENT); the log of
    the ratio is formed first so the decibel value stays finite even when
    the linear ratio overflows. It is not accurate for lambda_p*delta^2 > 4:
    the exact EIR grows with exponent 2*pi/3 - sqrt(3)/2 = 1.2284, so the
    approximation falls ever further below it. At alpha = 3, approximation
    minus quadrature is +2.35 dB at lambda_p*delta^2 = 5, +0.69 dB at 8,
    -13.47 dB at 36 and -92.5 dB at 196; it is within 1 dB only on about
    [7.5, 11]. Warns for lambda_p*delta^2 <= 4, where it is worse still.
    """
    if params.kind is not ProcessKind.MATERN_I:
        raise UnsupportedMethodError(
            "the closed-form EIR approximation exists for the type I "
            "process only")
    if not (alpha > 2 and math.isfinite(alpha)):
        raise ValidationError(f"alpha must be > 2, got {alpha}")
    lam_p, delta = params.lambda_p, params.delta
    if delta <= 0:
        raise ValidationError("the EIR approximation requires delta > 0")
    if lam_p * delta * delta <= 4.0:
        warnings.warn(
            "EIR approximation is inaccurate for lambda_p*delta^2 <= 4 "
            f"(got {lam_p * delta * delta:g}); it comes closest to the "
            "exact value near lambda_p*delta^2 = 9",
            stacklevel=2)
    b_lower = math.sqrt(7.0) / 2.0
    log_eir = (math.log(alpha - 2.0)
               + (alpha - 2.0) * math.log(2.0)
               + lam_p * delta * delta * TYPE1_GROWTH_EXPONENT
               - math.log(lam_p * b_lower * delta * delta))
    try:
        eir_linear = math.exp(log_eir)
    except OverflowError:
        eir_linear = math.inf
    lam = intensity(params)
    mean_poisson = 2.0 * math.pi * lam * delta ** (2.0 - alpha) / (alpha - 2.0)
    if math.isfinite(eir_linear):
        mean_hardcore = eir_linear * mean_poisson
    elif mean_poisson > 0.0:
        # recover the product in the log domain; the ratio overflows long
        # before the hard-core mean itself does
        mean_hardcore = math.exp(log_eir + math.log(mean_poisson))
    else:
        # the reference mean underflows only when the growth term loses to
        # the exp(-lambda_p pi delta^2) intensity factor, so the product
        # underflows with it
        mean_hardcore = 0.0
    return _report(mean_hardcore, mean_poisson, eir_linear,
                   EirMethod.APPROXIMATION, log_eir=log_eir)


def eir_type2_bound(alpha: float | None = None) -> float:
    """Cap on the type II EIR: the universal constant when alpha is omitted
    (valid for any integrable path loss), sharpened for a power law of
    exponent alpha."""
    if alpha is None:
        return NU_TYPE2_UNIVERSAL
    if not (alpha > 2 and math.isfinite(alpha)):
        raise ValidationError(f"alpha must be > 2, got {alpha}")
    return NU_TYPE2_UNIVERSAL - (NU_TYPE2_UNIVERSAL - 1.0) * 2.0 ** (2.0 - alpha)
