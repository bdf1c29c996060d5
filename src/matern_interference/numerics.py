"""Numerical kernels: breakpoint-aware adaptive quadrature and the upper
incomplete gamma function at negative order.

The gamma function is the delicate part: the radial integral of a power path
loss against an exponential weight reduces to differences of Gamma(s, x) with
s = 2 - alpha < 0, which neither ``math`` nor ``scipy.special`` provides
(``gammaincc`` is regularized and requires s > 0). It is implemented here from
scratch. The quadrature is a globally adaptive 21-point Gauss-Kronrod rule
over a finite interval, with fixed tolerances and panel budget, also
written here with the standard library only. Its one argument beyond the
integrand and the interval is what its callers vary: the breakpoints, and
an absolute tolerance in the integrand's units. It shares nothing with the
incomplete-gamma closed forms, so the two routes stay independent
cross-checks of each other.
"""

from __future__ import annotations

import heapq
import math

from .errors import ToleranceError, ValidationError
from .models import _Record

__all__ = [
    "QuadratureResult",
    "integrate",
    "upper_incomplete_gamma",
]

_EULER_GAMMA = 0.5772156649015329

# The quadrature's fixed tolerances and panel budget (see integrate). The
# target error is max(abs_tol, _REL_TOL * |value|): relative only while
# |value| >= abs_tol / _REL_TOL (1e-3 at _ABS_TOL), so callers scale their
# integrands to order one, or pass an absolute tolerance in their units.
_REL_TOL = 1e-9
_ABS_TOL = 1e-12
_MAX_PANELS = 200


class QuadratureResult(_Record):
    value: float
    abs_error_estimate: float
    subdivisions_used: int
    converged: bool

    def require(self, what: str = "integral") -> float:
        """Value if converged, else raise with the achieved tolerance."""
        if not self.converged:
            raise ToleranceError(
                f"quadrature for {what} did not converge; achieved absolute "
                f"error estimate {self.abs_error_estimate:.3e}",
                achieved=self.abs_error_estimate,
            )
        return self.value


# QUADPACK's qk21 rule (Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner,
# QUADPACK, Springer 1983) on [-1, 1]: the positive Kronrod nodes with their
# weights, and the weight of the embedded 10-point Gauss rule at each node it
# shares (0.0 at the nodes Kronrod added). The centre is Kronrod-only.
_QK21 = (
    (0.9956571630258081, 0.011694638867371874, 0.0),
    (0.9739065285171717, 0.032558162307964725, 0.06667134430868814),
    (0.9301574913557082, 0.054755896574351995, 0.0),
    (0.8650633666889845, 0.07503967481091996, 0.1494513491505806),
    (0.7808177265864169, 0.0931254545836976, 0.0),
    (0.6794095682990244, 0.10938715880229764, 0.21908636251598204),
    (0.5627571346686047, 0.12349197626206584, 0.0),
    (0.4333953941292472, 0.13470921731147334, 0.26926671930999635),
    (0.2943928627014602, 0.14277593857706009, 0.0),
    (0.14887433898163122, 0.14773910490133849, 0.29552422471475287),
)
_QK21_CENTRE_WEIGHT = 0.1494455540029169


def _kronrod21(f, lo: float, hi: float) -> tuple[float, float]:
    """(K21 estimate, |K21 - G10|) of the integral of ``f`` over one panel.
    The rule never evaluates ``f`` at the panel's ends."""
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    kronrod = _QK21_CENTRE_WEIGHT * f(centre)
    gauss = 0.0
    for node, w_kronrod, w_gauss in _QK21:
        dx = half * node
        pair = f(centre - dx) + f(centre + dx)
        kronrod += w_kronrod * pair
        gauss += w_gauss * pair
    return kronrod * half, abs(kronrod - gauss) * half


def integrate(f, a: float, b: float, breakpoints=(),
              abs_tol: float = _ABS_TOL) -> QuadratureResult:
    """Adaptive quadrature of ``f`` over the finite interval ``[a, b]``.

    The interval is cut at every breakpoint strictly inside it (the others
    are dropped, duplicates merged), and each piece starts as one panel of
    QUADPACK's 21-point Gauss-Kronrod rule with |K21 - G10| as its error
    estimate. The panel with the largest estimate is bisected until the
    summed estimate is at most ``max(abs_tol, 1e-9 * |value|)`` or 200
    panels are in use; ``subdivisions_used`` is the final number of panels.
    For ``|value| < abs_tol / 1e-9`` that target is the absolute
    ``abs_tol``, so the relative tolerance no longer holds. The result is
    ``converged`` only when the summed estimate is within ten times that
    tolerance, so a budget that runs out short of it, or an integrand that
    returns NaN, is reported there, never hidden. A non-finite bound is a
    validation error.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError(f"integration bounds must be finite: [{a}, {b}]")
    if not a <= b:
        raise ValidationError(f"integration bounds out of order: [{a}, {b}]")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0, True)

    cuts = [a] + sorted({float(p) for p in breakpoints if a < p < b}) + [b]
    heap = []
    total = err = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        val, e = _kronrod21(f, lo, hi)
        heap.append((-e, lo, hi, val))
        total += val
        err += e
    heapq.heapify(heap)
    scale_floor = abs_tol / _REL_TOL
    # a NaN error estimate fails this test and ends the loop at once
    while (len(heap) < _MAX_PANELS
           and err > _REL_TOL * max(abs(total), scale_floor)):
        neg_e, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        left, e_left = _kronrod21(f, lo, mid)
        right, e_right = _kronrod21(f, mid, hi)
        heapq.heappush(heap, (-e_left, lo, mid, left))
        heapq.heappush(heap, (-e_right, mid, hi, right))
        total += left + right - val
        err += e_left + e_right + neg_e
    total = math.fsum(p[3] for p in heap)
    err = math.fsum(-p[0] for p in heap)
    scale = max(abs(total), scale_floor)
    return QuadratureResult(total, err, len(heap),
                            err <= 10.0 * _REL_TOL * scale)


# ---------------------------------------------------------------------------
# Upper incomplete gamma, any real order, x > 0.
#
# Three building blocks, all evaluated in "scaled" form e^x * Gamma(s, x) so
# that large x never underflows intermediates:
#   * Gauss continued fraction (modified Lentz), good for x not small;
#   * lower-incomplete power series for 0.5 <= s with x < s + 1;
#   * a near-zero-order series for |s| small, where the pole of Gamma(s)
#     cancels against the k = 0 term of the lower series.
# Orders below 1/2 take the downward recurrence
#     Gamma(s - 1, x) = (Gamma(s, x) - x^(s-1) e^(-x)) / (s - 1)
# at small x, and the continued fraction from a boundary in x on. The ladder
# starts from the near-zero-order series at the closest ladder point when it
# would pass within 1e-2 of order zero (orders near a nonpositive integer),
# where its division would amplify rounding, else from the base order in
# [1/2, 3/2). The boundary was mapped against mpmath (40 digits): below it
# the ladder is as accurate as the fraction, which converges slowly at
# small x (on a 2-core Xeon, 50 us at x = 0.3 against 2 us by the ladder):
#     |s - round(s)| < 1e-2, integers too:  x = 2
#     1e-2 <= |s - round(s)| < 5e-2:        x = 0.3
#     |s - round(s)| >= 5e-2:               x = 0.8
#     s < -8, any offset:                   x = 0.3 (the ladder's length grows
#                                           with -s; the map was measured on
#                                           [-8, 1/2))
# Measured worst relative errors over s in [-8, 1/2), x in [1e-3, 50] (two
# scans of 5000 points per class, two thirds of them near the boundaries,
# and 2000 more at x in [1, 2] from 1e-3 to 1e-2): 3.4e-14 at integers,
# 4.0e-14 within 1e-3 of one, 5.7e-14 from 1e-3 to 1e-2, 4.8e-14 from 1e-2
# to 5e-2, 3.2e-14 from 5e-2 on.
# ---------------------------------------------------------------------------

_CF_MAX_ITER = 512
_CF_TOL = 1e-16
_EPS = 2.0 ** -53  # unit roundoff of a double
_LADDER_FLOOR = -8.0  # the lowest order of the mapped ladder boundaries
# orders closer than this to an integer start their ladder at the
# near-zero-order series
_NEAR_ZERO_ORDER = 1e-2


def _gamma_cf_scaled(s: float, x: float) -> float:
    """e^x * Gamma(s, x) via the Gauss continued fraction (modified Lentz)."""
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    f = d
    for i in range(1, _CF_MAX_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if d == 0.0:
            d = tiny
        c = b + an / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = d * c
        f *= delta
        if abs(delta - 1.0) < _CF_TOL:
            return math.pow(x, s) * f
    raise ToleranceError(
        f"incomplete gamma continued fraction stalled at s={s}, x={x}",
        achieved=abs(delta - 1.0),
    )


def _gamma_series_scaled(s: float, x: float) -> float:
    """e^x * Gamma(s, x) by the lower-incomplete series; s > 0, x < s + 1."""
    ap = s
    delta = 1.0 / s
    total = delta
    for _ in range(_CF_MAX_ITER):
        ap += 1.0
        delta *= x / ap
        total += delta
        if abs(delta) < abs(total) * _CF_TOL:
            return math.exp(x) * math.gamma(s) - math.pow(x, s) * total
    raise ToleranceError(f"incomplete gamma series stalled at s={s}, x={x}")


_ZETA2 = 1.6449340668482264  # zeta(2) = pi^2/6
_ZETA3 = 1.2020569031595943
_ZETA4 = 1.0823232337111382  # zeta(4) = pi^4/90
_ZETA5 = 1.03692775514337
_ZETA6 = 1.0173430619844492  # zeta(6) = pi^6/945
_ZETA7 = 1.008349277381923
_ZETA8 = 1.0040773561979444  # zeta(8) = pi^8/9450


def _gamma_near_zero_order_scaled(eps: float, x: float) -> float:
    """e^x * Gamma(eps, x) for |eps| < 1e-2 and x below about 2.

    The order-zero limit is E1(x). Splitting off the k = 0 term of the lower
    series against the pole of the complete gamma,

        Gamma(eps, x) = (Gamma(1+eps) - x^eps)/eps
                        - x^eps * sum_{k>=1} (-x)^k / (k! (eps+k)),

    leaves only finite differences of analytic functions, each computed
    through expm1 so nothing cancels: Gamma(1+eps) enters via its log series
    -euler_gamma*eps + zeta(2) eps^2/2 - zeta(3) eps^3/3 + ..., through
    eps^8. The bracket divides the series by eps, so its truncation error
    is zeta(9)/9 * eps^8: 1e-17 at |eps| = 1e-2, where through eps^7 it
    was 1.3e-15 and took the error near x = 2 to 8.7e-14; through eps^4
    it was 2e-13 already at |eps| = 1e-3.
    """
    if abs(eps) < 1e-280:
        # the order-zero limit, exact to rounding here, where the expm1
        # arguments below would be subnormal and lose their digits
        bracket = -_EULER_GAMMA - math.log(x)
    else:
        log_gamma_1p = eps * (-_EULER_GAMMA + eps * (
            _ZETA2 / 2.0 + eps * (-_ZETA3 / 3.0 + eps * (
                _ZETA4 / 4.0 + eps * (-_ZETA5 / 5.0 + eps * (
                    _ZETA6 / 6.0 + eps * (-_ZETA7 / 7.0 + eps * (_ZETA8 / 8.0))))))))
        bracket = (math.expm1(log_gamma_1p) - math.expm1(eps * math.log(x))) / eps
    term = 1.0
    tail = 0.0
    for k in range(1, _CF_MAX_ITER):
        term *= -x / k
        contrib = term / (eps + k)
        tail += contrib
        if abs(contrib) < (abs(bracket) + abs(tail)) * _CF_TOL:
            return math.exp(x) * (bracket - math.pow(x, eps) * tail)
    raise ToleranceError(f"near-zero-order gamma series stalled at x={x}")


def _gamma_base_scaled(s: float, x: float) -> float:
    """Scaled Gamma(s, x) for s in [0.5, 1.5), dispatching series vs fraction."""
    if x < s + 1.0:
        return _gamma_series_scaled(s, x)
    return _gamma_cf_scaled(s, x)


def upper_incomplete_gamma(s: float, x: float, scaled: bool = False) -> float:
    """Upper incomplete gamma Gamma(s, x) for any real order and x > 0.

    With ``scaled=True`` returns e^x * Gamma(s, x), which stays representable
    for x far beyond the underflow point of the plain value. Relative accuracy
    target is 1e-10 for x in [1e-3, 700] and moderate orders, and 1e-13 for
    x in [1e-3, 50] and orders s in [-8, 1/2) (every path loss exponent up
    to 10), including orders within rounding distance of the nonpositive
    integers: measured against mpmath the worst case there is below 6e-14
    (see the branch map above). Raises
    ValidationError where the scaled value overflows a float, with either
    value of ``scaled``.
    """
    s = float(s)
    x = float(x)
    if not x > 0.0 or math.isnan(x) or math.isinf(x):
        raise ValidationError(
            f"upper_incomplete_gamma requires x > 0 (got x={x}); the integral "
            "representation diverges at the origin for negative orders"
        )
    try:
        out = _upper_gamma_scaled(s, x)
    except OverflowError:
        out = math.inf
    if math.isinf(out):
        raise ValidationError(
            f"e^x Gamma(s, x) overflows a float at s={s}, x={x}")
    return out if scaled else math.exp(-x) * out


def _upper_gamma_scaled(s: float, x: float) -> float:
    """e^x * Gamma(s, x) for x > 0; see upper_incomplete_gamma."""
    if x > 1.0 and abs((s - 1.0) * (s - 2.0)) < _EPS * x * x:
        # e^x Gamma(s, x) = x^(s-1) (1 + (s-1)/x + (s-1)(s-2)/x^2 + ...),
        # and the third term is below rounding. Past x of about 2^54 the
        # continued fraction can no longer meet its tolerance, because a
        # partial denominator times its rounded reciprocal need not round
        # to 1; once (s-1)/x is below rounding too this is just x^(s-1).
        out = math.pow(x, s - 1.0) * (1.0 + (s - 1.0) / x)
    elif s >= 0.5:
        out = _gamma_base_scaled(s, x)
    else:
        nearest = round(s)
        offset = abs(s - nearest)
        if s < _LADDER_FLOOR:
            ladder_end = 0.3
        elif offset < _NEAR_ZERO_ORDER:
            ladder_end = 2.0
        else:
            ladder_end = 0.8 if offset >= 5e-2 else 0.3
        if x >= ladder_end:
            # the fraction converges at any order here and sidesteps the
            # cancellation the downward recurrence suffers at moderate x
            return _gamma_cf_scaled(s, x)
        if offset < _NEAR_ZERO_ORDER:
            # the recurrence ladder would pass within 1e-2 of order zero,
            # where its division amplifies rounding; start from the
            # near-zero-order series at the closest ladder point instead
            s0 = s - nearest
            n = -nearest
            out = _gamma_near_zero_order_scaled(s0, x)
        else:
            n = math.ceil(0.5 - s)
            s0 = s + n
            out = _gamma_base_scaled(s0, x)
        sk = s0
        for _ in range(n):
            sk -= 1.0
            out = (out - math.pow(x, sk)) / sk
    return out
