"""Union area, affine comparison lines, pair retention, K-functions.

High-precision expected values come from mpmath at 40 significant digits
(scripts/make_oracles.py); geometric identities (endpoint matching, scaling,
sandwich ordering) are checked directly.
"""

import math

import pytest
from hypothesis import given, strategies as st

from matern_interference import analytic
from matern_interference.analytic import (
    _k_prime,
    C2_LENS,
    affine_v_bounds,
    k2delta_lower_bound,
    k_derivative,
    k_function,
    pair_retention_type1,
    pair_retention_type2,
    v_union,
)
from matern_interference.errors import ValidationError
from matern_interference.models import (
    HardCoreParams,
    PowerLawPathLoss,
    ProcessKind,
    TabulatedPathLoss,
    intensity,
)
from matern_interference.numerics import integrate

P21_T1 = HardCoreParams(2.0, 1.0, ProcessKind.MATERN_I)
P21_T2 = HardCoreParams(2.0, 1.0, ProcessKind.MATERN_II)

# mpmath freezes
V11 = 5.0548156085708296            # v_union(1, 1)
KPRIME_EXPONENT_21 = 2.4567393972175137   # 2*(2*pi - v_union(1,1))
TRANSITION_INTEGRAL_21 = 1.6356910577684935e-5  # int_1^2 r exp(-2 V_1(r)) dr
K2DELTA_BOUND_21 = 19.347269914458622
CHORD_A = 0.68485325637227955
CHORD_B = 1.2283696986087568
TANGENT_A = 0.70396741631374054
TANGENT_B = 1.3228756555322953


# ---------------------------------------------------------------------------
# v_union
# ---------------------------------------------------------------------------


def test_v_union_special_values():
    # coincident centers: the union is a single disk
    assert v_union(1.0, 0.0) == pytest.approx(math.pi, rel=1e-14)
    assert v_union(1.0, 1.0) == pytest.approx(V11, rel=1e-14)
    # tangent disks and beyond: disjoint area
    assert v_union(1.0, 2.0) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert v_union(1.0, 5.0) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert v_union(0.0, 3.0) == 0.0
    # contact distance in units of delta^2 is the shared lens constant
    assert v_union(2.0, 2.0) == pytest.approx(C2_LENS * 4.0, rel=1e-14)


def test_v_union_validation():
    with pytest.raises(ValidationError):
        v_union(-1.0, 1.0)
    with pytest.raises(ValidationError):
        v_union(1.0, -0.1)


@given(delta=st.floats(1e-3, 10.0), u=st.floats(0.0, 25.0),
       scale=st.floats(1e-2, 1e2))
def test_v_union_scaling(delta, u, scale):
    # areas scale with the square of lengths
    got = v_union(scale * delta, scale * u)
    want = scale * scale * v_union(delta, u)
    assert got == pytest.approx(want, rel=1e-10)


def test_v_union_monotone_and_smooth_at_saturation():
    delta = 1.3
    grid = [2.0 * delta * i / 400.0 for i in range(401)]
    vals = [v_union(delta, u) for u in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[0] == pytest.approx(math.pi * delta**2, rel=1e-14)
    assert vals[-1] == pytest.approx(2.0 * math.pi * delta**2, rel=1e-12)
    # the slope vanishes at the saturation point
    h = 1e-6
    slope = (v_union(delta, 2.0 * delta) - v_union(delta, 2.0 * delta - h)) / h
    assert abs(slope) < 1e-2


# ---------------------------------------------------------------------------
# Affine comparison lines
# ---------------------------------------------------------------------------


def _on_line(line, delta, r):
    """The comparison line (pi + a)*delta^2 + b*delta*r at r."""
    return (math.pi + line.a) * delta * delta + line.b * delta * r


def test_affine_bound_constants_frozen():
    lower, upper = affine_v_bounds()
    assert lower.a == pytest.approx(CHORD_A, rel=1e-14)
    assert lower.b == pytest.approx(CHORD_B, rel=1e-14)
    assert upper.a == pytest.approx(TANGENT_A, rel=1e-14)
    assert upper.b == pytest.approx(TANGENT_B, rel=1e-14)


def test_chord_interpolates_v_at_both_endpoints():
    lower, _ = affine_v_bounds()
    for delta in (0.25, 1.0, 3.0):
        assert _on_line(lower, delta, delta) == pytest.approx(
            v_union(delta, delta), rel=1e-13)
        assert _on_line(lower, delta, 2.0 * delta) == pytest.approx(
            v_union(delta, 2.0 * delta), rel=1e-13)


def test_tangent_touches_v_at_midpoint():
    _, upper = affine_v_bounds()
    for delta in (0.25, 1.0, 3.0):
        r = 1.5 * delta
        assert _on_line(upper, delta, r) == pytest.approx(
            v_union(delta, r), rel=1e-13)


@pytest.mark.parametrize("delta", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_affine_lines_sandwich_v_on_transition_interval(delta):
    lower, upper = affine_v_bounds()
    for i in range(101):
        r = delta + delta * i / 100.0
        v = v_union(delta, r)
        assert _on_line(lower, delta, r) <= v * (1 + 1e-12)
        assert _on_line(upper, delta, r) >= v * (1 - 1e-12)


# ---------------------------------------------------------------------------
# Pair retention
# ---------------------------------------------------------------------------


def test_pair_retention_type1_values():
    assert pair_retention_type1(P21_T1, 0.5) == 0.0
    # beyond 2*delta the two exclusion disks are disjoint
    assert pair_retention_type1(P21_T1, 2.0) == pytest.approx(
        math.exp(-4.0 * math.pi), rel=1e-13)
    assert pair_retention_type1(P21_T1, 3.7) == pytest.approx(
        math.exp(-4.0 * math.pi), rel=1e-13)
    assert pair_retention_type1(P21_T1, 1.5) == pytest.approx(
        math.exp(-2.0 * v_union(1.0, 1.5)), rel=1e-13)
    with pytest.raises(ValidationError):
        pair_retention_type1(P21_T1, -1.0)


def test_pair_retention_type2_domain():
    with pytest.raises(ValidationError):
        pair_retention_type2(P21_T2, 0.5)
    free = HardCoreParams(2.0, 0.0, ProcessKind.MATERN_II)
    assert pair_retention_type2(free, 0.3) == 1.0


def test_pair_retention_type2_beyond_2delta_is_squared_single():
    single = -math.expm1(-2.0 * math.pi) / (2.0 * math.pi)
    for r in (2.0, 2.5, 10.0):
        assert pair_retention_type2(P21_T2, r) == pytest.approx(
            single * single, rel=1e-14)


def test_pair_retention_type2_series_matches_exact_branch_at_seam():
    # place lambda_p*v_union right around the series switch and compare the
    # two branches through the public function; the exact branch loses a few
    # digits to cancellation there, which sets the comparison tolerance
    delta, r = 1.0, 1.5
    v = v_union(delta, r)
    for y_target in (8e-5, 9.9e-5, 1.01e-4, 1.2e-4):
        lam = y_target / v
        got = pair_retention_type2(HardCoreParams(lam, delta,
                                                  ProcessKind.MATERN_II), r)
        x = lam * math.pi
        y = lam * v
        num = 2.0 * v * (-math.expm1(-x)) - 2.0 * math.pi * (-math.expm1(-y))
        den = lam * lam * math.pi * v * (v - math.pi)
        assert got == pytest.approx(num / den, rel=1e-6)
        assert got < 1.0


def test_pair_retention_type2_tends_to_one_for_sparse_parents():
    sparse = HardCoreParams(1e-12, 1.0, ProcessKind.MATERN_II)
    assert pair_retention_type2(sparse, 1.5) == pytest.approx(1.0, abs=1e-10)


def test_pair_retention_type2_where_the_disk_mass_underflows():
    # lambda_p*pi*delta^2 underflows to 0: a lone parent always survives
    sparse = HardCoreParams(1e-300, 1e-20, ProcessKind.MATERN_II)
    assert pair_retention_type2(sparse, 3e-20) == 1.0
    assert pair_retention_type2(sparse, 1.5e-20) == 1.0


def test_pair_retention_type2_dense_limit_at_contact():
    # for lambda_p -> infinity, k(delta) -> 2 / (lambda_p^2 pi delta^4 C2_LENS)
    lam = 50.0
    dense = HardCoreParams(lam, 1.0, ProcessKind.MATERN_II)
    want = 2.0 / (lam * lam * math.pi * C2_LENS)
    assert pair_retention_type2(dense, 1.0) == pytest.approx(want, rel=1e-8)


@given(lam=st.floats(1e-3, 30.0), frac=st.floats(0.0, 1.0))
def test_pair_retention_type2_in_unit_interval(lam, frac):
    params = HardCoreParams(lam, 1.0, ProcessKind.MATERN_II)
    r = 1.0 + frac  # spans [delta, 2*delta]
    val = pair_retention_type2(params, r)
    assert 0.0 < val <= 1.0


@given(frac=st.floats(0.0, 1.0), lam_lo=st.floats(1e-2, 10.0),
       fac=st.floats(1.1, 5.0))
def test_pair_retention_type2_decreasing_in_parent_density(frac, lam_lo, fac):
    r = 1.0 + frac
    lo = pair_retention_type2(
        HardCoreParams(lam_lo, 1.0, ProcessKind.MATERN_II), r)
    hi = pair_retention_type2(
        HardCoreParams(lam_lo * fac, 1.0, ProcessKind.MATERN_II), r)
    assert hi <= lo * (1 + 1e-12)


# ---------------------------------------------------------------------------
# K-function
# ---------------------------------------------------------------------------


def test_k_derivative_poisson_hole():
    p = HardCoreParams(1.0, 1.0, ProcessKind.POISSON_HOLE)
    assert k_derivative(p, 0.5) == 0.0
    assert k_derivative(p, 2.0) == pytest.approx(4.0 * math.pi, rel=1e-14)


def test_k_derivative_type1_frozen_at_contact():
    # K'(delta) = 2*pi*delta * exp(lambda_p*(2*pi*delta^2 - v_union(delta,delta)))
    got = k_derivative(P21_T1, 1.0)
    assert got == pytest.approx(2.0 * math.pi * math.exp(KPRIME_EXPONENT_21),
                                rel=1e-13)
    assert k_derivative(P21_T1, 0.99) == 0.0
    assert k_derivative(P21_T1, 2.0) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert k_derivative(P21_T1, 7.0) == pytest.approx(14.0 * math.pi, rel=1e-14)


def test_k_derivative_type2_transition_zone():
    assert k_derivative(P21_T2, 2.0) == pytest.approx(4.0 * math.pi, rel=1e-14)
    # survivors of the mark contest cluster at short range: the pair
    # correlation sits at or above one throughout (delta, 2*delta), and at
    # contact it stays below the dense-limit constant 2*pi/C2_LENS
    cap = 2.0 * math.pi / C2_LENS
    for r in (1.001, 1.05, 1.2, 1.5, 1.8, 1.99):
        g = k_derivative(P21_T2, r) / (2.0 * math.pi * r)
        assert 1.0 - 1e-12 <= g < cap


def _k_prime_reference(params, r, loss=None):
    """K'(r), times loss(r) when given, through the pointwise chain: the
    k_derivative formula without a loss, the interference integrand with
    one, which for type I is scaled by its peak at r = delta."""
    delta, lam_p = params.delta, params.lambda_p
    if params.kind is ProcessKind.POISSON_HOLE:
        if loss is None:
            return 2.0 * math.pi * r if r >= delta else 0.0
        return 2.0 * math.pi * float(loss(r)) * r
    if loss is None:
        if r < delta:
            return 0.0
        if r >= 2.0 * delta:
            return 2.0 * math.pi * r
    if params.kind is ProcessKind.MATERN_I:
        if loss is None:
            exponent = lam_p * (2.0 * math.pi * delta * delta - v_union(delta, r))
            return 2.0 * math.pi * r * math.exp(exponent)
        exponent = lam_p * (v_union(delta, delta) - v_union(delta, r))
        return 2.0 * math.pi * float(loss(r)) * r * math.exp(exponent)
    ratio = intensity(params) / lam_p
    if loss is None:
        return 2.0 * math.pi * r * pair_retention_type2(params, r) / (ratio * ratio)
    return (2.0 * math.pi * float(loss(r)) * r * pair_retention_type2(params, r)
            / (ratio * ratio))


_KERNEL_LOSSES = {
    "none": None,
    "power": PowerLawPathLoss(3.5),
    "tabulated": TabulatedPathLoss((0.5, 1.1, 1.6, 2.4, 4.0),
                                   (1.0, 0.7, 0.4, 0.1, 0.0)),
}


@pytest.mark.parametrize("loss", list(_KERNEL_LOSSES))
@pytest.mark.parametrize("kind", list(ProcessKind))
@pytest.mark.parametrize("lam_p, delta", [
    (2.0, 1.0),
    (0.7, 1.7),      # (2*pi*delta)*delta != 2*pi*(delta*delta) here
    (1.5e-5, 1.0),   # type II retention on its series branch, cubic term live
    (400.0, 1.0),    # dense: lambda_p*delta^2 = 400
])
def test_k_prime_kernel_matches_pointwise_chain_bit_for_bit(lam_p, delta, kind, loss):
    params = HardCoreParams(lam_p, delta, kind)
    pathloss = _KERNEL_LOSSES[loss]
    kernel, log_peak = _k_prime(params, pathloss)
    if kind is ProcessKind.MATERN_I and pathloss is not None:
        want_peak = lam_p * (2.0 * math.pi * delta * delta - v_union(delta, delta))
        assert log_peak.hex() == want_peak.hex()
    else:
        assert log_peak == 0.0
    radii = [delta * (1.0 + k / 64.0) for k in range(64)]
    radii += [math.nextafter(2.0 * delta, 0.0), 2.0 * delta, 2.5 * delta]
    if pathloss is None:
        radii += [0.0, math.nextafter(delta, 0.0)]
    if lam_p == 1.5e-5:
        assert lam_p * v_union(delta, math.nextafter(2.0 * delta, 0.0)) < 1e-4
    for r in radii:
        want = _k_prime_reference(params, r, pathloss)
        if pathloss is not None or delta <= r < 2.0 * delta:
            # the bare kernel is K' only where k_derivative calls it
            assert kernel(r).hex() == want.hex(), r
        if pathloss is None:
            assert k_derivative(params, r).hex() == want.hex(), r


@pytest.mark.parametrize("kind", [ProcessKind.MATERN_I, ProcessKind.MATERN_II])
@pytest.mark.parametrize("delta", [1e-3, 1.0, 1e3])
def test_k_function_evaluates_its_kernel_inside_the_transition_interval(
        monkeypatch, kind, delta):
    # the bare kernel guards neither end of (delta, 2*delta), so every node
    # of k_function must lie strictly inside it
    nodes = []
    factory = analytic._k_prime

    def recording_factory(params, loss=None):
        kernel, log_peak = factory(params, loss)

        def recording_kernel(r):
            nodes.append(r)
            return kernel(r)
        return recording_kernel, log_peak

    monkeypatch.setattr(analytic, "_k_prime", recording_factory)
    for density in (1e-5, 1e-3, 0.1, 1.0, 10.0, 100.0, 577.0):
        params = HardCoreParams(density / (delta * delta), delta, kind)
        for k in (1.01, 1.5, 2.0, 3.0):
            nodes.clear()
            try:
                k_function(params, k * delta)
            except ValidationError:  # a dense type I K past the float range
                assert kind is ProcessKind.MATERN_I and density == 577.0
            assert nodes
            assert all(delta < r < 2.0 * delta for r in nodes), (density, k)


def test_k_function_poisson_hole_closed_form():
    p = HardCoreParams(1.0, 1.0, ProcessKind.POISSON_HOLE)
    assert k_function(p, 0.5) == 0.0
    assert k_function(p, 2.0) == pytest.approx(3.0 * math.pi, rel=1e-14)


def test_k_function_type1_transition_matches_independent_integral():
    # K(2*delta) = 2*pi*exp(lambda_p*2*pi*delta^2) * int r exp(-lambda_p V) dr
    want = 2.0 * math.pi * math.exp(4.0 * math.pi) * TRANSITION_INTEGRAL_21
    assert k_function(P21_T1, 2.0) == pytest.approx(want, rel=1e-9)


def test_k_function_zero_below_hard_core_distance():
    assert k_function(P21_T1, 0.0) == 0.0
    assert k_function(P21_T1, 1.0) == 0.0
    assert k_function(P21_T2, 0.7) == 0.0


@pytest.mark.parametrize("kind", list(ProcessKind))
def test_k_function_and_derivative_refuse_negative_r(kind):
    params = HardCoreParams(2.0, 1.0, kind)
    for f in (k_function, k_derivative):
        with pytest.raises(ValidationError, match="r must be >= 0"):
            f(params, -0.5)


def test_k_function_delta_zero_is_poisson():
    p = HardCoreParams(2.0, 0.0, ProcessKind.MATERN_I)
    assert k_function(p, 3.0) == pytest.approx(9.0 * math.pi, rel=1e-14)


def test_k_function_continuous_and_increasing():
    rs = [1.0 + i * 0.05 for i in range(61)]  # up to r = 4
    vals = [k_function(P21_T2, r) for r in rs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # continuity across the 2*delta seam
    assert k_function(P21_T2, 2.0 - 1e-9) == pytest.approx(
        k_function(P21_T2, 2.0 + 1e-9), rel=1e-6)


@pytest.mark.parametrize("kind", [ProcessKind.MATERN_I, ProcessKind.MATERN_II])
def test_k_function_scale_invariant(kind):
    # K(r)/delta^2 depends on lambda_p*delta^2 and r/delta alone
    base = k_function(HardCoreParams(1.0, 1.0, kind), 2.0)
    for c in (1e-3, 0.1, 10.0, 100.0, 1e3):
        scaled = k_function(HardCoreParams(1.0 / (c * c), c, kind), 2.0 * c)
        assert scaled / (c * c) == pytest.approx(base, rel=1e-12), c


def test_k_function_large_r_poisson_fraction():
    ratio = k_function(P21_T1, 50.0) / (math.pi * 2500.0)
    assert 0.99 <= ratio <= 1.01


def test_k_function_consistent_with_derivative():
    # d/dr K at a smooth interior point, central difference
    r, h = 1.5, 1e-5
    deriv = (k_function(P21_T1, r + h) - k_function(P21_T1, r - h)) / (2 * h)
    assert deriv == pytest.approx(k_derivative(P21_T1, r), rel=1e-6)


def test_k2delta_lower_bound():
    assert k2delta_lower_bound(P21_T1) == pytest.approx(K2DELTA_BOUND_21,
                                                        rel=1e-13)
    with pytest.raises(ValidationError):
        k2delta_lower_bound(P21_T2)
    # vanishes with the hard core
    small = k2delta_lower_bound(HardCoreParams(2.0, 1e-8, ProcessKind.MATERN_I))
    assert small == pytest.approx(0.0, abs=1e-12)


def test_dense_type1_k_leaves_float_range_as_validation_error():
    dense = HardCoreParams(600.0, 1.0, ProcessKind.MATERN_I)
    with pytest.raises(ValidationError, match="overflows a float"):
        k2delta_lower_bound(dense)
    with pytest.raises(ValidationError, match="overflows a float"):
        k_derivative(dense, 1.0)
    with pytest.raises(ValidationError, match="overflows a float"):
        k_function(dense, 1.5)
    # far enough from contact the exponent is back inside the float range
    assert math.isfinite(k_derivative(dense, 1.9))


@pytest.mark.parametrize("lam,delta", [(0.5, 0.5), (1.0, 1.0), (2.0, 1.0),
                                       (2.0, 2.0), (4.0, 0.25)])
def test_k2delta_bound_below_quadrature_value(lam, delta):
    p = HardCoreParams(lam, delta, ProcessKind.MATERN_I)
    assert k2delta_lower_bound(p) < k_function(p, 2.0 * delta)


def test_k_transition_integral_against_midpoint_riemann():
    # independent coarse check of the quadrature route: midpoint rule with
    # 200000 panels on the type I transition integrand at (2, 1)
    n = 200000
    h = 1.0 / n
    total = 0.0
    for i in range(n):
        r = 1.0 + (i + 0.5) * h
        total += r * math.exp(-2.0 * v_union(1.0, r))
    total *= h
    res = integrate(lambda r: r * math.exp(-2.0 * v_union(1.0, r)), 1.0, 2.0)
    assert res.converged
    assert res.value == pytest.approx(total, rel=1e-9)
    assert res.value == pytest.approx(TRANSITION_INTEGRAL_21, rel=1e-10)


@pytest.mark.parametrize("lam_p", [1e170, 1e300])
def test_dense_type2_k_function_matches_the_unfolded_kernel(lam_p):
    # as for the EIR in test_interference: lambda_p = 1e100 takes the
    # unfolded kernel, and both sit at the dense limit
    for r in (1.2, 1.7, 2.0, 3.0):
        want = k_function(HardCoreParams(1e100, 1.0, ProcessKind.MATERN_II), r)
        got = k_function(HardCoreParams(lam_p, 1.0, ProcessKind.MATERN_II), r)
        assert got == pytest.approx(want, rel=1e-12)
