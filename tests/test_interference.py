"""Mean interference, affine-bound closed forms, and the excess ratio.

Frozen decimals were produced with mpmath at 40 significant digits
(scripts/make_oracles.py); everything else is checked against independent
quadrature routes or exact identities.
"""

import math

import pytest

from matern_interference.analytic import affine_v_bounds
from matern_interference.errors import UnsupportedMethodError, ValidationError
from matern_interference.interference import (
    EirMethod,
    EirReport,
    NU_TYPE2_UNIVERSAL,
    TYPE1_GROWTH_EXPONENT,
    eir,
    eir_type1_approximation,
    eir_type2_bound,
    h_bound,
    h_bound_over_tail,
    h_integral,
    interference_outside_2delta,
    mean_interference_inside_2delta,
    mean_interference_poisson_hole,
    mean_interference_quadrature,
)
from matern_interference.models import (
    HardCoreParams,
    PowerLawPathLoss,
    ProcessKind,
    TabulatedPathLoss,
    intensity,
)
from matern_interference.numerics import integrate

PL3 = PowerLawPathLoss(3.0)
T1_21 = HardCoreParams(2.0, 1.0, ProcessKind.MATERN_I)
T2_21 = HardCoreParams(2.0, 1.0, ProcessKind.MATERN_II)
HOLE_21 = HardCoreParams(2.0, 1.0, ProcessKind.POISSON_HOLE)

# mpmath freezes
INNER_T1_21_A3 = 0.055801972874657784      # transition annulus, type I (2,1), alpha=3
EIR_APPROX_22_A3 = 1410.7748886896755
EIR_APPROX_22_A3_DB = 31.494577207710647
NU = 1.2430097937748632
NU_DB = 0.9447455049653106
NU_SHARP = {2.5: 1.071175920701913,
            3.0: 1.1215048968874316,
            4.0: 1.1822573453311474}
NU_SHARP_DB = {2.5: 0.29860801472375639,
               3.0: 0.49801174206589835,
               4.0: 0.72712020955068233}
GROWTH_EXPONENT = 1.1147495817437574
# quadrature EIR of the dense type I process, lambda_p = 4, alpha = 3, in dB
EIR_DENSE_T1_A3_DB = {3.0: 173.98961098532681,
                      5.0: 511.04726804742453,
                      7.0: 1020.2800346062864}
# its transition-annulus mean interference, where lambda is subnormal or zero
INNER_DENSE_T1_A3 = {7.7: 6.9443965564229852e-200,
                     8.0: 1.3733089893237246e-215,
                     9.0: 3.0430060729802976e-272}


# ---------------------------------------------------------------------------
# Mean interference pieces
# ---------------------------------------------------------------------------


def test_outside_2delta_closed_form():
    # beyond 2*delta every kind is Poisson at its own intensity, so the
    # type I value is pi * lambda_I for alpha = 3, delta = 1
    want = math.pi * 2.0 * math.exp(-2.0 * math.pi)
    assert interference_outside_2delta(T1_21, PL3) == pytest.approx(
        want, rel=1e-14)
    assert want == pytest.approx(0.011733488733866946, rel=1e-15)
    with pytest.raises(ValidationError):
        interference_outside_2delta(
            HardCoreParams(2.0, 0.0, ProcessKind.MATERN_I), PL3)


def test_inside_2delta_frozen_type1():
    assert mean_interference_inside_2delta(T1_21, PL3) == pytest.approx(
        INNER_T1_21_A3, rel=1e-9)


def test_inside_2delta_zero_without_hard_core():
    free = HardCoreParams(2.0, 0.0, ProcessKind.MATERN_I)
    assert mean_interference_inside_2delta(free, PowerLawPathLoss(3.0, 0.5)) == 0.0


def test_inside_2delta_poisson_hole_closed_form():
    # hole kind keeps parent intensity and Poisson structure: the annulus
    # contribution is 2*pi*lambda_p*(delta^(2-a) - (2 delta)^(2-a))/(a-2)
    want = 2.0 * math.pi * 2.0 * (1.0 - 0.5)
    assert mean_interference_inside_2delta(HOLE_21, PL3) == pytest.approx(
        want, rel=1e-10)


def test_poisson_hole_reference_closed_form():
    assert mean_interference_poisson_hole(HOLE_21, PL3) == pytest.approx(
        4.0 * math.pi, rel=1e-14)
    # matched intensity: thinned processes use their own density
    want = 2.0 * math.pi * 2.0 * math.exp(-2.0 * math.pi)
    assert mean_interference_poisson_hole(T1_21, PL3) == pytest.approx(
        want, rel=1e-14)
    # for alpha = 3, delta = 1 the hole mean is exactly twice the tail mean
    assert mean_interference_poisson_hole(T1_21, PL3) == pytest.approx(
        2.0 * interference_outside_2delta(T1_21, PL3), rel=1e-14)


def test_poisson_hole_reference_ignores_cutoff_below_delta():
    with_cutoff = PowerLawPathLoss(3.0, 0.5)
    assert mean_interference_poisson_hole(T1_21, with_cutoff) == \
        mean_interference_poisson_hole(T1_21, PL3)


def test_total_mean_is_sum_of_pieces():
    total = mean_interference_quadrature(T1_21, PL3)
    assert total == pytest.approx(
        mean_interference_inside_2delta(T1_21, PL3)
        + interference_outside_2delta(T1_21, PL3), rel=1e-14)


def test_total_mean_poisson_hole_matches_closed_form():
    got = mean_interference_quadrature(HOLE_21, PL3)
    assert got == pytest.approx(mean_interference_poisson_hole(HOLE_21, PL3),
                                rel=1e-9)


def test_total_mean_delta_zero_needs_bounded_loss():
    free = HardCoreParams(2.0, 0.0, ProcessKind.MATERN_II)
    got = mean_interference_quadrature(free, PowerLawPathLoss(3.0, 0.5))
    # 2*pi*lambda_p*(r0^2/2 + r0^(2-a)... ) with the flat cap region
    want = 2.0 * math.pi * 2.0 * PowerLawPathLoss(3.0, 0.5).radial_integral(
        0.0, math.inf)
    assert got == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValidationError):
        mean_interference_quadrature(free, PL3)


def test_cutoff_above_delta_rejected():
    bad = PowerLawPathLoss(3.0, 1.5)
    for fn in (mean_interference_inside_2delta, interference_outside_2delta,
               mean_interference_quadrature, mean_interference_poisson_hole):
        with pytest.raises(ValidationError):
            fn(T1_21, bad)
    with pytest.raises(ValidationError):
        eir(T1_21, bad)


# ---------------------------------------------------------------------------
# Gamma-form transition bounds
# ---------------------------------------------------------------------------


def test_h_integral_matches_direct_quadrature():
    for alpha in (2.5, 3.0, 4.0):
        for v in (0.01, 0.1, 1.0, 5.0, 20.0, 50.0):
            for x in (0.7, 1.0):
                res = integrate(
                    lambda r: r ** (1.0 - alpha) * math.exp(-v * r), x, 2.0 * x)
                assert res.converged
                assert h_integral(v, x, alpha) == pytest.approx(
                    res.value, rel=1e-8), (v, x, alpha)


def test_h_integral_asymptotic_decay():
    # for large v*x the integral behaves like x^(1-alpha) e^(-v x) / v
    x = 1.0
    for alpha in (2.5, 3.0, 4.0):
        v = 50.0
        leading = x ** (1.0 - alpha) * math.exp(-v * x) / v
        ratio = h_integral(v, x, alpha) / leading
        assert 0.9 <= ratio <= 1.1, (alpha, ratio)


def test_h_integral_validation():
    for bad_args in ((0.0, 1.0, 3.0), (1.0, 0.0, 3.0), (1.0, 1.0, 2.0),
                     (math.nan, 1.0, 3.0), (1.0, math.inf, 3.0)):
        with pytest.raises(ValidationError):
            h_integral(*bad_args)


@pytest.mark.parametrize("lam", [0.5, 2.0])
@pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
def test_affine_bounds_sandwich_transition_mean(lam, delta, alpha):
    params = HardCoreParams(lam, delta, ProcessKind.MATERN_I)
    pathloss = PowerLawPathLoss(alpha)
    chord, tangent = affine_v_bounds()
    upper = h_bound(params, pathloss, chord)     # lower line on V
    lower = h_bound(params, pathloss, tangent)   # upper line on V
    exact = mean_interference_inside_2delta(params, pathloss)
    assert lower <= exact * (1 + 1e-9)
    assert exact <= upper * (1 + 1e-9)


def test_h_bound_tabulated_route_matches_power_law():
    # a tabulated version of r^-3 on a fine grid should land close to the
    # closed-form power-law route through the same affine line
    # piecewise-linear interpolation of a convex function overestimates it,
    # so the agreement is limited by the grid pitch, not by quadrature
    r = [0.5 + 3.5 * i / 800.0 for i in range(801)]
    tab = TabulatedPathLoss(r, [rr ** -3.0 for rr in r])
    chord, _ = affine_v_bounds()
    got = h_bound(T1_21, tab, chord)
    want = h_bound(T1_21, PL3, chord)
    assert got == pytest.approx(want, rel=5e-4)
    assert got >= want * (1 - 1e-12)


@pytest.mark.parametrize("lam, delta", [(0.5, 0.5), (2.0, 1.0), (2.0, 2.0),
                                        (3.0, 8.0)])
def test_h_bound_over_tail_is_the_ratio_of_the_means(lam, delta):
    # where lambda is a normal float the two means can be divided directly
    params = HardCoreParams(lam, delta, ProcessKind.MATERN_I)
    for pathloss in (PL3, PowerLawPathLoss(4.0), PowerLawPathLoss(2.5, r0=0.1)):
        outside = interference_outside_2delta(params, pathloss)
        for line in affine_v_bounds():
            want = h_bound(params, pathloss, line) / outside
            got = h_bound_over_tail(params, pathloss, line)
            assert got == pytest.approx(want, rel=1e-11)


def test_h_bound_over_tail_dense_and_past_float_range():
    chord, tangent = affine_v_bounds()
    # lambda_p*pi*delta^2 = 764: lambda, and so the tail mean, is zero
    dense = HardCoreParams(3.8, 8.0, ProcessKind.MATERN_I)
    assert interference_outside_2delta(dense, PL3) == 0.0
    assert math.isfinite(h_bound_over_tail(dense, PL3, chord))
    with pytest.raises(ValidationError, match="overflows a float"):
        h_bound_over_tail(HardCoreParams(10.0, 8.0, ProcessKind.MATERN_I), PL3, chord)
    with pytest.raises(ValidationError):
        h_bound_over_tail(T2_21, PL3, tangent)
    tab = TabulatedPathLoss((0.5, 4.0), (1.0, 0.0))
    with pytest.raises(UnsupportedMethodError):
        h_bound_over_tail(T1_21, tab, tangent)


def test_h_bound_requires_hard_core():
    chord, _ = affine_v_bounds()
    with pytest.raises(ValidationError):
        h_bound(HardCoreParams(2.0, 0.0, ProcessKind.MATERN_I), PL3, chord)


# ---------------------------------------------------------------------------
# Excess interference ratio
# ---------------------------------------------------------------------------


def test_eir_poisson_hole_is_exactly_one():
    report = eir(HOLE_21, PL3)
    assert report.eir_linear == 1.0
    assert report.eir_db == 0.0
    assert report.mean_hardcore == report.mean_poisson_hole


def test_eir_delta_zero_is_exactly_one():
    params = HardCoreParams(2.0, 0.0, ProcessKind.MATERN_II)
    report = eir(params, PowerLawPathLoss(3.0, 0.5))
    assert report.eir_linear == 1.0
    assert report.eir_db == 0.0


def test_eir_quadrature_composition_matches_direct_ratio():
    for params in (T1_21, T2_21,
                   HardCoreParams(2.0, 2.0, ProcessKind.MATERN_I),
                   HardCoreParams(1.0, 0.5, ProcessKind.MATERN_II)):
        for alpha in (2.5, 3.0, 4.0):
            pathloss = PowerLawPathLoss(alpha)
            report = eir(params, pathloss)
            direct = (mean_interference_quadrature(params, pathloss)
                      / mean_interference_poisson_hole(params, pathloss))
            assert report.eir_linear == pytest.approx(direct, rel=1e-10)
            assert report.mean_hardcore == pytest.approx(
                report.eir_linear * report.mean_poisson_hole, rel=1e-12)


def test_eir_quadrature_dense_type1_between_affine_bounds():
    params = HardCoreParams(2.0, 2.0, ProcessKind.MATERN_I)
    report = eir(params, PL3)
    assert 28.0 <= report.eir_db <= 32.0
    chord, tangent = affine_v_bounds()
    outer = interference_outside_2delta(params, PL3)
    scale = 2.0 ** (3.0 - 2.0)
    eir_hi = (h_bound(params, PL3, chord) / outer + 1.0) / scale
    eir_lo = (h_bound(params, PL3, tangent) / outer + 1.0) / scale
    assert eir_lo <= report.eir_linear <= eir_hi


def test_eir_tabulated_direct_ratio_within_type2_cap():
    r = [0.25 * i for i in range(41)]  # support out to r = 10
    tab = TabulatedPathLoss(r, [(1.0 + rr * rr) ** -1.5 for rr in r])
    report = eir(T2_21, tab)
    assert report.method is EirMethod.QUADRATURE
    assert 1.0 - 1e-9 <= report.eir_linear <= NU * (1 + 1e-9)
    direct = (mean_interference_quadrature(T2_21, tab)
              / mean_interference_poisson_hole(T2_21, tab))
    assert report.eir_linear == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("delta", sorted(EIR_DENSE_T1_A3_DB))
def test_eir_quadrature_dense_type1_frozen(delta):
    # the annulus integral is formed without lambda, which is at most
    # 4*exp(-36*pi) = 3e-49 here, so the relative tolerance holds
    report = eir(HardCoreParams(4.0, delta, ProcessKind.MATERN_I), PL3)
    assert report.eir_db == pytest.approx(EIR_DENSE_T1_A3_DB[delta], rel=1e-12)


def test_eir_quadrature_dense_type1_lambda_underflow():
    # lambda = 4*exp(-256*pi) underflows to zero, and with it the
    # reference mean; the ratio does not depend on it, and the hard-core
    # mean is formed in the log domain
    params = HardCoreParams(4.0, 8.0, ProcessKind.MATERN_I)
    assert intensity(params) == 0.0
    report = eir(params, PL3)
    assert math.isfinite(report.eir_linear)
    assert report.eir_db > EIR_DENSE_T1_A3_DB[7.0]
    assert report.mean_hardcore == pytest.approx(INNER_DENSE_T1_A3[8.0],
                                                 rel=1e-11, abs=0.0)


@pytest.mark.parametrize("delta", sorted(INNER_DENSE_T1_A3))
def test_inside_2delta_dense_type1_frozen(delta):
    params = HardCoreParams(4.0, delta, ProcessKind.MATERN_I)
    assert intensity(params) < 1e-308
    assert mean_interference_inside_2delta(params, PL3) == pytest.approx(
        INNER_DENSE_T1_A3[delta], rel=1e-11, abs=0.0)


@pytest.mark.parametrize("lam_p,delta,alpha", [
    (4.0, 12.1, 3.0),         # exp(lambda_p*(2*pi*delta^2 - V)) overflows
    (577.5, 1.0, 3.0),        # the exponential does not, the integrand does
    (577.5e-4, 100.0, 20.0),  # the integral does not, the ratio does
])
def test_eir_quadrature_rejects_overflowing_density(lam_p, delta, alpha):
    # past lambda_p*delta^2 of about 570 the quadrature EIR leaves the float
    # range; the approximation still reports decibels
    params = HardCoreParams(lam_p, delta, ProcessKind.MATERN_I)
    pathloss = PowerLawPathLoss(alpha)
    with pytest.raises(ValidationError, match="overflows"):
        eir(params, pathloss)
    assert math.isfinite(eir(params, pathloss, EirMethod.APPROXIMATION).eir_db)


def test_inside_2delta_underflows_with_intensity():
    # lambda*integral is below 1e-480 here; the lambda-free integral alone
    # would overflow
    params = HardCoreParams(4.0, 12.1, ProcessKind.MATERN_I)
    assert mean_interference_inside_2delta(params, PL3) == 0.0
    assert mean_interference_quadrature(params, PL3) == 0.0


@pytest.mark.parametrize("kind", [ProcessKind.MATERN_I, ProcessKind.MATERN_II])
def test_eir_quadrature_scale_invariant(kind):
    # for a power law the EIR depends on lambda_p*delta^2 alone
    pathloss = PowerLawPathLoss(4.0)
    base = eir(HardCoreParams(1.0, 1.0, kind), pathloss).eir_linear
    for c in (1e-3, 0.1, 10.0, 100.0, 1e3):
        got = eir(HardCoreParams(1.0 / (c * c), c, kind), pathloss).eir_linear
        assert got == pytest.approx(base, rel=1e-12), c


def test_inside_2delta_tabulated_knots_exact():
    # with K' = 2*pi*r and a piecewise-linear loss the integrand is a
    # polynomial in s between the mapped knots, so one Gauss-Kronrod panel
    # per piece is exact
    # (delta = 0.9 puts the knots 1, 1.25, 1.5, 1.75 off-centre in the annulus)
    r = [0.25 * i for i in range(41)]
    tab = TabulatedPathLoss(r, [(1.0 + rr * rr) ** -1.5 for rr in r])
    params = HardCoreParams(2.0, 0.9, ProcessKind.POISSON_HOLE)
    want = 2.0 * math.pi * 2.0 * tab.radial_integral(0.9, 1.8)
    assert mean_interference_inside_2delta(params, tab) == pytest.approx(
        want, rel=1e-14)


def test_eir_approximation_frozen_value():
    params = HardCoreParams(2.0, 2.0, ProcessKind.MATERN_I)
    report = eir(params, PL3, EirMethod.APPROXIMATION)
    assert report.method is EirMethod.APPROXIMATION
    assert report.eir_linear == pytest.approx(EIR_APPROX_22_A3, rel=1e-12)
    assert report.eir_db == pytest.approx(EIR_APPROX_22_A3_DB, rel=1e-12)
    direct = eir_type1_approximation(params, 3.0)
    assert direct.eir_linear == report.eir_linear
    assert direct.eir_db == report.eir_db


def test_eir_approximation_close_to_quadrature_when_dense():
    params = HardCoreParams(2.0, 2.0, ProcessKind.MATERN_I)
    quad_db = eir(params, PL3).eir_db
    approx_db = eir(params, PL3, EirMethod.APPROXIMATION).eir_db
    assert abs(quad_db - approx_db) < 1.0


def test_eir_approximation_warns_when_sparse():
    params = HardCoreParams(1.0, 1.0, ProcessKind.MATERN_I)
    with pytest.warns(UserWarning, match="inaccurate"):
        eir_type1_approximation(params, 3.0)


def test_eir_approximation_survives_extreme_density():
    # the linear ratio overflows but the decibel value stays finite because
    # the logarithm is formed first
    params = HardCoreParams(4.0, 20.0, ProcessKind.MATERN_I)
    report = eir_type1_approximation(params, 3.0)
    assert math.isinf(report.eir_linear)
    assert math.isfinite(report.eir_db)
    want_db = 10.0 / math.log(10.0) * (
        math.log(1.0) + math.log(2.0) + 1600.0 * GROWTH_EXPONENT
        - math.log(4.0 * math.sqrt(7.0) / 2.0 * 400.0))
    assert report.eir_db == pytest.approx(want_db, rel=1e-12)


def test_growth_exponent_frozen_and_supercritical():
    assert TYPE1_GROWTH_EXPONENT == pytest.approx(GROWTH_EXPONENT, rel=1e-14)
    assert TYPE1_GROWTH_EXPONENT > 1.0
    _, tangent = affine_v_bounds()
    assert TYPE1_GROWTH_EXPONENT == pytest.approx(
        math.pi - tangent.a - tangent.b, rel=1e-14)


def test_type2_universal_cap_frozen():
    assert NU_TYPE2_UNIVERSAL == pytest.approx(NU, rel=1e-15)
    assert NU_TYPE2_UNIVERSAL == pytest.approx(
        12.0 * math.pi / (8.0 * math.pi + 3.0 * math.sqrt(3.0)), rel=1e-15)
    assert eir_type2_bound() == NU_TYPE2_UNIVERSAL
    assert 10.0 * math.log10(NU) == pytest.approx(NU_DB, rel=1e-13)


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
def test_type2_sharpened_cap_frozen(alpha):
    got = eir_type2_bound(alpha)
    assert got == pytest.approx(NU_SHARP[alpha], rel=1e-14)
    assert 10.0 * math.log10(got) == pytest.approx(NU_SHARP_DB[alpha],
                                                   rel=1e-12)


def test_type2_sharpened_cap_shape():
    values = [eir_type2_bound(a) for a in (2.1, 2.5, 3.0, 4.0, 8.0, 30.0)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(1.0 < v < NU_TYPE2_UNIVERSAL for v in values)
    assert eir_type2_bound(60.0) == pytest.approx(NU_TYPE2_UNIVERSAL, rel=1e-12)
    with pytest.raises(ValidationError):
        eir_type2_bound(2.0)


def test_eir_upper_bound_method():
    report = eir(T2_21, PL3, EirMethod.UPPER_BOUND)
    assert report.method is EirMethod.UPPER_BOUND
    assert report.eir_linear == pytest.approx(NU_SHARP[3.0], rel=1e-14)
    # tabulated loss falls back to the universal constant
    r = [0.5 * i for i in range(17)]
    tab = TabulatedPathLoss(r, [(1.0 + rr) ** -3.0 for rr in r])
    assert eir(T2_21, tab, EirMethod.UPPER_BOUND).eir_linear == \
        pytest.approx(NU_TYPE2_UNIVERSAL, rel=1e-14)
    # the cap really caps the quadrature value
    assert eir(T2_21, PL3).eir_linear <= report.eir_linear


def test_eir_method_kind_mismatches_rejected():
    with pytest.raises(UnsupportedMethodError):
        eir(T1_21, PL3, EirMethod.UPPER_BOUND)
    with pytest.raises(UnsupportedMethodError):
        eir(T2_21, PL3, EirMethod.APPROXIMATION)
    with pytest.raises(UnsupportedMethodError):
        eir_type1_approximation(T2_21, 3.0)
    r = [0.5 * i for i in range(17)]
    tab = TabulatedPathLoss(r, [(1.0 + rr) ** -3.0 for rr in r])
    with pytest.raises(UnsupportedMethodError):
        eir(T1_21, tab, EirMethod.APPROXIMATION)


def test_eir_report_checks_db_consistency():
    db = 10.0 * math.log10(2.0)
    report = EirReport(mean_hardcore=2.0, mean_poisson_hole=1.0,
                       eir_linear=2.0, eir_db=db, method=EirMethod.QUADRATURE)
    assert report.eir_db == db
    with pytest.raises(ValidationError):
        EirReport(mean_hardcore=2.0, mean_poisson_hole=1.0, eir_linear=2.0,
                  eir_db=3.2, method=EirMethod.QUADRATURE)
