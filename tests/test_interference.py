"""Mean interference, affine-bound closed forms, and the excess ratio.

Frozen decimals were produced with mpmath at 40 significant digits
(scripts/make_oracles.py); everything else is checked against independent
quadrature routes or exact identities.
"""

import math
import sys
import warnings

import mpmath
import pytest
from hypothesis import given, strategies as st

from matern_interference.analytic import affine_v_bounds, k_derivative
from matern_interference.errors import UnsupportedMethodError, ValidationError
from matern_interference.interference import (
    EirMethod,
    EirReport,
    NU_TYPE2_UNIVERSAL,
    TYPE1_GROWTH_EXPONENT,
    eir,
    eir_affine_bound,
    eir_type2_bound,
    h_bound,
    h_integral,
    interference_outside_2delta,
    mean_interference_inside_2delta,
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
# quadrature EIR of the type I process at delta = 1 past the float range of
# the linear ratio, in dB, by (lambda_p, alpha)
EIR_DENSE_T1_DB = {(1e3, 3.0): 5302.3520380528337,
                   (1e4, 3.0): 53305.032160169758,
                   (1e6, 3.0): 5334679.4328189839,
                   (1e4, 4.0): 53308.042209427366}
# the same, where the kernel's boundary layer at r = delta ends past the
# first Gauss-Kronrod node of a panel over the whole annulus
EIR_LAYER_BAND_T1_DB = {(2200.0, 3.0): 11700.620268930049,
                        (3000.0, 3.0): 15967.067244012108,
                        (5000.0, 3.0): 26634.332950226274,
                        (8500.0, 3.0): 45303.625169540228,
                        (3000.0, 6.0): 15973.085338372687}


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
    assert eir(HOLE_21, PL3).mean_poisson_hole == pytest.approx(
        4.0 * math.pi, rel=1e-14)
    # matched intensity: thinned processes use their own density
    want = 2.0 * math.pi * 2.0 * math.exp(-2.0 * math.pi)
    assert eir(T1_21, PL3).mean_poisson_hole == pytest.approx(
        want, rel=1e-14)
    # for alpha = 3, delta = 1 the hole mean is exactly twice the tail mean
    assert eir(T1_21, PL3).mean_poisson_hole == pytest.approx(
        2.0 * interference_outside_2delta(T1_21, PL3), rel=1e-14)


def test_poisson_hole_reference_ignores_cutoff_below_delta():
    with_cutoff = PowerLawPathLoss(3.0, 0.5)
    assert eir(T1_21, with_cutoff).mean_poisson_hole == \
        eir(T1_21, PL3).mean_poisson_hole


def test_total_mean_is_sum_of_pieces():
    total = mean_interference_quadrature(T1_21, PL3)
    assert total == pytest.approx(
        mean_interference_inside_2delta(T1_21, PL3)
        + interference_outside_2delta(T1_21, PL3), rel=1e-14)


def test_total_mean_poisson_hole_matches_closed_form():
    got = mean_interference_quadrature(HOLE_21, PL3)
    assert got == pytest.approx(eir(HOLE_21, PL3).mean_poisson_hole,
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
               mean_interference_quadrature):
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
    # v^(alpha - 2) = (1.3e99)^4 overflows
    with pytest.raises(ValidationError, match="leaves the float range"):
        h_integral(1.3e99, 1e-100, 6.0)


@pytest.mark.parametrize("alpha", [2.0001, 2.5, 3.0, 8.0, 20.0])
def test_h_integral_sparse_limit(alpha):
    # below v*x = 2^-54 the scaled gammas overflow on their own; the value
    # is then the integral of r^(1-alpha) over [x, 2x], to rounding
    want = (1.0 - 2.0 ** (2.0 - alpha)) / (alpha - 2.0)
    for v in (1e-300, 1e-60, 5e-17):
        assert h_integral(v, 1.0, alpha) == pytest.approx(want, rel=1e-15)
    assert h_integral(6e-17, 1.0, alpha) == pytest.approx(want, rel=1e-13)


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


@pytest.mark.parametrize("kind", [ProcessKind.MATERN_I, ProcessKind.MATERN_II])
def test_inside_2delta_cuts_the_annulus_at_table_knots(kind):
    # the transition integral maps the table's knots inside (delta, 2*delta)
    # to s = sqrt(2*delta - b) and drops the rest (here 0.5, 2.5 and 3.5);
    # the reference integrates in r, piece by piece between the knots. Left
    # uncut, the kinks cost about 6e-10 of the value.
    from scipy.integrate import quad

    r = (0.5, 1.1, 1.25, 1.5, 1.9, 2.5, 3.5)
    tab = TabulatedPathLoss(r, [(1.0 + rr) ** -3.0 for rr in r])
    params = HardCoreParams(2.0, 1.0, kind)
    edges = (1.0, 1.1, 1.25, 1.5, 1.9, 2.0)
    want = intensity(params) * sum(
        quad(lambda x: float(tab(x)) * k_derivative(params, x), a, b,
             epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for a, b in zip(edges, edges[1:]))
    assert mean_interference_inside_2delta(params, tab) == pytest.approx(want, rel=1e-12)


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
def test_eir_affine_bound_is_the_ratio_of_the_means(lam, delta):
    # where lambda is a normal float the two means can be divided directly
    params = HardCoreParams(lam, delta, ProcessKind.MATERN_I)
    for pathloss in (PL3, PowerLawPathLoss(4.0), PowerLawPathLoss(2.5, r0=0.1)):
        outside = interference_outside_2delta(params, pathloss)
        scale = 2.0 ** (pathloss.alpha - 2.0)
        for line in affine_v_bounds():
            want = (h_bound(params, pathloss, line) / outside + 1.0) / scale
            got = eir_affine_bound(params, pathloss, line).eir_linear
            assert got == pytest.approx(want, rel=1e-11)


def test_eir_affine_bound_dense_and_refusals():
    chord, tangent = affine_v_bounds()
    # lambda_p*pi*delta^2 = 764: lambda, and so the tail mean, is zero
    dense = HardCoreParams(3.8, 8.0, ProcessKind.MATERN_I)
    assert interference_outside_2delta(dense, PL3) == 0.0
    assert math.isfinite(eir_affine_bound(dense, PL3, chord).eir_linear)
    # lambda_p*delta^2 = 640: the linear EIR overflows, its decibels do not
    denser = eir_affine_bound(HardCoreParams(10.0, 8.0, ProcessKind.MATERN_I),
                              PL3, chord)
    assert denser.eir_linear == math.inf
    assert math.isfinite(denser.eir_db)
    with pytest.raises(ValidationError):
        eir_affine_bound(T2_21, PL3, tangent)
    tab = TabulatedPathLoss((0.5, 4.0), (1.0, 0.0))
    with pytest.raises(UnsupportedMethodError):
        eir_affine_bound(T1_21, tab, tangent)


def test_eir_refuses_a_method_name_and_closed_forms_at_delta_zero():
    # the method is an EirMethod, not its value
    with pytest.raises(UnsupportedMethodError, match="unknown EIR method"):
        eir(T1_21, PL3, "quadrature")
    no_core = HardCoreParams(2.0, 0.0, ProcessKind.MATERN_I)
    for line in affine_v_bounds():
        with pytest.raises(ValidationError, match="requires delta > 0"):
            eir_affine_bound(no_core, PL3, line)
    with pytest.raises(ValidationError, match="requires delta > 0"):
        eir(no_core, PL3, EirMethod.APPROXIMATION)


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
                      / report.mean_poisson_hole)
            assert report.eir_linear == pytest.approx(direct, rel=1e-10)
            assert report.mean_hardcore == pytest.approx(
                report.eir_linear * report.mean_poisson_hole, rel=1e-12)


@pytest.mark.parametrize("kind", [ProcessKind.MATERN_I, ProcessKind.MATERN_II])
def test_eir_mean_is_the_quadrature_mean_bit_for_bit(kind):
    # eir and `interference --method quadrature` print the same mean
    for lam_p in (0.5, 1.0, 2.0, 3.7, 4.0):
        for delta in (0.25, 0.5, 0.7, 1.0, 1.7, 2.0):
            params = HardCoreParams(lam_p, delta, kind)
            for alpha in (2.5, 3.0, 4.0, 6.0):
                pathloss = PowerLawPathLoss(alpha)
                assert (eir(params, pathloss).mean_hardcore
                        == mean_interference_quadrature(params, pathloss))


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
    assert 1.0 - 1e-9 <= report.eir_linear <= NU * (1 + 1e-9)
    direct = (mean_interference_quadrature(T2_21, tab)
              / report.mean_poisson_hole)
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


@pytest.mark.parametrize("lam_p, alpha", sorted(EIR_DENSE_T1_DB))
def test_eir_quadrature_dense_type1_past_float_range(lam_p, alpha):
    # the linear ratio and the lambda-free integral overflow; the peak of
    # the pair correlation is carried as a logarithm, so the decibels do not
    pathloss = PowerLawPathLoss(alpha)
    report = eir(HardCoreParams(lam_p, 1.0, ProcessKind.MATERN_I), pathloss)
    assert math.isinf(report.eir_linear)
    assert report.mean_hardcore == 0.0
    assert report.eir_db == pytest.approx(EIR_DENSE_T1_DB[lam_p, alpha], rel=0.0, abs=1e-9)
    # the boundary-layer knots scale with delta
    for c in (0.1, 10.0):
        scaled = eir(HardCoreParams(lam_p / (c * c), c, ProcessKind.MATERN_I), pathloss)
        assert scaled.eir_db == pytest.approx(report.eir_db, rel=1e-15)


@pytest.mark.parametrize("lam_p, alpha", sorted(EIR_LAYER_BAND_T1_DB))
def test_eir_quadrature_type1_boundary_layer_band(lam_p, alpha):
    # the layer is cut through delta + 64w, so no e^-16 of it is left
    # beyond the last knot, where the rule cannot see it
    report = eir(HardCoreParams(lam_p, 1.0, ProcessKind.MATERN_I), PowerLawPathLoss(alpha))
    assert report.eir_db == pytest.approx(EIR_LAYER_BAND_T1_DB[lam_p, alpha],
                                          rel=0.0, abs=1e-9)


@pytest.mark.parametrize("kind", [ProcessKind.MATERN_I, ProcessKind.MATERN_II])
@pytest.mark.parametrize("density", [20.0, 577.5])
def test_eir_quadrature_steep_loss_at_large_delta(kind, density):
    # at delta = 100 and alpha = 20 the transition integral is about 1e-40,
    # far below the quadrature's absolute tolerance, which is therefore
    # taken in units of the loss at delta
    pathloss = PowerLawPathLoss(20.0)
    want = eir(HardCoreParams(density, 1.0, kind), pathloss).eir_db
    got = eir(HardCoreParams(density / 1e4, 100.0, kind), pathloss).eir_db
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("kind", list(ProcessKind))
def test_eir_quadrature_table_ending_within_hard_core(kind):
    # the table vanishes past r = 0.9 < delta, so the reference mean is zero
    tab = TabulatedPathLoss((0.1, 0.9), (1.0, 0.0))
    params = HardCoreParams(1.0, 1.0, kind)
    assert mean_interference_quadrature(params, tab) == 0.0
    if kind is ProcessKind.POISSON_HOLE:
        assert eir(params, tab).eir_linear == 1.0
    else:
        with pytest.raises(ValidationError, match="ends at r = 0.9"):
            eir(params, tab)


def test_inside_2delta_underflows_with_intensity():
    # lambda*integral is below 1e-480 here; the peak-scaled integral is not
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


_MEANS = ("mean_hardcore", "mean_poisson_hole")


@given(kind=st.sampled_from(list(ProcessKind)), log_delta=st.floats(-150.0, 150.0),
       c=st.floats(1e-3, 1e4), alpha=st.floats(2.0, 8.0, exclude_min=True),
       cutoff=st.floats(0.0, 1.0))
def test_power_law_values_are_those_at_delta_one(kind, log_delta, c, alpha, cutoff):
    # for a power law every EIR and affine-bound ratio is a function of
    # lambda_p*delta^2 and alpha alone, computed at delta = 1: the same bits
    # at every delta. The means are delta^-alpha times those at delta = 1.
    delta = 10.0 ** log_delta
    params = HardCoreParams(c / (delta * delta), delta, kind)
    unit = HardCoreParams(params.lambda_p * delta * delta, 1.0, kind)
    pathloss = PowerLawPathLoss(alpha, cutoff * delta)
    unit_loss = PowerLawPathLoss(alpha, pathloss.r0 / delta)
    methods = {ProcessKind.MATERN_I: EirMethod.APPROXIMATION,
               ProcessKind.MATERN_II: EirMethod.UPPER_BOUND}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for method in (EirMethod.QUADRATURE, methods.get(kind, EirMethod.QUADRATURE)):
            got, want = eir(params, pathloss, method), eir(unit, unit_loss, method)
            assert got.eir_db == want.eir_db, method
            for name in _MEANS:
                value, at_one = getattr(got, name), getattr(want, name)
                if min(value, at_one) >= sys.float_info.min and max(value, at_one) < math.inf:
                    scaled = float(mpmath.mpf(delta) ** -alpha * at_one)
                    assert value == pytest.approx(scaled, rel=1e-13), (method, name)
    if kind is ProcessKind.MATERN_I:
        for line in affine_v_bounds():
            try:
                want = eir_affine_bound(unit, unit_loss, line).eir_db
            except ValidationError:  # past the float range at either scale
                with pytest.raises(ValidationError, match="float range"):
                    eir_affine_bound(params, pathloss, line)
            else:
                assert eir_affine_bound(params, pathloss, line).eir_db == want


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
    assert report.eir_linear == pytest.approx(EIR_APPROX_22_A3, rel=1e-12)
    assert report.eir_db == pytest.approx(EIR_APPROX_22_A3_DB, rel=1e-12)


def test_eir_approximation_close_to_quadrature_when_dense():
    params = HardCoreParams(2.0, 2.0, ProcessKind.MATERN_I)
    quad_db = eir(params, PL3).eir_db
    approx_db = eir(params, PL3, EirMethod.APPROXIMATION).eir_db
    assert abs(quad_db - approx_db) < 1.0


def test_eir_approximation_warns_when_sparse():
    params = HardCoreParams(1.0, 1.0, ProcessKind.MATERN_I)
    with pytest.warns(UserWarning, match="inaccurate"):
        eir(params, PL3, EirMethod.APPROXIMATION)


def test_eir_approximation_refuses_products_past_the_float_range():
    # lambda_p*b*delta^2 underflows
    with pytest.raises(ValidationError, match="leaves the normal float range"):
        eir(HardCoreParams(1e-300, 1e-30, ProcessKind.MATERN_I), PowerLawPathLoss(2.5),
            EirMethod.APPROXIMATION)
    # delta^(2 - alpha) = 1e400 overflows, and with it the means, but the
    # ratio is the one at delta = 1
    with pytest.warns(UserWarning, match="inaccurate"):
        got = eir(HardCoreParams(1e199, 1e-100, ProcessKind.MATERN_I),
                  PowerLawPathLoss(6.0), EirMethod.APPROXIMATION)
        want = eir(HardCoreParams(1e199 * 1e-100 * 1e-100, 1.0, ProcessKind.MATERN_I),
                   PowerLawPathLoss(6.0), EirMethod.APPROXIMATION)
    assert got.eir_db == want.eir_db
    assert got.mean_poisson_hole == got.mean_hardcore == math.inf


def test_eir_approximation_survives_extreme_density():
    # the linear ratio overflows but the decibel value stays finite because
    # the logarithm is formed first
    params = HardCoreParams(4.0, 20.0, ProcessKind.MATERN_I)
    report = eir(params, PL3, EirMethod.APPROXIMATION)
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
    r = [0.5 * i for i in range(17)]
    tab = TabulatedPathLoss(r, [(1.0 + rr) ** -3.0 for rr in r])
    with pytest.raises(UnsupportedMethodError):
        eir(T1_21, tab, EirMethod.APPROXIMATION)


def test_eir_report_checks_db_consistency():
    db = 10.0 * math.log10(2.0)
    report = EirReport(mean_hardcore=2.0, mean_poisson_hole=1.0,
                       eir_linear=2.0, eir_db=db)
    assert report.eir_db == db
    with pytest.raises(ValidationError):
        EirReport(mean_hardcore=2.0, mean_poisson_hole=1.0, eir_linear=2.0,
                  eir_db=3.2)


@pytest.mark.parametrize("lam_p", [1e170, 1e300])
def test_dense_type2_matches_the_unfolded_kernel(lam_p):
    # At lambda_p = 1e100, (lambda/lambda_p)^2 and the retention's
    # denominator are still normal floats; from about 1e154 on the kernel
    # folds one into the other. Both sides sit at the dense limit, where
    # they differ by about 1e-100.
    pathloss = PowerLawPathLoss(3.0)
    want = eir(HardCoreParams(1e100, 1.0, ProcessKind.MATERN_II), pathloss)
    got = eir(HardCoreParams(lam_p, 1.0, ProcessKind.MATERN_II), pathloss)
    assert got.eir_linear == pytest.approx(want.eir_linear, rel=1e-12)
    assert 1.0 < got.eir_linear < eir_type2_bound(3.0)
