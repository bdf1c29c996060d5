"""Parameter objects, intensities, path loss models, point patterns.

Frozen expected values were recomputed with mpmath at 40 significant digits
(scripts/make_oracles.py); closed-form integrals are checked against hand
antiderivatives.
"""

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from matern_interference.errors import ValidationError
from matern_interference.models import (
    HardCoreParams,
    InterferenceEstimate,
    PointPattern,
    PowerLawPathLoss,
    ProcessKind,
    TabulatedPathLoss,
    intensity,
)


# ---------------------------------------------------------------------------
# HardCoreParams and intensity
# ---------------------------------------------------------------------------


def test_intensity_frozen_values():
    # mpmath: lambda_p * exp(-lambda_p*pi*delta^2) at (2, 0.5)
    p1 = HardCoreParams(2.0, 0.5, ProcessKind.MATERN_I)
    assert intensity(p1) == pytest.approx(0.41575915270152382, rel=1e-14)
    # mpmath: (1 - exp(-x)) / (pi*delta^2)
    p2 = HardCoreParams(2.0, 0.5, ProcessKind.MATERN_II)
    assert intensity(p2) == pytest.approx(1.0085590475825801, rel=1e-14)


@pytest.mark.parametrize("lam_p", [1e-150, 1e-160, 1e-200, 1e-300])
@pytest.mark.parametrize("delta", [0.5, 1.0, 3.0])
def test_type2_intensity_keeps_its_digits_at_tiny_lambda_p(lam_p, delta):
    # lambda_p * (1 - e^-x) is subnormal from lambda_p of about 1e-154 at
    # delta = 1 and 0 from about 1e-170, although lambda/lambda_p is 1 to
    # rounding; mpmath at 40 digits
    mpmath.mp.dps = 40
    x = mpmath.mpf(lam_p) * mpmath.pi * mpmath.mpf(delta) ** 2
    want = float(mpmath.mpf(lam_p) * -mpmath.expm1(-x) / x)
    got = intensity(HardCoreParams(lam_p, delta, ProcessKind.MATERN_II))
    assert got == pytest.approx(want, rel=4e-16, abs=0.0)


def test_intensity_poisson_reference_is_untouched():
    p = HardCoreParams(3.25, 1.0, ProcessKind.POISSON_HOLE)
    assert intensity(p) == 3.25


def test_intensity_delta_zero_degenerates_to_parent():
    for kind in ProcessKind:
        assert intensity(HardCoreParams(1.7, 0.0, kind)) == 1.7


@given(lam=st.floats(1e-3, 50.0), delta=st.floats(0.0, 5.0))
def test_intensity_ordering(lam, delta):
    # type I thins strictly harder than type II; type II never exceeds the
    # parent intensity nor the packing cap 1/(pi*delta^2)
    # once lam*pi*delta^2 goes subnormal its quantization error swamps the
    # ordering; the chain below is about the model, not about denormals
    assume(delta == 0.0 or lam * math.pi * delta * delta > 1e-307)
    i1 = intensity(HardCoreParams(lam, delta, ProcessKind.MATERN_I))
    i2 = intensity(HardCoreParams(lam, delta, ProcessKind.MATERN_II))
    # the chain holds exactly in real arithmetic; allow rounding slack
    slack = 1 + 1e-12
    assert 0.0 <= i1 <= i2 * slack
    assert i2 <= lam * slack
    if lam * math.pi * delta * delta < 700.0:  # exp does not underflow here
        assert i1 > 0.0
    disk = math.pi * delta * delta
    if disk > 0.0:  # delta^2 can underflow for subnormal delta
        assert i2 <= (1.0 / disk) * (1 + 1e-12)


def test_intensity_continuous_at_delta_zero():
    lam = 2.0
    for kind in (ProcessKind.MATERN_I, ProcessKind.MATERN_II):
        tiny = intensity(HardCoreParams(lam, 1e-9, kind))
        assert tiny == pytest.approx(lam, rel=1e-8)


def test_params_validation():
    with pytest.raises(ValidationError):
        HardCoreParams(0.0, 1.0, ProcessKind.MATERN_I)
    with pytest.raises(ValidationError):
        HardCoreParams(-1.0, 1.0, ProcessKind.MATERN_I)
    with pytest.raises(ValidationError):
        HardCoreParams(1.0, -0.5, ProcessKind.MATERN_I)
    with pytest.raises(ValidationError):
        HardCoreParams(math.inf, 1.0, ProcessKind.MATERN_I)
    with pytest.raises(ValidationError):
        HardCoreParams(1.0, 1.0, "matern1")


@pytest.mark.parametrize("lam, delta", [(1e300, 1e10), (1e300, 1e5),
                                        (1e-300, 1e200), (1.0, 1e154)])
def test_params_reject_disk_products_past_the_float_range(lam, delta):
    # lambda_p*pi*delta^2 or 2*pi*delta^2 overflows
    for kind in ProcessKind:
        with pytest.raises(ValidationError, match="overflows a float"):
            HardCoreParams(lam, delta, kind)


def test_params_accept_disk_products_inside_the_float_range():
    # 1e300*pi*1e6 = 3.1e306 and 2*pi*1e306 = 6.3e306
    HardCoreParams(1e300, 1e3, ProcessKind.MATERN_I)
    HardCoreParams(1e-300, 1e153, ProcessKind.MATERN_II)
    HardCoreParams(1.0, 1e-161, ProcessKind.MATERN_II)  # delta^2 = 1e-322 > 0


@pytest.mark.parametrize("delta", [1e-300, 1e-162])
def test_params_reject_a_delta_whose_square_underflows(delta):
    # the type II kernel divides by pi*delta^2
    for kind in ProcessKind:
        with pytest.raises(ValidationError, match=r"delta\^2 leaves the float range"):
            HardCoreParams(1.0, delta, kind)


# ---------------------------------------------------------------------------
# Power-law path loss
# ---------------------------------------------------------------------------


def test_power_law_validation():
    with pytest.raises(ValidationError):
        PowerLawPathLoss(alpha=2.0)
    with pytest.raises(ValidationError):
        PowerLawPathLoss(alpha=1.5)
    with pytest.raises(ValidationError):
        PowerLawPathLoss(alpha=3.0, r0=-0.1)


def test_power_law_radial_integral_past_the_float_range():
    # (1e-100)^-4 and (1e-100)^-6 overflow
    with pytest.raises(ValidationError, match="leaves the float range"):
        PowerLawPathLoss(6.0).radial_integral(1e-100)
    with pytest.raises(ValidationError, match="leaves the float range"):
        PowerLawPathLoss(6.0, r0=1e-100).radial_integral(0.0)


def test_power_law_evaluation_with_cutoff():
    pl = PowerLawPathLoss(alpha=3.0, r0=0.5)
    assert pl(2.0) == pytest.approx(0.125, rel=1e-14)
    # flat below the cutoff
    assert pl(0.1) == pl(0.5) == pytest.approx(8.0, rel=1e-14)
    vals = pl(np.array([0.25, 1.0]))
    assert vals == pytest.approx([8.0, 1.0], rel=1e-14)


# below, at and just above the 0.5 cutoff, through the transition annulus,
# far out, and into underflow
SCALAR_PATH_GRID = [1e-12, 0.01, 0.25, 0.4999999999999999, 0.5,
                    0.5000000000000001, 0.7, 1.0, 1.5, 2.0, 3.3, 7.0, 123.456,
                    1e5, 1e100, 1e300, sys.float_info.max, math.inf]


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
@pytest.mark.parametrize("r0", [0.0, 0.5])
def test_power_law_float_path_matches_numpy_bitwise(alpha, r0):
    pl = PowerLawPathLoss(alpha=alpha, r0=r0)
    grid = SCALAR_PATH_GRID + [float(x) for x in
                               np.random.default_rng(3).uniform(0.0, 10.0, 200)]
    for r in grid:
        got = pl(r)
        assert type(got) is float, r
        want = np.maximum(r0, r) ** (-alpha)
        assert got.hex() == float(want).hex(), r
        via_numpy = pl(np.float64(r))
        assert isinstance(via_numpy, np.floating), r
        assert got.hex() == float(via_numpy).hex(), r


def test_power_law_inputs_outside_the_float_path_keep_numpy_semantics():
    pl = PowerLawPathLoss(alpha=3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert pl(0.0) == math.inf  # not ZeroDivisionError
        assert pl(1e-200) == math.inf  # not OverflowError
        assert pl(-1.0) == math.inf
    assert math.isnan(pl(math.nan))
    assert math.isnan(PowerLawPathLoss(alpha=3.0, r0=0.5)(math.nan))
    assert isinstance(pl(np.float64(2.0)), np.float64)
    assert isinstance(pl(2), np.float64)
    vals = pl(np.array([0.5, 2.0]))
    assert isinstance(vals, np.ndarray)
    assert vals.tolist() == [8.0, 0.125]


def test_power_law_radial_integral_hand_values():
    pl = PowerLawPathLoss(alpha=3.0)
    # int_1^inf r^-3 * r dr = 1, by hand
    assert pl.radial_integral(1.0) == pytest.approx(1.0, rel=1e-14)
    # int_1^2 r^-2 dr = 1/2
    assert pl.radial_integral(1.0, 2.0) == pytest.approx(0.5, rel=1e-14)
    pl4 = PowerLawPathLoss(alpha=4.0)
    # int_2^inf r^-3 dr = 1/8
    assert pl4.radial_integral(2.0) == pytest.approx(0.125, rel=1e-14)


def test_power_law_radial_integral_across_cutoff():
    # flat part: r0^-alpha * r integrates to r0^-alpha * r^2/2
    pl = PowerLawPathLoss(alpha=3.0, r0=1.0)
    # int_0^1 1 * r dr + int_1^inf r^-2 dr = 0.5 + 1.0, by hand
    assert pl.radial_integral(0.0) == pytest.approx(1.5, rel=1e-14)
    # entirely inside the flat region: int_0^0.5 r dr = 0.125
    assert pl.radial_integral(0.0, 0.5) == pytest.approx(0.125, rel=1e-14)


def test_power_law_divergence_without_cutoff():
    pl = PowerLawPathLoss(alpha=3.0, r0=0.0)
    with pytest.raises(ValidationError):
        pl.radial_integral(0.0)


# ---------------------------------------------------------------------------
# Tabulated path loss
# ---------------------------------------------------------------------------


def test_tabulated_validation():
    with pytest.raises(ValidationError):
        TabulatedPathLoss((1.0,), (1.0,))
    with pytest.raises(ValidationError):
        TabulatedPathLoss((1.0, 0.5), (1.0, 0.5))  # r not increasing
    with pytest.raises(ValidationError):
        TabulatedPathLoss((0.0, 1.0), (0.5, 1.0))  # g increasing
    with pytest.raises(ValidationError):
        TabulatedPathLoss((0.0, 1.0), (1.0, -0.1))  # negative g
    with pytest.raises(ValidationError):
        TabulatedPathLoss((0.0, 1.0), (math.nan, 0.0))


def test_tabulated_interpolation_and_support():
    tab = TabulatedPathLoss((1.0, 2.0, 4.0), (1.0, 0.5, 0.0))
    assert tab.support_end == 4.0
    assert tab(0.2) == 1.0  # constant extension below the first knot
    assert tab(1.5) == pytest.approx(0.75, rel=1e-14)
    assert tab(3.0) == pytest.approx(0.25, rel=1e-14)
    assert tab(5.0) == 0.0  # compact support


def test_tabulated_radial_integral_exact_for_piecewise_linear():
    # g(r) = 1 - r/2 on [0, 2]; int g*r dr over [0, 2] = r^2/2 - r^3/6 = 2/3
    tab = TabulatedPathLoss((0.0, 2.0), (1.0, 0.0))
    assert tab.radial_integral(0.0, 2.0) == pytest.approx(2.0 / 3.0, rel=1e-14)
    # truncation beyond the support changes nothing
    assert tab.radial_integral(0.0, math.inf) == pytest.approx(2.0 / 3.0, rel=1e-14)
    # sub-interval [0.5, 1]: int (r - r^2/2) dr = 3/8 - 7/48 = 11/48
    assert tab.radial_integral(0.5, 1.0) == pytest.approx(11.0 / 48.0, rel=1e-14)
    # interval fully beyond the support
    assert tab.radial_integral(3.0, 5.0) == 0.0


@given(knots=st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6,
                      unique=True),
       start=st.floats(0.0, 12.0), width=st.floats(0.0, 12.0))
def test_tabulated_radial_integral_matches_numpy_reference(knots, start, width):
    r = sorted(knots)
    g = [1.0 / (1.0 + v) for v in r]  # decreasing, positive
    tab = TabulatedPathLoss(tuple(r), tuple(g))
    lo, hi = start, start + width
    grid = np.linspace(lo, hi, 20001)
    want = np.trapezoid(tab(grid) * grid, grid)
    got = tab.radial_integral(lo, hi)
    # the trapezoid reference carries half-panel endpoint error where the
    # support ends, so the comparison tolerance is discretization-limited
    assert got == pytest.approx(want, rel=1e-3, abs=1e-3)


# ---------------------------------------------------------------------------
# PointPattern and InterferenceEstimate
# ---------------------------------------------------------------------------


def test_point_pattern_basics():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    pat = PointPattern(points=pts, window_radius=6.0)
    assert len(pat) == 2
    assert pat.radii == pytest.approx([0.0, 5.0])
    empty = PointPattern(points=np.empty((0, 2)), window_radius=1.0)
    assert len(empty) == 0
    single = PointPattern(points=np.array([[0.5, 0.5]]), window_radius=1.0)
    assert len(single) == 1


def test_point_pattern_validation():
    with pytest.raises(ValidationError):
        PointPattern(points=np.array([[10.0, 0.0]]), window_radius=5.0)
    with pytest.raises(ValidationError):
        PointPattern(points=np.array([[1.0, 0.0]]), window_radius=-1.0)
    with pytest.raises(ValidationError):
        PointPattern(points=np.array([[1.0, 0.0]]), window_radius=5.0,
                     marks=np.array([1.0]))  # marks must be < 1
    with pytest.raises(ValidationError):
        PointPattern(points=np.array([[1.0, 0.0]]), window_radius=5.0,
                     marks=np.array([0.2, 0.3]))  # length mismatch


def test_interference_estimate_invariants():
    est = InterferenceEstimate(mean=1.0, std_error=0.1, ci_low=0.8,
                               ci_high=1.2, replicates=100, tail_correction=0.0)
    assert est.mean == 1.0
    with pytest.raises(ValidationError):
        InterferenceEstimate(mean=1.0, std_error=0.1, ci_low=1.1,
                             ci_high=1.2, replicates=100, tail_correction=0.0)
    with pytest.raises(ValidationError):
        InterferenceEstimate(mean=1.0, std_error=-0.1, ci_low=0.8,
                             ci_high=1.2, replicates=100, tail_correction=0.0)
