"""The Gauss-Kronrod quadrature and the hand-rolled upper incomplete gamma
function.

Expected values for the gamma function were computed with mpmath at 40
significant digits (see scripts/make_oracles.py), an implementation fully
independent of the one under test. Simple integrals are checked against
hand antiderivatives, and the transition-annulus integrals against QUADPACK
(scipy.integrate.quad), which the package itself no longer imports.
"""

import json
import math
import random
import subprocess
import sys

import mpmath
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from matern_interference import analytic, interference, numerics
from matern_interference.errors import ToleranceError, ValidationError
from matern_interference.models import HardCoreParams, PowerLawPathLoss, ProcessKind
from matern_interference.numerics import (
    QuadratureResult,
    integrate,
    upper_incomplete_gamma,
)

# e^x * Gamma(s, x); mpmath (mp.dps = 40), regenerate with
# python3 scripts/make_oracles.py
_GAMMA_ORACLE = [
    (-3.5, 0.001, 9031467402.2373049),
    (-3.5, 0.01, 2845789.1945034097),
    (-3.5, 0.1, 869.49050031748086),
    (-3.5, 0.5, 2.7272889371331643),
    (-3.5, 1, 0.21072337617391423),
    (-3.5, 2, 0.015043294979668386),
    (-3.5, 5, 0.00039423927645143452),
    (-3.5, 10, 2.2243782964707922e-5),
    (-3.5, 50, 2.0789581968587997e-8),
    (-3.5, 100, 9.5732525329342076e-10),
    (-3.5, 700, 1.5641550065062457e-13),
    (-3, 0.001, 333166832.27702099),
    (-3, 0.01, 331682.65358142609),
    (-3, 0.1, 317.99755957588192),
    (-3, 0.5, 2.1795148945860449),
    (-3, 1, 0.23394210627946765),
    (-3, 2, 0.023111897185296236),
    (-3, 5, 0.00092963728587796636),
    (-3, 10, 7.2777676701986354e-5),
    (-3, 50, 1.4834498085493912e-7),
    (-3, 100, 9.618877830265599e-9),
    (-3, 700, 4.1413002258104259e-12),
    (-2.5, 0.001, 12640693.853226212),
    (-2.5, 0.01, 39737.819238065964),
    (-2.5, 0.1, 119.06090905719631),
    (-2.5, 0.5, 1.7681972190186855),
    (-2.5, 1, 0.26246818339130021),
    (-2.5, 2, 0.035736815219479088),
    (-2.5, 5, 0.0021978712964196427),
    (-2.5, 10, 0.00023837452564036021),
    (-2.5, 50, 1.0586073130084181e-6),
    (-2.5, 100, 9.6649361613473027e-8),
    (-2.5, 700, 1.0964626965711851e-10),
    (-2, 0.001, 499503.16893703516),
    (-2, 0.01, 4952.0392557217282),
    (-2, 0.1, 46.007321272354226),
    (-2, 0.5, 1.4614553162418652),
    (-2, 1, 0.29817368116159704),
    (-2, 2, 0.055664308444111292),
    (-2, 5, 0.0052110881423661009),
    (-2, 10, 0.00078166696989404094),
    (-2, 50, 7.5549650574351827e-6),
    (-2, 100, 9.711433665092032e-7),
    (-2, 700, 2.9030279943663005e-9),
    (-1.5, 0.001, 21041.968618263621),
    (-1.5, 0.01, 655.45190483508988),
    (-1.5, 0.1, 18.575493373847156),
    (-1.5, 0.5, 1.2363612019456665),
    (-1.5, 1, 0.34382954152174947),
    (-1.5, 2, 0.087434657247939161),
    (-1.5, 5, 0.012393865578949211),
    (-1.5, 10, 0.0025663413460674788),
    (-1.5, 50, 5.3922024212402757e-5),
    (-1.5, 100, 9.7583765959663174e-6),
    (-1.5, 700, 7.6861491062434189e-8),
    (-1, 0.001, 993.66212592967451),
    (-1, 0.01, 95.921488556543574),
    (-1, 0.1, 7.9853574552915483),
    (-1, 0.5, 1.0770893675162695),
    (-1, 1, 0.40365263767680593),
    (-1, 2, 0.13867138311177742),
    (-1, 5, 0.029577823715267798),
    (-1, 10, 0.0084366660602119181),
    (-1, 50, 0.00038489006988512963),
    (-1, 100, 9.8057713266981594e-5),
    (-1, 700, 2.0350102705418796e-6),
    (-0.5, 0.001, 59.823674288361535),
    (-0.5, 0.01, 16.822142747365185),
    (-0.5, 0.1, 3.7595365409130595),
    (-0.5, 0.5, 0.97388532182769035),
    (-0.5, 1, 0.48425568771737579),
    (-0.5, 2, 0.22240140472136502),
    (-0.5, 5, 0.070851920731567772),
    (-0.5, 10, 0.027773264582582575),
    (-0.5, 50, 0.002747544088427586),
    (-0.5, 100, 0.00098536243510605052),
    (-0.5, 700, 5.3879632479010238e-5),
    (0, 0.001, 6.337874070325488),
    (0, 0.01, 4.0785114434564258),
    (0, 0.1, 2.0146425447084517),
    (0, 0.5, 0.92291063248373047),
    (0, 1, 0.59634736232319407),
    (0, 2, 0.36132861688822258),
    (0, 5, 0.1704221762847322),
    (0, 10, 0.091563333939788082),
    (0, 50, 0.01961510993011487),
    (0, 100, 0.0099019422867330184),
    (0, 700, 0.0014265364183008867),
    (0.5, 0.001, 1.710939457503026),
    (0.5, 0.01, 1.5889286263174076),
    (0.5, 0.1, 1.2825093897118496),
    (0.5, 0.5, 0.92727090145924987),
    (0.5, 1, 0.75787215614131211),
    (0.5, 2, 0.59590607882586501),
    (0.5, 5, 0.41178763513417405),
    (0.5, 10, 0.30234113372554665),
    (0.5, 50, 0.14004758419309571),
    (0.5, 100, 0.099507318782446975),
    (0.5, 700, 0.037769507484683218),
    (1, 0.001, 1.0),
    (1, 0.01, 1.0),
    (1, 0.1, 1.0),
    (1, 0.5, 1.0),
    (1, 1, 1.0),
    (1, 2, 1.0),
    (1, 5, 1.0),
    (1, 10, 1.0),
    (1, 50, 1.0),
    (1, 100, 1.0),
    (1, 700, 1.0),
    (2.5, 0.001, 1.3306703808063969),
    (2.5, 0.01, 1.3426964697380557),
    (2.5, 0.1, 1.4678464679108279),
    (2.5, 0.5, 2.1096667384675325),
    (2.5, 1, 3.0684041171059841),
    (2.5, 2, 5.3966770274252314),
    (2.5, 5, 14.843282580099264),
    (2.5, 10, 36.592948942230522),
    (2.5, 50, 364.2650279992168),
    (2.5, 100, 1015.0746304890868),
    (2.5, 700, 18559.973774248717),
]


@pytest.mark.parametrize("s,x,want", _GAMMA_ORACLE,
                         ids=[f"s={s}_x={x}" for s, x, _ in _GAMMA_ORACLE])
def test_gamma_matches_high_precision_grid(s, x, want):
    got = upper_incomplete_gamma(float(s), float(x), scaled=True)
    assert abs(got - want) <= 1e-10 * abs(want)


def test_gamma_order_one_is_plain_exponential():
    # Gamma(1, x) = integral of e^-t from x, i.e. e^-x, by hand
    for x in (0.5, 2.0, 10.0):
        assert upper_incomplete_gamma(1.0, x) == pytest.approx(
            math.exp(-x), rel=1e-12)


def test_gamma_scaled_unscaled_consistency():
    for s in (-2.5, -1.0, 0.0, 0.5, 2.5):
        for x in (0.25, 2.0, 8.0):
            plain = upper_incomplete_gamma(s, x)
            scaled = upper_incomplete_gamma(s, x, scaled=True)
            assert plain == pytest.approx(math.exp(-x) * scaled, rel=1e-12)


@pytest.mark.parametrize("s", [-6.0, -2.5, -1.0, 0.0, 0.5, 1.0])
@pytest.mark.parametrize("x", [3e16, 1e17, 1e30, 7.86e301])
def test_gamma_at_huge_x_follows_its_asymptotic_series(s, x):
    # e^x Gamma(s, x) = x^(s-1) (1 + (s-1)/x + (s-1)(s-2)/x^2 + ...), whose
    # third term is below 1e-31 here; out here the continued fraction used
    # to stall, where a partial denominator times its rounded reciprocal
    # rounds to 1 - 2^-53
    want = math.pow(x, s - 1.0) * (1.0 + (s - 1.0) / x)
    got = upper_incomplete_gamma(s, x, scaled=True)
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)
    assert upper_incomplete_gamma(s, x) == 0.0  # e^-x underflows


def test_gamma_at_huge_x_matches_high_precision():
    # mpmath (scripts/make_oracles.py); the continued fraction stalled here
    # although (s - 1)/x is still above rounding, so the leading term alone
    # would not serve
    got = upper_incomplete_gamma(-2.5, 3e16, scaled=True)
    assert got == pytest.approx(2.138334330331947e-58, rel=1e-15)


@pytest.mark.parametrize("scaled", [False, True])
@pytest.mark.parametrize("s, x", [(2.5, 7.86e301), (5.0, 1e200)])
def test_gamma_past_the_float_range_raises_validation_error(s, x, scaled):
    # e^x Gamma(s, x) is about x^(s-1), far past the largest float; the
    # plain value is formed from the scaled one
    with pytest.raises(ValidationError, match="overflows a float"):
        upper_incomplete_gamma(s, x, scaled=scaled)


def test_gamma_at_a_subnormal_order_is_the_order_zero_value():
    # the near-zero-order series' expm1 arguments would be subnormal here
    # and lose their digits (E1(0.25) = 1.044 came out as 0.235)
    for s in (5e-324, -5e-324, 1e-300):
        for x in (1e-5, 0.25):
            assert upper_incomplete_gamma(s, x) == upper_incomplete_gamma(0.0, x)


def test_gamma_rejects_nonpositive_x():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            upper_incomplete_gamma(-1.0, bad)


@given(s=st.floats(-3.5, 2.5), x=st.floats(1e-3, 700.0))
def test_gamma_recurrence(s, x):
    # Gamma(s+1, x) = s*Gamma(s, x) + x^s e^-x holds for every real order;
    # compare in scaled form against the magnitude of the ingredients so the
    # assertion stays meaningful when the two terms nearly cancel
    lhs = upper_incomplete_gamma(s + 1.0, x, scaled=True)
    t1 = s * upper_incomplete_gamma(s, x, scaled=True)
    t2 = math.pow(x, s)
    assert abs(lhs - (t1 + t2)) <= 1e-9 * (abs(t1) + abs(t2) + abs(lhs))


@given(s=st.floats(-3.0, 2.0), x=st.floats(1e-3, 50.0),
       factor=st.floats(1.5, 4.0))
def test_gamma_positive_and_decreasing_in_x(s, x, factor):
    a = upper_incomplete_gamma(s, x)
    b = upper_incomplete_gamma(s, x * factor)
    assert a > 0.0
    assert b > 0.0
    assert b < a


def _gamma_accuracy_orders():
    """Orders in [-8, 1/2) by class, drawn with a fixed seed: exact integers,
    orders within 1e-3 of one, orders whose downward ladder passes within
    2e-2 of order zero, and generic orders."""
    rng = random.Random(25)
    return {
        "integer": [float(n) for n in range(-8, 1)],
        "near-integer": [rng.randint(-8, 0) + rng.choice((-1.0, 1.0))
                         * 10.0 ** rng.uniform(-15.0, -3.0) for _ in range(10)],
        "ladder-near-zero": [rng.randint(-8, 0) + rng.choice((-1.0, 1.0))
                             * rng.uniform(1e-3, 2e-2) for _ in range(10)],
        "generic": [rng.uniform(-8.0, 0.5) for _ in range(12)],
    }


_GAMMA_ORDERS = _gamma_accuracy_orders()
# both sides of the order classes' edges: 1e-2 and 5e-2 from an integer,
# where the gamma's branch map changes, and 1e-3 and 2e-2
_GAMMA_ORDERS["class-edges"] = [
    n + sign * math.nextafter(edge, side)
    for n in (-8.0, -3.0, -1.0, 0.0) for sign in (-1.0, 1.0)
    for edge in (1e-3, 1e-2, 2e-2, 5e-2) for side in (0.0, 1.0)]
# x log-uniform in [1e-3, 50], and both sides of every branch boundary in x
_GAMMA_X = ([math.exp(random.Random(26).uniform(math.log(1e-3), math.log(50.0)))
             for _ in range(40)]
            + [x for edge in (0.3, 0.8, 2.0) for x in (math.nextafter(edge, 0.0), edge)])


@pytest.mark.parametrize("order_class", list(_GAMMA_ORDERS))
def test_gamma_scaled_matches_mpmath_within_1e13(order_class):
    # mpmath at 40 digits, an implementation independent of the one here
    mpmath.mp.dps = 40
    worst = (0.0, None)
    for s in _GAMMA_ORDERS[order_class]:
        if not -8.0 <= s < 0.5:
            continue
        for x in _GAMMA_X:
            want = mpmath.gammainc(s, x) * mpmath.exp(x)
            got = upper_incomplete_gamma(s, x, scaled=True)
            rel = float(abs((mpmath.mpf(got) - want) / want))
            worst = max(worst, (rel, (s, x)))
    assert worst[0] <= 1e-13, worst


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


def test_integrate_polynomial():
    # int_0^2 (3 t^2 + 1) dt = 10, by hand
    res = integrate(lambda t: 3.0 * t * t + 1.0, 0.0, 2.0)
    assert res.converged
    assert res.value == pytest.approx(10.0, rel=1e-12)


def test_integrate_endpoint_square_root():
    # int_0^1 sqrt(1 - t^2) dt = pi/4, a quarter disk; v_union has this
    # square-root shape as the distance approaches twice the hard-core radius
    res = integrate(lambda t: math.sqrt(1.0 - t * t), 0.0, 1.0)
    assert res.converged
    assert abs(res.value - math.pi / 4.0) <= 1e-10


def test_integrate_reports_nan_integrand():
    res = integrate(lambda t: math.nan if t > 0.5 else 1.0, 0.0, 1.0)
    assert not res.converged
    with pytest.raises(ToleranceError):
        res.require()


def test_integrate_reports_exhausted_panel_budget():
    # int_0^1 dt/t diverges, so no budget of panels converges on it
    res = integrate(lambda t: 1.0 / t, 0.0, 1.0)
    assert res.subdivisions_used == 200
    assert not res.converged
    with pytest.raises(ToleranceError):
        res.require()


def test_integrate_kink_with_breakpoint():
    # int_0^2 |t - 1| dt = 1, by hand; the breakpoint keeps panels off the kink
    res = integrate(lambda t: abs(t - 1.0), 0.0, 2.0, (1.0,))
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_integrate_empty_interval_is_zero():
    res = integrate(lambda t: 1.0 / t, 3.0, 3.0)
    assert res.value == 0.0
    assert res.converged


def test_integrate_rejects_reversed_bounds():
    with pytest.raises(ValidationError):
        integrate(lambda t: t, 2.0, 1.0)


def test_integrate_rejects_infinite_lower_bound():
    with pytest.raises(ValidationError):
        integrate(lambda t: math.exp(-t * t), -math.inf, 0.0)


def test_result_require_raises_with_achieved_error():
    bad = QuadratureResult(value=1.0, abs_error_estimate=0.5,
                           subdivisions_used=7, converged=False)
    with pytest.raises(ToleranceError) as err:
        bad.require("demo integral")
    assert err.value.achieved == 0.5
    good = QuadratureResult(value=2.0, abs_error_estimate=1e-14,
                            subdivisions_used=1, converged=True)
    assert good.require() == 2.0


def test_integrate_rejects_infinite_upper_bound():
    for bad in (math.inf, math.nan):
        with pytest.raises(ValidationError):
            integrate(lambda t: math.exp(-t), 0.0, bad)


def test_integrate_sorts_merges_and_clips_breakpoints():
    # unsorted, repeated and out-of-range breakpoints give the panels of
    # the one that lies inside
    def f(t):
        return abs(t - 1.0) + abs(t - 1.5)

    want = integrate(f, 0.0, 2.0, (1.0, 1.5))
    got = integrate(f, 0.0, 2.0, [1.5, 3.0, 1.0, 1.5, -1.0, 0.0, 2.0])
    assert got == want
    assert want.value == pytest.approx(2.25, rel=1e-12)  # 1 + 1.25, by hand


@given(coeffs=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4),
       bounds=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)))
def test_integrate_polynomials_match_antiderivative(coeffs, bounds):
    a, b = sorted(bounds)

    def poly(t: float) -> float:
        return sum(c * t ** k for k, c in enumerate(coeffs))

    def antideriv(t: float) -> float:
        return sum(c * t ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))

    res = integrate(poly, a, b)
    exact = antideriv(b) - antideriv(a)
    assert res.value == pytest.approx(exact, rel=1e-8, abs=1e-8)


GRID_LAMBDA = (0.5, 1.0, 2.0, 4.0)
GRID_DELTA = (0.25, 0.5, 1.0, 2.0)
GRID_ALPHA = (2.5, 3.0, 4.0)


def _grid_integrals(monkeypatch):
    """(f, a, b, abs_tol, result) of every integral behind the criterion-4/5
    grid: the EIR of both types and K at 1.5 and 3 hard-core distances."""
    calls = []

    def recording(f, a, b, breakpoints=(), abs_tol=1e-12):
        res = integrate(f, a, b, breakpoints, abs_tol)
        calls.append((f, a, b, abs_tol, res))
        return res

    monkeypatch.setattr(interference, "integrate", recording)
    monkeypatch.setattr(analytic, "integrate", recording)
    for lam in GRID_LAMBDA:
        for delta in GRID_DELTA:
            for alpha in GRID_ALPHA:
                for kind in (ProcessKind.MATERN_I, ProcessKind.MATERN_II):
                    params = HardCoreParams(lam, delta, kind)
                    interference.eir(params, PowerLawPathLoss(alpha))
                    for r in (1.5 * delta, 3.0 * delta):
                        analytic.k_function(params, r)
    return calls


def test_integrate_matches_quadpack_on_transition_annulus(monkeypatch):
    """Every integral behind the criterion-4/5 grid agrees with QUADPACK."""
    calls = _grid_integrals(monkeypatch)
    assert len(calls) == 288
    for f, a, b, abs_tol, res in calls:
        want = quad(f, a, b, epsabs=abs_tol, epsrel=1e-9, limit=200)[0]
        assert res.converged
        assert res.value == pytest.approx(want, rel=1e-10), (a, b)


def test_grid_integrals_panel_budget(monkeypatch):
    """The 288 grid integrals take at most 397 Gauss-Kronrod panels in all:
    a deterministic stand-in for the analytic sweep's calls per second."""
    calls = _grid_integrals(monkeypatch)
    assert len(calls) == 288
    assert sum(res.subdivisions_used for *_, res in calls) <= 397


def test_grid_h_bounds_take_the_continued_fraction_only_past_the_ladder(monkeypatch):
    """Both affine-bound lines over the criterion-4/5 grid evaluate their
    incomplete gammas by the continued fraction only from each order class's
    boundary on: x >= 2 within 1e-2 of an integer, x >= 0.8 from 5e-2 on,
    x >= 0.3 between. Below it the downward ladder is as accurate, and the
    fraction costs up to twenty times as much (it converges slowly at
    small x): a deterministic stand-in for the sweep's calls per second."""
    calls = []
    fraction = numerics._gamma_cf_scaled

    def recording(s, x):
        calls.append((s, x))
        return fraction(s, x)

    monkeypatch.setattr(numerics, "_gamma_cf_scaled", recording)
    lines = analytic.affine_v_bounds()
    for lam in GRID_LAMBDA:
        for delta in GRID_DELTA:
            for alpha in GRID_ALPHA:
                for line in lines:
                    interference.h_bound(HardCoreParams(lam, delta),
                                         PowerLawPathLoss(alpha), line)
    assert calls
    for s, x in calls:
        offset = abs(s - round(s))
        assert x >= (2.0 if offset < 1e-2 else 0.8 if offset >= 5e-2 else 0.3), (s, x)


@pytest.mark.parametrize("kind", list(ProcessKind))
@pytest.mark.parametrize("lam_p, delta, r0", [
    (2.0, 0.5, 0.0), (0.5, 2.0, 0.3), (500.0, 1.0, 0.0), (1e-6, 1.0, 1.0)])
def test_power_law_transition_integral_calls_the_loss_once(monkeypatch, kind,
                                                           lam_p, delta, r0):
    # the kernel evaluates a power law at its nodes itself; the loss is
    # called once, at delta, for the integral's tolerance scale
    calls = []
    call = PowerLawPathLoss.__call__

    def counting(self, r):
        calls.append(r)
        return call(self, r)

    monkeypatch.setattr(PowerLawPathLoss, "__call__", counting)
    params = HardCoreParams(lam_p, delta, kind)
    interference.mean_interference_inside_2delta(params, PowerLawPathLoss(3.0, r0))
    assert len(calls) <= 1


_POINT = ["--lambda-p", "2", "--delta", "2", "--alpha", "3"]
# test id -> CLI argv (None: only import the package)
_ANALYTIC_RUNS = {
    "import": None,
    "eir-matern1-quadrature": ["eir", "--process", "matern1", *_POINT,
                               "--method", "quadrature"],
    "eir-matern1-approximation": ["eir", "--process", "matern1", *_POINT,
                                  "--method", "approximation"],
    "eir-matern2-quadrature": ["eir", "--process", "matern2", *_POINT,
                               "--method", "quadrature"],
    "eir-matern2-upper-bound": ["eir", "--process", "matern2", *_POINT,
                                "--method", "upper-bound"],
    "bounds-type1": ["bounds", *_POINT],
    "bounds-type2": ["bounds", "--alpha", "3", "--type2"],
    "kfun": ["kfun", "--process", "matern2", "--lambda-p", "2",
             "--delta", "1"],
    "vunion": ["vunion", "--delta", "1", "--u", "1.5"],
    "intensity": ["intensity", "--process", "matern2", "--lambda-p", "2",
                  "--delta", "1"],
    "figure1": ["figure1", "--steps", "5"],
    "interference-quadrature": ["interference", "--process", "matern1",
                                *_POINT, "--method", "quadrature"],
}


@pytest.mark.parametrize("argv", list(_ANALYTIC_RUNS.values()),
                         ids=list(_ANALYTIC_RUNS))
def test_analytic_commands_import_neither_numpy_nor_scipy(argv):
    """The analytic core runs on the standard library: a bare package
    import and every analytic command leave numpy and scipy unloaded, and
    dataclasses and inspect, which the records do without."""
    script = (
        "import json, sys\n"
        "heavy = {'numpy', 'scipy', 'dataclasses', 'inspect'}\n"
        "import matern_interference\n"
        "print(sorted(heavy & set(sys.modules)))\n"
        "from matern_interference.cli import main\n"
        "argv = json.loads(sys.argv[1])\n"
        "code = 0 if argv is None else main(argv)\n"
        "print(code, sorted(heavy & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "0 []"
