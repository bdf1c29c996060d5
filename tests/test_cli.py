"""Command-line surface: manifest headers, row schemas, exit codes, and
byte-for-byte reproduction through the rerun subcommand."""

import contextlib
import hashlib
import itertools
import json
import math
import subprocess
import sys
import warnings

import pytest

from matern_interference import __version__
from matern_interference.analytic import affine_v_bounds
from matern_interference.cli import main
from matern_interference.errors import ApproximationWarning, ToleranceError
from matern_interference.interference import (
    NU_TYPE2_UNIVERSAL,
    EirMethod,
    eir,
    eir_affine_bound,
    eir_type2_bound,
    mean_interference_quadrature,
)
from matern_interference.models import HardCoreParams, PowerLawPathLoss, ProcessKind


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def approximation_warning(sparse=True):
    """Expect figure1's one ApproximationWarning for its sparse rows."""
    if not sparse:
        return contextlib.nullcontext()
    return pytest.warns(ApproximationWarning, match="inaccurate")


def csv_rows(stdout):
    lines = stdout.splitlines()
    assert lines[0].startswith("# ")
    fields = lines[1].split(",")
    return [dict(zip(fields, line.split(","))) for line in lines[2:]], fields


def test_vunion_full_output_golden(capsys):
    code, out, err = run_cli(capsys, "vunion", "--delta", "1", "--u", "0")
    assert code == 0
    want_header = ('# {"command":"vunion","params":{"delta":1.0,'
                   '"format":"csv","u":0.0},"seed":null,'
                   f'"version":"{__version__}"}}')
    assert out == want_header + "\ndelta,u,v_union\n1,0,3.14159265359\n"
    assert "1 row(s)" in err


def test_intensity_row(capsys):
    code, out, _ = run_cli(capsys, "intensity", "--process", "matern1",
                           "--lambda-p", "2", "--delta", "1")
    assert code == 0
    rows, fields = csv_rows(out)
    assert fields == ["process", "lambda_p", "delta", "intensity"]
    assert rows[0]["process"] == "matern1"
    assert float(rows[0]["intensity"]) == pytest.approx(
        2.0 * math.exp(-2.0 * math.pi), rel=1e-12)


def test_manifest_header_is_canonical_json(capsys):
    _, out, _ = run_cli(capsys, "intensity", "--process", "matern2",
                        "--lambda-p", "1.5", "--delta", "0.5")
    header = out.splitlines()[0]
    payload = json.loads(header[2:])
    assert payload["command"] == "intensity"
    assert payload["seed"] is None
    assert payload["version"] == __version__
    assert payload["params"] == {"process": "matern2", "lambda_p": 1.5,
                                 "delta": 0.5, "format": "csv"}
    assert "duration" not in header


def test_eir_approximation_row(capsys):
    code, out, _ = run_cli(capsys, "eir", "--process", "matern1",
                           "--lambda-p", "2", "--delta", "2", "--alpha", "3",
                           "--method", "approximation")
    assert code == 0
    rows, _ = csv_rows(out)
    assert float(rows[0]["eir_db"]) == pytest.approx(31.494577207710647,
                                                     rel=1e-10)
    assert float(rows[0]["eir_linear"]) == pytest.approx(1410.7748886896755,
                                                         rel=1e-10)


def test_eir_poisson_reference_is_unity(capsys):
    code, out, _ = run_cli(capsys, "eir", "--process", "poisson",
                           "--lambda-p", "2", "--delta", "1", "--alpha", "3")
    assert code == 0
    rows, _ = csv_rows(out)
    assert float(rows[0]["eir_linear"]) == 1.0
    assert float(rows[0]["eir_db"]) == 0.0


def test_bounds_type2_rows(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--type2", "--alpha", "3")
    assert code == 0
    rows, fields = csv_rows(out)
    assert fields == ["quantity", "value"]
    by_name = {r["quantity"]: float(r["value"]) for r in rows}
    assert len(by_name) == 4
    # CSV cells carry 12 significant digits, hence the 1e-11 tolerance
    assert by_name["type2_universal_bound_linear"] == pytest.approx(
        NU_TYPE2_UNIVERSAL, rel=1e-11)
    assert by_name["type2_universal_bound_db"] == pytest.approx(
        10.0 * math.log10(NU_TYPE2_UNIVERSAL), rel=1e-11)
    assert by_name["type2_powerlaw_bound_linear"] == pytest.approx(
        eir_type2_bound(3.0), rel=1e-11)
    assert by_name["type2_powerlaw_bound_db"] == pytest.approx(
        10.0 * math.log10(eir_type2_bound(3.0)), rel=1e-11)


def test_bounds_type1_rows_are_ordered_and_bracket_quadrature(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--lambda-p", "2", "--delta", "2",
                           "--alpha", "3")
    assert code == 0
    rows, _ = csv_rows(out)
    by_name = {r["quantity"]: float(r["value"]) for r in rows}
    assert len(by_name) == 9
    assert by_name["transition_interference_lower"] < \
        by_name["transition_interference_upper"]
    assert by_name["interference_beyond_2delta"] > 0.0
    assert by_name["eir_lower_db"] < by_name["eir_upper_db"]
    # the quadrature EIR lands inside the affine band
    code, out, _ = run_cli(capsys, "eir", "--process", "matern1",
                           "--lambda-p", "2", "--delta", "2", "--alpha", "3")
    quad_db = float(csv_rows(out)[0][0]["eir_db"])
    assert by_name["eir_lower_db"] <= quad_db <= by_name["eir_upper_db"]
    assert by_name["eir_approximation_db"] == pytest.approx(
        31.494577207710647, rel=1e-10)


def test_interference_quadrature_matches_library(capsys):
    code, out, _ = run_cli(capsys, "interference", "--process", "matern2",
                           "--lambda-p", "2", "--delta", "1", "--alpha", "3")
    assert code == 0
    rows, fields = csv_rows(out)
    assert fields[-1] == "mean"
    params = HardCoreParams(2.0, 1.0, ProcessKind.MATERN_II)
    want = mean_interference_quadrature(params, PowerLawPathLoss(3.0))
    assert float(rows[0]["mean"]) == pytest.approx(want, rel=1e-11)


def test_interference_quadrature_manifest_has_no_mc_parameters(tmp_path, capsys):
    point = ["interference", "--process", "matern1", "--lambda-p", "2",
             "--delta", "2", "--alpha", "3"]
    files = []
    for extra in ([], ["--seed", "5"], ["--replicates", "7", "--seed", "9",
                                         "--window-radius", "30"]):
        path = tmp_path / f"quad{len(files)}.csv"
        code, _, _ = run_cli(capsys, *point, *extra, "--out", str(path))
        assert code == 0
        files.append(path.read_bytes())
    assert files[0] == files[1] == files[2]
    payload = json.loads(files[0].decode().splitlines()[0][2:])
    assert payload["seed"] is None
    assert not {"replicates", "seed", "window_radius"} & set(payload["params"])


def test_rerun_accepts_quadrature_manifest_with_mc_parameters(tmp_path, capsys):
    # files written before the Monte Carlo keys left quadrature manifests
    old = tmp_path / "old.csv"
    header = ('# {"command":"interference","params":{"alpha":3.0,"delta":2.0,'
              '"format":"csv","lambda_p":2.0,"method":"quadrature",'
              '"process":"matern1","r0":0.0,"replicates":10000,"seed":0,'
              '"window_radius":20.0},"seed":0,"version":"'
              f'{__version__}"}}\n')
    old.write_text(header, encoding="utf-8")
    again = tmp_path / "again.csv"
    code, _, _ = run_cli(capsys, "rerun", "--manifest", str(old),
                         "--out", str(again))
    assert code == 0
    text = again.read_text(encoding="utf-8")
    assert text.startswith(header)
    params = HardCoreParams(2.0, 2.0, ProcessKind.MATERN_I)
    want = mean_interference_quadrature(params, PowerLawPathLoss(3.0))
    assert float(text.splitlines()[2].split(",")[-1]) == pytest.approx(
        want, rel=1e-11)


def test_eir_quadrature_dense_type1(capsys):
    # lambda underflows at delta = 8; the ratio is formed without it
    code, out, err = run_cli(capsys, "eir", "--process", "matern1",
                             "--lambda-p", "4", "--delta", "8", "--alpha", "3")
    assert code == 0, err
    assert math.isfinite(float(csv_rows(out)[0][0]["eir_db"]))
    # past the float range of the pair correlation and of the linear ratio
    # (lambda_p*delta^2 = 585.64) the decibels stay finite
    code, out, err = run_cli(capsys, "eir", "--process", "matern1",
                             "--lambda-p", "4", "--delta", "12.1", "--alpha", "3")
    assert code == 0, err
    row = csv_rows(out)[0][0]
    assert row["eir_linear"] == "inf"
    assert math.isfinite(float(row["eir_db"]))


def test_interference_mc_row_schema(capsys):
    code, out, _ = run_cli(capsys, "interference", "--process", "matern2",
                           "--lambda-p", "1", "--delta", "1", "--alpha", "3",
                           "--method", "mc", "--replicates", "30",
                           "--seed", "1", "--window-radius", "8")
    assert code == 0
    rows, fields = csv_rows(out)
    row = rows[0]
    assert fields[-6:] == ["mean", "std_error", "ci_low", "ci_high",
                           "replicates", "tail_correction"]
    assert int(row["replicates"]) == 30
    assert float(row["tail_correction"]) > 0.0
    assert float(row["ci_low"]) <= float(row["mean"]) <= float(row["ci_high"])


def test_kfun_grid_defaults(capsys):
    code, out, _ = run_cli(capsys, "kfun", "--process", "matern1",
                           "--lambda-p", "2", "--delta", "1")
    assert code == 0
    rows, fields = csv_rows(out)
    assert fields == ["r", "k_function", "k_derivative"]
    assert len(rows) == 25
    assert float(rows[0]["r"]) == 0.0
    assert float(rows[-1]["r"]) == 4.0   # 4*delta
    assert float(rows[0]["k_function"]) == 0.0


def test_kfun_single_radius(capsys):
    code, out, _ = run_cli(capsys, "kfun", "--process", "poisson",
                           "--lambda-p", "1", "--delta", "1", "--r", "2")
    assert code == 0
    rows, _ = csv_rows(out)
    assert len(rows) == 1
    assert float(rows[0]["k_function"]) == pytest.approx(3.0 * math.pi,
                                                         rel=1e-12)


def test_kfun_delta_zero_needs_explicit_scale(capsys):
    code, _, err = run_cli(capsys, "kfun", "--process", "matern1",
                           "--lambda-p", "2", "--delta", "0")
    assert code == 2
    assert "error:" in err
    code, out, _ = run_cli(capsys, "kfun", "--process", "matern1",
                           "--lambda-p", "2", "--delta", "0", "--r-max", "2",
                           "--steps", "3")
    assert code == 0
    rows, _ = csv_rows(out)
    assert [float(r["r"]) for r in rows] == [0.0, 1.0, 2.0]


def test_kfun_zero_steps_exits_2(capsys):
    # like figure1, a grid of no radii is invalid input, not the default 25
    code, out, err = run_cli(capsys, "kfun", "--process", "matern2",
                             "--lambda-p", "2", "--delta", "1", "--steps", "0")
    assert code == 2
    assert out == ""
    assert "steps >= 1" in err


def test_kfun_dense_type1_exits_2(capsys):
    # K'(r) peaks at exp(600*(2*pi/3 - sqrt(3)/2)), past the float range
    code, out, err = run_cli(capsys, "kfun", "--process", "matern1",
                             "--lambda-p", "600", "--delta", "1", "--r", "1.5")
    assert code == 2
    assert out == ""
    assert "overflows a float" in err
    assert "Traceback" not in err


def test_sample_palm_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "sample", "--process", "matern2",
                           "--lambda-p", "1.5", "--delta", "0.8",
                           "--window-radius", "6", "--seed", "3")
    assert code == 0
    rows, fields = csv_rows(out)
    assert fields == ["x", "y", "mark"]
    assert len(rows) > 0
    for row in rows:
        assert math.hypot(float(row["x"]), float(row["y"])) <= 6.0
        assert 0.0 <= float(row["mark"]) < 1.0


def test_sample_type1_marks_column_is_empty(capsys):
    code, out, _ = run_cli(capsys, "sample", "--process", "matern1",
                           "--lambda-p", "1.5", "--delta", "0.8",
                           "--window-radius", "6", "--seed", "3")
    assert code == 0
    rows, _ = csv_rows(out)
    assert len(rows) > 0
    assert all(row["mark"] == "" for row in rows)


def test_sample_window_mode_respects_hard_core(capsys):
    code, out, _ = run_cli(capsys, "sample", "--process", "matern1",
                           "--lambda-p", "2", "--delta", "0.5",
                           "--window-radius", "5", "--mode", "window",
                           "--seed", "4")
    assert code == 0
    rows, _ = csv_rows(out)
    pts = [(float(r["x"]), float(r["y"])) for r in rows]
    assert len(pts) > 1
    closest = min(math.dist(a, b) for i, a in enumerate(pts)
                  for b in pts[i + 1:])
    assert closest >= 0.5


def test_sample_window_mode_takes_a_window_below_three_delta(capsys):
    # one windowed pattern needs no margin of 3*delta; Palm mode does
    argv = ["sample", "--process", "matern2", "--lambda-p", "2", "--delta", "1",
            "--window-radius", "2", "--seed", "1"]
    code, out, err = run_cli(capsys, *argv, "--mode", "window")
    assert code == 0, err
    rows, _ = csv_rows(out)
    assert len(rows) > 0
    assert all(math.hypot(float(r["x"]), float(r["y"])) <= 2.0 for r in rows)
    code, out, err = run_cli(capsys, *argv, "--mode", "palm")
    assert code == 2
    assert "3*delta" in err


@pytest.mark.parametrize("mode", ["palm", "window"])
@pytest.mark.parametrize("flag, value, reason", [
    ("--seed", "-1", "seed"),
    ("--seed", str(2**64), "seed"),
    ("--window-radius", "0", "window_radius"),
])
def test_sample_modes_validate_alike(mode, flag, value, reason, capsys):
    # both modes build one SimulationConfig; window mode used to crash on a
    # negative seed and print an empty pattern for a zero window
    code, out, err = run_cli(capsys, "sample", "--process", "matern2",
                             "--lambda-p", "1", "--delta", "0.5",
                             "--mode", mode, flag, value)
    assert code == 2
    assert out == ""
    assert reason in err
    assert "Traceback" not in err


# sha256 of the full stdout, manifest line included, of `sample` at
# lambda_p = 1.5, delta = 0.8, window radius 6 and seed 3. They pin the
# Palm sampler's coordinates and marks and the window-mode thinning, which
# the ensemble digests in test_simulate do not see. Recorded with NumPy 2.4
# on x86-64.
SAMPLE_DIGESTS = {
    ("matern1", "palm"):
        "02f1299bc2cc5532926fae7dfa19d4778ba906d76ee783e6cc91a7145a1592d2",
    ("matern1", "window"):
        "73aeb16969eed689536449541b504711f62ba6120a0f87f86e7a31d1d78c9b72",
    ("matern2", "palm"):
        "86be83934ca660f62d2afd900e46baa740341ad03cf5734128b92bb8450f8da0",
    ("matern2", "window"):
        "a6efa43e4ed584b002690eca11f33cc722d689f21040946fc80536d0c2b003bd",
    ("poisson", "palm"):
        "f9c398b8e995a488841de10b84b2c5f11406578f84dc054150a57375661f6b34",
    ("poisson", "window"):
        "403a2134f70164b95f8eaa689cb8ab3fff047fd77b15699df6f696286ab698e0",
}


@pytest.mark.parametrize("process, mode", list(SAMPLE_DIGESTS))
def test_sample_output_golden(process, mode, capsys):
    code, out, err = run_cli(capsys, "sample", "--process", process,
                             "--mode", mode, "--lambda-p", "1.5",
                             "--delta", "0.8", "--window-radius", "6",
                             "--seed", "3")
    assert code == 0, err
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == SAMPLE_DIGESTS[process, mode]


# sha256 of the full stdout, manifest line included, of the analytic
# commands at lambda_p = 2, delta = 1, alpha = 3 (delta = 2 for the type I
# approximation). They pin the printed K-function, K'(r), transition
# quadrature and EIR values of each process kind. Recorded on x86-64.
ANALYTIC_DIGESTS = {
    "eir-matern1-quadrature":
        "e1a71e4c8f9bd5309546b81548e6fa7f0146f39e78f8f82bfc73b40e3c5e2cb9",
    "eir-matern1-approximation":
        "59b330eaeefa647f0fad9f6cc6774ff4b8cca198be588cd7884d71637045ae7c",
    "eir-matern2-quadrature":
        "fb2173f750cb3f4a34db5350a0bd54a34084320850d6d4bf03ce80bff5276deb",
    "eir-matern2-upper-bound":
        "b18425355656f757f33e89e67156af9cb17e0984b33c73d2dd36f6cee58eb778",
    "kfun-matern1-csv":
        "1ee2bb5cbbded1bdc1332744d4a02b2a5d242737e3337b85dd5fbdd2c540e2b9",
    "kfun-matern1-json":
        "cca0d5d6defaae3cc0ad4de982ac75cc4113fc09e8e7e49fd88481818f792cbd",
    "kfun-matern2-csv":
        "ecc04cf56e2f70bfcd1ccb60c2b41753e97c4c6d3ee203be88b79a687e0d7455",
    "kfun-matern2-json":
        "3e9fbaa7beca51babd1c8ad7fe297f60b252d0545bb2ca36c450d0c1945ff1c3",
    "interference-matern1-quadrature":
        "db9e3933d9e7c3c31b701b649d412e56cde9a634882981317d63cb6dfc7490c8",
    "interference-matern2-quadrature":
        "49e4a9ebe86ced4eaa5bb03c5866c8043b0bde81ae9f942a878bb890aae3890b",
}


def analytic_argv(case):
    command, process, *rest = case.split("-", 2)
    argv = [command, "--process", process, "--lambda-p", "2", "--delta", "1"]
    if command == "kfun":
        return argv + ["--format", rest[0]]
    if rest[0] == "approximation":
        argv[-1] = "2"
    return argv + ["--alpha", "3", "--method", rest[0]]


@pytest.mark.parametrize("case", list(ANALYTIC_DIGESTS))
def test_analytic_output_golden(case, capsys):
    code, out, err = run_cli(capsys, *analytic_argv(case))
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == ANALYTIC_DIGESTS[case]


# mpmath (scripts/make_oracles.py): the affine-bound type I EIR at
# delta = 8, alpha = 3, where lambda is subnormal (lambda_p = 3.7) or zero
# (3.8), as (linear, dB) for the lower and the upper bound
BOUNDS_DENSE_T1_D8_A3 = {
    3.7: ((1.3906934425758794e+112, 1121.4323140686441),
          (7.244520580654017e+123, 1238.6000965052967)),
    3.8: ((1.6988341679409652e+115, 1152.3015098718972),
          (1.8312181166835613e+127, 1272.6274007626805)),
}


@pytest.mark.parametrize("lam_p", sorted(BOUNDS_DENSE_T1_D8_A3))
def test_bounds_dense_type1_matches_oracle(lam_p, capsys):
    code, out, err = run_cli(capsys, "bounds", "--lambda-p", str(lam_p),
                             "--delta", "8", "--alpha", "3")
    assert code == 0, err
    rows, _ = csv_rows(out)
    by_name = {r["quantity"]: float(r["value"]) for r in rows}
    assert all(math.isfinite(v) for v in by_name.values())
    (low, low_db), (high, high_db) = BOUNDS_DENSE_T1_D8_A3[lam_p]
    assert by_name["eir_lower_linear"] == pytest.approx(low, rel=1e-11)
    assert by_name["eir_lower_db"] == pytest.approx(low_db, rel=1e-11)
    assert by_name["eir_upper_linear"] == pytest.approx(high, rel=1e-11)
    assert by_name["eir_upper_db"] == pytest.approx(high_db, rel=1e-11)


# mpmath (scripts/make_oracles.py): type I means at lambda_p = 3.7,
# delta = 8, alpha = 3, where lambda itself is subnormal
SUBNORMAL_T1_D8_A3 = {"interference_beyond_2delta": 1.1965780172954003e-323,
                      "mean_poisson_hole": 2.3931560345908006e-323}


def test_subnormal_type1_means_are_the_nearest_double(capsys):
    code, out, err = run_cli(capsys, "bounds", "--lambda-p", "3.7",
                             "--delta", "8", "--alpha", "3")
    assert code == 0, err
    rows, _ = csv_rows(out)
    by_name = {r["quantity"]: float(r["value"]) for r in rows}
    want = SUBNORMAL_T1_D8_A3["interference_beyond_2delta"]
    assert by_name["interference_beyond_2delta"] == float(want)  # 1e-323
    code, out, err = run_cli(capsys, "eir", "--process", "matern1",
                             "--lambda-p", "3.7", "--delta", "8",
                             "--alpha", "3")
    assert code == 0, err
    rows, _ = csv_rows(out)
    want = SUBNORMAL_T1_D8_A3["mean_poisson_hole"]
    assert float(rows[0]["mean_poisson_hole"]) == float(want)  # 2.5e-323


def test_sparse_type2_rows_keep_lambda(capsys):
    # at lambda_p = 1e-300 the type II lambda is lambda_p to rounding
    # (mpmath: 1e-300 * (1 - 1.6e-300)), and both means are
    # 2*pi*lambda/(alpha - 2), as for type I; lambda_p * (1 - e^-x)
    # underflowed, and both rows printed 0
    argv = ["--process", "matern2", "--lambda-p", "1e-300", "--delta", "1"]
    code, out, err = run_cli(capsys, "intensity", *argv)
    assert code == 0, err
    assert csv_rows(out)[0][0]["intensity"] == "1e-300"
    code, out, err = run_cli(capsys, "eir", *argv, "--alpha", "3")
    assert code == 0, err
    row = csv_rows(out)[0][0]
    assert row["mean_hardcore"] == row["mean_poisson_hole"] == "6.28318530718e-300"
    assert row["eir_linear"] == "1"


# mpmath (scripts/make_oracles.py, affine_eir_db): the affine-bound type I
# EIR in dB at lambda_p = 10, delta = 8, alpha = 3, lower and upper, where
# the upper one overflows a float
BOUNDS_DENSE_T1_D8_A3_L10_DB = (3069.142164058503, 3385.268652536311)


def test_bounds_past_the_linear_float_range_match_oracle(capsys):
    # JSON, whose values keep every bit
    code, out, err = run_cli(capsys, "bounds", "--lambda-p", "10",
                             "--delta", "8", "--alpha", "3", "--format", "json")
    assert code == 0, err
    by_name = {r["quantity"]: r["value"] for r in json.loads(out.split("\n", 1)[1])}
    low_db, high_db = BOUNDS_DENSE_T1_D8_A3_L10_DB
    assert by_name["eir_lower_db"] == pytest.approx(low_db, rel=1e-12)
    assert by_name["eir_upper_db"] == pytest.approx(high_db, rel=1e-12)
    assert by_name["eir_upper_linear"] == math.inf


def test_bounds_past_the_closed_form_float_range_exits_2(capsys):
    # e^x Gamma(-2, x) at x = 1e150*b underflows, so the scaled closed form
    # of the transition integral is no float
    code, out, err = run_cli(capsys, "bounds", "--lambda-p", "1e150",
                             "--delta", "1", "--alpha", "4")
    assert code == 2
    assert out == ""
    assert "float range" in err
    assert "Traceback" not in err


def test_bounds_at_huge_density_finishes_without_a_traceback(capsys):
    # h_bound's incomplete gammas are taken at x = 7.86e301 here, where
    # their continued fraction used to stall (exit 3)
    code, out, err = run_cli(capsys, "bounds", "--lambda-p", "1e300",
                             "--delta", "8", "--alpha", "3")
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert err.startswith("error: ")


# mpmath (scripts/make_oracles.py): figure1's type I means over lambda at
# lambda_p = 4, delta = 9, alpha = 3, lower and upper, and by quadrature
FIGURE1_DENSE_T1_D9 = (1.1690794037867464e+154, 1.2232820669687482e+170)
FIGURE1_DENSE_T1_D9_QUADRATURE = 8.6932360541118748e+169


def test_figure1_dense_type1_is_finite(capsys):
    code, out, err = run_cli(capsys, "figure1", "--lambda-p", "4",
                             "--delta-min", "7", "--delta-max", "9")
    assert code == 0, err
    rows, _ = csv_rows(out)
    assert len(rows) == 20
    assert all(math.isfinite(float(v)) for row in rows for v in row.values())
    assert float(rows[-1]["delta"]) == 9.0
    assert float(rows[-1]["matern1_lower"]) == pytest.approx(
        FIGURE1_DENSE_T1_D9[0], rel=1e-11)
    assert float(rows[-1]["matern1_upper"]) == pytest.approx(
        FIGURE1_DENSE_T1_D9[1], rel=1e-11)


def test_figure1_dense_type1_quadrature_matches_oracle(capsys):
    code, out, err = run_cli(capsys, "figure1", "--lambda-p", "4",
                             "--delta-min", "9", "--delta-max", "9", "--steps", "1",
                             "--format", "json")
    assert code == 0, err
    (row,) = json.loads(out.split("\n", 1)[1])
    assert row["matern1_quadrature"] == pytest.approx(
        FIGURE1_DENSE_T1_D9_QUADRATURE, rel=1e-11)


def test_figure1_rows(capsys):
    with approximation_warning():
        code, out, _ = run_cli(capsys, "figure1", "--steps", "5")
    assert code == 0
    rows, fields = csv_rows(out)
    assert fields == ["delta", "poisson_hole", "matern2_upper_bound",
                      "matern1_lower", "matern1_upper", "matern1_quadrature",
                      "matern2_quadrature", "matern1_approximation"]
    assert len(rows) == 5
    for row in rows:
        lo = float(row["matern1_lower"])
        hi = float(row["matern1_upper"])
        ref = float(row["poisson_hole"])
        assert 0.0 < lo <= float(row["matern1_quadrature"]) <= hi
        assert float(row["matern2_upper_bound"]) > ref
        assert float(row["matern2_quadrature"]) <= float(row["matern2_upper_bound"])


@pytest.mark.parametrize("argv, sparse", [
    pytest.param(["--steps", "20"], True, id="argv0"),
    pytest.param(["--lambda-p", "4", "--delta-min", "7", "--delta-max", "9"],
                 False, id="argv1"),
    pytest.param(["--lambda-p", "1.5", "--alpha", "4", "--r0", "0.05",
                  "--steps", "4"], True, id="argv2"),
])
def test_figure1_curves_are_the_poisson_hole_times_each_eir(argv, sparse, tmp_path,
                                                            capsys):
    # JSON keeps every bit, so each curve is compared with its product exactly
    path = tmp_path / "fig.json"
    with approximation_warning(sparse):
        code, out, err = run_cli(capsys, "figure1", *argv, "--format", "json",
                                 "--out", str(path))
    assert code == 0, err
    text = path.read_text(encoding="utf-8")
    header = json.loads(text.split("\n", 1)[0][2:])
    rows = json.loads(text.split("\n", 1)[1])
    p = header["params"]
    pathloss = PowerLawPathLoss(p["alpha"], p["r0"])
    lower_on_v, upper_on_v = affine_v_bounds()
    for row in rows:
        assert all(math.isfinite(v) for v in row.values()), row
        ref, delta = row["poisson_hole"], row["delta"]
        params1 = HardCoreParams(p["lambda_p"], delta, ProcessKind.MATERN_I)
        params2 = HardCoreParams(p["lambda_p"], delta, ProcessKind.MATERN_II)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            approx = eir(params1, pathloss, EirMethod.APPROXIMATION)
        assert row["matern1_lower"] == (
            ref * eir_affine_bound(params1, pathloss, upper_on_v).eir_linear)
        assert row["matern1_upper"] == (
            ref * eir_affine_bound(params1, pathloss, lower_on_v).eir_linear)
        assert row["matern1_quadrature"] == ref * eir(params1, pathloss).eir_linear
        assert row["matern2_quadrature"] == ref * eir(params2, pathloss).eir_linear
        assert row["matern1_approximation"] == ref * approx.eir_linear
    again = tmp_path / "again.json"
    with approximation_warning(sparse):
        code = run_cli(capsys, "rerun", "--manifest", str(path), "--out",
                       str(again))[0]
    assert code == 0
    assert again.read_bytes() == path.read_bytes()


def test_figure1_sparse_approximation_warns_on_stderr_only():
    # in a child, where the warning takes its default route; lambda_p*delta^2
    # runs from 0.02 to 8 over the rows, and the approximation warns once
    # for the 14 rows at or below 4
    proc = subprocess.run([sys.executable, "-m", "matern_interference.cli",
                           "figure1", "--steps", "20"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "EIR approximation is inaccurate" not in proc.stdout
    assert proc.stderr.count("EIR approximation is inaccurate") == 1
    assert "(got 0.02 to 3.92 in 14 of 20 rows)" in proc.stderr
    rows, _ = csv_rows(proc.stdout)
    assert len(rows) == 20


def test_figure1_exits_2_where_a_curve_leaves_the_float_range(capsys):
    # the bands are finite here, but the sparse approximation's EIR of about
    # 1/(lambda_p*b*delta^2) times the Poisson-hole mean overflows
    code, out, err = run_cli(capsys, "figure1", "--lambda-p", "1e-300",
                             "--delta-min", "1e-3", "--delta-max", "1e-3",
                             "--steps", "1", "--alpha", "2.5")
    assert code == 2
    assert out == ""
    assert "matern1_approximation" in err and "float range" in err


def test_json_format_mirrors_csv(capsys):
    _, out_csv, _ = run_cli(capsys, "bounds", "--type2", "--alpha", "4")
    _, out_json, _ = run_cli(capsys, "bounds", "--type2", "--alpha", "4",
                             "--format", "json")
    lines = out_json.splitlines()
    assert lines[0].startswith("# ")
    data = json.loads("\n".join(lines[1:]))
    rows_csv, _ = csv_rows(out_csv)
    assert [d["quantity"] for d in data] == [r["quantity"] for r in rows_csv]
    for d, r in zip(data, rows_csv):
        # JSON keeps full precision; the CSV cell is truncated to 12 digits
        assert d["value"] == pytest.approx(float(r["value"]), rel=1e-11)


def test_out_file_matches_stdout(tmp_path, capsys):
    with approximation_warning():
        _, stdout_text, _ = run_cli(capsys, "figure1", "--steps", "3")
    path = tmp_path / "fig.csv"
    with approximation_warning():
        code, out, _ = run_cli(capsys, "figure1", "--steps", "3",
                               "--out", str(path))
    assert code == 0
    assert out == ""  # everything went to the file
    assert path.read_text(encoding="utf-8") == stdout_text


def test_rerun_reproduces_byte_identical_output(tmp_path, capsys):
    first = tmp_path / "mc.csv"
    code, _, _ = run_cli(capsys, "interference", "--process", "matern1",
                         "--lambda-p", "1", "--delta", "1", "--alpha", "3",
                         "--method", "mc", "--replicates", "25", "--seed", "7",
                         "--window-radius", "8", "--out", str(first))
    assert code == 0
    second = tmp_path / "mc2.csv"
    code, _, _ = run_cli(capsys, "rerun", "--manifest", str(first),
                         "--out", str(second))
    assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_rerun_reproduces_json_output(tmp_path, capsys):
    first = tmp_path / "k.json"
    run_cli(capsys, "kfun", "--process", "matern2", "--lambda-p", "2",
            "--delta", "1", "--steps", "7", "--format", "json",
            "--out", str(first))
    second = tmp_path / "k2.json"
    code, _, _ = run_cli(capsys, "rerun", "--manifest", str(first),
                         "--out", str(second))
    assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_rerun_rejects_file_without_manifest(tmp_path, capsys):
    bad = tmp_path / "plain.csv"
    bad.write_text("r,k\n1,2\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "rerun", "--manifest", str(bad))
    assert code == 2
    assert "error:" in err


def test_rerun_rejects_unknown_command(tmp_path, capsys):
    bad = tmp_path / "odd.csv"
    bad.write_text('# {"command":"nope","params":{}}\n', encoding="utf-8")
    code, _, err = run_cli(capsys, "rerun", "--manifest", str(bad))
    assert code == 2
    assert "unknown command" in err


def test_rerun_rejects_manifest_missing_params(tmp_path, capsys):
    bad = tmp_path / "short.csv"
    bad.write_text('# {"command":"eir","params":{"process":"matern1"}}\n',
                   encoding="utf-8")
    code, out, err = run_cli(capsys, "rerun", "--manifest", str(bad))
    assert code == 2
    assert out == ""
    assert "missing ['alpha', 'delta', 'format', 'lambda_p', 'method', 'r0']" in err


def test_rerun_rejects_manifest_with_a_string_for_a_number(tmp_path, capsys):
    good = tmp_path / "eir.csv"
    code, _, _ = run_cli(capsys, "eir", "--process", "matern1", "--lambda-p", "2",
                         "--delta", "2", "--alpha", "3", "--out", str(good))
    assert code == 0
    header = good.read_text(encoding="utf-8").splitlines()[0]
    assert '"lambda_p":2.0' in header
    bad = tmp_path / "bad.csv"
    bad.write_text(header.replace('"lambda_p":2.0', '"lambda_p":"2"') + "\n",
                   encoding="utf-8")
    code, out, err = run_cli(capsys, "rerun", "--manifest", str(bad))
    assert code == 2
    assert out == ""
    assert "lambda_p='2'" in err


@pytest.mark.parametrize("argv, reason", [
    (["bounds", "--alpha", "3"], "--lambda-p and --delta are required"),
    (["figure1", "--delta-min", "0"], "need 0 < delta-min"),
])
def test_refused_sweeps_exit_2(argv, reason, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert reason in err
    assert "Traceback" not in err


@pytest.mark.parametrize("line, reason", [
    ("# {not json", "malformed manifest line"),
    ('# {"command":"eir","params":[1, 2]}', "params must be a JSON object"),
])
def test_rerun_rejects_a_malformed_manifest(line, reason, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(line + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "rerun", "--manifest", str(bad))
    assert code == 2
    assert out == ""
    assert reason in err


def test_mc_interference_of_one_replicate_reports_no_error(capsys):
    # one replicate gives no spread to estimate: std_error is 0 and the
    # interval is the mean itself
    code, out, err = run_cli(capsys, "interference", "--process", "matern1",
                             "--lambda-p", "1", "--delta", "1", "--alpha", "3",
                             "--method", "mc", "--replicates", "1")
    assert code == 0, err
    (row,), _ = csv_rows(out)
    assert row["replicates"] == "1"
    assert float(row["std_error"]) == 0.0
    assert row["ci_low"] == row["mean"] == row["ci_high"]
    assert float(row["mean"]) > float(row["tail_correction"]) > 0.0


def test_validation_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "intensity", "--process", "matern1",
                           "--lambda-p", "-2", "--delta", "1")
    assert code == 2
    assert "error:" in err
    # cutoff beyond the hard-core distance
    code, _, err = run_cli(capsys, "eir", "--process", "matern1",
                           "--lambda-p", "2", "--delta", "1", "--alpha", "3",
                           "--r0", "1.5")
    assert code == 2


def test_method_kind_mismatch_exits_2(capsys):
    code, _, err = run_cli(capsys, "eir", "--process", "matern2",
                           "--lambda-p", "2", "--delta", "1", "--alpha", "3",
                           "--method", "approximation")
    assert code == 2
    assert "error:" in err


def test_tolerance_error_exits_3(monkeypatch, capsys):
    from matern_interference import cli as cli_module

    def explode(_):
        raise ToleranceError("integral did not converge")

    monkeypatch.setitem(cli_module._RUNNERS, "vunion", explode)
    code, _, err = run_cli(capsys, "vunion", "--delta", "1", "--u", "1")
    assert code == 3
    assert "tolerance" in err


# Parameters whose products leave the float range. Each runs in a child
# process that limits its own address space and is given a timeout, so a
# regression (a knot loop that never ends, a list that grows without bound)
# fails here instead of hanging or exhausting the suite.
_A3 = ["--alpha", "3"]
_A6 = ["--alpha", "6"]
_FLOAT_RANGE_PROBES = {
    # lambda_p*pi*delta^2 overflows
    "eir-matern1-1e300-1e10": (2, ["eir", "--process", "matern1", "--lambda-p",
                                   "1e300", "--delta", "1e10", *_A3]),
    "eir-matern1-1e300-1e5": (2, ["eir", "--process", "matern1", "--lambda-p",
                                  "1e300", "--delta", "1e5", *_A3]),
    "intensity-matern2-1e300-1e10": (2, ["intensity", "--process", "matern2",
                                         "--lambda-p", "1e300", "--delta", "1e10"]),
    # 2*pi*delta^2 overflows
    "eir-matern1-1e-300-1e200": (2, ["eir", "--process", "matern1", "--lambda-p",
                                     "1e-300", "--delta", "1e200", *_A3]),
    # the path loss at delta overflows, and lambda_p*delta^2 underflows
    "eir-matern1-1e-200-1e-200": (2, ["eir", "--process", "matern1", "--lambda-p",
                                      "1e-200", "--delta", "1e-200", *_A3]),
    "interference-matern1-1e-200-1e-200": (2, [
        "interference", "--process", "matern1", "--lambda-p", "1e-200",
        "--delta", "1e-200", *_A3, "--method", "quadrature"]),
    # the path loss underflows at delta, but lambda_p*delta^2 = 1
    "eir-matern1-1e-200-1e100-a4": (0, ["eir", "--process", "matern1", "--lambda-p",
                                        "1e-200", "--delta", "1e100", "--alpha", "4"]),
    # (lambda/lambda_p)^2 underflows and lambda_p^2*pi*delta^2 overflows
    "eir-matern2-1e170-1": (0, ["eir", "--process", "matern2", "--lambda-p",
                                "1e170", "--delta", "1", *_A3]),
    "eir-matern2-1e300-1": (0, ["eir", "--process", "matern2", "--lambda-p",
                                "1e300", "--delta", "1", *_A3]),
    "kfun-matern2-1e170-1": (0, ["kfun", "--process", "matern2", "--lambda-p",
                                 "1e170", "--delta", "1"]),
    # delta^(2 - alpha) = 1e400 overflows, and with it the means, but not
    # the ratios at lambda_p*delta^2 = 0.1
    "eir-matern1-1e199-1e-100-a6": (0, ["eir", "--process", "matern1", "--lambda-p",
                                        "1e199", "--delta", "1e-100", *_A6]),
    "eir-matern1-1e199-1e-100-a6-approximation": (0, [
        "eir", "--process", "matern1", "--lambda-p", "1e199", "--delta", "1e-100",
        *_A6, "--method", "approximation"]),
    "eir-matern2-1e199-1e-100-a6": (0, ["eir", "--process", "matern2", "--lambda-p",
                                        "1e199", "--delta", "1e-100", *_A6]),
    "eir-matern2-1e199-1e-100-a6-upper-bound": (0, [
        "eir", "--process", "matern2", "--lambda-p", "1e199", "--delta", "1e-100",
        *_A6, "--method", "upper-bound"]),
    "bounds-1e199-1e-100-a6": (0, ["bounds", "--lambda-p", "1e199", "--delta",
                                   "1e-100", *_A6]),
    # (lambda_p*b*delta)^(alpha - 2) overflows
    "bounds-1e30-1e30-a8": (2, ["bounds", "--lambda-p", "1e30", "--delta", "1e30",
                                "--alpha", "8"]),
    "figure1-1e199-1e-100-a6": (2, ["figure1", "--lambda-p", "1e199", "--delta-min",
                                    "1e-100", "--delta-max", "1e-100", "--steps", "1",
                                    *_A6]),
    # r0^-alpha = 1e600, the flat part of the path loss at delta = 0
    "interference-matern1-1-0-r0-1e-100-a6": (2, [
        "interference", "--process", "matern1", "--lambda-p", "1", "--delta", "0",
        *_A6, "--r0", "1e-100", "--method", "quadrature"]),
    # lambda_p*delta^2 underflows: the approximation's lambda_p*b*delta^2
    "bounds-1e-300-1e-30": (2, ["bounds", "--lambda-p", "1e-300", "--delta", "1e-30",
                                *_A3]),
    "figure1-1e-300-1e-30": (2, ["figure1", "--lambda-p", "1e-300", "--delta-min",
                                 "1e-30", "--delta-max", "1e-30", "--steps", "1",
                                 *_A3]),
    # and the EIR is 1 to rounding, while the means keep lambda
    "eir-matern1-1e-300-1e-30": (0, ["eir", "--process", "matern1", "--lambda-p",
                                     "1e-300", "--delta", "1e-30", *_A3]),
    # one lambda_p*delta^2, 1e30 or 1e100, split between lambda_p and delta
    **{f"eir-matern1-{lam_p}-{delta}": (0, ["eir", "--process", "matern1", "--lambda-p",
                                            lam_p, "--delta", delta, *_A3])
       for lam_p, delta in (("1e30", "1"), ("1e-30", "1e30"), ("1", "1e15"),
                            ("1e-50", "1e50"), ("1e100", "1"), ("1e-100", "1e100"))},
    # the sparse affine bounds, where e^x Gamma(2 - alpha, x) overflows alone
    "bounds-1e-60-1-a8": (0, ["bounds", "--lambda-p", "1e-60", "--delta", "1",
                              "--alpha", "8"]),
    "figure1-1e-60-1-a8": (0, ["figure1", "--lambda-p", "1e-60", "--delta-min", "1",
                               "--delta-max", "1", "--steps", "1", "--alpha", "8"]),
}
# what a probe's error names
_FLOAT_RANGE_REASONS = {
    "bounds-1e-300-1e-30": ("lambda_p*b*delta^2 = ", "normal float range"),
    "figure1-1e-300-1e-30": ("lambda_p*b*delta^2 = ", "normal float range"),
}
# exit-0 probes whose means may be 0 or inf: for a power law each prints the
# decibels of its lambda_p*delta^2 at delta = 1, bit for bit
_FLOAT_RANGE_AT_UNIT_DELTA = {
    "eir-matern1-1e-200-1e100-a4", "eir-matern1-1e199-1e-100-a6",
    "eir-matern1-1e199-1e-100-a6-approximation", "eir-matern2-1e199-1e-100-a6",
    "eir-matern2-1e199-1e-100-a6-upper-bound", "bounds-1e199-1e-100-a6",
    "eir-matern1-1e30-1", "eir-matern1-1e-30-1e30", "eir-matern1-1-1e15",
    "eir-matern1-1e-50-1e50", "eir-matern1-1e100-1", "eir-matern1-1e-100-1e100",
}

_LIMIT_ADDRESS_SPACE = (
    "import json, resource, sys\n"
    "limit = 2 << 30\n"
    "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
    "from matern_interference.cli import main\n"
)
_LIMITED_CHILD = _LIMIT_ADDRESS_SPACE + "sys.exit(main(json.loads(sys.argv[1])))\n"


def _at_unit_delta(argv):
    """argv with --lambda-p fl(lambda_p*delta*delta) and --delta 1."""
    argv = list(argv)
    lam_p, delta = argv.index("--lambda-p") + 1, argv.index("--delta") + 1
    c = float(argv[lam_p]) * float(argv[delta]) * float(argv[delta])
    argv[lam_p], argv[delta] = repr(c), "1"
    return argv


def _decibels(rows):
    """The eir_db column of `eir`, or the *_db rows of `bounds`."""
    if "quantity" in rows[0]:
        return {r["quantity"]: r["value"] for r in rows if r["quantity"].endswith("_db")}
    return [r["eir_db"] for r in rows]


@pytest.mark.parametrize("case", list(_FLOAT_RANGE_PROBES))
def test_float_range_probe_exits_cleanly(case, capsys):
    code, argv = _FLOAT_RANGE_PROBES[case]
    proc = subprocess.run([sys.executable, "-c", _LIMITED_CHILD, json.dumps(argv)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 2:
        assert proc.stdout == ""
        assert "error: " in proc.stderr
        for reason in _FLOAT_RANGE_REASONS.get(case, ()):
            assert reason in proc.stderr, proc.stderr
        return
    rows, _ = csv_rows(proc.stdout)
    assert rows
    numbers = [float(v) for row in rows for k, v in row.items()
               if k not in ("process", "method", "quantity")]
    if case not in _FLOAT_RANGE_AT_UNIT_DELTA:
        assert all(math.isfinite(v) for v in numbers), rows
        return
    assert not any(math.isnan(v) for v in numbers), rows
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        unit_code, unit_out, _ = run_cli(capsys, *_at_unit_delta(argv))
    assert unit_code == 0
    assert _decibels(rows) == _decibels(csv_rows(unit_out)[0])


# mpmath (scripts/make_oracles.py): the `bounds` rows at lambda_p = 1e-60,
# delta = 1, alpha = 8, where e^x Gamma(-6, x) overflows alone at x ~ 1e-60
BOUNDS_SPARSE_1E60_A8 = {
    "transition_interference_lower": 1.0308350894591509e-60,
    "transition_interference_upper": 1.0308350894591509e-60,
    "interference_beyond_2delta": 1.636246173744684e-62,
    "eir_lower_linear": 1.0, "eir_lower_db": 0.0,
    "eir_upper_linear": 1.0, "eir_upper_db": 0.0,
    "eir_approximation_linear": 2.9027671527108651e+62,
    "eir_approximation_db": 624.62812200024384,
}


def test_sparse_bounds_match_oracle(capsys):
    with pytest.warns(UserWarning, match="inaccurate"):
        code, out, err = run_cli(capsys, "bounds", "--lambda-p", "1e-60", "--delta", "1",
                                 "--alpha", "8")
    assert code == 0, err
    rows, _ = csv_rows(out)
    got = {r["quantity"]: float(r["value"]) for r in rows}
    assert got == pytest.approx(BOUNDS_SPARSE_1E60_A8, rel=1e-11)


def test_eir_where_lambda_p_delta_squared_underflows(capsys):
    # lambda_p*delta^2 = 1e-360: Poisson to rounding, and the means keep lambda
    code, out, err = run_cli(capsys, "eir", "--process", "matern1", "--lambda-p",
                             "1e-300", "--delta", "1e-30", "--alpha", "3")
    assert code == 0, err
    (row,), _ = csv_rows(out)
    assert (row["eir_linear"], row["eir_db"]) == ("1", "0")
    assert row["mean_hardcore"] == row["mean_poisson_hole"] == "6.28318530718e-270"


# Every analytic command over a grid of parameters from 1e-300 to 1e300,
# run in one limited child: each run exits 0 or 2 (a named reason), never 1
# with a traceback, and prints no nan below its manifest line.
_GRID_VALUES = ["1e-300", "1e-30", "1", "1e30", "1e300"]
_GRID_KINDS = ["matern1", "matern2", "poisson"]
_GRID_CHILD = _LIMIT_ADDRESS_SPACE + (
    "import contextlib, io, traceback, warnings\n"
    "warnings.simplefilter('ignore')\n"
    "failures = []\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    out, err = io.StringIO(), io.StringIO()\n"
    "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
    "        try:\n"
    "            code = main(argv)\n"
    "        except Exception:\n"
    "            code, err = 1, io.StringIO(traceback.format_exc())\n"
    "    rows = out.getvalue().split('\\n', 1)[-1]\n"
    "    if code not in (0, 2) or 'Traceback' in err.getvalue():\n"
    "        failures.append([argv, code, err.getvalue()])\n"
    "    elif 'nan' in rows:\n"
    "        failures.append([argv, code, 'nan in the rows: ' + rows])\n"
    "print(json.dumps(failures))\n"
)


def _grid_argvs():
    argvs = []
    for lam_p, delta in itertools.product(_GRID_VALUES, _GRID_VALUES):
        point = ["--lambda-p", lam_p, "--delta", delta]
        for alpha in ("2.5", "8"):
            argvs.append(["bounds", *point, "--alpha", alpha])
            for kind in _GRID_KINDS:
                for method in ("quadrature", "upper-bound", "approximation"):
                    argvs.append(["eir", "--process", kind, *point, "--alpha", alpha,
                                  "--method", method])
                argvs.append(["interference", "--process", kind, *point,
                              "--alpha", alpha, "--method", "quadrature"])
            argvs.append(["figure1", "--lambda-p", lam_p, "--delta-min", delta,
                          "--delta-max", delta, "--steps", "1", "--alpha", alpha])
        for kind in _GRID_KINDS:
            argvs.append(["kfun", "--process", kind, *point])
            argvs.append(["intensity", "--process", kind, *point])
    return argvs


def test_float_range_grid_exits_cleanly():
    argvs = _grid_argvs()
    assert len(argvs) == 850
    proc = subprocess.run([sys.executable, "-c", _GRID_CHILD, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    failures = json.loads(proc.stdout)
    assert not failures, "\n".join(f"{' '.join(argv)}: exit {code}\n{err}"
                                    for argv, code, err in failures[:5])
