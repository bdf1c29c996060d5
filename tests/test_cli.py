"""Command-line surface: manifest headers, row schemas, exit codes, and
byte-for-byte reproduction through the rerun subcommand."""

import hashlib
import json
import math

import pytest

from matern_interference import __version__
from matern_interference.cli import main
from matern_interference.errors import ToleranceError
from matern_interference.interference import (
    NU_TYPE2_UNIVERSAL,
    eir_type2_bound,
    mean_interference_quadrature,
)
from matern_interference.models import HardCoreParams, PowerLawPathLoss, ProcessKind


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    # past the float range of the pair correlation: invalid input
    code, _, err = run_cli(capsys, "eir", "--process", "matern1",
                           "--lambda-p", "4", "--delta", "12.1", "--alpha", "3")
    assert code == 2
    assert "overflows" in err


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
        "d88dc83fd656f111d594459302404b730c722f9a5c94dab0d2d120004d871f62",
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


def test_bounds_past_float_range_exits_2(capsys):
    code, out, err = run_cli(capsys, "bounds", "--lambda-p", "10",
                             "--delta", "8", "--alpha", "3")
    assert code == 2
    assert out == ""
    assert "overflows a float" in err
    assert "Traceback" not in err


# mpmath (scripts/make_oracles.py): figure1's type I means over lambda at
# lambda_p = 4, delta = 9, alpha = 3, lower and upper
FIGURE1_DENSE_T1_D9 = (1.1690794037867464e+154, 1.2232820669687482e+170)


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


def test_figure1_rows(capsys):
    code, out, _ = run_cli(capsys, "figure1", "--steps", "5")
    assert code == 0
    rows, fields = csv_rows(out)
    assert fields == ["delta", "poisson_hole", "matern2_upper_bound",
                      "matern1_lower", "matern1_upper"]
    assert len(rows) == 5
    for row in rows:
        lo = float(row["matern1_lower"])
        hi = float(row["matern1_upper"])
        ref = float(row["poisson_hole"])
        assert 0.0 < lo <= hi
        assert float(row["matern2_upper_bound"]) > ref


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
    _, stdout_text, _ = run_cli(capsys, "figure1", "--steps", "3")
    path = tmp_path / "fig.csv"
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
