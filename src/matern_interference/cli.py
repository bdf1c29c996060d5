"""Command-line surface.

Every command emits rows (CSV by default, JSON mirror with --format json)
preceded by one comment line carrying a JSON run manifest: the command
name, the full parameter set, the seed, and the library version. Re-running
from that manifest (the `rerun` subcommand) reproduces the output file
byte for byte, so the wall-clock duration is deliberately NOT part of the
serialized manifest; it is reported on stderr instead.

Decibel values appear only here (and in the eir_db field of EirReport);
everything the library computes is linear.

Only `interference --method mc` and `sample` need the simulator, so only
they import `simulate` (and with it numpy and scipy); every other command
runs on the standard library alone, so its cold start skips numpy's import.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from typing import Optional

from . import __version__
from .analytic import affine_v_bounds, k_derivative, k_function, v_union
from .errors import ApproximationWarning, ToleranceError, ValidationError
from .interference import (
    _LOG10_E10,
    _SPARSE_APPROXIMATION,
    _warn_sparse_approximation,
    EirMethod,
    eir,
    eir_affine_bound,
    eir_type2_bound,
    h_bound,
    interference_outside_2delta,
    mean_interference_quadrature,
    NU_TYPE2_UNIVERSAL,
)
from .models import (
    HardCoreParams,
    PowerLawPathLoss,
    ProcessKind,
    default_window_radius,
    intensity,
)


def _manifest_line(command: str, params: dict) -> str:
    """The header that reproduces an output file, byte for byte: no time."""
    payload = {"command": command, "params": params,
               "seed": params.get("seed"), "version": __version__}
    return "# " + json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _render(manifest: str, rows: list[dict], fieldnames: list[str],
            fmt: str) -> str:
    out = [manifest]
    if fmt == "csv":
        out.append(",".join(fieldnames))
        for row in rows:
            out.append(",".join(_fmt_cell(row.get(name)) for name in fieldnames))
    else:
        out.append(json.dumps(rows, indent=2))
    return "\n".join(out) + "\n"


def _write(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _params(process: str, lambda_p: float, delta: float) -> HardCoreParams:
    if lambda_p is None or delta is None:
        raise ValidationError("--lambda-p and --delta are required here")
    return HardCoreParams(lambda_p=lambda_p, delta=delta,
                          kind=ProcessKind(process))


def _pathloss(alpha: float, r0: float) -> PowerLawPathLoss:
    return PowerLawPathLoss(alpha=alpha, r0=r0 or 0.0)


# ---------------------------------------------------------------------------
# Command implementations: dict of parameters -> (rows, fieldnames).
# They take plain dicts (not argparse namespaces) so `rerun` can feed them
# straight from a parsed manifest, once _check_manifest_params has held it
# to the command's own flags.
# ---------------------------------------------------------------------------


def _run_intensity(p: dict):
    params = _params(p["process"], p["lambda_p"], p["delta"])
    rows = [{
        "process": p["process"],
        "lambda_p": p["lambda_p"],
        "delta": p["delta"],
        "intensity": intensity(params),
    }]
    return rows, ["process", "lambda_p", "delta", "intensity"]


def _run_vunion(p: dict):
    rows = [{
        "delta": p["delta"],
        "u": p["u"],
        "v_union": v_union(p["delta"], p["u"]),
    }]
    return rows, ["delta", "u", "v_union"]


def _run_kfun(p: dict):
    params = _params(p["process"], p["lambda_p"], p["delta"])
    if p["r"] is not None:
        radii = [p["r"]]
    else:
        r_max = p["r_max"]
        if r_max is None:
            if params.delta <= 0:
                raise ValidationError(
                    "with delta = 0 there is no natural radius scale; "
                    "pass --r or --r-max")
            r_max = 4.0 * params.delta
        r_min, steps = p["r_min"], p["steps"]
        if steps < 1 or r_max < r_min:
            raise ValidationError("need steps >= 1 and r-max >= r-min")
        radii = [r_min + (r_max - r_min) * i / max(steps - 1, 1)
                 for i in range(steps)]
    rows = [{
        "r": r,
        "k_function": k_function(params, r),
        "k_derivative": k_derivative(params, r),
    } for r in radii]
    return rows, ["r", "k_function", "k_derivative"]


def _run_interference(p: dict):
    params = _params(p["process"], p["lambda_p"], p["delta"])
    pathloss = _pathloss(p["alpha"], p["r0"])
    base = {
        "process": p["process"],
        "lambda_p": p["lambda_p"],
        "delta": p["delta"],
        "alpha": p["alpha"],
        "r0": p["r0"],
        "method": p["method"],
    }
    if p["method"] == "quadrature":
        row = dict(base, mean=mean_interference_quadrature(params, pathloss))
        fields = list(base) + ["mean"]
        return [row], fields
    from .simulate import SimulationConfig, estimate_mean_interference

    cfg = SimulationConfig(
        window_radius=p["window_radius"],
        replicates=p["replicates"],
        seed=p["seed"],
    )
    est = estimate_mean_interference(params, pathloss, cfg)
    row = dict(
        base,
        mean=est.mean,
        std_error=est.std_error,
        ci_low=est.ci_low,
        ci_high=est.ci_high,
        replicates=est.replicates,
        tail_correction=est.tail_correction,
    )
    fields = list(base) + ["mean", "std_error", "ci_low", "ci_high",
                           "replicates", "tail_correction"]
    return [row], fields


def _run_eir(p: dict):
    params = _params(p["process"], p["lambda_p"], p["delta"])
    pathloss = _pathloss(p["alpha"], p["r0"])
    report = eir(params, pathloss, EirMethod(p["method"]))
    rows = [{
        "process": p["process"],
        "lambda_p": p["lambda_p"],
        "delta": p["delta"],
        "alpha": p["alpha"],
        "r0": p["r0"],
        "method": p["method"],
        "mean_hardcore": report.mean_hardcore,
        "mean_poisson_hole": report.mean_poisson_hole,
        "eir_linear": report.eir_linear,
        "eir_db": report.eir_db,
    }]
    return rows, ["process", "lambda_p", "delta", "alpha", "r0", "method",
                  "mean_hardcore", "mean_poisson_hole", "eir_linear", "eir_db"]


def _run_bounds(p: dict):
    fields = ["quantity", "value"]
    if p["type2"]:
        sharpened = eir_type2_bound(p["alpha"])
        rows = [
            {"quantity": "type2_universal_bound_linear", "value": NU_TYPE2_UNIVERSAL},
            {"quantity": "type2_universal_bound_db",
             "value": _LOG10_E10 * math.log(NU_TYPE2_UNIVERSAL)},
            {"quantity": "type2_powerlaw_bound_linear", "value": sharpened},
            {"quantity": "type2_powerlaw_bound_db",
             "value": _LOG10_E10 * math.log(sharpened)},
        ]
        return rows, fields
    params = _params("matern1", p["lambda_p"], p["delta"])
    pathloss = _pathloss(p["alpha"], p["r0"])
    lower_on_v, upper_on_v = affine_v_bounds()
    h_low = h_bound(params, pathloss, upper_on_v)   # upper line on V -> lower bound
    h_high = h_bound(params, pathloss, lower_on_v)  # chord on V -> upper bound
    outside = interference_outside_2delta(params, pathloss)
    low = eir_affine_bound(params, pathloss, upper_on_v)
    high = eir_affine_bound(params, pathloss, lower_on_v)
    approx = eir(params, pathloss, EirMethod.APPROXIMATION)
    rows = [
        {"quantity": "transition_interference_lower", "value": h_low},
        {"quantity": "transition_interference_upper", "value": h_high},
        {"quantity": "interference_beyond_2delta", "value": outside},
        {"quantity": "eir_lower_linear", "value": low.eir_linear},
        {"quantity": "eir_lower_db", "value": low.eir_db},
        {"quantity": "eir_upper_linear", "value": high.eir_linear},
        {"quantity": "eir_upper_db", "value": high.eir_db},
        {"quantity": "eir_approximation_linear", "value": approx.eir_linear},
        {"quantity": "eir_approximation_db", "value": approx.eir_db},
    ]
    return rows, fields


def _run_sample(p: dict):
    from .simulate import SimulationConfig, sample_palm, sample_window

    params = _params(p["process"], p["lambda_p"], p["delta"])
    cfg = SimulationConfig(p["window_radius"], 1, p["seed"])
    sample = sample_palm if p["mode"] == "palm" else sample_window
    pattern = sample(params, cfg)
    rows = [{
        "x": float(x),
        "y": float(y),
        "mark": None if pattern.marks is None else float(pattern.marks[i]),
    } for i, (x, y) in enumerate(pattern.points)]
    return rows, ["x", "y", "mark"]


def _times_eir(poisson_norm: float, eir_linear: float, name: str,
               delta: float) -> float:
    """A figure1 curve: the Poisson-hole mean over lambda times an EIR,
    which is the process' own mean over lambda."""
    value = poisson_norm * eir_linear
    if not math.isfinite(value):
        raise ValidationError(f"{name} = poisson_hole * EIR leaves the float "
                              f"range at delta = {delta:g}")
    return value


def _run_figure1(p: dict):
    lam_p, alpha, r0 = p["lambda_p"], p["alpha"], p["r0"]
    pathloss = _pathloss(alpha, r0)
    lo, hi, steps = p["delta_min"], p["delta_max"], p["steps"]
    if not (0 < lo <= hi) or steps < 1:
        raise ValidationError("need 0 < delta-min <= delta-max and steps >= 1")
    lower_on_v, upper_on_v = affine_v_bounds()
    type2_cap = eir_type2_bound(alpha)
    rows = []
    sparse = []  # lambda_p*delta^2 of the rows where the approximation warns
    for i in range(steps):
        delta = lo + (hi - lo) * i / max(steps - 1, 1)
        params1 = HardCoreParams(lam_p, delta, ProcessKind.MATERN_I)
        params2 = HardCoreParams(lam_p, delta, ProcessKind.MATERN_II)
        poisson_norm = 2.0 * math.pi * pathloss.radial_integral(delta, math.inf)
        low, high = (eir_affine_bound(params1, pathloss, line).eir_linear
                     for line in (upper_on_v, lower_on_v))
        row = {
            "delta": delta,
            "poisson_hole": poisson_norm,
            "matern2_upper_bound": type2_cap * poisson_norm,
            "matern1_lower": _times_eir(poisson_norm, low, "matern1_lower", delta),
            "matern1_upper": _times_eir(poisson_norm, high, "matern1_upper", delta),
            "matern1_quadrature": _times_eir(
                poisson_norm, eir(params1, pathloss).eir_linear,
                "matern1_quadrature", delta),
            "matern2_quadrature": _times_eir(
                poisson_norm, eir(params2, pathloss).eir_linear,
                "matern2_quadrature", delta),
        }
        # one warning for the sweep, after it, instead of one per row
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ApproximationWarning)
            approx = eir(params1, pathloss, EirMethod.APPROXIMATION)
        if lam_p * delta * delta <= _SPARSE_APPROXIMATION:
            sparse.append(lam_p * delta * delta)
        row["matern1_approximation"] = _times_eir(
            poisson_norm, approx.eir_linear, "matern1_approximation", delta)
        rows.append(row)
    if sparse:
        _warn_sparse_approximation(f"{min(sparse):g} to {max(sparse):g} in "
                                   f"{len(sparse)} of {steps} rows")
    return rows, ["delta", "poisson_hole", "matern2_upper_bound",
                  "matern1_lower", "matern1_upper", "matern1_quadrature",
                  "matern2_quadrature", "matern1_approximation"]


_RUNNERS = {
    "intensity": _run_intensity,
    "vunion": _run_vunion,
    "kfun": _run_kfun,
    "interference": _run_interference,
    "eir": _run_eir,
    "bounds": _run_bounds,
    "sample": _run_sample,
    "figure1": _run_figure1,
}


def _execute(command: str, params: dict, fmt: str, out_path: Optional[str]) -> None:
    t0 = time.perf_counter()
    rows, fieldnames = _RUNNERS[command](params)
    _write(_render(_manifest_line(command, params), rows, fieldnames, fmt), out_path)
    print(f"{command}: {len(rows)} row(s) in {time.perf_counter() - t0:.3f} s",
          file=sys.stderr)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_output_flags(sp) -> None:
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--out", default=None, help="output path (default stdout)")


def _add_process_flags(sp) -> None:
    sp.add_argument("--process", choices=sorted(k.value for k in ProcessKind),
                    required=True)
    sp.add_argument("--lambda-p", dest="lambda_p", type=float, required=True)
    sp.add_argument("--delta", type=float, required=True)


def _add_pathloss_flags(sp) -> None:
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--r0", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matern-interference",
        description="Mean interference at the typical node of hard-core "
                    "transmitter processes: closed forms, bounds, and "
                    "Palm-conditioned Monte Carlo.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("intensity", help="intensity of the thinned process")
    _add_process_flags(sp)
    _add_output_flags(sp)

    sp = sub.add_parser("vunion", help="two-disk union area")
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--u", type=float, required=True)
    _add_output_flags(sp)

    sp = sub.add_parser("kfun", help="K-function and its derivative")
    _add_process_flags(sp)
    sp.add_argument("--r", type=float, default=None,
                    help="single radius (otherwise a grid is swept)")
    sp.add_argument("--r-min", dest="r_min", type=float, default=0.0)
    sp.add_argument("--r-max", dest="r_max", type=float, default=None,
                    help="grid end (default 4*delta)")
    sp.add_argument("--steps", type=int, default=25)
    _add_output_flags(sp)

    sp = sub.add_parser("interference",
                        help="mean interference, analytic or Monte Carlo")
    _add_process_flags(sp)
    _add_pathloss_flags(sp)
    sp.add_argument("--method", choices=["quadrature", "mc"],
                    default="quadrature")
    sp.add_argument("--replicates", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--window-radius", dest="window_radius", type=float,
                    default=None, help="simulation window (default "
                    "max(10*delta, 20/sqrt(lambda_p)))")
    _add_output_flags(sp)

    sp = sub.add_parser("eir", help="excess interference ratio")
    _add_process_flags(sp)
    _add_pathloss_flags(sp)
    sp.add_argument("--method", choices=[m.value for m in EirMethod],
                    default=EirMethod.QUADRATURE.value)
    _add_output_flags(sp)

    sp = sub.add_parser("bounds",
                        help="closed-form interference bounds and constants")
    sp.add_argument("--lambda-p", dest="lambda_p", type=float, default=None)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--r0", type=float, default=0.0)
    sp.add_argument("--type2", action="store_true",
                    help="print the type II caps instead of the type I bounds")
    _add_output_flags(sp)

    sp = sub.add_parser("sample", help="export one sampled point pattern")
    _add_process_flags(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--window-radius", dest="window_radius", type=float,
                    default=None)
    sp.add_argument("--mode", choices=["palm", "window"], default="palm")
    _add_output_flags(sp)

    sp = sub.add_parser("figure1",
                        help="sweep delta and emit normalized interference "
                             "curves for all processes")
    sp.add_argument("--lambda-p", dest="lambda_p", type=float, default=2.0)
    sp.add_argument("--alpha", type=float, default=3.0)
    sp.add_argument("--r0", type=float, default=0.0)
    sp.add_argument("--delta-min", dest="delta_min", type=float, default=0.1)
    sp.add_argument("--delta-max", dest="delta_max", type=float, default=2.0)
    sp.add_argument("--steps", type=int, default=20)
    _add_output_flags(sp)

    sp = sub.add_parser("rerun",
                        help="re-execute a command from an output file's "
                             "manifest line, reproducing it byte for byte")
    sp.add_argument("--manifest", required=True,
                    help="path to a previously produced output file")
    sp.add_argument("--out", default=None)

    return parser


# parameters that only the Monte Carlo method of `interference` reads
_MC_ONLY_KEYS = ("replicates", "seed", "window_radius")


def _collect_params(args: argparse.Namespace) -> dict:
    """The manifest's params: every parsed option but the command and the
    output path, without the Monte Carlo ones when nothing samples."""
    skip = {"command", "out"}
    if args.command == "interference" and args.method != "mc":
        skip.update(_MC_ONLY_KEYS)
    params = {key: value for key, value in vars(args).items() if key not in skip}
    if params.get("window_radius") is None and "window_radius" in params:
        hc = _params(params["process"], params["lambda_p"], params["delta"])
        params["window_radius"] = default_window_radius(hc)
    return params


def _check_manifest_params(parser: argparse.ArgumentParser, command: str,
                           params) -> None:
    """Hold a manifest's params to the flags of its command: the keys
    ``_collect_params`` records, each value of the type its flag parses to
    and among its choices. A non-Monte Carlo ``interference`` manifest may
    still carry the Monte Carlo keys, as files written before they left it
    do."""
    if not isinstance(params, dict):
        raise ValidationError("manifest params must be a JSON object")
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a for a in subparsers.choices[command]._actions
             if a.dest not in ("help", "out")}
    optional = set()
    if command == "interference" and params.get("method") != "mc":
        optional.update(_MC_ONLY_KEYS)
    missing = sorted(set(flags) - optional - set(params))
    unknown = sorted(set(params) - set(flags))
    if missing or unknown:
        raise ValidationError(f"manifest params of {command!r}: missing "
                              f"{missing}, unknown {unknown}")
    for key, value in params.items():
        flag = flags[key]
        if value is None and flag.default is None and not flag.required:
            continue
        if flag.choices is not None:
            valid = value in flag.choices
        else:
            want = flag.type or type(flag.default)
            valid = type(value) is want or (want is float and type(value) is int)
        if not valid:
            raise ValidationError(
                f"manifest param {key}={value!r} is not a valid value of "
                f"{flag.option_strings[0]}")


def _run_rerun(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    with open(args.manifest, "r", encoding="utf-8") as fh:
        first = fh.readline()
    if not first.startswith("# "):
        raise ValidationError(
            f"{args.manifest} does not start with a manifest comment line")
    try:
        payload = json.loads(first[2:])
        command = payload["command"]
        params = payload["params"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValidationError(f"malformed manifest line: {exc}") from exc
    if command not in _RUNNERS:
        raise ValidationError(f"manifest names unknown command {command!r}")
    _check_manifest_params(parser, command, params)
    _execute(command, params, params["format"], args.out)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "rerun":
            _run_rerun(args, parser)
        else:
            params = _collect_params(args)
            _execute(args.command, params, params["format"], args.out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToleranceError as exc:
        print(f"numerical tolerance failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
