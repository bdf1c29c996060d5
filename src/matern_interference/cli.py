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
from dataclasses import dataclass
from typing import Optional

from . import __version__
from .analytic import affine_v_bounds, k_derivative, k_function, v_union
from .errors import ToleranceError, ValidationError
from .interference import (
    EirMethod,
    eir,
    eir_type1_approximation,
    eir_type2_bound,
    h_bound,
    h_bound_over_tail,
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

_PROCESS_BY_FLAG = {
    "poisson": ProcessKind.POISSON_HOLE,
    "matern1": ProcessKind.MATERN_I,
    "matern2": ProcessKind.MATERN_II,
}

_EIR_METHOD_BY_FLAG = {
    "quadrature": EirMethod.QUADRATURE,
    "upper-bound": EirMethod.UPPER_BOUND,
    "approximation": EirMethod.APPROXIMATION,
}

_DB = 10.0 / math.log(10.0)


@dataclass
class RunManifest:
    """Everything needed to reproduce one output file.

    ``duration_s`` is filled for reporting but excluded from the serialized
    header: a timestamp would break the byte-for-byte reproducibility that
    the header exists to provide.
    """

    command: str
    params: dict
    seed: Optional[int]
    version: str
    duration_s: Optional[float] = None

    def header_line(self) -> str:
        payload = {
            "command": self.command,
            "params": self.params,
            "seed": self.seed,
            "version": self.version,
        }
        return "# " + json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _render(manifest: RunManifest, rows: list[dict], fieldnames: list[str],
            fmt: str) -> str:
    out = [manifest.header_line()]
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
    if process not in _PROCESS_BY_FLAG:
        raise ValidationError(f"unknown process {process!r}")
    if lambda_p is None or delta is None:
        raise ValidationError("--lambda-p and --delta are required here")
    return HardCoreParams(lambda_p=lambda_p, delta=delta,
                          kind=_PROCESS_BY_FLAG[process])


def _pathloss(alpha: float, r0: float) -> PowerLawPathLoss:
    if alpha is None:
        raise ValidationError("--alpha is required here")
    return PowerLawPathLoss(alpha=alpha, r0=r0 or 0.0)


# ---------------------------------------------------------------------------
# Command implementations: dict of parameters -> (rows, fieldnames).
# They take plain dicts (not argparse namespaces) so `rerun` can feed them
# straight from a parsed manifest.
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
    if p.get("r") is not None:
        radii = [p["r"]]
    else:
        r_max = p.get("r_max")
        if r_max is None:
            if params.delta <= 0:
                raise ValidationError(
                    "with delta = 0 there is no natural radius scale; "
                    "pass --r or --r-max")
            r_max = 4.0 * params.delta
        r_min = p.get("r_min") or 0.0
        steps = p.get("steps") or 25
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
    if p["method"] != "mc":
        raise ValidationError(f"unknown interference method {p['method']!r}")
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
    method = _EIR_METHOD_BY_FLAG.get(p["method"])
    if method is None:
        raise ValidationError(f"unknown EIR method {p['method']!r}")
    report = eir(params, pathloss, method)
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
    if p.get("type2"):
        alpha = p["alpha"]
        if alpha is None:
            raise ValidationError("--alpha is required for the type II bounds")
        sharpened = eir_type2_bound(alpha)
        rows = [
            {"quantity": "type2_universal_bound_linear", "value": NU_TYPE2_UNIVERSAL},
            {"quantity": "type2_universal_bound_db",
             "value": _DB * math.log(NU_TYPE2_UNIVERSAL)},
            {"quantity": "type2_powerlaw_bound_linear", "value": sharpened},
            {"quantity": "type2_powerlaw_bound_db",
             "value": _DB * math.log(sharpened)},
        ]
        return rows, fields
    params = _params("matern1", p["lambda_p"], p["delta"])
    pathloss = _pathloss(p["alpha"], p.get("r0") or 0.0)
    lower_on_v, upper_on_v = affine_v_bounds()
    h_low = h_bound(params, pathloss, upper_on_v)   # upper line on V -> lower bound
    h_high = h_bound(params, pathloss, lower_on_v)  # chord on V -> upper bound
    outside = interference_outside_2delta(params, pathloss)
    # the ratios to the tail are formed without lambda, which underflows
    # for a dense process while the ratios stay finite
    scale = 2.0 ** (pathloss.alpha - 2.0)
    eir_low = (h_bound_over_tail(params, pathloss, upper_on_v) + 1.0) / scale
    eir_high = (h_bound_over_tail(params, pathloss, lower_on_v) + 1.0) / scale
    approx = eir_type1_approximation(params, pathloss.alpha)
    rows = [
        {"quantity": "transition_interference_lower", "value": h_low},
        {"quantity": "transition_interference_upper", "value": h_high},
        {"quantity": "interference_beyond_2delta", "value": outside},
        {"quantity": "eir_lower_linear", "value": eir_low},
        {"quantity": "eir_lower_db", "value": _DB * math.log(eir_low)},
        {"quantity": "eir_upper_linear", "value": eir_high},
        {"quantity": "eir_upper_db", "value": _DB * math.log(eir_high)},
        {"quantity": "eir_approximation_linear", "value": approx.eir_linear},
        {"quantity": "eir_approximation_db", "value": approx.eir_db},
    ]
    return rows, fields


def _run_sample(p: dict):
    from .simulate import (
        SimulationConfig,
        replicate_rng,
        sample_palm,
        sample_parent,
        thin,
    )

    params = _params(p["process"], p["lambda_p"], p["delta"])
    if p["mode"] == "palm":
        cfg = SimulationConfig(window_radius=p["window_radius"],
                               replicates=1, seed=p["seed"])
        pattern = sample_palm(params, cfg)
    elif p["mode"] == "window":
        rng = replicate_rng(p["seed"], 0)
        parent = sample_parent(params.lambda_p, p["window_radius"], rng,
                               with_marks=params.kind is ProcessKind.MATERN_II)
        pattern = thin(parent, params)
    else:
        raise ValidationError(f"unknown sample mode {p['mode']!r}")
    rows = [{
        "x": float(x),
        "y": float(y),
        "mark": None if pattern.marks is None else float(pattern.marks[i]),
    } for i, (x, y) in enumerate(pattern.points)]
    return rows, ["x", "y", "mark"]


def _run_figure1(p: dict):
    lam_p, alpha, r0 = p["lambda_p"], p["alpha"], p["r0"]
    pathloss = _pathloss(alpha, r0)
    lo, hi, steps = p["delta_min"], p["delta_max"], p["steps"]
    if not (0 < lo <= hi) or steps < 1:
        raise ValidationError("need 0 < delta-min <= delta-max and steps >= 1")
    lower_on_v, upper_on_v = affine_v_bounds()
    type2_cap = eir_type2_bound(alpha)
    rows = []
    for i in range(steps):
        delta = lo + (hi - lo) * i / max(steps - 1, 1)
        params1 = HardCoreParams(lam_p, delta, ProcessKind.MATERN_I)
        poisson_norm = 2.0 * math.pi * pathloss.radial_integral(delta, math.inf)
        # the type I means over lambda: the tail's, times one plus the
        # lambda-free ratio of the transition bound to the tail
        beyond = 2.0 * math.pi * pathloss.radial_integral(2.0 * delta, math.inf)
        rows.append({
            "delta": delta,
            "poisson_hole": poisson_norm,
            "matern2_upper_bound": type2_cap * poisson_norm,
            "matern1_lower":
                (h_bound_over_tail(params1, pathloss, upper_on_v) + 1.0) * beyond,
            "matern1_upper":
                (h_bound_over_tail(params1, pathloss, lower_on_v) + 1.0) * beyond,
        })
    return rows, ["delta", "poisson_hole", "matern2_upper_bound",
                  "matern1_lower", "matern1_upper"]


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
    manifest = RunManifest(command=command, params=params,
                           seed=params.get("seed"), version=__version__,
                           duration_s=None)
    text = _render(manifest, rows, fieldnames, fmt)
    _write(text, out_path)
    manifest.duration_s = time.perf_counter() - t0
    print(f"{command}: {len(rows)} row(s) in {manifest.duration_s:.3f} s",
          file=sys.stderr)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_output_flags(sp) -> None:
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--out", default=None, help="output path (default stdout)")


def _add_process_flags(sp, default_process: Optional[str] = None) -> None:
    sp.add_argument("--process", choices=sorted(_PROCESS_BY_FLAG),
                    default=default_process,
                    required=default_process is None)
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
    sp.add_argument("--method",
                    choices=["quadrature", "upper-bound", "approximation"],
                    default="quadrature")
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


_PARAM_KEYS = {
    "intensity": ["process", "lambda_p", "delta", "format"],
    "vunion": ["delta", "u", "format"],
    "kfun": ["process", "lambda_p", "delta", "r", "r_min", "r_max", "steps",
             "format"],
    "interference": ["process", "lambda_p", "delta", "alpha", "r0", "method",
                     "replicates", "seed", "window_radius", "format"],
    "eir": ["process", "lambda_p", "delta", "alpha", "r0", "method", "format"],
    "bounds": ["lambda_p", "delta", "alpha", "r0", "type2", "format"],
    "sample": ["process", "lambda_p", "delta", "seed", "window_radius", "mode",
               "format"],
    "figure1": ["lambda_p", "alpha", "r0", "delta_min", "delta_max", "steps",
                "format"],
}


# parameters that only the Monte Carlo method of `interference` reads
_MC_ONLY_KEYS = ("replicates", "seed", "window_radius")


def _collect_params(args: argparse.Namespace) -> dict:
    keys = _PARAM_KEYS[args.command]
    if args.command == "interference" and args.method != "mc":
        keys = [key for key in keys if key not in _MC_ONLY_KEYS]
    params = {key: getattr(args, key) for key in keys}
    if params.get("window_radius") is None and "window_radius" in params:
        hc = _params(params["process"], params["lambda_p"], params["delta"])
        params["window_radius"] = default_window_radius(hc)
    return params


def _run_rerun(args: argparse.Namespace) -> None:
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
    _execute(command, params, params.get("format", "csv"), args.out)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "rerun":
            _run_rerun(args)
        else:
            params = _collect_params(args)
            _execute(args.command, params, params.get("format", "csv"),
                     args.out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToleranceError as exc:
        print(f"numerical tolerance failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
