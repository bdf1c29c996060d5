"""Sweep the hard-core distance and tabulate the excess interference ratio.

For each delta on a grid this prints (and optionally saves as CSV) the
type I quadrature EIR together with its affine-bound band and closed-form
approximation, and the type II quadrature EIR with its universal and
power-law caps, all in decibels.

Run:
    python3 scripts/figure_sweep.py
    python3 scripts/figure_sweep.py --lambda-p 2 --alpha 3 --steps 30 \
        --delta-min 0.2 --delta-max 2.0 --out sweep.csv
"""

import argparse
import csv
import math
import sys
import warnings

from matern_interference.analytic import affine_v_bounds
from matern_interference.interference import (
    _LOG10_E10,
    eir,
    eir_type2_bound,
    eir_type1_approximation,
    h_bound_over_tail,
)
from matern_interference.models import HardCoreParams, PowerLawPathLoss, ProcessKind

FIELDS = ["delta", "type1_db", "type1_lower_db", "type1_upper_db",
          "type1_approx_db", "type2_db", "type2_cap_db"]


def db(x: float) -> float:
    return _LOG10_E10 * math.log(x)


def sweep_row(lambda_p: float, delta: float, alpha: float) -> dict:
    pathloss = PowerLawPathLoss(alpha)
    params1 = HardCoreParams(lambda_p, delta, ProcessKind.MATERN_I)
    params2 = HardCoreParams(lambda_p, delta, ProcessKind.MATERN_II)
    lower_on_v, upper_on_v = affine_v_bounds()
    scale = 2.0 ** (alpha - 2.0)
    eir_low = (h_bound_over_tail(params1, pathloss, upper_on_v) + 1.0) / scale
    eir_high = (h_bound_over_tail(params1, pathloss, lower_on_v) + 1.0) / scale
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the approximation warns when sparse
        approx = eir_type1_approximation(params1, alpha)
    return {
        "delta": delta,
        "type1_db": eir(params1, pathloss).eir_db,
        "type1_lower_db": db(eir_low),
        "type1_upper_db": db(eir_high),
        "type1_approx_db": approx.eir_db,
        "type2_db": eir(params2, pathloss).eir_db,
        "type2_cap_db": db(eir_type2_bound(alpha)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lambda-p", dest="lambda_p", type=float, default=2.0)
    ap.add_argument("--alpha", type=float, default=3.0)
    ap.add_argument("--delta-min", dest="delta_min", type=float, default=0.1)
    ap.add_argument("--delta-max", dest="delta_max", type=float, default=2.0)
    ap.add_argument("--steps", type=int, default=20)
    ap.add_argument("--out", default=None, help="optional CSV output path")
    args = ap.parse_args(argv)
    if not (0 < args.delta_min <= args.delta_max) or args.steps < 1:
        ap.error("need 0 < delta-min <= delta-max and steps >= 1")

    rows = []
    for i in range(args.steps):
        delta = args.delta_min + (args.delta_max - args.delta_min) * i / max(
            args.steps - 1, 1)
        rows.append(sweep_row(args.lambda_p, delta, args.alpha))

    print("  ".join(f"{name:>15s}" for name in FIELDS))
    for row in rows:
        print("  ".join(f"{row[name]:15.6g}" for name in FIELDS))

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=FIELDS)
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
