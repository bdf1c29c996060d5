"""Monte Carlo cross-validation of the analytic mean interference.

For each requested (lambda_p, delta, alpha) case and both thinning types
this runs a Palm-conditioned simulation, compares the estimated mean
against adaptive quadrature of the exact pair correlation, and reports the
z-score along with the empirical intensity error. With default settings
every |z| should stay within a couple of units and the intensity errors
well under one percent.

Run:
    python3 scripts/mc_validation.py --replicates 20000
    python3 scripts/mc_validation.py --cases "1,1,3;2,0.5,3" --seed 5
"""

import argparse
import sys
import time

from matern_interference.interference import mean_interference_quadrature
from matern_interference.models import (
    HardCoreParams,
    PowerLawPathLoss,
    ProcessKind,
    intensity,
)
from matern_interference.simulate import (
    SimulationConfig,
    default_window_radius,
    intensity_estimate_from_ensemble,
    interference_estimate_from_ensemble,
    run_palm_ensemble,
)

DEFAULT_CASES = "1,1,3;2,0.5,3;2,1,4"


def parse_cases(text: str) -> list[tuple[float, float, float]]:
    cases = []
    for chunk in text.split(";"):
        parts = [float(v) for v in chunk.split(",")]
        if len(parts) != 3:
            raise ValueError(f"case {chunk!r} is not lambda_p,delta,alpha")
        cases.append(tuple(parts))
    return cases


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", default=DEFAULT_CASES,
                    help="semicolon list of lambda_p,delta,alpha triples")
    ap.add_argument("--replicates", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--window-radius", dest="window_radius", type=float,
                    default=None, help="override the default window")
    args = ap.parse_args(argv)

    header = (f"{'kind':8s} {'lambda_p':>8s} {'delta':>6s} {'alpha':>6s} "
              f"{'mc mean':>12s} {'quad mean':>12s} {'z':>7s} "
              f"{'intensity err':>14s} {'time':>7s}")
    print(header)
    print("-" * len(header))
    worst_z = 0.0
    for lam, delta, alpha in parse_cases(args.cases):
        for kind in (ProcessKind.MATERN_I, ProcessKind.MATERN_II):
            params = HardCoreParams(lam, delta, kind)
            pathloss = PowerLawPathLoss(alpha)
            window = args.window_radius or default_window_radius(params)
            cfg = SimulationConfig(window_radius=window,
                                   replicates=args.replicates, seed=args.seed)
            t0 = time.perf_counter()
            ens = run_palm_ensemble(params, cfg)
            est = interference_estimate_from_ensemble(ens, params, pathloss)
            lam_hat, _ = intensity_estimate_from_ensemble(ens)
            elapsed = time.perf_counter() - t0
            want = mean_interference_quadrature(params, pathloss)
            z = (est.mean - want) / est.std_error if est.std_error else 0.0
            worst_z = max(worst_z, abs(z))
            lam_rel = abs(lam_hat - intensity(params)) / intensity(params)
            print(f"{kind.value:8s} {lam:8.3g} {delta:6.3g} {alpha:6.3g} "
                  f"{est.mean:12.6g} {want:12.6g} {z:+7.2f} "
                  f"{100 * lam_rel:13.4f}% {elapsed:6.1f}s")
    print(f"\nworst |z| = {worst_z:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
