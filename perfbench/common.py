"""Inputs, paths and the set-up step shared by the benchmark and its set-up probe.

Only the standard library is imported at module level, so that a set-up
timing starts before numpy, scipy or the package is loaded.
"""

from __future__ import annotations

import base64
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Both cores stay with the closed loop: no BLAS or OpenMP pool may
# oversubscribe them, in this process or in a CLI child.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}

# workload -> the Palm windows it runs: the acceptance-test ones, or
# default_window_radius
WORKLOADS = {"palm-gate": "gate", "palm-default": "default"}

# The six criterion-6 parameter sets: (name, process, lambda_p, delta,
# alpha, window of the acceptance test).
PALM_CASES = (
    ("I-1-1-a3", "matern1", 1.0, 1.0, 3.0, 7.0),
    ("II-1-1-a3", "matern2", 1.0, 1.0, 3.0, 7.0),
    ("I-2-.5-a3", "matern1", 2.0, 0.5, 3.0, 4.0),
    ("II-2-.5-a3", "matern2", 2.0, 0.5, 3.0, 4.0),
    ("I-2-1-a4", "matern1", 2.0, 1.0, 4.0, 7.0),
    ("II-2-1-a4", "matern2", 2.0, 1.0, 4.0, 5.0),
)

# The headline CLI point: type I, lambda_p = 2, delta = 2, alpha = 3.
CLI_POINT = ("matern1", 2.0, 2.0, 3.0)
CLI_METHODS = ("approximation", "quadrature")


def pin_threads() -> None:
    """Pin the thread pools of this process (and its children) to one
    thread, and put the checkout's sources first on the import path."""
    os.environ.update(THREAD_PINS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment of every child interpreter: pinned threads and the
    checkout's sources first on the import path."""
    env = dict(os.environ, **THREAD_PINS)
    parts = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


class Launcher:
    """Handle on the launcher process (launcher.py) that runs every child.

    Create it before importing numpy, while this process is still small.
    """

    def __init__(self):
        OUT.mkdir(parents=True, exist_ok=True)
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, cwd=ROOT, env=child_env(), text=True)

    def run(self, argv, timeout: float = 60.0):
        """(wall seconds, exit code, stdout, stderr, peak RSS in KiB) of one
        child, run in the checkout."""
        self._proc.stdin.write(json.dumps({"argv": argv, "timeout": timeout}) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        reply = json.loads(line)
        return (reply["wall_s"], reply["code"], base64.b64decode(reply["stdout"]),
                base64.b64decode(reply["stderr"]), reply["maxrss_kib"])

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait(timeout=60)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def palm_inputs(case):
    """(params, pathloss, gate window) of one PALM_CASES entry."""
    from matern_interference.models import HardCoreParams, PowerLawPathLoss, ProcessKind

    _, process, lam, delta, alpha, window = case
    kind = ProcessKind.MATERN_I if process == "matern1" else ProcessKind.MATERN_II
    return HardCoreParams(lam, delta, kind), PowerLawPathLoss(alpha), window


def palm_references() -> dict:
    """Quadrature mean interference and closed-form intensity per case."""
    from matern_interference import interference
    from matern_interference.models import intensity

    refs = {}
    for case in PALM_CASES:
        params, pathloss, _ = palm_inputs(case)
        refs[case[0]] = (interference.mean_interference_quadrature(params, pathloss),
                         intensity(params))
    return refs


def cli_references() -> dict:
    """In-process eir_db of the CLI point per method, as the CLI prints it
    (12 significant digits)."""
    from matern_interference import interference
    from matern_interference.models import HardCoreParams, PowerLawPathLoss, ProcessKind

    _, lam, delta, alpha = CLI_POINT
    params = HardCoreParams(lam, delta, ProcessKind.MATERN_I)
    pathloss = PowerLawPathLoss(alpha)
    return {method: f"{interference.eir(params, pathloss, interference.EirMethod(method)).eir_db:.12g}"
            for method in CLI_METHODS}


def set_up():
    """Imports plus every lazy first-call cost the timed loops would
    otherwise pay: the package and its CLI, scipy.integrate (first
    quadrature), scipy.spatial (first ensemble) and the reference values.

    Returns (seconds, palm references, CLI references).
    """
    t0 = time.perf_counter()
    pin_threads()
    import matern_interference.cli  # noqa: F401  (the CLI's import graph)
    from matern_interference import simulate

    refs = palm_references()
    params, _, window = palm_inputs(PALM_CASES[0])
    simulate.run_palm_ensemble(
        params, simulate.SimulationConfig(window_radius=window, replicates=1, seed=0))
    cli_refs = cli_references()
    return time.perf_counter() - t0, refs, cli_refs
