"""Smoke runs of the scripts under ``scripts/``: each finishes with exit 0
and prints its table header. They import the library as a user would, so
a renamed or re-signed public name fails here."""

import os
import pathlib
import subprocess
import sys

import matern_interference

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    src = str(pathlib.Path(matern_interference.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def test_mc_validation_script_runs():
    proc = run_script("mc_validation.py", "--replicates", "256",
                      "--cases", "1,1,3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["kind", "lambda_p", "delta", "alpha", "mc",
                                "mean", "quad", "mean", "z", "intensity",
                                "err", "time"]
    assert [line.split()[0] for line in lines[2:4]] == ["matern1", "matern2"]
    assert lines[-1].startswith("worst |z| = ")

