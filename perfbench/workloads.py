"""The benchmark's operations, their checks, digests and timings.

Three kinds of operation, one client, closed loop:

* a Palm round: the six criterion-6 cases, each a fixed number of
  replicates through run_palm_ensemble and both estimators, the
  high-variance case in several chunks (see Sizes.chunks);
* an analytic sweep: the criterion-4/5 grid through eir (quadrature, both
  types), both h_bound lines, the type I approximation where
  lambda_p*delta^2 > 4, and k_function at two radii for both types;
* a cold CLI pair: fresh interpreters running `eir --method approximation`
  and then `eir --method quadrature` at the headline point.

A workload repeats Palm rounds at its windows for the run's seconds and
spreads a fixed number of analytic sweeps and cold CLI pairs evenly over
the same time, because every end-to-end metric is reported on every
workload. Import only after set-up has run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from common import (BENCH_DIR, CLI_METHODS, CLI_POINT, OUT, PALM_CASES, WORKLOADS,
                    palm_inputs, palm_references)
from matern_interference import analytic, interference, simulate
from matern_interference.models import HardCoreParams, PowerLawPathLoss, ProcessKind

# Two-sided normal tail of 1e-7 per check, 2e-7 per case with the intensity
# check: far below the 1e-4 per case allowed, so that a few thousand case
# checks over all runs of a correct sampler stay clear of false alarms.
Z_LIMIT = 5.326723886384496
Z95 = 1.959963984540054
CI_HALF_WIDTH = 0.01  # time_to_ci_s target: 1 % of the quadrature mean

ANALYTIC_GRID = tuple((lam, delta, alpha)
                      for lam in (0.5, 1.0, 2.0, 4.0)
                      for delta in (0.25, 0.5, 1.0, 2.0)
                      for alpha in (2.5, 3.0, 4.0))
K_RADII = (1.5, 3.0)  # k_function radii, in units of delta

CLI_ARGS = ("eir", "--process", CLI_POINT[0], "--lambda-p", str(CLI_POINT[1]),
            "--delta", str(CLI_POINT[2]), "--alpha", str(CLI_POINT[3]), "--method")
_DURATION = re.compile(rb"row\(s\) in ([0-9.]+) s")

_WINDOW_TAG = {"gate": 1, "default": 2}


@dataclass(frozen=True)
class Sizes:
    """Work per operation and per fixed pass. The self-test shrinks these."""

    reps: dict = field(default_factory=lambda: {  # replicates per case chunk
        "gate": 1024, "default": 512})
    # Chunks per round of a case (1 if absent). I-2-1-a4 carries about 90 %
    # of time_to_ci_s, and its per-replicate sd is 3.4 times its mean, so
    # its variance estimate needs the most replicates to settle.
    chunks: dict = field(default_factory=lambda: {"I-2-1-a4": 6})
    sweeps: int = 50            # analytic sweeps per run
    cli_pairs: int = 14         # cold CLI pairs per run
    mc_replicates: int = 512    # the untimed `interference --method mc` check
    grid: tuple = ANALYTIC_GRID
    setup_repeats: int = 7      # set-ups per run: one in process, the rest probes
    # work of each pass of a traced run
    trace_rounds: dict = field(default_factory=lambda: {"gate": 3, "default": 1})
    trace_sweeps: int = 10
    trace_cli_pairs: int = 3


def case_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0])


def median_and_tail(samples):
    """(p50, tail, tail percentile). The tail is the highest order statistic
    with at least ten samples above it, capped at p99 (past that, a run's
    tail measures the machine's rarest stalls, not the slowest inputs) and
    never below the median, so with fewer than 21 samples it is the upper
    median."""
    xs = sorted(samples)
    n = len(xs)
    k = max(min(n - 11, math.ceil(0.99 * n) - 1), n // 2)
    return statistics.median(xs), xs[k], 100.0 * (k + 1) / n


def parse_importtime(stderr: bytes) -> tuple[float, float]:
    """(package + CLI cumulative import, scipy.integrate cumulative import)
    in seconds, from `-X importtime` output."""
    package = integrate = 0
    for line in stderr.decode(errors="replace").splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:  # the header line
            continue
        name = parts[2][1:]
        module = name.strip()
        if name == module and module.split(".")[0] == "matern_interference":
            package += cumulative
        if module == "scipy.integrate":
            integrate = max(integrate, cumulative)
    return package * 1e-6, integrate * 1e-6


def child_setup_s(launcher) -> float:
    """Seconds of the benchmark's set-up in a fresh interpreter."""
    _, code, out, err, _ = launcher.run([sys.executable, str(BENCH_DIR / "setup_once.py")])
    if code != 0:
        raise RuntimeError(f"set-up probe failed with exit {code}: {err[-300:]!r}")
    return json.loads(out.decode().strip().splitlines()[-1])["setup_s"]


@dataclass
class CaseStats:
    seconds: float = 0.0
    replicates: int = 0
    var_reps: float = 0.0  # sum over rounds of replicates * per-replicate variance
    survivors: int = 0
    attempts: int = 0


class Run:
    """One pass of work: operations, their checks, and what they measured."""

    def __init__(self, seed: int, refs: dict, cli_refs: dict, sizes: Sizes,
                 launcher, tracer=None):
        self.seed = seed
        self.launcher = launcher
        self.refs = refs
        self.cli_refs = cli_refs
        self.sizes = sizes
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.cases = {case[0]: CaseStats() for case in PALM_CASES}
        self.calls = 0
        self.call_seconds = 0.0
        self.eir_us: list[float] = []  # per eir quadrature call
        self.cold = {method: [] for method in CLI_METHODS}
        self.cold_peak_kib = 0
        self.setup_samples: list[float] = []  # set-up probes run as side operations
        self.cli_layers: list[dict] = []
        self.digests: dict[str, str] = {}
        self.counts: Counter = Counter()
        self.rounds = 0
        self.wall_s = 0.0

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def _fail(self, what: str) -> None:
        self.failures.append(what)

    # -- Palm ------------------------------------------------------------------

    def palm_case(self, c: int, chunk: int, window_kind: str, round_idx: int,
                  reps: int) -> None:
        case = PALM_CASES[c]
        self.attempted += 1
        try:
            self._palm_case(case, window_kind, round_idx, c, chunk, reps)
        except Exception as exc:  # a failed operation is counted; the loop goes on
            self._fail(f"palm {window_kind} r{round_idx} {case[0]}#{chunk}: {exc!r}")

    def palm_round(self, window_kind: str, round_idx: int, reps: int) -> list:
        return [lambda c=c, j=j: self.palm_case(c, j, window_kind, round_idx, reps)
                for c, case in enumerate(PALM_CASES)
                for j in range(self.sizes.chunks.get(case[0], 1))]

    def _palm_case(self, case, window_kind, round_idx, c, chunk, reps) -> None:
        name = case[0]
        params, pathloss, gate = palm_inputs(case)
        window = gate if window_kind == "gate" else simulate.default_window_radius(params)
        cfg = simulate.SimulationConfig(
            window_radius=window, replicates=reps,
            seed=case_seed(self.seed, _WINDOW_TAG[window_kind], round_idx, c, chunk))
        with self._span("bench.palm_case"):
            t0 = time.perf_counter()
            ens = simulate.run_palm_ensemble(params, cfg)
            est = simulate.interference_estimate_from_ensemble(
                ens, params, pathloss, cfg.tail_policy)
            lam_hat, lam_se = simulate.intensity_estimate_from_ensemble(ens, params)
            seconds = time.perf_counter() - t0

        mean_ref, lam_ref = self.refs[name]
        z = (est.mean - mean_ref) / est.std_error
        z_lam = (lam_hat - lam_ref) / lam_se
        if not (abs(z) < Z_LIMIT and abs(z_lam) < Z_LIMIT):
            self._fail(f"palm {window_kind} r{round_idx} {name}#{chunk}: z={z:.2f} "
                       f"intensity z={z_lam:.2f}")

        attempts = reps if ens.acceptance_rate is None else round(reps / ens.acceptance_rate)
        stats = self.cases[name]
        stats.seconds += seconds
        stats.replicates += reps
        stats.var_reps += reps * reps * est.std_error ** 2
        stats.survivors += ens.radii.size
        stats.attempts += attempts
        self.counts["stream_calls"] += reps
        self.counts["attempts"] += attempts
        self.counts["survivors"] += ens.radii.size
        per_rep = np.bincount(
            ens.rep_ids, weights=ens.weights * np.asarray(pathloss(ens.radii), dtype=float),
            minlength=ens.replicates)
        self.digests[f"palm/{window_kind}/r{round_idx}/{name}#{chunk}"] = (
            f"{ens.radii.size}:{hashlib.sha256(per_rep.tobytes()).hexdigest()[:16]}")

    # -- analytic --------------------------------------------------------------

    def analytic_sweep(self, sweep_idx: int) -> None:
        lower_on_v, upper_on_v = analytic.affine_v_bounds()
        rows = []
        t_start = time.perf_counter()
        for lam, delta, alpha in self.sizes.grid:
            try:
                rows.append(self._analytic_point(lam, delta, alpha, lower_on_v, upper_on_v))
            except Exception as exc:  # counted as the failure of the call that raised
                self._fail(f"analytic ({lam}, {delta}, {alpha}): {exc!r}")
        self.call_seconds += time.perf_counter() - t_start

        values = []
        for (lam, delta, alpha), r1, r2, h_low, h_high, extra in rows:
            p1 = HardCoreParams(lam, delta, ProcessKind.MATERN_I)
            pathloss = PowerLawPathLoss(alpha)
            if not r2.eir_linear <= interference.eir_type2_bound(alpha):
                self._fail(f"type II EIR above its cap at ({lam}, {delta}, {alpha})")
            inside = interference.mean_interference_inside_2delta(p1, pathloss)
            if not h_low < inside < h_high:
                self._fail(f"h_bound does not bracket at ({lam}, {delta}, {alpha})")
            if (lam, delta, alpha) == (2.0, 2.0, 3.0) and not 28.0 <= r1.eir_db <= 32.0:
                self._fail(f"(2, 2, 3) type I EIR {r1.eir_db} dB outside [28, 32]")
            values += [r1.eir_linear, r2.eir_linear, h_low, h_high, *extra]
        self.digests[f"analytic/s{sweep_idx}"] = hashlib.sha256(
            np.asarray(values, dtype=float).tobytes()).hexdigest()[:16]

    def _call(self, fn, *args):
        self.attempted += 1
        self.calls += 1
        return fn(*args)

    def _timed_eir(self, params, pathloss):
        t0 = time.perf_counter_ns()
        report = self._call(interference.eir, params, pathloss)
        self.eir_us.append((time.perf_counter_ns() - t0) * 1e-3)
        return report

    def _analytic_point(self, lam, delta, alpha, lower_on_v, upper_on_v):
        p1 = HardCoreParams(lam, delta, ProcessKind.MATERN_I)
        p2 = HardCoreParams(lam, delta, ProcessKind.MATERN_II)
        pathloss = PowerLawPathLoss(alpha)
        with self._span("bench.analytic_point"):
            r1 = self._timed_eir(p1, pathloss)
            r2 = self._timed_eir(p2, pathloss)
            h_low = self._call(interference.h_bound, p1, pathloss, upper_on_v)
            h_high = self._call(interference.h_bound, p1, pathloss, lower_on_v)
            extra = []
            if lam * delta * delta > 4.0:
                extra.append(self._call(interference.eir, p1, pathloss,
                                        interference.EirMethod.APPROXIMATION).eir_linear)
            for params in (p1, p2):
                for r in K_RADII:
                    extra.append(self._call(analytic.k_function, params, r * delta))
        return (lam, delta, alpha), r1, r2, h_low, h_high, extra

    # -- CLI -------------------------------------------------------------------

    def cli_eir(self, method: str, importtime: bool = False) -> None:
        self.attempted += 1
        try:
            self._cli_eir(method, importtime)
        except Exception as exc:  # counted as a failed invocation
            self._fail(f"cli {method}: {exc!r}")

    def cli_pair(self, importtime: bool = False) -> list:
        return [lambda m=m: self.cli_eir(m, importtime) for m in CLI_METHODS]

    def _cli_eir(self, method: str, importtime: bool) -> None:
        flags = ["-X", "importtime"] if importtime else []
        argv = [sys.executable, *flags, "-m", "matern_interference", *CLI_ARGS, method]
        with self._span("bench.cli_invocation"):
            wall, code, out, err, peak_kib = self.launcher.run(argv)
        if code != 0:
            self._fail(f"cli {method}: exit {code}: {err[-300:]!r}")
            return
        header, row = out.decode().splitlines()[1:3]
        got = dict(zip(header.split(","), row.split(",")))["eir_db"]
        if got != self.cli_refs[method]:
            self._fail(f"cli {method}: eir_db {got} != in-process {self.cli_refs[method]}")
        self.cold[method].append(wall)
        self.cold_peak_kib = max(self.cold_peak_kib, peak_kib)
        self.digests[f"cli/{method}"] = hashlib.sha256(out).hexdigest()[:16]
        if importtime:
            import_s, integrate_s = parse_importtime(err)
            match = _DURATION.search(err)
            execute_s = float(match.group(1)) if match else math.nan
            self.cli_layers.append({
                "method": method, "wall_s": wall, "import_s": import_s,
                "scipy_integrate_import_s": integrate_s, "execute_s": execute_s,
                "interpreter_s": wall - import_s - execute_s})

    def cli_rerun_check(self) -> None:
        """One untimed `interference --method mc` run, then `rerun` of its
        output; the two files must be byte-identical."""
        self.attempted += 1
        OUT.mkdir(parents=True, exist_ok=True)
        first = OUT / f"mc-{os.getpid()}.csv"
        second = OUT / f"mc-{os.getpid()}-rerun.csv"
        base = [sys.executable, "-m", "matern_interference"]
        try:
            code1 = self.launcher.run(base + [
                "interference", "--process", "matern2", "--lambda-p", "1",
                "--delta", "1", "--alpha", "3", "--method", "mc",
                "--replicates", str(self.sizes.mc_replicates),
                "--seed", str(case_seed(self.seed, 3)), "--window-radius", "7",
                "--out", str(first)])[1]
            code2 = self.launcher.run(base + ["rerun", "--manifest", str(first),
                                      "--out", str(second)])[1]
            if code1 != 0 or code2 != 0:
                self._fail(f"cli mc/rerun: exit codes {code1}, {code2}")
            elif first.read_bytes() != second.read_bytes():
                self._fail("cli rerun output differs from the original")
        finally:
            first.unlink(missing_ok=True)
            second.unlink(missing_ok=True)

    def setup_probe(self) -> None:
        """The benchmark's set-up once more, in a fresh interpreter
        (setup_once.py)."""
        self.setup_samples.append(child_setup_s(self.launcher))

    # -- driving ---------------------------------------------------------------

    def other_ops(self, sweeps: int, cli_pairs: int, importtime: bool = False,
                  setups: int = 0) -> list:
        """Analytic sweeps, cold CLI invocations and set-up probes,
        interleaved evenly, and the CLI rerun check last."""
        ops = [((i + 0.5) / sweeps, lambda i=i: self.analytic_sweep(i))
               for i in range(sweeps)]
        cli = [op for _ in range(cli_pairs) for op in self.cli_pair(importtime)]
        ops += [((i + 0.5) / len(cli), op) for i, op in enumerate(cli)]
        ops += [((i + 0.5) / setups, self.setup_probe) for i in range(setups)]
        ops.sort(key=lambda pair: pair[0])
        return [op for _, op in ops] + [self.cli_rerun_check]

    def closed_loop(self, workload: str, seconds: float) -> None:
        """Repeat Palm rounds for about `seconds`, with the other operations
        spread evenly over that time: the machine's speed drifts over
        seconds, and operations run in one burst would sample a single
        moment of it. The last round is the one that ends nearest to
        `seconds`."""
        window = WORKLOADS[workload]
        side = self.other_ops(self.sizes.sweeps, self.sizes.cli_pairs,
                              setups=self.sizes.setup_repeats - 1)
        done = 0
        t0 = time.perf_counter()
        i = 0
        while True:
            for op in self.palm_round(window, i, self.sizes.reps[window]):
                op()
                elapsed = time.perf_counter() - t0
                while done < len(side) and elapsed >= (done + 0.5) / len(side) * seconds:
                    side[done]()
                    done += 1
                    elapsed = time.perf_counter() - t0
            self.rounds += 1
            i += 1
            if elapsed + 0.5 * elapsed / self.rounds >= seconds:
                break
        for op in side[done:]:
            op()
        self.wall_s = time.perf_counter() - t0

    def fixed_pass(self, workload: str, importtime: bool = False) -> None:
        """The traced run's unit of comparison: the same work whether traced
        or not. Recomputes the reference values first, so the quadrature
        entry points are part of the trace."""
        window = WORKLOADS[workload]
        t0 = time.perf_counter()
        with self._span("bench.references"):
            if palm_references() != self.refs:
                self._fail("reference values changed between set-up and pass")
        for i in range(self.sizes.trace_rounds[window]):
            for op in self.palm_round(window, i, self.sizes.reps[window]):
                op()
            self.rounds += 1
        for op in self.other_ops(self.sizes.trace_sweeps, self.sizes.trace_cli_pairs,
                                importtime):
            op()
        self.wall_s = time.perf_counter() - t0

    # -- results -----------------------------------------------------------------

    def palm_totals(self):
        seconds = sum(s.seconds for s in self.cases.values())
        reps = sum(s.replicates for s in self.cases.values())
        return seconds, reps

    def time_to_ci_s(self) -> float:
        total = 0.0
        for name, s in self.cases.items():
            sd_rep = math.sqrt(s.var_reps / s.replicates)
            mean_ref = self.refs[name][0]
            total += (s.seconds / s.replicates) * (
                Z95 * sd_rep / (CI_HALF_WIDTH * mean_ref)) ** 2
        return total

    def end_to_end(self, setup_s: float) -> tuple[dict, dict]:
        """(metrics, details): metrics maps name -> (value, unit)."""
        palm_s, reps = self.palm_totals()
        eir_p50, eir_tail, eir_pct = median_and_tail(self.eir_us)
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "cold_peak_rss_mb": (self.cold_peak_kib / 1024.0, "MB"),
            "replicates_per_s": (reps / palm_s, "1/s"),
            "time_to_ci_s": (self.time_to_ci_s(), "s"),
            "calls_per_s": (self.calls / self.call_seconds, "1/s"),
            "eir_tail_us": (eir_tail, "us"),
        }
        # Reported, not gated (see NOTES.md): eir_p50_us, which swings with
        # the machine's speed more than any other timing, and the cold
        # medians and tails. Cold start times here fall in two clusters
        # about 40 % apart as the shared host gets busy and quiet; a median
        # jumps between them with the busy share of the run, the mean moves
        # in proportion to it.
        details = {"eir": {"calls": len(self.eir_us), "p50_us": eir_p50,
                           "tail_percentile": eir_pct}}
        for method, key in (("approximation", "approx"), ("quadrature", "quad")):
            p50, tail, pct = median_and_tail(self.cold[method])
            metrics[f"cold_{key}_mean_ms"] = (statistics.fmean(self.cold[method]) * 1e3, "ms")
            details[f"cold_{key}"] = {"samples": len(self.cold[method]), "p50_ms": p50 * 1e3,
                                      "tail_ms": tail * 1e3, "tail_percentile": pct,
                                      "samples_ms": [x * 1e3 for x in self.cold[method]]}
        details["cases"] = {
            name: {"replicates": s.replicates,
                   "s_per_100k": s.seconds / s.replicates * 1e5,
                   "sd_rep_over_mean": math.sqrt(s.var_reps / s.replicates) / self.refs[name][0],
                   "attempts_per_rep": s.attempts / s.replicates,
                   "survivors_per_rep": s.survivors / s.replicates}
            for name, s in self.cases.items()}
        details["eir_ms_by_type"] = {
            "I": statistics.median(self.eir_us[0::2]) * 1e-3,
            "II": statistics.median(self.eir_us[1::2]) * 1e-3}
        return metrics, details

    def layer_metrics(self, tracer, untraced: "Run") -> dict:
        """Per-layer metrics of this traced pass, given the untraced pass of
        the same work: name -> (value, unit)."""
        totals = tracer.totals()

        def total(name):
            return totals[name]["total_s"] if name in totals else 0.0

        def calls(name):
            return totals[name]["calls"] if name in totals else 0

        _, reps = self.palm_totals()
        type2_reps = type2_attempts = 0
        for case in PALM_CASES:
            if case[1] == "matern2":
                type2_reps += self.cases[case[0]].replicates
                type2_attempts += self.cases[case[0]].attempts
        neighbour_points = tracer.counts["neighbour_points"]
        layers = self.cli_layers
        quad_layers = [row for row in layers if row["method"] == "quadrature"]

        def mean(rows, key):
            return sum(row[key] for row in rows) / len(rows)

        q = tracer.quadrature
        ensemble = "simulate.run_palm_ensemble"
        return {
            "simulate.ensemble_s": (total(ensemble), "s"),
            "simulate.draw_s": (totals[ensemble]["self_s"], "s"),
            "simulate.attempts_per_rep": (type2_attempts / type2_reps, "count"),
            "simulate.stream_s": (total("simulate.replicate_rng"), "s"),
            "simulate.stream_calls": (calls("simulate.replicate_rng"), "count"),
            "simulate.neighbour_s": (total("scipy.cKDTree.build")
                                     + total("scipy.cKDTree.query_pairs"), "s"),
            "simulate.neighbour_points": (neighbour_points / reps, "count"),
            "simulate.survivors_per_rep": (self.counts["survivors"] / reps, "count"),
            "simulate.useful_ratio": (self.counts["survivors"] / neighbour_points, "ratio"),
            "simulate.reduce_s": (total("simulate.interference_estimate_from_ensemble")
                                  + total("simulate.intensity_estimate_from_ensemble"), "s"),
            "numerics.integrate_s": (total("numerics.integrate"), "s"),
            "numerics.integrate_calls": (calls("numerics.integrate"), "count"),
            "numerics.subdivisions": (q["subdivisions"], "count"),
            "numerics.unconverged": (q["unconverged"], "count"),
            "numerics.max_abs_error": (q["max_abs_error"], "abs"),
            "numerics.gamma_s": (total("interference.upper_incomplete_gamma"), "s"),
            "numerics.gamma_calls": (calls("interference.upper_incomplete_gamma"), "count"),
            "analytic.integrand_evals": (tracer.counts["integrand_evals"], "count"),
            "analytic.k_function_s": (total("analytic.k_function"), "s"),
            "interference.eir_s": (total("interference.eir"), "s"),
            "interference.eir_calls": (calls("interference.eir"), "count"),
            "interference.quadrature_mean_s": (
                total("interference.mean_interference_quadrature"), "s"),
            "interference.h_bound_s": (total("interference.h_bound"), "s"),
            "cli.import_s": (mean(layers, "import_s"), "s"),
            "cli.scipy_integrate_import_s": (mean(quad_layers, "scipy_integrate_import_s"), "s"),
            "cli.execute_s": (mean(layers, "execute_s"), "s"),
            "cli.interpreter_s": (mean(layers, "interpreter_s"), "s"),
            "trace.overhead_s": (self.wall_s - untraced.wall_s, "s"),
        }

    def exact_counts(self, tracer=None) -> dict:
        """Deterministic counts of this pass; the traced ones only when a
        tracer watched it."""
        out = {"stream_calls": self.counts["stream_calls"],
               "attempts": self.counts["attempts"],
               "survivors": self.counts["survivors"]}
        if tracer is not None:
            totals = tracer.totals()
            out.update({
                "traced_stream_calls": totals["simulate.replicate_rng"]["calls"],
                "neighbour_points": tracer.counts["neighbour_points"],
                "integrate_calls": totals["numerics.integrate"]["calls"],
                "subdivisions": tracer.quadrature["subdivisions"],
                "gamma_calls": totals["interference.upper_incomplete_gamma"]["calls"],
                "integrand_evals": tracer.counts["integrand_evals"]})
        return out
