"""Span recorder for the traced run.

Spans are taken from outside the package: the module-level names that the
package looks up at call time are replaced by timing wrappers, and every
original is put back by restore(). Nothing under src/ changes. Spans stay
in memory; write() stores them once, with the self time of each span (its
duration minus the part covered by its children).

Hot integrand helpers get a counting wrapper without a clock, because a
span per evaluation would cost more than the evaluation itself.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# span record fields
_ID, _PARENT, _OP, _NAME, _START, _END = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.quadrature = {"subdivisions": 0, "unconverged": 0, "max_abs_error": 0.0}
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        op = sid if parent < 0 else self.spans[parent][_OP]  # one id per operation
        rec = [sid, parent, op, name, time.perf_counter(), 0.0]
        self.spans.append(rec)
        self._stack.append(sid)
        return rec

    def _close(self, rec: list) -> None:
        rec[_END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    # -- wrapping --------------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(rec)
            if on_result is not None:
                on_result(result)
            return result

        self._replace(owner, attr, traced)

    def count(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._replace(owner, attr, counted)

    def install(self) -> None:
        """Wrap the public names each layer is reached through."""
        import scipy.spatial
        from matern_interference import analytic, interference, simulate

        tracer = self

        class _Tree:
            # only query_pairs is used on the tree the simulator builds
            def __init__(self, tree):
                self._tree = tree

            def query_pairs(self, *args, **kwargs):
                with tracer.span("scipy.cKDTree.query_pairs"):
                    return self._tree.query_pairs(*args, **kwargs)

        build = scipy.spatial.cKDTree

        def traced_tree(data, *args, **kwargs):
            tracer.counts["neighbour_points"] += len(data)
            with tracer.span("scipy.cKDTree.build"):
                return _Tree(build(data, *args, **kwargs))

        # simulate does `from scipy.spatial import cKDTree` at call time
        self._replace(scipy.spatial, "cKDTree", traced_tree)

        for name in ("replicate_rng", "run_palm_ensemble",
                     "interference_estimate_from_ensemble",
                     "intensity_estimate_from_ensemble"):
            self.wrap(simulate, name, f"simulate.{name}")
        for name in ("eir", "mean_interference_quadrature",
                     "mean_interference_inside_2delta", "h_bound",
                     "upper_incomplete_gamma"):
            self.wrap(interference, name, f"interference.{name}")
        self.wrap(analytic, "k_function", "analytic.k_function")
        for owner in (interference, analytic):
            self.wrap(owner, "integrate", "numerics.integrate",
                      on_result=self._quadrature_result)
        for name in ("v_union", "pair_retention_type2"):
            self.count(interference, name, "integrand_evals")

    def _quadrature_result(self, result) -> None:
        q = self.quadrature
        q["subdivisions"] += result.subdivisions_used
        q["unconverged"] += 0 if result.converged else 1
        q["max_abs_error"] = max(q["max_abs_error"], result.abs_error_estimate)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[_PARENT] >= 0:
                child[rec[_PARENT]] += rec[_END] - rec[_START]
        return [rec[_END] - rec[_START] - child[rec[_ID]] for rec in self.spans]

    def totals(self) -> dict:
        """name -> {"calls", "total_s", "self_s"}."""
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for rec, self_s in zip(self.spans, self.self_times()):
            agg = out[rec[_NAME]]
            agg["calls"] += 1
            agg["total_s"] += rec[_END] - rec[_START]
            agg["self_s"] += self_s
        return out

    def write(self, path) -> None:
        t_base = self.spans[0][_START] if self.spans else 0.0
        rows = [[rec[_ID], rec[_PARENT], rec[_OP], rec[_NAME],
                 round(rec[_START] - t_base, 9), round(rec[_END] - t_base, 9),
                 round(s, 9)]
                for rec, s in zip(self.spans, self.self_times())]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "op", "name", "start_s",
                                  "end_s", "self_s"],
                       "spans": rows, "counts": dict(self.counts),
                       "quadrature": self.quadrature}, fh)
