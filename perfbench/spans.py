"""Spans around the calls into each package layer, for the traced run.

``Tracer.install`` wraps the package's public functions at the module
attributes through which the package (and the benchmark) call them; the
package code itself is unchanged and the wrappers return exactly what
the wrapped function returns.  Spans stay in memory (name, start, end,
parent span, point id) and are written out by ``Tracer.write``.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from pathlib import Path

import workloads
from hopfield_gaussian import dynamics, model, sweep

# (owner, attribute, span name, starts a new point)
TARGETS = (
    (workloads, "make_inputs", "sweep.params", True),
    (sweep, "spec_to_params", "sweep.params", True),
    (sweep, "Environment", "sweep.params", False),
    (sweep, "run_point", "sweep.point", False),
    (sweep, "diagonalize_params", "model.diag", False),
    (sweep, "ground_state_covariance_generic", "states.cov", False),
    (sweep, "steady_state_covariance", "states.cov", False),
    (sweep, "correlation_report", "measures.report", False),
    (sweep.ResultRow, "to_csv", "sweep.csv", False),
    (dynamics, "collective_rates", "dynamics.rates", False),
    (dynamics, "evolve_second_moments", "dynamics.evolve", False),
    (dynamics, "evolve_trajectory", "dynamics.trajectory", False),
    (dynamics, "trajectory_rows", "dynamics.rows", False),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.point = array("i")
        self._open: list[int] = []  # indices of the spans still running
        self.paths: Counter = Counter()  # diagonalization path per call
        self.trajectory_rows = 0
        self.point_id = -1
        self._saved: list = []
        self.op_id = self.name_id("op")  # the benchmark's span around one operation

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def begin(self, nid: int, new_point: bool = False) -> None:
        if new_point:
            self.point_id += 1
        self._open.append(len(self.start))
        self.name.append(nid)
        self.parent.append(self._open[-2] if len(self._open) > 1 else -1)
        self.point.append(self.point_id)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())

    def finish(self) -> None:
        self.end[self._open.pop()] = time.perf_counter_ns()

    def self_times(self) -> tuple[Counter, Counter]:
        """(self ns, calls) per span name; self = duration minus child spans."""
        self_ns = [e - s for s, e in zip(self.start, self.end)]
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                self_ns[parent] -= self.end[i] - self.start[i]
        totals, calls = Counter(), Counter()
        for nid, ns in zip(self.name, self_ns):
            totals[self.names[nid]] += ns
            calls[self.names[nid]] += 1
        return totals, calls

    def _wrap(self, fn, name: str, new_point: bool):
        nid = self.name_id(name)
        begin, finish = self.begin, self.finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            begin(nid, new_point)
            try:
                result = fn(*args, **kwargs)
            except model.InstabilityError:
                if name == "model.diag":
                    self.paths["unstable"] += 1
                raise
            finally:
                finish()
            if name == "model.diag":
                self.paths["closed" if result.theta is not None else "numeric"] += 1
            elif name == "dynamics.rows":
                self.trajectory_rows += len(result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, new_point in TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, new_point))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start_ns,end_ns,parent,point\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.point[i]}\n"
                )
