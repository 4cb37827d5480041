#!/usr/bin/env python3
"""Benchmark of the hopfield_gaussian pipeline.

    python3 perfbench/run.py --workload all-presets --seed 1 --seconds 20 --trace 0

One process, one worker, BLAS pinned to one thread, a closed loop: each
round runs every operation of the workload once, in order, and rounds
repeat until ``--seconds`` have passed.  Round 0 is a warm-up whose
outputs are checked against the independent oracle; every later round
must reproduce them byte for byte.  Set-up time is taken in fresh
interpreters (import plus input generation) and reported as a median.
Operation times are scaled to a reference machine speed by a
calibration slice run during and between the operations (see
``Calibration``).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (operations) and ``metrics``, the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
See README.md in this directory for the metrics and workloads.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("all-presets", "general-coupling", "single-points", "relaxation")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
CALIB_REFERENCE_NS = 1_500_000  # a calibration slice at the reference speed
CALIB_EVERY_NS = 20_000_000  # slices run at least this often
CALIB_WINDOW_NS = 50_000_000  # an op's speed uses the slices this close to it
CALIB_MOMENT_STEPS = 1000  # about CALIB_REFERENCE_NS of the "moments" slice


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_package() -> float:
    """Import the package from src/ and return the seconds it took."""
    package = ROOT / "src" / "hopfield_gaussian"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no package sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import hopfield_gaussian

    elapsed = time.perf_counter() - start
    if Path(hopfield_gaussian.__file__).resolve().parent != package:
        raise SystemExit(f"imported {hopfield_gaussian.__file__}, not the sources at {package}")
    return elapsed


def setup_probe(args) -> None:
    """Fresh-interpreter set-up: import, then build the workload's inputs."""
    import_s = import_package()
    start = time.perf_counter()
    import workloads

    workloads.build(args.workload, args.seed)
    inputs_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "inputs_s": inputs_s, "done": time.monotonic()}))


class Calibration:
    """Host-speed probe: a fixed slice of work, none of it the package's.

    On a shared machine the speed of numpy-heavy code drifts by up to a
    factor of two for seconds at a time.  A slice shaped like the
    workload's own work slows down with it: 8 oracle evaluations (4x4
    eigensolvers, determinants and Python glue, like the pipeline), or for
    ``kind == "moments"`` a loop of tiny-array multiply-adds (like the RK4
    moment loop).  A time multiplied by ``speed`` (reference over measured
    slice time) is what it would have been at the reference speed.  Slices
    run from a timer signal during operations (``start_timer``) or between
    them (``due``); the time they take is left out of the operation's time.
    """

    def __init__(self, kind: str):
        import numpy as np
        import oracle

        if kind == "moments":
            # the shape of the RK4 moment loop: tiny complex arrays, one
            # multiply-add per step
            gain, kick = np.full(5, 0.999 + 0.01j), np.full(5, 1e-3 + 0j)

            def work():
                y = np.zeros(5, complex)
                for _ in range(CALIB_MOMENT_STEPS):
                    y = gain * y + kick
        else:
            hqs = [
                oracle.quadrature_hamiltonian(1.0 + 0.05 * i, 1.0, 0.2, 0.1, 0.05)
                for i in range(8)
            ]

            def work():
                for hq in hqs:
                    oracle.measures(oracle.steady_state(oracle.williamson(hq), 0.3))

        self._work = work
        self.starts: list = []  # ns, in time order
        self.samples: list = []  # ns per slice
        self.busy_ns = 0  # total time spent in slices
        self._last = 0
        self._running = False

    def slice(self, *_signal) -> None:
        if self._running:  # a timer tick during a slice
            return
        self._running = True
        start = time.perf_counter_ns()
        self._work()
        self._last = time.perf_counter_ns()
        self.starts.append(start)
        self.samples.append(self._last - start)
        self.busy_ns += self._last - start
        self._running = False

    def due(self) -> None:
        if time.perf_counter_ns() - self._last > CALIB_EVERY_NS:
            self.slice()

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self.slice)
        interval = CALIB_EVERY_NS / 1e9
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, start_ns: int, end_ns: int) -> float:
        """Reference over the mean slice time within CALIB_WINDOW_NS of
        [start_ns, end_ns] (or the two slices nearest to it).  Slices come
        at a steady rate, so their mean follows the op's mean slowdown."""
        lo = bisect.bisect_left(self.starts, start_ns - CALIB_WINDOW_NS)
        hi = bisect.bisect_right(self.starts, end_ns + CALIB_WINDOW_NS)
        if hi - lo < 2:
            lo, hi = max(0, lo - 1), hi + 1
        return CALIB_REFERENCE_NS / statistics.fmean(self.samples[lo:hi])


class SetupProbes:
    """Set-up time in fresh interpreters, one probe at a time.

    The probes are spread over the run (``due`` between rounds), so that
    their median spans more than one phase of the host's speed.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
        self.interval = args.seconds / SETUP_PROBES
        self.results: list = []
        self._last = 0.0

    def take(self) -> None:
        start = time.monotonic()  # system-wide clock, comparable across processes
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        probe["setup_s"] = probe["done"] - start
        self.results.append(probe)
        self._last = time.monotonic()

    def due(self) -> None:
        if len(self.results) < SETUP_PROBES and time.monotonic() - self._last > self.interval:
            self.take()

    def finish(self) -> list:
        while len(self.results) < SETUP_PROBES:
            self.take()
        return self.results


def oracle_selftest() -> bool:
    import test_oracle

    ok = True
    for name in sorted(dir(test_oracle)):
        if name.startswith("test_"):
            try:
                getattr(test_oracle, name)()
            except AssertionError:
                print(f"oracle self-test {name} failed", file=sys.stderr)
                ok = False
    return ok


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Runner:
    """Runs whole rounds of a workload's operations and keeps the tallies."""

    def __init__(self, ops, stats, calib):
        self.ops = ops
        self.stats = stats
        self.calib = calib
        self.reference: list = []  # round-0 digest of every op
        self.bad: set = set()  # ops whose round-0 output failed a check
        self.attempted = 0
        self.failed = 0
        self.out_bytes = 0  # output bytes of one round

    def _call(self, op, tracer):
        if tracer is not None:
            tracer.begin(tracer.op_id)
        busy = self.calib.busy_ns
        start = time.perf_counter_ns()
        try:
            text = op.run()
        except Exception:
            text = None
            print(f"{op.key}: {traceback.format_exc(limit=3)}", file=sys.stderr)
        end = time.perf_counter_ns()
        if tracer is not None:
            tracer.finish()
        return text, (end - start - (self.calib.busy_ns - busy), start, end)

    def warm_up(self) -> None:
        """Round 0: run, check every output, keep the digests as reference."""
        self.attempted += len(self.ops)
        for i, op in enumerate(self.ops):
            text, _ = self._call(op, None)
            if text is None:
                self.reference.append(None)
                self.bad.add(i)
                continue
            self.reference.append(hashlib.sha256(text.encode()).hexdigest())
            self.out_bytes += len(text.encode())
            try:
                problems = op.check(text, self.stats)
            except Exception:
                problems = [traceback.format_exc(limit=3)]
            if problems:
                self.bad.add(i)
                print("\n".join(problems[:5]), file=sys.stderr)
        self.failed += len(self.bad)

    def round(self, tracer=None) -> tuple:
        """One timed round; (each op's time in ns at the reference speed,
        unscaled round time in ns)."""
        timings = []
        for i, op in enumerate(self.ops):
            self.calib.due()
            text, timing = self._call(op, tracer)
            timings.append(timing)
            digest = None if text is None else hashlib.sha256(text.encode()).hexdigest()
            if i in self.bad or digest != self.reference[i]:
                self.failed += 1
        self.attempted += len(self.ops)
        self.calib.slice()
        scaled = array("d", (t * self.calib.speed(s, e) for t, s, e in timings))
        return scaled, sum(t for t, _, _ in timings)

    def repeat(self, seconds: float, between) -> list:
        """Whole rounds until ``seconds`` have passed, with the calibration
        timer on and ``between()`` run after each round with it off; a
        ``round`` result for each."""
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            self.calib.start_timer()
            try:
                rounds.append(self.round())
            finally:
                self.calib.stop_timer()
            between()
        return rounds

    def repeat_traced(self, seconds: float, tracer, between) -> tuple:
        """Untraced and traced rounds in turn, so both see the same machine
        conditions; ([untraced rounds], [traced rounds]) as in ``repeat``."""
        plain, traced = [], []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < seconds:
            plain.append(self.round())
            tracer.install()
            try:
                traced.append(self.round(tracer))
            finally:
                tracer.uninstall()
            between()
        return plain, traced

    def compare_across_runs(self, key: str) -> None:
        """Round digests must match any earlier run of the same sources and inputs."""
        OUT.mkdir(exist_ok=True)
        store = OUT / "digests.json"
        try:
            known = json.loads(store.read_text())
        except (OSError, ValueError):
            known = {}
        by_key = sorted(zip((op.key for op in self.ops), map(str, self.reference)))
        digest = hashlib.sha256(repr(by_key).encode()).hexdigest()
        if known.setdefault(key, digest) != digest:
            print(f"outputs differ from an earlier run ({key})", file=sys.stderr)
            self.failed += len(self.ops) - len(self.bad)
            self.bad = set(range(len(self.ops)))
        tmp = store.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=0, sort_keys=True))
        os.replace(tmp, store)


def end_to_end(runner, probes, rounds) -> dict:
    """Metrics at the reference speed."""
    import numpy as np  # loaded by now; importing it earlier would skew the set-up probes

    round_points = sum(op.points for op in runner.ops)
    round_s = [sum(scaled) / 1e9 for scaled, _ in rounds]
    p50, p99 = np.percentile(np.concatenate([scaled for scaled, _ in rounds]), [50, 99])
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "points_per_s": (round_points / statistics.median(round_s), "points/s"),
        "latency_p50_us": (p50 / 1e3, "us"),
        "latency_p99_us": (p99 / 1e3, "us"),
    }


LAYERS = (
    "sweep.params",
    "model.diag",
    "states.cov",
    "measures.report",
    "sweep.csv",
    "dynamics.rates",
    "dynamics.evolve",
    "dynamics.trajectory",
    "dynamics.rows",
)


def per_layer(runner, probes, plain, traced, tracer) -> dict:
    """Per-layer self times from the traced rounds, against untraced rounds,
    all at the reference speed."""
    rounds = len(traced)
    points = sum(op.points for op in runner.ops) * rounds
    plain_us = sum(sum(scaled) for scaled, _ in plain) / 1e3 / points
    traced_us = sum(sum(scaled) for scaled, _ in traced) / 1e3 / points
    traced_speed = traced_us * 1e3 * points / sum(raw for _, raw in traced)
    self_ns, calls = tracer.self_times()

    def self_us(name, per):
        return self_ns[name] * traced_speed / 1e3 / per if per else 0.0

    covered_us = sum(self_ns[name] for name in LAYERS) * traced_speed / 1e3 / points
    return {
        "setup.import_s": (statistics.median(p["import_s"] for p in probes), "s"),
        "setup.inputs_s": (statistics.median(p["inputs_s"] for p in probes), "s"),
        "model.diag_us": (self_us("model.diag", calls["model.diag"]), "us"),
        "model.closed_points": (tracer.paths["closed"] / rounds, "count"),
        "model.numeric_points": (tracer.paths["numeric"] / rounds, "count"),
        "model.unstable_points": (tracer.paths["unstable"] / rounds, "count"),
        "states.cov_us": (self_us("states.cov", calls["states.cov"]), "us"),
        "measures.report_us": (self_us("measures.report", calls["measures.report"]), "us"),
        "sweep.params_us": (self_us("sweep.params", points), "us"),
        "sweep.csv_us": (self_us("sweep.csv", calls["sweep.csv"]), "us"),
        "sweep.csv_bytes": (runner.out_bytes, "bytes"),
        "dynamics.rates_us": (self_us("dynamics.rates", calls["dynamics.rates"]), "us"),
        "dynamics.evolve_ms": (
            self_us("dynamics.evolve", calls["dynamics.evolve"]) / 1e3, "ms"),
        "dynamics.steps": (runner.stats.steps, "count"),
        "dynamics.trajectory_ms": (
            self_us("dynamics.trajectory", calls["dynamics.trajectory"]) / 1e3, "ms"),
        "dynamics.rows_us": (self_us("dynamics.rows", tracer.trajectory_rows), "us"),
        "trace.gap_us": (plain_us - covered_us, "us"),
        "trace.overhead_pct": (100.0 * (traced_us - plain_us) / plain_us, "%"),
    }


def main() -> int:
    args = parse_args()
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        setup_probe(args)
        return 0
    setup = SetupProbes(args)
    setup.take()  # fails at once when there is no package to import
    calib = Calibration("moments" if args.workload == "relaxation" else "oracle")
    import_package()
    import workloads

    oracle_ok = oracle_selftest()
    ops = workloads.build(args.workload, args.seed)
    stats = workloads.CheckStats()
    runner = Runner(ops, stats, calib)
    runner.warm_up()
    seeded = "*" if args.workload == "all-presets" else str(args.seed)
    runner.compare_across_runs(f"{source_digest()}/{args.workload}/{seeded}")

    if args.trace:
        import spans

        tracer = spans.Tracer()
        plain, traced = runner.repeat_traced(args.seconds, tracer, setup.due)
        metrics = per_layer(runner, setup.finish(), plain, traced, tracer)
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"trace-{args.workload}-seed{args.seed}.csv"
        tracer.write(span_file)
        print(f"spans: {len(tracer.start)} written to {span_file.relative_to(ROOT)}")
    else:
        rounds = runner.repeat(args.seconds, setup.due)
        metrics = end_to_end(runner, setup.finish(), rounds)
        raw_s = statistics.median(raw / 1e9 for _, raw in rounds)
        print(f"timed rounds: {len(rounds)}, operations per round: {len(ops)}, "
              f"latency samples: {len(rounds) * len(ops)}, median round {raw_s:.4f} s "
              f"unscaled ({sum(op.points for op in ops) / raw_s:.1f} points/s)")
    speeds = [CALIB_REFERENCE_NS / ns for ns in calib.samples]
    print(f"speed against the reference: {min(speeds):.3f} to {max(speeds):.3f} over "
          f"{len(speeds)} calibration slices")

    devs = ", ".join(f"{k} {v:.1e}" for k, v in sorted(stats.max_dev.items()))
    print(f"checks: {stats.rows_checked} rows, {stats.rows_compared} against the oracle, "
          f"{stats.near_boundary} within the boundary margin; worst deviation: {devs}")
    if stats.rows_compared:
        print("purities: mu_* columns follow 1/(4 det A); the textbook Tr rho^2 = "
              f"1/(2 sqrt det A) differs from mu_a by up to {stats.max_purity_gap:.3g} here")
    correct = oracle_ok and stats.rows_compared > 0 and runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
