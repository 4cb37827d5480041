"""Seeded inputs, operations and output checks of the four workloads.

An operation is one preset or grid sweep, one single point, or one
relaxation solve.  ``build`` makes every input from the seed before any
timing starts; each ``Op.run`` then calls the package with those inputs
only and returns the text a user would get, and ``Op.check`` compares
that text with the independent oracle and the method's properties.

The package modules are always called through their module attribute
(``sweep.run_point``, not an imported name) so the traced run can wrap
them without touching the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracle
from hopfield_gaussian import dynamics, model, scenarios, states, sweep

COLUMNS = (
    "lambda,wa,wb,T,omega_U,omega_L,E_N,G_ab,G_ba,"
    "mu_a,mu_b,mu_ab,N_a,N_b,class,stable"
).split(",")
MEASURE_COLUMNS = COLUMNS[4:14]
TRAJECTORY_COLUMNS = "t,occ_U,occ_L,re_sq_U,im_sq_U,re_sq_L,im_sq_L,re_cross,im_cross"

# Rows whose relative Hq margin is below this are too close to the
# stability boundary to hold the package to the oracle; they are counted
# and skipped.
BOUNDARY_MARGIN = 1e-4
# |package - oracle| <= MEASURE_TOL * max(1, |oracle|) on every measure.
# The determinant formula for E_N loses about half the digits when the two
# partial-transpose symplectic eigenvalues nearly coincide (seen at 1e-8).
MEASURE_TOL = 1e-7
INPUT_TOL = 1e-11  # inputs echoed in the CSV at 12 significant digits
PURE_TOL = 1e-9  # ground states: mu_ab = 1
OCC_TOL = 1e-8  # relaxed and trajectory occupations
# steering values this close to the classification threshold may fall
# either side of it within the printed precision
CLASS_BAND = (1e-13, 1e-10)
SAMPLE_ROWS = 64  # oracle-compared rows per sweep


@dataclass(frozen=True)
class Point:
    """One parameter point as generated; the package sees only these numbers."""

    wa: float
    wb: float
    l1: float
    l2: float
    diamag: float
    temperature: float
    state: str
    gamma_a: float = 0.01
    gamma_b: float = 0.01

    def hq(self) -> np.ndarray:
        return oracle.quadrature_hamiltonian(self.wa, self.wb, self.l1, self.l2, self.diamag)


@dataclass
class CheckStats:
    """What the checks saw across a run; printed beside the result."""

    rows_checked: int = 0
    rows_compared: int = 0
    near_boundary: int = 0
    max_dev: dict = field(default_factory=dict)
    max_purity_gap: float = 0.0  # |mu_a - Tr rho_a^2| between the two conventions
    steps: int = 0

    def dev(self, name: str, value: float) -> None:
        self.max_dev[name] = max(self.max_dev.get(name, 0.0), value)


@dataclass
class Op:
    key: str
    points: int
    run: Callable[[], str]
    check: Callable[[str, CheckStats], list]


# ---------------------------------------------------------------------------
# Calls into the package.  ``make_inputs`` is its own function so that the
# traced run can put a span around it.


def make_inputs(pt: Point):
    params = model.general(pt.wa, pt.wb, pt.l1, pt.l2, pt.diamag)
    env = states.Environment(pt.temperature, pt.gamma_a, pt.gamma_b)
    return params, env


def _sweep_op(key: str, spec, env_args: tuple, points: list, rng) -> Op:
    def run() -> str:
        return sweep.sweep_csv(spec, states.Environment(*env_args))

    size = min(SAMPLE_ROWS, len(points))
    sample = {int(i) for i in rng.choice(len(points), size=size, replace=False)}

    def check(text: str, stats: CheckStats) -> list:
        lines = text.split("\n")
        if lines[0] != ",".join(COLUMNS) or lines[-1] != "" or len(lines) != len(points) + 2:
            return [f"{key}: CSV header or row count differs from the schema"]
        return check_rows(key, lines[1:-1], points, sample, stats)

    return Op(key, len(points), run, check)


def _point_op(key: str, pt: Point) -> Op:
    def run() -> str:
        params, env = make_inputs(pt)
        return sweep.run_point(params, env, pt.state).to_csv() + "\n"

    def check(text: str, stats: CheckStats) -> list:
        return check_rows(key, [text[:-1]], [pt], {0}, stats)

    return Op(key, 1, run, check)


def _relax_op(key: str, pt: Point, stride: int) -> Op:
    def run() -> str:
        params, env = make_inputs(pt)
        basis = sweep.diagonalize_params(params)
        rates = dynamics.collective_rates(basis, env)
        t_final = 50.0 / min(rates.decay_upper(), rates.decay_lower())
        vacuum = dynamics.SecondMoments.vacuum()
        final = dynamics.evolve_second_moments(vacuum, rates, basis, t_final)
        points = dynamics.evolve_trajectory(vacuum, rates, basis, t_final, stride=stride)
        rows = dynamics.trajectory_rows(points)
        steady = sweep.run_point(params, env, "thermal").to_csv()
        return "\n".join(
            [
                f"final,{final.occ_upper!r},{final.occ_lower!r},{final.sq_upper!r},"
                f"{final.sq_lower!r},{final.cross!r}",
                steady,
                dynamics.TRAJECTORY_HEADER,
                *rows,
            ]
        ) + "\n"

    def check(text: str, stats: CheckStats) -> list:
        return check_relaxation(key, text, pt, stride, stats)

    return Op(key, 1, run, check)


# ---------------------------------------------------------------------------
# Output checks.


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _class_ok(label: str, g_ab: float, g_ba: float) -> bool:
    """Class agrees with the two steering values, allowing the threshold band."""
    lo, hi = CLASS_BAND
    for direction, g in (("a-to-b", g_ab), ("b-to-a", g_ba)):
        on = label == "two-way" or label == f"one-way-{direction}"
        if lo < g < hi:
            continue
        if on != (g > oracle.STEERING_THRESHOLD):
            return False
    return True


def check_rows(key: str, lines: list, points: list, sample: set, stats: CheckStats) -> list:
    problems = []
    for i, (line, pt) in enumerate(zip(lines, points)):
        where = f"{key} row {i}"
        cells = line.split(",")
        if len(cells) != len(COLUMNS):
            problems.append(f"{where}: {len(cells)} cells")
            continue
        c = dict(zip(COLUMNS, cells))
        temperature = pt.temperature if pt.state == "thermal" else 0.0
        echoed = (max(pt.l1, pt.l2), pt.wa, pt.wb, temperature)
        if not all(_close(float(c[k]), v, INPUT_TOL) for k, v in zip(COLUMNS, echoed)):
            problems.append(f"{where}: inputs not echoed")
            continue
        stats.rows_checked += 1
        hq = pt.hq()
        margin = oracle.stability_margin(hq)
        if abs(margin) < BOUNDARY_MARGIN:
            stats.near_boundary += 1
            continue
        stable = c["stable"] == "true"
        if c["stable"] not in ("true", "false") or stable != (margin > 0):
            problems.append(f"{where}: stable={c['stable']} but Hq margin {margin:.3g}")
            continue
        if not stable:
            if any(c[k] for k in MEASURE_COLUMNS) or c["class"]:
                problems.append(f"{where}: unstable row carries measures")
            continue
        values = {k: float(c[k]) for k in MEASURE_COLUMNS}
        if not _class_ok(c["class"], values["G_ab"], values["G_ba"]):
            problems.append(f"{where}: class {c['class']} disagrees with G_ab, G_ba")
        if pt.state == "ground" and abs(values["mu_ab"] - 1.0) > PURE_TOL:
            problems.append(f"{where}: ground state with mu_ab {values['mu_ab']!r}")
        if i not in sample:
            continue
        nf = oracle.williamson(hq)
        expected = oracle.measures(oracle.steady_state(nf, temperature))
        expected["omega_U"], expected["omega_L"] = nf.omega_upper, nf.omega_lower
        stats.rows_compared += 1
        stats.max_purity_gap = max(
            stats.max_purity_gap, abs(expected["mu_a"] - expected["tr_rho2_a"])
        )
        for k in MEASURE_COLUMNS:
            dev = abs(values[k] - expected[k]) / max(1.0, abs(expected[k]))
            stats.dev(k, dev)
            if dev > MEASURE_TOL:
                problems.append(f"{where}: {k}={values[k]!r}, oracle {expected[k]!r}")
        if not _class_ok(c["class"], expected["G_ab"], expected["G_ba"]):
            problems.append(f"{where}: class {c['class']} disagrees with the oracle")
    return problems


def check_relaxation(key: str, text: str, pt: Point, stride: int, stats: CheckStats) -> list:
    lines = text.split("\n")
    final, steady, header, rows = lines[0].split(","), lines[1], lines[2], lines[3:-1]
    problems = check_rows(key, [steady], [pt], {0}, stats)
    if header != TRAJECTORY_COLUMNS or lines[-1] != "" or len(rows) < 2:
        return problems + [f"{key}: trajectory header or length"]
    nf = oracle.williamson(pt.hq())
    n_ss = (
        oracle.bose(nf.omega_upper, pt.temperature),
        oracle.bose(nf.omega_lower, pt.temperature),
    )
    decay = oracle.branch_decay_rates(nf, pt.gamma_a, pt.gamma_b)
    occ = (float(final[1]), float(final[2]))
    for j in (0, 1):
        stats.dev("occ_final", abs(occ[j] - n_ss[j]))
        if abs(occ[j] - n_ss[j]) > OCC_TOL:
            problems.append(f"{key}: relaxed occupation {occ[j]!r}, Bose {n_ss[j]!r}")
    if any(complex(v) != 0 for v in final[3:]):
        problems.append(f"{key}: squeezing or cross moments left vacuum")
    times = []
    for row in rows:
        cells = [float(v) for v in row.split(",")]
        times.append(cells[0])
        for j in (0, 1):
            dev = abs(cells[1 + j] - oracle.relaxed_occupation(n_ss[j], decay[j], cells[0]))
            stats.dev("occ_trajectory", dev)
            if dev > OCC_TOL:
                problems.append(f"{key}: occupation at t={cells[0]!r} off n(t) by {dev:.3g}")
                break
        if any(cells[3:]):
            problems.append(f"{key}: squeezing or cross moments at t={cells[0]!r}")
    if times[0] != 0.0 or any(b <= a for a, b in zip(times, times[1:])):
        problems.append(f"{key}: trajectory times not increasing from 0")
    # steps the solve represents, round(t_final / dt), with dt = t_1 / stride
    stats.steps += round(times[-1] * stride / times[1])
    return problems


# ---------------------------------------------------------------------------
# Input generation.


def _resolve(spec, values: dict) -> Point:
    """The documented coupling and diamagnetic rules, written out afresh."""
    v = {"wa": 1.0, "wb": 1.0, "lambda": 0.0, "T": 0.0, **spec.fixed, **values}
    lam = float(v["lambda"])
    l1, l2 = {
        scenarios.FULL: (lam, lam),
        scenarios.SQUEEZE_ONLY: (0.0, lam),
        scenarios.MIX_ONLY: (lam, 0.0),
    }[spec.coupling]
    if spec.diamag_mode == "auto":
        diamag = lam * lam / float(v["wb"])
    elif spec.diamag_mode == "zero":
        diamag = 0.0
    else:
        diamag = float(spec.diamag_mode)
    return Point(float(v["wa"]), float(v["wb"]), l1, l2, diamag, float(v["T"]), spec.state)


def _grid_points(spec) -> list:
    if len(spec.axes) == 1:
        (ax,) = spec.axes
        return [_resolve(spec, {ax.name: x}) for x in ax.values]
    outer, inner = spec.axes
    return [
        _resolve(spec, {outer.name: xo, inner.name: xi})
        for xo in outer.values
        for xi in inner.values
    ]


def _all_presets(rng) -> list:
    specs = dict(scenarios.SCENARIOS)
    fig5 = specs["fig5"]
    specs["fig5_no_diamag"] = scenarios.SweepSpec(
        scenario="fig5",
        axes=fig5.axes,
        fixed=fig5.fixed,
        diamag_mode="zero",
        state=fig5.state,
        coupling=fig5.coupling,
        description=fig5.description,
    )
    names = sorted(specs)
    rng.shuffle(names)  # the seed fixes the order of the sweeps in a round
    ops = []
    for name in names:
        spec = specs[name]
        env_args = (float(spec.fixed.get("T", 0.0)) or 0.0,)
        ops.append(_sweep_op(name, spec, env_args, _grid_points(spec), rng))
    return ops


def _critical_coupling(coupling: str, wa, wb, diamag):
    """Edge of positive definiteness of Hq along the swept coupling."""
    if coupling == scenarios.FULL:
        return np.sqrt((wa + 4.0 * diamag) * wb) / 2.0
    return np.sqrt(wa * wb)


GRID_SHAPE = (20, 24)  # (outer, lambda) points per custom grid
UNSTABLE_SHARE = 1.0 / 3.0


def _general_coupling(rng) -> list:
    ops = []
    n_out, n_lam = GRID_SHAPE
    for coupling in (scenarios.SQUEEZE_ONLY, scenarios.MIX_ONLY, scenarios.FULL):
        for state in ("ground", "thermal"):
            wb = float(rng.uniform(0.6, 1.4))
            diamag = float(rng.uniform(0.05, 0.4))
            if state == "ground":
                # (wa, lambda) map; the top of the lambda axis is placed so that
                # a fixed share of the grid lies past the stability edge
                wa_lo = float(rng.uniform(0.3, 1.2))
                wa = np.linspace(wa_lo, wa_lo * float(rng.uniform(1.5, 2.5)), n_out)
                lam_lo = 0.02
                k = np.arange(1, n_lam)
                lam_c = _critical_coupling(coupling, wa, wb, diamag)
                # a point (i, k) is unstable once lambda_hi passes this value
                passing = np.sort(
                    (lam_lo + (lam_c[:, None] - lam_lo) * (n_lam - 1) / k[None, :]).ravel()
                )
                target = round(UNSTABLE_SHARE * n_out * n_lam)
                lam_hi = 0.5 * (passing[target - 1] + passing[target])
                axes = (
                    scenarios.Axis("wa", tuple(float(x) for x in wa)),
                    scenarios.Axis.linspace("lambda", lam_lo, lam_hi, n_lam),
                )
                fixed = {"wb": wb, "T": 0.0}
            else:
                # (lambda, T) map at fixed frequencies; lambda runs to 1.5 x the edge
                wa = float(rng.uniform(0.4, 2.0))
                lam_c = float(_critical_coupling(coupling, wa, wb, diamag))
                t_lo = float(rng.uniform(0.02, 0.1))
                axes = (
                    scenarios.Axis.linspace("lambda", 0.1 * lam_c, 1.5 * lam_c, n_lam),
                    scenarios.Axis.linspace("T", t_lo, t_lo + float(rng.uniform(0.3, 1.0)), n_out),
                )
                fixed = {"wa": wa, "wb": wb}
            spec = scenarios.SweepSpec(
                scenario="custom",
                axes=axes,
                fixed=fixed,
                diamag_mode=diamag,
                state=state,
                coupling=coupling,
            )
            gammas = tuple(float(g) for g in rng.uniform(0.005, 0.05, 2))
            key = f"{coupling}-{state}"
            ops.append(_sweep_op(key, spec, (0.0, *gammas), _grid_points(spec), rng))
    return ops


def _draw_point(rng, family: str, state: str, stable: bool) -> Point:
    """Rejection-sample a point of one family, clear of the stability edge
    and of a degenerate polariton spectrum."""
    while True:
        wa, wb = (float(x) for x in rng.uniform(0.3, 2.0, 2))
        lam = float(rng.uniform(0.02, 1.6))
        if family == "hopfield":
            l1 = l2 = lam
            diamag = lam * lam / wb
        elif family == "no-diamag":
            l1 = l2 = lam
            diamag = 0.0
        else:  # general bilinear: unequal couplings, explicit diamagnetic term
            l1, l2 = lam, lam * float(rng.uniform(0.0, 0.9))
            if rng.random() < 0.5:
                l1, l2 = l2, l1
            diamag = float(rng.uniform(0.0, 0.4))
        temperature = float(rng.uniform(0.05, 1.0)) if state == "thermal" else 0.0
        gammas = (float(g) for g in rng.uniform(0.005, 0.05, 2))
        pt = Point(wa, wb, l1, l2, diamag, temperature, state, *gammas)
        margin = oracle.stability_margin(pt.hq())
        if stable and margin > 1e-3:
            nf = oracle.williamson(pt.hq())
            if nf.omega_upper - nf.omega_lower > 1e-3:
                return pt
        if not stable and margin < -1e-3:
            return pt


# (family, state, stable) make-up of single points: an equal share each
POINT_KINDS = (
    ("hopfield", "ground", True),
    ("hopfield", "thermal", True),
    ("no-diamag", "thermal", True),
    ("no-diamag", "thermal", False),
    ("general", "ground", True),
    ("general", "thermal", True),
    ("general", "thermal", False),
)
POINTS_PER_ROUND = 2100


def _single_points(rng) -> list:
    kinds = [POINT_KINDS[i % len(POINT_KINDS)] for i in range(POINTS_PER_ROUND)]
    rng.shuffle(kinds)
    return [_point_op(f"point-{i}", _draw_point(rng, *kind)) for i, kind in enumerate(kinds)]


# RK4 steps of each solve in a round at the default step size; the damping
# is scaled per point to hit its budget, so every seed costs the same.  An
# odd count puts the median latency inside one solve's cluster.
RELAX_STEPS = (50_000, 75_000, 100_000, 125_000, 150_000)
TRAJECTORY_ROWS = 100


def _relaxation(rng) -> list:
    budgets = list(RELAX_STEPS)
    rng.shuffle(budgets)
    ops = []
    families = ("hopfield", "no-diamag", "general")
    for i, steps in enumerate(budgets):
        while True:
            pt = _draw_point(rng, families[i % 3], "thermal", True)
            nf = oracle.williamson(pt.hq())
            ratio = float(rng.uniform(0.3, 3.0))  # gamma_b / gamma_a
            unit = oracle.branch_decay_rates(nf, 1.0, ratio)
            # decay_j = gamma_a * unit_j and steps = 1000 * omega_U / min decay
            gamma_a = 1000.0 * nf.omega_upper / (steps * min(unit))
            n_max = 1.0 + oracle.bose(nf.omega_lower, pt.temperature)
            if gamma_a * max(unit) * n_max < 0.1 * nf.omega_upper:
                break
        pt = Point(pt.wa, pt.wb, pt.l1, pt.l2, pt.diamag, pt.temperature, "thermal",
                   gamma_a, gamma_a * ratio)
        ops.append(_relax_op(f"solve-{i}", pt, steps // TRAJECTORY_ROWS))
    return ops


def build(workload: str, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return {
        "all-presets": _all_presets,
        "general-coupling": _general_coupling,
        "single-points": _single_points,
        "relaxation": _relaxation,
    }[workload](rng)
