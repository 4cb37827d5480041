"""Self-verification: the package's acceptance checks.

Checks 1-4, 6, 7 and 9 pin the second routes of ``oracles`` to each
other (check 4 the closed thermal covariance to the 4x4 route
``oracles.steady_state_covariance``); checks 5, 8 and 10 run the command
path.  Every check is deterministic (fixed seeds, fixed grids) and prints
one line with its tolerance and the measured deviation, so two runs of
the report are byte-identical.  Exit status is zero only if every check
passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import SecondMoments, collective_rates, evolve_second_moments
from .measures import _STEERING_CLASSES, SteeringClass
from .model import InstabilityError, hopfield
from .oracles import (
    CovarianceMatrix,
    bogoliubov_diagonalize,
    critical_coupling,
    ground_state_covariance_closed,
    ground_state_log_negativity_closed,
    ground_state_steering_closed,
    hopfield_basis,
    matrix_report,
    no_a2,
    polariton_frequencies,
    ppt_symplectic_eigenvalues,
    resonant_balance_frequency,
    steady_state_covariance,
    symplectic_invariants,
    thermal_covariance_closed,
)
from .scenarios import Axis, SweepSpec, resolve_scenario
from .states import Environment, thermal_occupation
from .sweep import (
    GridResult,
    diagonalize_params,
    evaluate_grid,
    grid_points,
    run_point,
    sweep_csv,
)

__all__ = ["CheckResult", "CHECKS", "run_checks", "run_verification"]


@dataclass
class CheckResult:
    number: int
    name: str
    tolerance: str
    deviation: str
    passed: bool
    notes: tuple[str, ...] = field(default=())

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{self.number:2d}] {self.name:<28} tol {self.tolerance:<12} "
            f"dev {self.deviation:<12} {status}"
        )


def _random_hopfield(rng: np.random.Generator):
    wa = rng.uniform(0.1, 4.0)
    lam = rng.uniform(0.01, 2.5)
    return hopfield(wa, 1.0, lam)


def check_frequency_product_rule() -> CheckResult:
    rng = np.random.default_rng(101)
    dev = 0.0
    for _ in range(1000):
        p = _random_hopfield(rng)
        wu, wl = polariton_frequencies(p)
        ref = p.omega_a * p.omega_b
        dev = max(dev, abs(wu * wl - ref) / ref)
    return CheckResult(
        1, "frequency-product-rule", "1e-12", f"{dev:.2e}", dev < 1e-12
    )


def check_diagonalization_oracle() -> CheckResult:
    rng = np.random.default_rng(102)
    freq_dev = 0.0
    coeff_dev = 0.0
    for _ in range(1000):
        p = _random_hopfield(rng)
        analytic = hopfield_basis(p)
        numeric = bogoliubov_diagonalize(p)
        freq_dev = max(
            freq_dev,
            abs(numeric.omega_upper - analytic.omega_upper) / analytic.omega_upper,
            abs(numeric.omega_lower - analytic.omega_lower) / analytic.omega_lower,
        )
        for a, n in (
            (analytic.coeffs_upper, numeric.coeffs_upper),
            (analytic.coeffs_lower, numeric.coeffs_lower),
        ):
            coeff_dev = max(
                coeff_dev, float(np.max(np.abs(np.abs(a) - np.abs(n))))
            )
    passed = freq_dev < 1e-10 and coeff_dev < 1e-9
    return CheckResult(
        2,
        "diagonalization-oracle",
        "1e-10/1e-9",
        f"{freq_dev:.2e}/{coeff_dev:.2e}",
        passed,
    )


def check_critical_coupling_boundary() -> CheckResult:
    ok = True
    for wa in (0.25, 0.5, 1.0, 2.0, 4.0):
        lam_c = critical_coupling(wa, 1.0)
        try:
            polariton_frequencies(no_a2(wa, 1.0, lam_c * (1 - 1e-12)))
        except InstabilityError:
            ok = False
        for lam in (lam_c, lam_c * (1 + 1e-12)):
            try:
                polariton_frequencies(no_a2(wa, 1.0, lam))
                ok = False
            except InstabilityError:
                pass
    return CheckResult(
        3,
        "critical-coupling-boundary",
        "1e-12 rel",
        "0.0e+00" if ok else "boundary miss",
        ok,
    )


def check_covariance_two_route() -> CheckResult:
    dev = 0.0
    for lam in np.linspace(0.02, 2.0, 20):
        for wa in np.linspace(0.1, 3.0, 20):
            p = hopfield(float(wa), 1.0, float(lam))
            basis = hopfield_basis(p)
            for temperature in (0.0, 0.1, 0.25, 0.5, 1.0):
                closed = thermal_covariance_closed(p, temperature).entries
                routed = steady_state_covariance(basis, temperature).entries
                dev = max(dev, float(np.max(np.abs(closed - routed))))
    return CheckResult(4, "covariance-two-route", "1e-9", f"{dev:.2e}", dev < 1e-9)


def check_dynamics_steady_state() -> CheckResult:
    rng = np.random.default_rng(105)
    env_slopes = (0.1, 0.07)
    dev = 0.0
    accepted = 0
    while accepted < 10:
        wa = rng.uniform(0.3, 2.5)
        lam = rng.uniform(0.05, 1.5)
        temperature = rng.uniform(0.05, 0.5)
        basis = diagonalize_params(hopfield(wa, 1.0, lam))  # the basis of `dynamics`
        rates = collective_rates(basis, Environment(temperature, *env_slopes))
        decay = min(rates.decay_upper(), rates.decay_lower())
        if decay < 0.02:  # skip nearly dark branches; relaxation too slow
            continue
        accepted += 1
        final = evolve_second_moments(
            SecondMoments.vacuum(), rates, basis, t_final=50.0 / decay
        )
        dev = max(
            dev,
            abs(final.occ_upper - thermal_occupation(basis.omega_upper, temperature)),
            abs(final.occ_lower - thermal_occupation(basis.omega_lower, temperature)),
            abs(final.sq_upper),
            abs(final.cross),
        )
    return CheckResult(5, "dynamics-steady-state", "1e-8", f"{dev:.2e}", dev < 1e-8)


def check_closed_form_correlations() -> CheckResult:
    rng = np.random.default_rng(106)
    dev = 0.0
    for _ in range(500):
        p = _random_hopfield(rng)
        rep = matrix_report(ground_state_covariance_closed(p))
        dev = max(
            dev,
            abs(ground_state_log_negativity_closed(p) - rep.e_n),
            abs(ground_state_steering_closed(p) - rep.g_ab),
            abs(ground_state_steering_closed(p) - rep.g_ba),
        )
    return CheckResult(
        6, "closed-form-correlations", "1e-9", f"{dev:.2e}", dev < 1e-9
    )


def check_purity_balance_frequency() -> CheckResult:
    wa = resonant_balance_frequency(0.25, 1.0)
    dev_root = abs(wa - 0.8828)
    dev_purity = 0.0
    for temperature in (0.2, 0.5):
        gamma = thermal_covariance_closed(hopfield(wa, 1.0, 0.25), temperature)
        rep = matrix_report(gamma)
        dev_purity = max(dev_purity, abs(rep.mu_a - rep.mu_b))
    passed = dev_root < 5e-5 and dev_purity < 1e-9
    return CheckResult(
        7,
        "purity-balance-frequency",
        "5e-5/1e-9",
        f"{dev_root:.2e}/{dev_purity:.2e}",
        passed,
    )


def _scenario_grid(spec: SweepSpec) -> GridResult:
    """Columns of a preset grid, through the kernel that writes its CSV."""
    return evaluate_grid(grid_points(spec), spec.state)


def check_qualitative_trends() -> CheckResult:
    notes = []

    # (a) ground-state entanglement grows with coupling along every trace
    rows_2a = _scenario_grid(resolve_scenario("fig2a"))
    traces: dict[float, list[float]] = {}
    for wa, e_n in zip(rows_2a.wa.tolist(), rows_2a.e_n.tolist()):
        traces.setdefault(wa, []).append(e_n)
    monotone = all(
        all(b - a > 0 for a, b in zip(vals, vals[1:])) for vals in traces.values()
    )
    if not monotone:
        notes.append("(a) entanglement not monotone in coupling")

    # (b) thermal entanglement never grows with temperature
    rows_3b = _scenario_grid(resolve_scenario("fig3b"))
    series: dict[float, list[float]] = {}
    for lam, e_n in zip(rows_3b.lam.tolist(), rows_3b.e_n.tolist()):
        series.setdefault(lam, []).append(e_n)
    cooling = all(
        all(b - a <= 1e-12 for a, b in zip(vals, vals[1:]))
        for vals in series.values()
    )
    if not cooling:
        notes.append("(b) entanglement grows with temperature somewhere")

    # (c) the resonant ultrastrong point steers one way, matter to light
    row = run_point(hopfield(1, 1, 0.8), Environment(0.25), "thermal")
    point_ok = (
        row.classification == SteeringClass.ONE_WAY_B_TO_A.value
        and row.mu_b < row.mu_ab < row.mu_a
    )
    if not point_ok:
        notes.append("(c) one-way point misclassified")

    # (d) without the diamagnetic term the resonant model never steers
    fig5_zero = replace(resolve_scenario("fig5"), diamag_mode="zero")
    rows_5 = _scenario_grid(fig5_zero)
    no_way = all(
        _STEERING_CLASSES[c] is SteeringClass.NO_WAY
        for c in rows_5.classification[rows_5.stable].tolist()
    )
    if not no_way:
        notes.append("(d) steering appeared in the no-diamagnetic resonant model")

    # (e) steerable ground states always steer both ways, symmetrically
    sym_dev = float(np.max(np.abs(rows_2a.g_ab - rows_2a.g_ba)))
    steers = np.maximum(rows_2a.g_ab, rows_2a.g_ba) > 1e-12
    two_way = all(
        _STEERING_CLASSES[c] is SteeringClass.TWO_WAY
        for c in rows_2a.classification[steers].tolist()
    )
    if not (two_way and sym_dev < 1e-10):
        notes.append("(e) ground-state steering asymmetric or one-way")

    passed = not notes
    return CheckResult(
        8,
        "qualitative-trends",
        "see a..e",
        f"{sym_dev:.2e}" if passed else "violated",
        passed,
        tuple(notes),
    )


def random_physical_covariance(rng: np.random.Generator) -> CovarianceMatrix:
    """Random two-mode state: symplectic conjugation of a thermal spectrum."""

    def rot(phi):
        c, s = math.cos(phi), math.sin(phi)
        return np.array([[c, s], [-s, c]])

    def local(phi1, phi2):
        out = np.zeros((4, 4))
        out[:2, :2] = rot(phi1)
        out[2:, 2:] = rot(phi2)
        return out

    def squeeze(r1, r2):
        return np.diag([math.exp(r1), math.exp(-r1), math.exp(r2), math.exp(-r2)])

    def two_mode_squeeze(r):
        ch, sh = math.cosh(r), math.sinh(r)
        return np.array(
            [[ch, 0, sh, 0], [0, ch, 0, -sh], [sh, 0, ch, 0], [0, -sh, 0, ch]]
        )

    s = (
        local(*rng.uniform(0, 2 * math.pi, 2))
        @ squeeze(*rng.uniform(-0.7, 0.7, 2))
        @ two_mode_squeeze(rng.uniform(-0.8, 0.8))
        @ local(*rng.uniform(0, 2 * math.pi, 2))
    )
    nu = rng.uniform(0.5, 2.5, 2)
    return CovarianceMatrix(s @ np.diag([nu[0], nu[0], nu[1], nu[1]]) @ s.T)


def check_ppt_oracle() -> CheckResult:
    rng = np.random.default_rng(109)
    dev = 0.0
    for _ in range(1000):
        gamma = random_physical_covariance(rng)
        inv = symplectic_invariants(gamma)
        oracle = ppt_symplectic_eigenvalues(gamma)
        dev = max(dev, abs(inv.d_minus - oracle[0]), abs(inv.d_plus - oracle[1]))
    passed = dev < 1e-10
    notes = ()
    if not passed:
        notes = (
            "determinant formula disagrees with the partial-transpose "
            "eigen-oracle; the oracle value governs",
        )
    return CheckResult(9, "ppt-oracle", "1e-10", f"{dev:.2e}", passed, notes)


def _determinism_spec() -> SweepSpec:
    return SweepSpec(
        scenario="custom",
        axes=(Axis.linspace("lambda", 0.05, 1.5, 30),),
        fixed={"wa": 1.0, "wb": 1.0, "T": 0.25},
        diamag_mode="auto",
        state="thermal",
    )


def check_determinism() -> CheckResult:
    spec = _determinism_spec()
    sweep_ok = sweep_csv(spec) == sweep_csv(spec)

    # re-running report checks must reproduce their lines byte for byte
    lines_ok = all(
        fn().line() == fn().line()
        for fn in (
            check_frequency_product_rule,
            check_critical_coupling_boundary,
            check_purity_balance_frequency,
        )
    )
    passed = sweep_ok and lines_ok
    return CheckResult(
        10,
        "determinism",
        "byte-equal",
        "0" if passed else "mismatch",
        passed,
    )


CHECKS = (
    check_frequency_product_rule,
    check_diagonalization_oracle,
    check_critical_coupling_boundary,
    check_covariance_two_route,
    check_dynamics_steady_state,
    check_closed_form_correlations,
    check_purity_balance_frequency,
    check_qualitative_trends,
    check_ppt_oracle,
    check_determinism,
)


def run_checks(selected: list[int] | None = None) -> list[CheckResult]:
    results = []
    for index, fn in enumerate(CHECKS, start=1):
        if selected and index not in selected:
            continue
        results.append(fn())
    return results


def run_verification(selected: list[int] | None = None) -> tuple[str, bool]:
    results = run_checks(selected)
    lines = ["acceptance verification", "=" * 70]
    for r in results:
        lines.append(r.line())
        lines.extend(f"      {note}" for note in r.notes)
    passed = sum(r.passed for r in results)
    lines.append("=" * 70)
    lines.append(f"{passed} passed, {len(results) - passed} failed")
    return "\n".join(lines) + "\n", passed == len(results)
