"""Pins the benchmark's oracle to textbook two-mode Gaussian states.

Run with ``python3 -m pytest perfbench/test_oracle.py``.  ``run.py`` also
calls every test here before it measures, so a broken oracle can never
pass or fail the program's outputs.  Only numpy and the oracle are used.
"""

import math

import numpy as np

import oracle

TOL = 1e-12


def _tmsv(r: float) -> np.ndarray:
    c, s = math.cosh(2 * r), math.sinh(2 * r)
    z = np.diag([1.0, -1.0])
    return 0.5 * np.block([[c * np.eye(2), s * z], [s * z, c * np.eye(2)]])


def test_two_mode_squeezed_vacuum():
    for r in (0.1, 0.5, 1.3):
        m = oracle.measures(_tmsv(r))
        assert abs(m["E_N"] - 2 * r) < TOL
        assert abs(m["G_ab"] - math.log(math.cosh(2 * r))) < TOL
        assert abs(m["G_ba"] - math.log(math.cosh(2 * r))) < TOL
        assert m["class"] == "two-way"
        assert abs(m["mu_ab"] - 1.0) < TOL and abs(m["tr_rho2_ab"] - 1.0) < TOL


def test_thermal_product_state():
    for n_a, n_b in ((0.0, 0.0), (1.0, 0.3), (2.5, 4.0)):
        gamma = np.diag([n_a + 0.5, n_a + 0.5, n_b + 0.5, n_b + 0.5])
        m = oracle.measures(gamma)
        assert m["E_N"] == 0.0 and m["G_ab"] == 0.0 and m["G_ba"] == 0.0
        assert m["class"] == "no-way"
        assert abs(m["tr_rho2_a"] - 1.0 / (2 * n_a + 1)) < TOL
        assert abs(m["tr_rho2_b"] - 1.0 / (2 * n_b + 1)) < TOL
        # the determinant form is the square of Tr rho^2
        assert abs(m["mu_a"] - m["tr_rho2_a"] ** 2) < TOL
        assert abs(m["N_a"] - n_a) < TOL and abs(m["N_b"] - n_b) < TOL


def test_stability_ends_at_critical_couplings():
    eps = 1e-6
    for wa, wb in ((1.0, 1.0), (2.0, 1.0), (0.3, 1.7)):
        lam_c = math.sqrt(wa * wb) / 2.0  # lambda1 = lambda2, D = 0
        below = oracle.quadrature_hamiltonian(wa, wb, lam_c - eps, lam_c - eps, 0.0)
        above = oracle.quadrature_hamiltonian(wa, wb, lam_c + eps, lam_c + eps, 0.0)
        assert oracle.stability_margin(below) > 0 > oracle.stability_margin(above)
    # resonant squeezing-only model: stable up to lambda2 = 1
    assert oracle.stability_margin(oracle.quadrature_hamiltonian(1, 1, 0, 1 - eps, 0)) > 0
    assert oracle.stability_margin(oracle.quadrature_hamiltonian(1, 1, 0, 1 + eps, 0)) < 0


def test_uncoupled_modes_are_their_own_normal_modes():
    nf = oracle.williamson(oracle.quadrature_hamiltonian(0.7, 1.3, 0.0, 0.0, 0.0))
    assert abs(nf.omega_upper - 1.3) < TOL and abs(nf.omega_lower - 0.7) < TOL
    gamma = oracle.steady_state(nf, 0.4)
    n_a, n_b = oracle.bose(0.7, 0.4), oracle.bose(1.3, 0.4)
    expected = np.diag([n_a + 0.5, n_a + 0.5, n_b + 0.5, n_b + 0.5])
    assert np.max(np.abs(gamma - expected)) < TOL


def test_williamson_form_is_symplectic_and_diagonal():
    rng = np.random.default_rng(7)
    for _ in range(50):
        wa, wb = rng.uniform(0.2, 2.0, 2)
        l1, l2, d = rng.uniform(0.0, 0.3, 3)
        hq = oracle.quadrature_hamiltonian(wa, wb, l1, l2, d)
        if oracle.stability_margin(hq) <= 1e-3:
            continue
        nf = oracle.williamson(hq)
        t = nf.transform
        w = [nf.omega_upper] * 2 + [nf.omega_lower] * 2
        assert np.max(np.abs(t.T @ hq @ t - np.diag(w))) < 1e-10
        assert np.max(np.abs(t @ oracle.OMEGA @ t.T - oracle.OMEGA)) < 1e-10
        nu = oracle.symplectic_spectrum(oracle.steady_state(nf, 0.0))
        assert np.max(np.abs(nu - 0.5)) < 1e-10


def test_hopfield_product_rule_and_pure_ground_state():
    for wa, lam in ((1.0, 0.4), (0.5, 1.1), (2.0, 0.05)):
        hq = oracle.quadrature_hamiltonian(wa, 1.0, lam, lam, lam * lam)
        nf = oracle.williamson(hq)
        assert abs(nf.omega_upper * nf.omega_lower - wa) < 1e-12
        m = oracle.measures(oracle.steady_state(nf, 0.0))
        assert abs(m["mu_ab"] - 1.0) < 1e-10


def test_relaxed_occupation():
    assert oracle.relaxed_occupation(0.3, 2.0, 0.0) == 0.0
    assert abs(oracle.relaxed_occupation(0.3, 2.0, 0.5) - 0.3 * (1 - math.exp(-1))) < TOL
