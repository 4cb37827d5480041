import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hopfield_gaussian.model import (
    critical_coupling,
    hopfield,
    hopfield_basis,
    no_a2,
    no_a2_basis,
)
from hopfield_gaussian.measures import (
    STEERING_THRESHOLD,
    SteeringClass,
    UnphysicalStateError,
    _partial_transpose_pair,
    average_occupations,
    classify_steering,
    correlation_report,
    covariance_from_correlators,
    gaussian_steering,
    gaussian_steering_raw,
    ground_state_log_negativity_closed,
    ground_state_steering_closed,
    log_negativity,
    ppt_symplectic_eigenvalues,
    purities,
    second_order_correlators,
    symplectic_invariants,
)
from hopfield_gaussian.states import (
    CovarianceMatrix,
    ground_state_covariance_closed,
    no_a2_covariance_closed,
    steady_state_covariance,
    symplectic_form,
    thermal_covariance_closed,
    thermal_occupation,
)

VACUUM = CovarianceMatrix(0.5 * np.eye(4))

stable_hopfield = st.builds(
    hopfield, st.floats(0.1, 4.0), st.just(1.0), st.floats(0.01, 2.5)
)
stable_no_a2 = st.tuples(st.floats(0.2, 4.0), st.floats(0.02, 0.98)).map(
    lambda t: no_a2(t[0], 1.0, t[1] * critical_coupling(t[0], 1.0))
)


def random_physical_covariance(
    rng: np.random.Generator, squeezing: float = 1.0
) -> CovarianceMatrix:
    """Random two-mode Gaussian state from elementary symplectic blocks.

    ``squeezing`` scales the range of the local and two-mode squeezing.
    """

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
        @ squeeze(*rng.uniform(-0.7 * squeezing, 0.7 * squeezing, 2))
        @ two_mode_squeeze(rng.uniform(-0.8 * squeezing, 0.8 * squeezing))
        @ local(*rng.uniform(0, 2 * math.pi, 2))
    )
    nu = rng.uniform(0.5, 2.5, 2)
    return CovarianceMatrix(s @ np.diag([nu[0], nu[0], nu[1], nu[1]]) @ s.T)


EPS = np.finfo(float).eps


def two_mode_squeezed_thermal(r: float, nu: float) -> CovarianceMatrix:
    """Symmetric thermal state (a degenerate pair nu, nu) squeezed by S(r)."""
    ch, sh = math.cosh(2 * r), math.sinh(2 * r)
    return CovarianceMatrix(
        nu * np.array([[ch, 0, sh, 0], [0, ch, 0, -sh], [sh, 0, ch, 0], [0, -sh, 0, ch]])
    )


def eigvals_spectrum(g: np.ndarray) -> np.ndarray:
    """Oracle: one of each +-nu pair of the spectrum of i Omega Gamma, ascending."""
    return np.sort(np.abs(np.linalg.eigvals(1j * symplectic_form() @ g)))[::2]


def mpmath_spectrum(g: np.ndarray) -> np.ndarray:
    """(nu_-, nu_+) of the floating-point matrix g, from its invariants at 50 digits.

    nu_+-^2 = (Delta +- sqrt(Delta^2 - 4 det Gamma)) / 2 with
    Delta = det A + det B + 2 det C.
    """
    with mpmath.workdps(50):
        m = mpmath.matrix(g.tolist())
        delta = (
            mpmath.det(m[0:2, 0:2]) + mpmath.det(m[2:4, 2:4]) + 2 * mpmath.det(m[2:4, 0:2])
        )
        disc = mpmath.sqrt(delta * delta - 4 * mpmath.det(m))
        return np.array([float(mpmath.sqrt((delta + sign * disc) / 2)) for sign in (-1, 1)])


NOT_POSITIVE = [
    np.diag([-0.5, -0.5, -0.5, -0.5]),
    np.diag([-0.5, -0.5, 0.5, 0.5]),
]
states = st.one_of(
    st.just(VACUUM),
    st.floats(0.5, 5.0).map(lambda nu: CovarianceMatrix(nu * np.eye(4))),
    st.builds(two_mode_squeezed_thermal, st.floats(0.0, 3.0), st.floats(0.5, 5.0)),
    st.builds(
        lambda seed, squeezing: random_physical_covariance(
            np.random.default_rng(seed), squeezing
        ),
        st.integers(0, 2**32 - 1),
        st.sampled_from((1.0, 4.0)),
    ),
)


class TestSymplecticSpectrum:
    @given(states)
    # degenerate pairs: v = nu_+ - nu_- is zero and must not read as a bad pivot
    @example(VACUUM)
    @example(two_mode_squeezed_thermal(3.0, 0.5))
    def test_matches_the_eigenvalue_oracle(self, gamma):
        nu = gamma.symplectic_eigenvalues()
        ref = eigvals_spectrum(gamma.entries)
        # both routes are accurate to about cond(Gamma) eps; 2,000 random
        # states (squeezing scale 1 and 4) gave at most 4.3 of that
        tol = 16.0 * np.linalg.cond(gamma.entries) * EPS
        assert np.all(np.abs(nu - ref) <= tol * ref), (nu, ref)
        assert gamma.is_physical()

    @pytest.mark.parametrize("g", NOT_POSITIVE)
    def test_matrices_not_positive_definite_are_not_states(self, g):
        # the moduli of i Omega Gamma are all 1/2 here; positive definiteness
        # is what rules these matrices out
        gamma = CovarianceMatrix(g)
        assert not gamma.is_physical()
        assert np.isnan(gamma.symplectic_eigenvalues()).all()
        with pytest.raises(UnphysicalStateError):
            correlation_report(gamma)

    def test_near_the_stability_edge_against_mpmath(self):
        # lambda = lambda_C (1 - eps): the covariance entries grow like
        # eps^-1/2, and the spectrum of the floating-point matrix is only
        # defined to about cond(Gamma) eps; 200 such points gave at most 0.19
        # of that bound
        rng = np.random.default_rng(11)
        for i in range(24):
            wa = rng.uniform(0.5, 2.0)
            eps = 10.0 ** rng.uniform(-12.0, -3.0)
            p = no_a2(wa, 1.0, critical_coupling(wa, 1.0) * (1.0 - eps))
            g = steady_state_covariance(no_a2_basis(p), rng.uniform(0.0, 1.0) * (i % 2))
            nu = g.symplectic_eigenvalues()
            ref = mpmath_spectrum(g.entries)
            bound = np.linalg.cond(g.entries) * EPS * ref
            assert np.all(np.abs(nu - ref) <= bound), (p, nu, ref)


class TestSymplecticInvariants:
    def test_vacuum(self):
        inv = symplectic_invariants(VACUUM)
        assert inv.i_a == inv.i_b == 0.25
        assert inv.i_c == 0.0 and inv.i_ab == 0.0625
        assert inv.d_minus == inv.d_plus == 0.5

    def test_ground_state_is_entangled(self):
        inv = symplectic_invariants(ground_state_covariance_closed(hopfield(1, 1, 0.5)))
        assert inv.d_minus < 0.5

    def test_unphysical_rejected(self):
        squeezed_too_far = CovarianceMatrix(np.diag([0.1, 0.1, 0.5, 0.5]))
        with pytest.raises(UnphysicalStateError):
            symplectic_invariants(squeezed_too_far)

    def test_determinant_identity_and_ppt_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            gamma = random_physical_covariance(rng)
            inv = symplectic_invariants(gamma)
            nu = ppt_symplectic_eigenvalues(gamma)
            assert abs(inv.d_minus - nu[0]) < 1e-10
            assert abs(inv.d_plus - nu[1]) < 1e-10
            assert abs(inv.d_plus * inv.d_minus - math.sqrt(inv.i_ab)) < 1e-10
            assert inv.d_plus >= 0.5 - 1e-10


class TestPartialTransposePair:
    def test_vacuum(self):
        assert _partial_transpose_pair(0.25, 0.25, 0.0, 0.0625) == (0.0, 0.5, 0.5)


class TestLogNegativity:
    def test_vacuum(self):
        assert log_negativity(VACUUM) == 0.0

    def test_vanishes_at_weak_coupling(self):
        g = ground_state_covariance_closed(hopfield(1.5, 1, 1e-7))
        assert log_negativity(g) < 1e-5

    def test_golden_point_value(self):
        # ground state at omega_a = omega_b = 1, lambda = 0.5:
        # 2 d~_- = (sqrt(6) - 1)/sqrt(5)
        g = ground_state_covariance_closed(hopfield(1, 1, 0.5))
        expected = math.log(math.sqrt(5) / (math.sqrt(6) - 1))
        assert log_negativity(g) == pytest.approx(expected, abs=1e-12)

    @given(stable_hopfield)
    def test_closed_form_matches_pipeline(self, p):
        from_pipeline = log_negativity(ground_state_covariance_closed(p))
        assert ground_state_log_negativity_closed(p) == pytest.approx(
            from_pipeline, abs=1e-10
        )


class TestSteering:
    def test_vacuum(self):
        assert gaussian_steering(VACUUM) == (0.0, 0.0)

    def test_golden_point_value(self):
        g = ground_state_covariance_closed(hopfield(1, 1, 0.5))
        expected = 0.5 * math.log(1.2)  # I_a / 4 I_ab = 0.3 / 0.25
        assert gaussian_steering(g) == (
            pytest.approx(expected, abs=1e-12),
            pytest.approx(expected, abs=1e-12),
        )

    @given(stable_hopfield)
    def test_ground_state_symmetry(self, p):
        g_ab, g_ba = gaussian_steering(ground_state_covariance_closed(p))
        assert abs(g_ab - g_ba) < 1e-10

    @given(stable_hopfield)
    def test_closed_form_matches_pipeline(self, p):
        g_ab, g_ba = gaussian_steering(ground_state_covariance_closed(p))
        closed = ground_state_steering_closed(p)
        assert closed == pytest.approx(g_ab, abs=1e-10)
        assert closed == pytest.approx(g_ba, abs=1e-10)

    def test_thermal_one_way_point(self):
        g = thermal_covariance_closed(hopfield(1, 1, 0.8), 0.25)
        g_ab, g_ba = gaussian_steering(g)
        assert g_ab == 0.0 and g_ba > 0.0

    def test_raw_values_exposed_for_diagnostics(self):
        raw_ab, raw_ba = gaussian_steering_raw(VACUUM)
        assert raw_ab == pytest.approx(0.0, abs=1e-14)
        g = thermal_covariance_closed(hopfield(1, 1, 0.8), 0.25)
        assert gaussian_steering_raw(g)[0] < 0.0  # clipped to 0 in the public value


class TestPurities:
    def test_vacuum_is_pure(self):
        assert purities(VACUUM) == (1.0, 1.0, 1.0)

    def test_one_way_regime_ordering(self):
        mu_a, mu_b, mu_ab = purities(thermal_covariance_closed(hopfield(1, 1, 0.8), 0.25))
        assert mu_b < mu_ab < mu_a

    def test_no_steering_ordering_at_low_cavity_frequency(self):
        gamma = thermal_covariance_closed(hopfield(0.15, 1, 0.25), 0.2)
        mu_a, mu_b, mu_ab = purities(gamma)
        assert mu_b > mu_a > mu_ab
        assert gaussian_steering(gamma) == (0.0, 0.0)

    @given(stable_hopfield, st.floats(0.0, 1.0))
    def test_classification_consistent_with_purity_ordering(self, p, temperature):
        gamma = thermal_covariance_closed(p, temperature)
        g_ab, g_ba = gaussian_steering(gamma)
        mu_a, mu_b, mu_ab = purities(gamma)
        # mode m steers iff its marginal purity drops below the global one
        if g_ab > 1e-9:
            assert mu_a < mu_ab
        if mu_a < mu_ab * (1 - 1e-9):
            assert g_ab > 0
        if g_ba > 1e-9:
            assert mu_b < mu_ab
        if mu_b < mu_ab * (1 - 1e-9):
            assert g_ba > 0


class TestClassification:
    @pytest.mark.parametrize(
        "g_ab,g_ba,expected",
        [
            (0.0, 0.0, SteeringClass.NO_WAY),
            (0.2, 0.0, SteeringClass.ONE_WAY_A_TO_B),
            (0.0, 0.2, SteeringClass.ONE_WAY_B_TO_A),
            (0.1, 0.2, SteeringClass.TWO_WAY),
            (STEERING_THRESHOLD / 2, 0.0, SteeringClass.NO_WAY),
        ],
    )
    def test_cases(self, g_ab, g_ba, expected):
        assert classify_steering(g_ab, g_ba) is expected

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            classify_steering(-0.1, 0.0)

    def test_steerable_ground_state_is_two_way(self):
        rep = correlation_report(ground_state_covariance_closed(hopfield(1, 1, 0.5)))
        assert rep.classification is SteeringClass.TWO_WAY
        assert rep.e_n > 0

    @given(stable_hopfield, st.floats(0.0, 1.0))
    def test_steerable_states_are_entangled(self, p, temperature):
        gamma = thermal_covariance_closed(p, temperature)
        rep = correlation_report(gamma)
        if rep.g_ab > 0 or rep.g_ba > 0:
            assert rep.e_n > 0


class TestCorrelationReport:
    @given(
        st.one_of(
            st.just(VACUUM),
            st.integers(0, 2**32 - 1).map(
                lambda seed: random_physical_covariance(np.random.default_rng(seed))
            ),
        )
    )
    def test_fields_equal_the_scalar_functions(self, gamma):
        rep = correlation_report(gamma)
        assert rep.e_n == log_negativity(gamma)
        assert (rep.g_ab, rep.g_ba) == gaussian_steering(gamma)
        assert (rep.mu_a, rep.mu_b, rep.mu_ab) == purities(gamma)
        assert (rep.n_a, rep.n_b) == average_occupations(gamma)
        assert rep.classification is classify_steering(rep.g_ab, rep.g_ba)

    def test_one_physicality_check_per_call(self, monkeypatch):
        calls = []
        is_physical = CovarianceMatrix.is_physical

        def counted(self, *args, **kwargs):
            calls.append(self)
            return is_physical(self, *args, **kwargs)

        monkeypatch.setattr(CovarianceMatrix, "is_physical", counted)
        gamma = thermal_covariance_closed(hopfield(1, 1, 0.8), 0.25)
        correlation_report(gamma)
        assert calls == [gamma]


class TestOccupations:
    def test_vacuum(self):
        assert average_occupations(VACUUM) == (0.0, 0.0)

    @given(stable_hopfield)
    def test_ground_state_symmetry(self, p):
        n_a, n_b = average_occupations(ground_state_covariance_closed(p))
        assert abs(n_a - n_b) < 1e-10

    def test_thermal_point_is_asymmetric(self):
        n_a, n_b = average_occupations(thermal_covariance_closed(hopfield(1, 1, 0.8), 0.25))
        assert abs(n_a - n_b) > 1e-3


class TestCorrelators:
    def test_decoupled_vacuum(self):
        basis = hopfield_basis(hopfield(1.5, 1, 1e-9))
        mo = second_order_correlators(basis, (0.0, 0.0))
        assert mo["a_adag"] == pytest.approx(1.0, abs=1e-12)
        assert mo["b_bdag"] == pytest.approx(1.0, abs=1e-12)
        for key, value in mo.items():
            if key not in ("a_adag", "b_bdag"):
                assert abs(value) < 1e-8

    def test_anomalous_moments_survive_in_ground_state(self):
        mo = second_order_correlators(hopfield_basis(hopfield(1, 1, 0.5)), (0.0, 0.0))
        assert abs(mo["a_a"]) > 0.1
        # sum over branches gives -cos(2 theta)/4 = -1/(4 sqrt(5)) here
        assert mo["a_a"] == pytest.approx(-0.25 / math.sqrt(5), abs=1e-12)

    @given(stable_hopfield, st.floats(0.0, 1.0))
    def test_commutators_and_covariance_roundtrip(self, p, temperature):
        basis = hopfield_basis(p)
        occ = (
            thermal_occupation(basis.omega_upper, temperature),
            thermal_occupation(basis.omega_lower, temperature),
        )
        mo = second_order_correlators(basis, occ)
        assert mo["a_adag"] - mo["adag_a"] == pytest.approx(1.0, abs=1e-10)
        assert mo["b_bdag"] - mo["bdag_b"] == pytest.approx(1.0, abs=1e-10)
        rebuilt = covariance_from_correlators(mo)
        direct = steady_state_covariance(basis, temperature)
        assert np.max(np.abs(rebuilt.entries - direct.entries)) < 1e-9

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError):
            second_order_correlators(hopfield_basis(hopfield(1, 1, 0.5)), (-0.1, 0.0))


class TestClosedFormTrends:
    def test_entanglement_grows_with_coupling_at_resonance(self):
        lams = np.linspace(0.05, 1.2, 24)
        en = [ground_state_log_negativity_closed(hopfield(1, 1, l)) for l in lams]
        assert all(b > a for a, b in zip(en, en[1:]))

    def test_steering_positive_region_lies_inside_entangled_region(self):
        for lam in np.linspace(0.05, 1.2, 24):
            p = hopfield(1, 1, lam)
            if ground_state_steering_closed(p) > 0:
                assert ground_state_log_negativity_closed(p) > 0


resonant_no_a2 = st.floats(0.02, 0.98).map(lambda f: no_a2(1.0, 1.0, 0.5 * f))


class TestNoA2Steering:
    @given(resonant_no_a2, st.floats(0.0, 1.0))
    def test_resonant_model_never_steers_one_way(self, p, temperature):
        gamma = no_a2_covariance_closed(p, temperature)
        g_ab, g_ba = gaussian_steering(gamma)
        assert abs(g_ab - g_ba) < 1e-10
        assert classify_steering(g_ab, g_ba) in (
            SteeringClass.NO_WAY,
            SteeringClass.TWO_WAY,
        )
