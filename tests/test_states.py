import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfield_gaussian.model import general, hopfield
from hopfield_gaussian.oracles import (
    CovarianceMatrix,
    DegenerateSpectrumError,
    bogoliubov_diagonalize,
    critical_coupling,
    ground_state_covariance_closed,
    hopfield_basis,
    is_physical,
    no_a2,
    parse_covariance,
    quadrature_transform,
    steady_state_covariance,
    symplectic_form,
    thermal_covariance_closed,
)
from hopfield_gaussian.states import Environment, _bose, format_covariance, thermal_occupation
from oracles import no_a2_basis, no_a2_covariance_closed, polariton_to_bare_transform

stable_hopfield = st.builds(
    hopfield, st.floats(0.1, 4.0), st.just(1.0), st.floats(0.01, 2.5)
)
stable_no_a2 = st.tuples(st.floats(0.2, 4.0), st.floats(0.02, 0.98)).map(
    lambda t: no_a2(t[0], 1.0, t[1] * critical_coupling(t[0], 1.0))
)
temperatures = st.floats(0.0, 1.0)


def symplectic_residual(u):
    """Max deviation from U Omega U^T = Omega."""
    omega = symplectic_form()
    return float(np.max(np.abs(u @ omega @ u.T - omega)))


def polariton_covariance(basis, gamma):
    """A bare-basis covariance pulled back to the polariton quadratures."""
    t_inv = np.linalg.inv(quadrature_transform(basis))
    return t_inv @ gamma.entries @ t_inv.T


class TestThermalOccupation:
    def test_zero_temperature(self):
        assert thermal_occupation(1.0, 0.0) == 0.0

    def test_direct_value(self):
        # frozen from 1/(e^{1/0.15} - 1)
        assert thermal_occupation(1.0, 0.15) == pytest.approx(
            1.0 / math.expm1(1.0 / 0.15), rel=1e-14
        )
        assert thermal_occupation(1.0, 0.15) == pytest.approx(1.27e-3, rel=2e-2)

    @given(st.floats(0.05, 5.0), st.floats(0.01, 2.0))
    def test_coth_identity(self, omega, temperature):
        lhs = 1.0 + 2.0 * thermal_occupation(omega, temperature)
        rhs = 1.0 / math.tanh(omega / (2.0 * temperature))
        assert abs(lhs - rhs) < 1e-12 * rhs

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            thermal_occupation(0.0, 0.1)
        with pytest.raises(ValueError):
            thermal_occupation(1.0, -0.1)


def bose_draws(n, seed=41):
    """(omega, T) of n points whose x = omega / T is log-uniform in [1e-6,
    700], give or take the rounding of omega = x T."""
    rng = np.random.default_rng(seed)
    x = np.exp(rng.uniform(math.log(1e-6), math.log(700.0), n))
    temperature = rng.uniform(0.05, 2.0, n)
    return x * temperature, temperature


def floats_bose(omega, temperature):
    """``_bose`` of each point on the float route, as one array."""
    return np.array([_bose(w, t) for w, t in zip(omega.tolist(), temperature.tolist())])


class TestBoseRoutes:
    """``states._bose`` takes numpy's expm1 on floats and on arrays, so a
    point's occupations are those of its sweep row bit for bit, whatever
    the length of the array that numpy's vector loop splits."""

    def test_floats_and_arrays_agree_bit_for_bit(self):
        omega, temperature = bose_draws(20_000)
        rng = np.random.default_rng(43)
        cuts = np.cumsum(rng.integers(1, 34, len(omega)))
        cuts = cuts[cuts < len(omega)]
        pieces = [_bose(w, t) for w, t in zip(np.split(omega, cuts), np.split(temperature, cuts))]
        assert min(map(len, pieces)) == 1 and max(map(len, pieces)) == 33
        expected = floats_bose(omega, temperature)
        assert np.concatenate(pieces).tobytes() == expected.tobytes()
        # a (2, n) block of two branches at the temperatures of its columns
        block = omega[:2000].reshape(2, 1000)
        stacked = np.concatenate([temperature[:1000], temperature[:1000]])
        assert _bose(block, temperature[:1000]).tobytes() == floats_bose(
            block.ravel(), stacked).reshape(2, 1000).tobytes()

    def test_edges(self):
        # x = 700, the float past it, an x that underflows to 0, T = 0, NaN
        omega = np.array([700.0, np.nextafter(700.0, np.inf), 5e-324, 1.0, np.nan])
        temperature = np.array([1.0, 1.0, 1e10, 0.0, 1.0])
        expected = [float(1 / mpmath.expm1(700)), 0.0, math.inf, 0.0, 0.0]
        assert _bose(omega, temperature).tolist() == expected
        assert floats_bose(omega, temperature).tolist() == expected
        # the ground state: every T is 0
        assert _bose(omega[:3], np.zeros(3)).tolist() == [0.0] * 3

    def test_within_two_ulp_of_mpmath(self):
        omega, temperature = bose_draws(2000, seed=47)
        x = omega / temperature
        with mpmath.workdps(40):
            exact = np.array([float(1 / mpmath.expm1(v)) if v <= 700.0 else 0.0
                              for v in x.tolist()])
        occupation = _bose(omega, temperature)
        assert (np.abs(occupation - exact) <= 2 * np.spacing(exact)).all()

    def test_no_route_calls_math_expm1(self, monkeypatch):
        def refuse(x):
            raise AssertionError("math.expm1 was called")

        monkeypatch.setattr(math, "expm1", refuse)
        omega, temperature = bose_draws(100)
        assert _bose(omega, temperature).tobytes() == floats_bose(omega, temperature).tobytes()


class TestEnvironment:
    def test_defaults(self):
        env = Environment(0.25)
        assert env.gamma_a == env.gamma_b == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            Environment(-0.1)
        with pytest.raises(ValueError):
            Environment(0.1, gamma_a=0.0)
        with pytest.raises(ValueError, match="finite"):
            Environment(math.nan)
        with pytest.raises(ValueError, match="finite"):
            Environment(0.1, gamma_b=math.nan)
        with pytest.raises(ValueError, match="finite"):
            Environment(math.inf)


class TestPolaritonThermalState:
    """The steady state is diagonal in the polariton basis with coth weights."""

    def test_vacuum_at_zero_temperature(self):
        b = hopfield_basis(hopfield(1, 1, 0.5))
        g, t = steady_state_covariance(b, 0.0), quadrature_transform(b)
        # the polariton vacuum pushed through the quadrature map, (1/2) T T^T
        assert np.array_equal(g.entries, CovarianceMatrix(0.5 * t @ t.T).entries)
        assert np.max(np.abs(polariton_covariance(b, g) - 0.5 * np.eye(4))) < 1e-14

    def test_branch_weights(self):
        b = hopfield_basis(hopfield(1, 1, 0.5))
        g = polariton_covariance(b, steady_state_covariance(b, 0.15))
        a1 = 0.5 + thermal_occupation(b.omega_upper, 0.15)
        b1 = 0.5 + thermal_occupation(b.omega_lower, 0.15)
        assert np.max(np.abs(g - np.diag([a1, a1, b1, b1]))) < 1e-14

    @given(stable_hopfield, st.floats(0.01, 2.0))
    def test_lower_branch_is_hotter(self, p, temperature):
        b = hopfield_basis(p)
        g = polariton_covariance(b, steady_state_covariance(b, temperature))
        assert g[2, 2] >= g[0, 0] - 1e-12 * g[2, 2]


class TestTransforms:
    @given(stable_hopfield)
    def test_symplectic(self, p):
        b = hopfield_basis(p)
        assert symplectic_residual(quadrature_transform(b)) < 1e-10
        assert symplectic_residual(polariton_to_bare_transform(p, b)) < 1e-10

    @given(stable_hopfield)
    def test_closed_form_matches_coefficient_assembly(self, p):
        b = hopfield_basis(p)
        u1 = quadrature_transform(b)
        u2 = polariton_to_bare_transform(p, b)
        assert np.max(np.abs(u1 - u2)) < 1e-9

    def test_decoupling_limit_is_identity_off_resonance(self):
        b = hopfield_basis(hopfield(1.5, 1, 1e-9))
        u = quadrature_transform(b)
        assert np.allclose(u, np.eye(4), atol=1e-6)

    def test_decoupling_limit_at_resonance_is_passive(self):
        # the branches degenerate at resonance, so the limit is only an
        # orthogonal (vacuum-preserving) rotation of the two modes
        b = hopfield_basis(hopfield(1, 1, 1e-9))
        u = quadrature_transform(b)
        assert np.allclose(u @ u.T, np.eye(4), atol=1e-6)


class TestGroundState:
    def test_decoupled_resonant_vacuum(self):
        g = ground_state_covariance_closed(hopfield(1, 1, 0))
        assert np.allclose(g.entries, 0.5 * np.eye(4), atol=1e-15)

    def test_position_cross_entry(self):
        g = ground_state_covariance_closed(hopfield(1, 1, 0.5))
        assert g.entries[0, 2] == pytest.approx(-0.5 / math.sqrt(5), abs=1e-12)
        assert g.entries[1, 3] == pytest.approx(+0.5 / math.sqrt(5), abs=1e-12)

    @given(stable_hopfield)
    def test_closed_equals_generic(self, p):
        closed = ground_state_covariance_closed(p).entries
        generic = steady_state_covariance(hopfield_basis(p), 0.0).entries
        assert np.max(np.abs(closed - generic)) < 1e-10

    @given(stable_no_a2)
    def test_closed_form_also_covers_zero_diamagnetic(self, p):
        closed = ground_state_covariance_closed(p).entries
        generic = steady_state_covariance(no_a2_basis(p), 0.0).entries
        assert np.max(np.abs(closed - generic)) < 1e-10

    def test_squeezing_only_has_cross_correlations(self):
        b = bogoliubov_diagonalize(general(1, 1, 0.0, 0.3, 0.0))
        g = steady_state_covariance(b, 0.0)
        # independent route: (a +- b)/sqrt(2) are two decoupled squeezed modes
        vxp = 0.5 * math.sqrt(0.7 / 1.3)
        vxm = 0.5 * math.sqrt(1.3 / 0.7)
        assert g.entries[0, 2] == pytest.approx((vxp - vxm) / 2, abs=1e-12)
        assert g.entries[1, 3] == pytest.approx((vxm - vxp) / 2, abs=1e-12)
        assert g.entries[0, 0] == pytest.approx((vxp + vxm) / 2, abs=1e-12)

    def test_mixing_only_keeps_vacuum(self):
        g = steady_state_covariance(bogoliubov_diagonalize(general(1, 1, 0.3, 0.0, 0.0)), 0.0)
        assert np.max(np.abs(g.entries - 0.5 * np.eye(4))) < 1e-13


class TestThermalClosedForm:
    def test_zero_temperature_reduces_to_ground_state(self):
        p = hopfield(1.4, 1, 0.6)
        gt = thermal_covariance_closed(p, 1e-8).entries
        gs = ground_state_covariance_closed(p).entries
        assert np.max(np.abs(gt - gs)) < 1e-6

    @given(stable_hopfield, temperatures)
    def test_two_route_equivalence(self, p, temperature):
        b = hopfield_basis(p)
        closed = thermal_covariance_closed(p, temperature).entries
        routed = steady_state_covariance(b, temperature).entries
        assert np.max(np.abs(closed - routed)) < 1e-9

    @given(stable_hopfield, temperatures)
    def test_physicality(self, p, temperature):
        g = thermal_covariance_closed(p, temperature)
        assert is_physical(g)

    def test_physicality_on_large_random_grid(self):
        rng = np.random.default_rng(19)
        for _ in range(1000):
            p = hopfield(rng.uniform(0.1, 4.0), 1.0, rng.uniform(0.01, 2.5))
            g = thermal_covariance_closed(p, rng.uniform(0.0, 1.0))
            assert is_physical(g)

    def test_degenerate_spectrum_raises(self):
        with pytest.raises(DegenerateSpectrumError):
            thermal_covariance_closed(hopfield(1, 1, 0), 0.2)

    def test_specific_point_physical(self):
        g = thermal_covariance_closed(hopfield(0.5, 1, 0.25), 0.2)
        assert is_physical(g)


class TestNoA2ClosedForm:
    def test_resonant_subsystem_blocks_equal(self):
        g = no_a2_covariance_closed(no_a2(1, 1, 0.3), 0.25)
        assert np.max(np.abs(g.entries[:2, :2] - g.entries[2:, 2:])) < 1e-10

    @given(stable_no_a2, temperatures)
    def test_matches_generic_pipeline(self, p, temperature):
        closed = no_a2_covariance_closed(p, temperature).entries
        piped = steady_state_covariance(no_a2_basis(p), temperature).entries
        assert np.max(np.abs(closed - piped)) < 1e-8

    def test_weak_coupling_cold_limit_is_vacuum(self):
        g = no_a2_covariance_closed(no_a2(1.5, 1, 1e-6), 0.0)
        assert np.allclose(g.entries, 0.5 * np.eye(4), atol=1e-5)


class TestCovarianceContainer:
    def test_symmetrized_on_construction(self):
        m = np.eye(4)
        m[0, 2] = 0.2
        g = CovarianceMatrix(m)
        assert np.array_equal(g.entries, g.entries.T)
        assert g.entries[2, 0] == 0.1

    def test_rejects_bad_shape_and_non_finite(self):
        with pytest.raises(ValueError, match="4x4"):
            CovarianceMatrix(np.eye(3))
        for bad in (math.nan, math.inf, -math.inf):
            m = 0.5 * np.eye(4)
            m[1, 3] = bad
            with pytest.raises(ValueError, match="finite"):
                CovarianceMatrix(m)

    def test_serialization_roundtrip(self):
        g = thermal_covariance_closed(hopfield(1.2, 1, 0.4), 0.3)
        text = format_covariance(g.entries)
        assert text.startswith("basis: bare\n")
        assert np.array_equal(parse_covariance(text).entries, g.entries)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_covariance("not a covariance")
        text = format_covariance(0.5 * np.eye(4))
        with pytest.raises(ValueError, match="finite"):
            parse_covariance(text.replace("0.5", "nan", 1))

    def test_parse_accepts_only_the_bare_basis(self):
        text = format_covariance(0.5 * np.eye(4))
        with pytest.raises(ValueError, match="basis: bare"):
            parse_covariance(text.replace("bare", "polariton"))
