import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hopfield_gaussian.model import (
    InstabilityError,
    build_dynamical_matrix,
    general,
    hopfield,
    hopfield_basis,
    no_a2,
    no_a2_basis,
)
from hopfield_gaussian.sweep import diagonalize_params
from hopfield_gaussian.states import Environment, thermal_occupation, thermal_covariance_closed
from hopfield_gaussian.measures import purities
from hopfield_gaussian.dynamics import (
    LOCAL_GENERATOR_LABELS,
    MAX_STEP_FRACTION,
    NoSteadyStateError,
    RateSet,
    SecondMoments,
    asymmetry_diagnostic,
    collective_rates,
    evolve_second_moments,
    evolve_trajectory,
    kossakowski_matrix,
    ladder_commutator_matrix,
    local_representation_coefficients,
    resonant_balance_frequency,
    second_moment_drift,
    steady_state_second_moments,
    trajectory_rows,
    TRAJECTORY_HEADER,
    _moment_generator,
    _rk4_update,
)

stable_hopfield = st.builds(
    hopfield, st.floats(0.1, 4.0), st.just(1.0), st.floats(0.01, 2.5)
)


def bright_env(temperature=0.25):
    # unequal slopes keep both branches coupled to the bath everywhere
    return Environment(temperature, gamma_a=0.1, gamma_b=0.07)


class TestCollectiveRates:
    def test_zero_temperature_has_no_absorption(self):
        b = hopfield_basis(hopfield(1, 1, 0.5))
        r = collective_rates(b, Environment(0.0, 0.02, 0.02))
        assert r.up_upper == 0.0 and r.up_lower == 0.0
        assert r.down_upper > 0.0 and r.down_lower > 0.0

    def test_equal_slopes_factorize(self):
        b = hopfield_basis(hopfield(1.3, 1, 0.4))
        gamma = 0.03
        r = collective_rates(b, Environment(0.2, gamma, gamma))
        for (w, x, y, z), wj, up in [
            (b.coeffs_upper, b.omega_upper, r.up_upper),
            (b.coeffs_lower, b.omega_lower, r.up_lower),
        ]:
            weight = (w - y) + (x - z)
            expected = gamma * wj * thermal_occupation(wj, 0.2) * weight**2
            assert up == pytest.approx(expected, rel=1e-12)

    @given(stable_hopfield, st.floats(0.02, 1.0))
    def test_detailed_balance(self, p, temperature):
        b = hopfield_basis(p)
        r = collective_rates(b, bright_env(temperature))
        assert r.up_upper / r.decay_upper() == pytest.approx(
            thermal_occupation(b.omega_upper, temperature), rel=1e-12
        )
        assert r.up_lower / r.decay_lower() == pytest.approx(
            thermal_occupation(b.omega_lower, temperature), rel=1e-12
        )

    def test_steady_occupation_independent_of_slopes(self):
        b = hopfield_basis(hopfield(1, 1, 0.5))
        occs = []
        for gamma in (1e-4, 1e-3, 1e-2, 1e-1):
            r = collective_rates(b, Environment(0.3, gamma, gamma / 3))
            ss = steady_state_second_moments(r)
            occs.append((ss.occ_upper, ss.occ_lower))
        for pair in occs[1:]:
            assert pair[0] == pytest.approx(occs[0][0], rel=1e-12)
            assert pair[1] == pytest.approx(occs[0][1], rel=1e-12)

    def test_resonant_no_a2_lower_branch_is_dark_for_equal_slopes(self):
        # destructive interference of the two coupling paths
        b = no_a2_basis(no_a2(1, 1, 0.3))
        dark = collective_rates(b, Environment(0.25, 0.01, 0.01))
        bright = collective_rates(b, Environment(0.25, 0.01, 0.02))
        assert dark.down_lower < 1e-30 * bright.down_lower
        # with distinct slopes the branch relaxes normally
        ss = steady_state_second_moments(bright)
        assert ss.occ_lower == pytest.approx(
            thermal_occupation(b.omega_lower, 0.25), rel=1e-10
        )


class TestSteadyState:
    def test_zero_temperature(self):
        b = hopfield_basis(hopfield(1, 1, 0.5))
        ss = steady_state_second_moments(collective_rates(b, Environment(0.0, 0.01, 0.01)))
        assert ss.occ_upper == 0.0 and ss.occ_lower == 0.0

    def test_bose_occupations(self):
        b = hopfield_basis(hopfield(1, 1, 0.5))
        ss = steady_state_second_moments(collective_rates(b, Environment(0.15, 0.01, 0.01)))
        assert ss.occ_upper == pytest.approx(
            thermal_occupation(b.omega_upper, 0.15), rel=1e-12
        )
        assert ss.occ_lower == pytest.approx(
            thermal_occupation(b.omega_lower, 0.15), rel=1e-12
        )
        assert ss.sq_upper == 0.0 and ss.cross == 0.0

    def test_no_damping_raises(self):
        with pytest.raises(NoSteadyStateError):
            steady_state_second_moments(RateSet(0.1, 0.1, 0.0, 0.01))
        with pytest.raises(NoSteadyStateError):
            steady_state_second_moments(RateSet(0.0, 0.01, 0.2, 0.1))


class TestEvolution:
    def test_steady_state_is_fixed_point(self):
        b = hopfield_basis(hopfield(1, 1, 0.5))
        r = collective_rates(b, bright_env())
        ss = steady_state_second_moments(r)
        out = evolve_second_moments(ss, r, b, t_final=100.0)
        assert out.occ_upper == pytest.approx(ss.occ_upper, abs=1e-10)
        assert out.occ_lower == pytest.approx(ss.occ_lower, abs=1e-10)
        assert abs(out.sq_upper) < 1e-10 and abs(out.cross) < 1e-10

    def test_vacuum_relaxes_to_bose_occupations(self):
        b = hopfield_basis(hopfield(1, 1, 0.5))
        r = collective_rates(b, bright_env(0.25))
        t_final = 50.0 / min(r.decay_upper(), r.decay_lower())
        out = evolve_second_moments(SecondMoments.vacuum(), r, b, t_final)
        assert out.occ_upper == pytest.approx(
            thermal_occupation(b.omega_upper, 0.25), abs=1e-8
        )
        assert out.occ_lower == pytest.approx(
            thermal_occupation(b.omega_lower, 0.25), abs=1e-8
        )

    def test_squeezing_envelope_decays_exponentially(self):
        b = hopfield_basis(hopfield(1, 1, 0.5))
        r = collective_rates(b, bright_env())
        start = SecondMoments(0.0, 0.0, sq_upper=1.0 + 0j)
        t_final, dt = 5.0, 0.002  # commensurate: integrates exactly to t_final
        out = evolve_second_moments(start, r, b, t_final, dt)
        expected = math.exp(-r.decay_upper() * t_final)
        assert abs(abs(out.sq_upper) - expected) / expected < 1e-6

    def test_step_size_guard(self):
        b = hopfield_basis(hopfield(1, 1, 0.5))
        r = collective_rates(b, bright_env())
        with pytest.raises(ValueError):
            evolve_second_moments(SecondMoments.vacuum(), r, b, 1.0, dt=1.0)

    def test_relaxed_covariance_matches_closed_form_on_grid(self):
        # dynamics -> occupations -> quadrature map versus the direct
        # coth closed form, across couplings, frequencies and temperatures
        from hopfield_gaussian.states import quadrature_transform

        for lam in (0.2, 0.8, 1.5):
            for wa in (0.6, 1.0, 2.0):
                for temperature in (0.1, 0.4):
                    b = hopfield_basis(hopfield(wa, 1, lam))
                    # pick slopes clear of the interference zero so the
                    # relaxation time stays at desk scale
                    for gamma_b in (0.07, 0.02, 0.2):
                        r = collective_rates(b, Environment(temperature, 0.1, gamma_b))
                        if min(r.decay_upper(), r.decay_lower()) > 5e-3:
                            break
                    t_final = 50.0 / min(r.decay_upper(), r.decay_lower())
                    final = evolve_second_moments(
                        SecondMoments.vacuum(), r, b, t_final
                    )
                    u = quadrature_transform(b)
                    diag = np.diag(
                        [
                            2 * final.occ_upper + 1,
                            2 * final.occ_upper + 1,
                            2 * final.occ_lower + 1,
                            2 * final.occ_lower + 1,
                        ]
                    )
                    relaxed = 0.5 * u @ diag @ u.T
                    closed = thermal_covariance_closed(
                        hopfield(wa, 1, lam), temperature
                    ).entries
                    assert np.max(np.abs(relaxed - closed)) < 1e-8

    def test_trajectory_rows_format(self):
        b = hopfield_basis(hopfield(1, 1, 0.5))
        r = collective_rates(b, bright_env())
        points = evolve_trajectory(SecondMoments.vacuum(), r, b, 1.0, dt=0.01, stride=10)
        rows = trajectory_rows(points)
        assert TRAJECTORY_HEADER.count(",") == 8
        assert all(row.count(",") == 8 for row in rows)
        assert rows[0].startswith("0,0,0,")


def moment_vector(m: SecondMoments) -> np.ndarray:
    return np.array([m.occ_upper, m.occ_lower, m.sq_upper, m.sq_lower, m.cross])


def stepped(initial, rates, basis, dt, steps, stride):
    """Oracle: the RK4 map y -> g y + kick applied one step at a time.

    Returns (step index, moment vector) at every stride-th step and the last.
    """
    gain_m1, kick = _rk4_update(
        dt, *_moment_generator(rates, basis.omega_upper, basis.omega_lower)
    )
    gain = 1.0 + gain_m1
    y = moment_vector(initial)
    out = [(0, y)]
    for k in range(1, steps + 1):
        y = gain * y + kick
        if k % stride == 0 or k == steps:
            out.append((k, y))
    return out


def fastest_scale(rates, basis):
    return max(
        basis.omega_upper,
        basis.omega_lower,
        rates.up_upper,
        rates.down_upper,
        rates.up_lower,
        rates.down_lower,
    )


def assert_close(got: np.ndarray, want: np.ndarray):
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


complex_moments = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@st.composite
def solves(draw):
    """A stable point of either coupling family, a bath, a step size within
    the guard, a step count, a stride and arbitrary initial moments."""
    wa = draw(st.floats(0.3, 3.0))
    if draw(st.booleans()):
        params = hopfield(wa, 1.0, draw(st.floats(0.01, 1.5)))
    else:
        params = general(
            wa,
            1.0,
            draw(st.floats(0.0, 0.5)),
            draw(st.floats(0.0, 0.5)),
            draw(st.floats(0.0, 0.5)),
        )
    try:
        basis = diagonalize_params(params)
    except InstabilityError:
        assume(False)
    env = Environment(
        draw(st.floats(0.0, 1.0)), draw(st.floats(1e-4, 0.2)), draw(st.floats(1e-4, 0.2))
    )
    rates = collective_rates(basis, env)
    dt = draw(st.floats(0.05, 0.99)) * MAX_STEP_FRACTION / fastest_scale(rates, basis)
    initial = SecondMoments(
        draw(st.floats(0.0, 3.0)),
        draw(st.floats(0.0, 3.0)),
        draw(complex_moments),
        draw(complex_moments),
        draw(complex_moments),
    )
    steps = draw(st.integers(1, 3000))
    return basis, rates, initial, dt, steps, draw(st.integers(1, 400))


class TestClosedFormPropagator:
    @given(solves())
    def test_both_functions_match_the_stepped_map(self, solve):
        basis, rates, initial, dt, steps, stride = solve
        reference = stepped(initial, rates, basis, dt, steps, stride)
        points = evolve_trajectory(initial, rates, basis, steps * dt, dt, stride)
        assert [t for t, _ in points] == [k * dt for k, _ in reference]
        for (_, m), (_, want) in zip(points, reference):
            assert_close(moment_vector(m), want)
        final = evolve_second_moments(initial, rates, basis, steps * dt, dt)
        assert_close(moment_vector(final), reference[-1][1])
        assert final == points[-1][1]

    @pytest.mark.parametrize(
        "stride, recorded",
        [
            (1, list(range(13))),
            (4, [0, 4, 8, 12]),  # divides the step count
            (5, [0, 5, 10, 12]),  # does not: the last step is added
            (12, [0, 12]),
            (20, [0, 12]),  # exceeds the step count
        ],
    )
    def test_stride_records_every_stride_th_step_and_the_last(self, stride, recorded):
        b = hopfield_basis(hopfield(1, 1, 0.5))
        r = collective_rates(b, bright_env())
        dt = 0.01
        points = evolve_trajectory(SecondMoments.vacuum(), r, b, 12 * dt, dt, stride)
        assert [t for t, _ in points] == [k * dt for k in recorded]

    def test_default_step_is_0_05_over_the_fastest_rate_or_frequency(self):
        b = hopfield_basis(hopfield(1, 1, 0.5))
        r = collective_rates(b, bright_env())
        points = evolve_trajectory(SecondMoments.vacuum(), r, b, 1.0, stride=1)
        assert points[1][0] == 0.05 / fastest_scale(r, b)

    def test_zero_rate_branch_holds_its_value(self):
        b = hopfield_basis(hopfield(1, 1, 0.5))
        rates = RateSet(0.01, 0.03, 0.0, 0.0)  # lower branch cut off from the bath
        start = SecondMoments(0.2, 0.7, sq_upper=0.1 + 0.2j, cross=0.3j)
        dt, steps = 0.01, 3000
        points = evolve_trajectory(start, rates, b, steps * dt, dt, stride=300)
        assert all(m.occ_lower == 0.7 for _, m in points)
        reference = stepped(start, rates, b, dt, steps, 300)
        for (_, m), (_, want) in zip(points, reference):
            assert_close(moment_vector(m), want)

    def test_dark_branch_matches_the_stepped_map(self):
        # resonant D = 0 with equal slopes: the lower branch decouples
        b = no_a2_basis(no_a2(1, 1, 0.3))
        rates = collective_rates(b, Environment(0.25, 0.01, 0.01))
        start = SecondMoments(0.4, 0.9, 0.2 - 0.1j, 0.5j, 0.3)
        dt, steps = 0.02, 3000
        final = evolve_second_moments(start, rates, b, steps * dt, dt)
        reference = stepped(start, rates, b, dt, steps, steps)
        assert_close(moment_vector(final), reference[-1][1])
        assert final.occ_lower == pytest.approx(0.9, abs=1e-12)

    @given(solves())
    def test_squeezing_and_cross_moments_from_vacuum_stay_exactly_zero(self, solve):
        basis, rates, _, dt, steps, stride = solve
        vacuum = SecondMoments.vacuum()
        points = evolve_trajectory(vacuum, rates, basis, steps * dt, dt, stride)
        final = evolve_second_moments(vacuum, rates, basis, steps * dt, dt)
        for row in trajectory_rows(points + [(0.0, final)]):
            assert row.split(",")[3:] == ["0"] * 6  # "-0" would fail too

    def test_ten_million_steps_reach_the_fixed_point(self):
        b = hopfield_basis(hopfield(1, 1, 0.5))
        r = collective_rates(b, bright_env())
        start = SecondMoments(1.0, 2.0, 0.5j, 0.5, 0.1 + 0.1j)
        # 10**7 steps of 5e-3 cover 170 lifetimes of the slower branch
        out = evolve_second_moments(start, r, b, 5e4, dt=5e-3)
        ss = steady_state_second_moments(r)
        assert out.occ_upper == pytest.approx(ss.occ_upper, rel=1e-10)
        assert out.occ_lower == pytest.approx(ss.occ_lower, rel=1e-10)
        assert max(abs(out.sq_upper), abs(out.sq_lower), abs(out.cross)) < 1e-15


class TestLocalRepresentation:
    def test_sixteen_families(self):
        assert len(LOCAL_GENERATOR_LABELS) == 16
        assert ("a", "adag") in LOCAL_GENERATOR_LABELS
        assert ("bdag", "adag") in LOCAL_GENERATOR_LABELS

    def test_kossakowski_is_positive_semidefinite(self):
        b = hopfield_basis(hopfield(1, 1, 0.5))
        k = kossakowski_matrix(b, collective_rates(b, bright_env()))
        ev = np.linalg.eigvalsh(k)
        assert np.all(ev > -1e-15)

    def test_resonant_no_a2_generator_is_mode_symmetric(self):
        b = no_a2_basis(no_a2(1, 1, 0.3))
        table = local_representation_coefficients(
            b, collective_rates(b, Environment(0.25, 0.01, 0.01))
        )
        assert table[("a", "adag")] == pytest.approx(table[("b", "bdag")], abs=1e-15)
        assert table[("adag", "a")] == pytest.approx(table[("bdag", "b")], abs=1e-15)

    def test_diamagnetic_term_breaks_mode_symmetry(self):
        b = hopfield_basis(hopfield(1, 1, 0.5))
        table = local_representation_coefficients(
            b, collective_rates(b, Environment(0.25, 0.01, 0.01))
        )
        assert abs(table[("a", "adag")] - table[("b", "bdag")]) > 1e-5

    def test_weak_coupling_kills_cross_families(self):
        b = hopfield_basis(hopfield(1.5, 1, 1e-6))
        table = local_representation_coefficients(
            b, collective_rates(b, Environment(0.25, 0.01, 0.01))
        )
        for left, right in LOCAL_GENERATOR_LABELS:
            if {left[0], right[0]} == {"a", "b"}:
                assert abs(table[(left, right)]) < 1e-8

    @given(stable_hopfield, st.floats(0.05, 0.8))
    def test_global_and_local_drifts_agree(self, p, temperature):
        # same generator written over polariton and bare operators
        b = hopfield_basis(p)
        r = collective_rates(b, bright_env(temperature))
        s = b.coefficient_matrix()
        g = np.diag([1.0, 1.0, -1.0, -1.0])
        s_inv = g @ s.T @ g

        rng = np.random.default_rng(11)
        c = ladder_commutator_matrix()
        sym = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q_pol = 0.5 * (sym + sym.T) + 0.5 * c

        k_pol = np.diag([r.down_upper, r.down_lower, r.up_upper, r.up_lower])
        m_pol = np.diag(
            [b.omega_upper, b.omega_lower, -b.omega_upper, -b.omega_lower]
        )
        dq_pol = second_moment_drift(k_pol, m_pol, q_pol)

        q_bare = s_inv @ q_pol @ s_inv.T
        dq_bare = second_moment_drift(
            kossakowski_matrix(b, r), build_dynamical_matrix(p), q_bare
        )
        assert np.max(np.abs(dq_bare - s_inv @ dq_pol @ s_inv.T)) < 1e-10

    def test_drift_reproduces_scalar_moment_equations(self):
        b = hopfield_basis(hopfield(1, 1, 0.5))
        r = collective_rates(b, bright_env())
        k_pol = np.diag([r.down_upper, r.down_lower, r.up_upper, r.up_lower])
        n_u, n_l = 0.3, 0.7
        q = np.zeros((4, 4), dtype=complex)
        q[0, 2], q[1, 3] = n_u + 1, n_l + 1
        q[2, 0], q[3, 1] = n_u, n_l
        dq = second_moment_drift(k_pol, None, q)
        assert dq[2, 0] == pytest.approx(
            -r.decay_upper() * n_u + r.up_upper, abs=1e-14
        )
        assert dq[3, 1] == pytest.approx(
            -r.decay_lower() * n_l + r.up_lower, abs=1e-14
        )


class TestAsymmetryDiagnostic:
    def test_zero_temperature(self):
        b = hopfield_basis(hopfield(1, 1, 0.5))
        assert asymmetry_diagnostic(b, 0.0) == 0.0

    def test_resonant_no_a2_is_symmetric(self):
        b = no_a2_basis(no_a2(1, 1, 0.3))
        assert abs(asymmetry_diagnostic(b, 0.25)) < 1e-14

    def test_diamagnetic_resonant_case_is_asymmetric(self):
        b = hopfield_basis(hopfield(1, 1, 0.5))
        assert abs(asymmetry_diagnostic(b, 0.25)) > 1e-3


class TestBalanceFrequency:
    def test_printed_value(self):
        assert resonant_balance_frequency(0.25, 1.0) == pytest.approx(0.8828, abs=5e-5)

    def test_weak_coupling_limit_is_resonance(self):
        assert resonant_balance_frequency(1e-6, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_purities_balance_at_the_root(self):
        lam = 0.25
        wa = resonant_balance_frequency(lam, 1.0)
        gamma = thermal_covariance_closed(hopfield(wa, 1, lam), 0.2)
        mu_a, mu_b, _ = purities(gamma)
        assert abs(mu_a - mu_b) < 1e-9

    @given(st.floats(0.05, 1.5), st.floats(0.05, 1.0))
    def test_balance_holds_at_any_temperature(self, lam, temperature):
        wa = resonant_balance_frequency(lam, 1.0)
        gamma = thermal_covariance_closed(hopfield(wa, 1, lam), temperature)
        mu_a, mu_b, _ = purities(gamma)
        assert abs(mu_a - mu_b) < 1e-9
