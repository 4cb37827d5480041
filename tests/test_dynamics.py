import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hopfield_gaussian.model import InstabilityError, ModelParams, _sector_modes, general, hopfield
from hopfield_gaussian.oracles import (
    build_dynamical_matrix,
    hopfield_basis,
    matrix_report,
    no_a2,
    resonant_balance_frequency,
    thermal_covariance_closed,
)
from hopfield_gaussian.sweep import _sector_args, diagonalize_params, evaluate_point
from hopfield_gaussian import dynamics
from hopfield_gaussian.states import (
    VALUE_FORMAT,
    Environment,
    _sector_covariance,
    thermal_occupation,
)
from hopfield_gaussian.dynamics import (
    MAX_TRAJECTORY_ROWS,
    RateSet,
    SecondMoments,
    Trajectory,
    collective_rates,
    evolve_second_moments,
    evolve_trajectory,
    trajectory_rows,
    TRAJECTORY_HEADER,
    _pack,
    _unpack,
)
from oracles import (
    LOCAL_GENERATOR_LABELS,
    NoSteadyStateError,
    coefficient_matrix,
    kossakowski_matrix,
    ladder_commutator_matrix,
    local_representation_coefficients,
    no_a2_basis,
    second_moment_drift,
    steady_state_second_moments,
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

    def test_a_dt_far_past_the_old_step_guard_is_accepted_and_exact(self):
        # the RK4 emulation required dt * scale <= 0.1; dt is now only the
        # output spacing, so dt * scale = 1.4 and 14 give the exact moments
        b = hopfield_basis(hopfield(1, 1, 0.5))
        r = collective_rates(b, bright_env())
        start = SecondMoments(0.3, 0.1, -0.2 + 0.4j, 0.5, -0.1j)
        for dt in (1.0, 10.0):
            final = evolve_second_moments(start, r, b, 3 * dt, dt)
            assert_close(moment_vector(final), exact_moments(start, r, b, 3 * dt))

    @pytest.mark.parametrize("family", ["hopfield", "no-diamag", "general"])
    def test_relaxed_state_is_the_thermal_state(self, family):
        # the occupations relaxed from vacuum to t = 50 / decay, fed to the
        # covariance stage, build the thermal sectors of evaluate_point
        rng = np.random.default_rng(29)
        for _ in range(20):
            wa, wb = rng.uniform(0.3, 3.0, 2)
            temperature = rng.uniform(0.02, 1.0)
            # lambda1 + lambda2 < sqrt(wa wb) is stable for any D
            l1, l2 = rng.uniform(0.0, 0.45 * math.sqrt(wa * wb), 2)
            params = {
                "hopfield": hopfield(wa, wb, 2.0 * l1),
                "no-diamag": no_a2(wa, wb, l1),
                "general": ModelParams(wa, wb, l1, l2, rng.uniform(0.0, 0.5)),
            }[family]
            env = Environment(temperature, *rng.uniform(0.01, 0.1, 2))
            basis = diagonalize_params(params)
            rates = collective_rates(basis, env)
            t_final = 50.0 / min(rates.decay_upper(), rates.decay_lower())
            final = evolve_second_moments(SecondMoments.vacuum(), rates, basis, t_final)
            frames = _sector_modes(*_sector_args(params)[0])
            relaxed = _sector_covariance(*frames, 0.5 + final.occ_upper, 0.5 + final.occ_lower)
            thermal = evaluate_point(params, env, "thermal")[1]
            assert np.abs(np.subtract(relaxed[:2], thermal[:2])).max() <= 1e-12, params

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


def exact_moments(initial, rates, basis, t) -> np.ndarray:
    """Oracle: y(t) = e^{a t} y0 + b (e^{a t} - 1)/a of y' = a y + b, or
    y0 + b t where a = 0, in 40-digit mpmath from the float rates,
    frequencies and time taken as exact."""
    with mpmath.workdps(40):
        up = [mpmath.mpf(rates.up_upper), mpmath.mpf(rates.up_lower)]
        dec_u = mpmath.mpf(rates.down_upper) - up[0]
        dec_l = mpmath.mpf(rates.down_lower) - up[1]
        wu, wl = mpmath.mpf(basis.omega_upper), mpmath.mpf(basis.omega_lower)
        drift = [-dec_u, -dec_l, -dec_u - 2j * wu, -dec_l - 2j * wl,
                 1j * (wu - wl) - (dec_u + dec_l) / 2]
        t = mpmath.mpf(t)
        out = []
        for a, b, y0 in zip(drift, [*up, 0, 0, 0], moment_vector(initial).tolist()):
            drive = b * t if a == 0 else b * mpmath.expm1(a * t) / a
            out.append(complex(mpmath.exp(a * t) * mpmath.mpc(y0) + drive))
        return np.array(out)


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


def assert_exact(trajectory: Trajectory, initial, rates, basis, rows=None):
    """Rows of a trajectory (all, or the given indices) against the oracle."""
    for i in range(len(trajectory.times)) if rows is None else rows:
        want = exact_moments(initial, rates, basis, trajectory.times[i])
        assert_close(trajectory.moments[i], want)


complex_moments = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@st.composite
def solves(draw):
    """A stable point of either coupling family, a bath, an output spacing
    up to one over the fastest scale (ten times the old RK4 step guard), a
    step count, a stride and arbitrary initial moments."""
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
    dt = draw(st.floats(0.005, 1.0)) / fastest_scale(rates, basis)
    initial = SecondMoments(
        draw(st.floats(0.0, 3.0)),
        draw(st.floats(0.0, 3.0)),
        draw(complex_moments),
        draw(complex_moments),
        draw(complex_moments),
    )
    steps = draw(st.integers(1, 3000))
    return basis, rates, initial, dt, steps, draw(st.integers(1, 400))


README_POINT = (hopfield_basis(hopfield(1, 1, 0.5)), Environment(0.25))


class TestClosedFormPropagator:
    @given(solves())
    def test_both_functions_match_the_exact_solution(self, solve):
        basis, rates, initial, dt, steps, stride = solve
        recorded = [*range(0, steps, stride), steps]
        trajectory = evolve_trajectory(initial, rates, basis, steps * dt, dt, stride)
        assert trajectory.times.tolist() == [k * dt for k in recorded]
        # the first, the last and about ten rows between them
        n = len(recorded)
        assert_exact(trajectory, initial, rates, basis, sorted({*range(0, n, n // 10 + 1), n - 1}))
        final = evolve_second_moments(initial, rates, basis, steps * dt, dt)
        assert final == _unpack(trajectory.moments[-1])

    def test_final_state_is_the_last_time_alone_bit_for_bit(self):
        # evolve_second_moments records the first and the last step; its
        # final moments are those of a solve at the last time alone
        rng = np.random.default_rng(23)
        solved = 0
        while solved < 240:
            wa, l1, l2, dd = rng.uniform(0.3, 3.0), *rng.uniform(0.0, 0.5, 3)
            params = hopfield(wa, 1.0, 3 * l1) if rng.random() < 0.5 else general(wa, 1.0, l1, l2, dd)
            try:
                basis = diagonalize_params(params)
            except InstabilityError:
                continue
            env = Environment(rng.uniform(0.0, 1.0), *rng.uniform(1e-4, 0.2, 2))
            rates = collective_rates(basis, env)
            dt = rng.uniform(0.005, 1.0) / fastest_scale(rates, basis)
            steps = int(rng.integers(1, 3001))
            occupations, rest = rng.uniform(0.0, 3.0, 2), rng.uniform(-2.0, 2.0, (3, 2))
            initial = SecondMoments(*occupations, *(complex(*v) for v in rest))
            alone = dynamics._exact_moments(initial, rates, basis, np.array([steps * dt]))
            final = evolve_second_moments(initial, rates, basis, steps * dt, dt)
            assert _pack(final).tobytes() == _pack(_unpack(alone[0])).tobytes(), (params, env)
            solved += 1

    @given(solves())
    def test_row_zero_is_the_initial_state_bit_for_bit(self, solve):
        basis, rates, initial, dt, steps, stride = solve
        for start in (initial, SecondMoments.vacuum()):
            trajectory = evolve_trajectory(start, rates, basis, steps * dt, dt, stride)
            assert trajectory.times[0] == 0.0
            assert trajectory.moments[0].tobytes() == _pack(start).tobytes()

    def test_readme_point_from_a_squeezed_start_is_exact(self):
        # lambda = 0.5, T = 0.25 (the README example), t = 200 and stride 50
        # from a non-vacuum start: the RK4 emulation was off by 1.2e-5 here
        basis, env = README_POINT
        rates = collective_rates(basis, env)
        start = SecondMoments(0.3, 0.1, -0.2 + 0.4j, 0.5, -0.1j)
        trajectory = evolve_trajectory(start, rates, basis, 200.0, stride=50)
        assert len(trajectory.times) == 131
        assert_exact(trajectory, start, rates, basis)

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
        trajectory = evolve_trajectory(SecondMoments.vacuum(), r, b, 12 * dt, dt, stride)
        assert trajectory.times.tolist() == [k * dt for k in recorded]
        assert trajectory.moments.shape == (len(recorded), 5)

    def test_default_step_is_0_05_over_the_fastest_rate_or_frequency(self):
        b = hopfield_basis(hopfield(1, 1, 0.5))
        r = collective_rates(b, bright_env())
        trajectory = evolve_trajectory(SecondMoments.vacuum(), r, b, 1.0, stride=1)
        assert trajectory.times[1] == 0.05 / fastest_scale(r, b)

    def test_zero_rate_branch_holds_its_value(self):
        b = hopfield_basis(hopfield(1, 1, 0.5))
        rates = RateSet(0.01, 0.03, 0.0, 0.0)  # lower branch cut off from the bath
        start = SecondMoments(0.2, 0.7, sq_upper=0.1 + 0.2j, cross=0.3j)
        dt, steps = 0.01, 3000
        trajectory = evolve_trajectory(start, rates, b, steps * dt, dt, stride=300)
        assert np.all(trajectory.moments[:, 1].real == 0.7)
        assert len(trajectory.times) == 11
        assert_exact(trajectory, start, rates, b)

    def test_undamped_branch_with_a_drive_grows_linearly(self):
        # up = down: a = 0 and b > 0, so occ_L(t) = occ_L(0) + up t
        b = hopfield_basis(hopfield(1, 1, 0.5))
        rates = RateSet(0.01, 0.03, 0.02, 0.02)
        start = SecondMoments(0.2, 0.7)
        trajectory = evolve_trajectory(start, rates, b, 30.0, 0.01, stride=300)
        assert_exact(trajectory, start, rates, b)
        assert trajectory.moments[-1, 1] == pytest.approx(0.7 + 0.02 * 30.0, rel=1e-14)
        # bit for bit y0 + up t, the drive first and e^{0 t} y0 = y0 after it
        occ_lower = trajectory.moments[:, 1]
        assert occ_lower.real.tobytes() == (trajectory.times * 0.02 + 0.7).tobytes()
        assert not occ_lower.imag.any()

    def test_dark_branch_matches_the_exact_solution(self):
        # resonant D = 0 with equal slopes: the lower branch decouples
        b = no_a2_basis(no_a2(1, 1, 0.3))
        rates = collective_rates(b, Environment(0.25, 0.01, 0.01))
        start = SecondMoments(0.4, 0.9, 0.2 - 0.1j, 0.5j, 0.3)
        dt, steps = 0.02, 3000
        final = evolve_second_moments(start, rates, b, steps * dt, dt)
        assert_close(moment_vector(final), exact_moments(start, rates, b, steps * dt))
        assert final.occ_lower == pytest.approx(0.9, abs=1e-12)

    @given(solves())
    def test_squeezing_and_cross_moments_from_vacuum_stay_exactly_zero(self, solve):
        basis, rates, _, dt, steps, stride = solve
        vacuum = SecondMoments.vacuum()
        times, moments = evolve_trajectory(vacuum, rates, basis, steps * dt, dt, stride)
        final = evolve_second_moments(vacuum, rates, basis, steps * dt, dt)
        with_final = Trajectory(
            np.append(times, 0.0), np.vstack([moments, moment_vector(final)])
        )
        for row in trajectory_rows(with_final):
            assert row.split(",")[3:] == ["0"] * 6  # "-0" would fail too

    @given(solves())
    def test_a_start_of_signed_zeros_is_the_vacuum_bit_for_bit(self, solve):
        basis, rates, _, dt, steps, stride = solve
        zeros = SecondMoments(-0.0, -0.0, -0j, -0j, -0j)
        vacuum = evolve_trajectory(SecondMoments.vacuum(), rates, basis, steps * dt, dt, stride)
        signed = evolve_trajectory(zeros, rates, basis, steps * dt, dt, stride)
        assert signed.moments.tobytes() == vacuum.moments.tobytes()
        assert trajectory_rows(signed) == trajectory_rows(vacuum)
        final = evolve_second_moments(zeros, rates, basis, steps * dt, dt)
        assert _pack(final).tobytes() == vacuum.moments[-1].tobytes()

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


class TestTrajectorySize:
    """Every input here is rejected by counting rows, before any allocation."""

    @pytest.mark.parametrize(
        "t_final, dt, stride",
        [
            (1e30, None, 1),  # OverflowError from range() before
            (1e9, None, 1),  # a list of 2e10 step indices before
            (1e9, 1e-300, 1),  # t_final / dt overflows to inf
            (math.inf, 0.1, 10**6),
        ],
    )
    def test_too_many_rows_is_a_value_error_naming_the_inputs(self, t_final, dt, stride):
        basis, env = README_POINT
        rates = collective_rates(basis, env)
        with pytest.raises(ValueError, match=r"t_final=.*, dt=.* and stride=.*limit is 10,000,000"):
            evolve_trajectory(SecondMoments.vacuum(), rates, basis, t_final, dt, stride)

    def test_one_row_past_the_limit(self):
        basis, env = README_POINT
        rates = collective_rates(basis, env)
        with pytest.raises(ValueError, match="would record 10000001 rows"):
            evolve_trajectory(SecondMoments.vacuum(), rates, basis, 1e7, 1.0, 1)

    def test_rows_are_counted_not_steps(self):
        # 1e30 steps recorded every 10**40-th: the first row and the last
        basis, env = README_POINT
        rates = collective_rates(basis, env)
        trajectory = evolve_trajectory(SecondMoments.vacuum(), rates, basis, 1e30, 1.0, 10**40)
        assert trajectory.times.tolist() == [0.0, 1e30]
        assert trajectory.moments[-1, :2].real.tolist() == pytest.approx(
            [thermal_occupation(basis.omega_upper, 0.25),
             thermal_occupation(basis.omega_lower, 0.25)], rel=1e-12
        )
        assert MAX_TRAJECTORY_ROWS == 10**7

    def test_a_non_finite_time_fails_the_final_state_too(self):
        basis, env = README_POINT
        rates = collective_rates(basis, env)
        # the final state names no stride, which no caller gave
        message = r"^t_final=inf and dt=[^ ]+ give no finite last step$"
        with pytest.raises(ValueError, match=message) as exc:
            evolve_second_moments(SecondMoments.vacuum(), rates, basis, math.inf)
        assert "stride" not in str(exc.value)

    @pytest.mark.parametrize("t_final", [-5.0, 0.0, -0.0, math.nan, -math.inf])
    def test_a_time_that_is_not_positive_is_rejected(self, t_final):
        basis, env = README_POINT
        rates = collective_rates(basis, env)
        message = rf"t_final must be positive, got t_final={t_final}"
        with pytest.raises(ValueError, match=message):
            evolve_trajectory(SecondMoments.vacuum(), rates, basis, t_final)
        with pytest.raises(ValueError, match=message):
            evolve_second_moments(SecondMoments.vacuum(), rates, basis, t_final)


class TestGrowingBranch:
    """A hand-built RateSet may absorb faster than it emits, which
    ``collective_rates`` never gives: that branch grows without bound.
    Where its moments pass the largest float, both solvers raise one
    ValueError naming it, with no numpy warning."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("solve", [evolve_trajectory, evolve_second_moments])
    @pytest.mark.parametrize(
        "rates, start, name",
        [
            (RateSet(0.03, 0.01, 0.01, 0.03), SecondMoments.vacuum(), "upper"),
            (RateSet(0.01, 0.03, 0.03, 0.01), SecondMoments(0.2, 0.7, 0.1j, 0.3, 0.2j), "lower"),
            # a squeezing moment far past what the occupation allows overflows first
            (RateSet(0.03, 0.01, 0.01, 0.03), SecondMoments(0.0, 0.0, 1e300), "upper"),
        ],
        ids=["upper-from-vacuum", "lower-from-a-squeezed-start", "upper-squeezing-first"],
    )
    def test_an_overflow_names_the_growing_branch(self, solve, rates, start, name):
        # e^{0.02 t} passes the largest float near t = 35,500
        basis = hopfield_basis(hopfield(1, 1, 0.5))
        message = rf"^the {name} branch grows past the float range by t = 100000$"
        with pytest.raises(ValueError, match=message):
            solve(start, rates, basis, 1e5, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_a_growing_branch_within_the_float_range_is_solved(self):
        basis = hopfield_basis(hopfield(1, 1, 0.5))
        rates = RateSet(0.03, 0.01, 0.01, 0.03)
        final = evolve_second_moments(SecondMoments.vacuum(), rates, basis, 1e4, 1.0)
        # occ_U = up expm1(-decay t) / -decay, decay = -0.02
        assert final.occ_upper == pytest.approx(0.03 * math.expm1(200.0) / 0.02, rel=1e-12)


MOMENT_FIELDS = ["occ_upper", "occ_lower", "sq_upper", "sq_lower", "cross"]
RATE_FIELDS = ["up_upper", "down_upper", "up_lower", "down_lower"]
NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteInputs:
    """A NaN or infinite moment or rate is rejected where it is built, and
    the message names the field."""

    @pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
    @pytest.mark.parametrize("field", MOMENT_FIELDS)
    def test_second_moments(self, field, bad):
        with pytest.raises(ValueError, match=rf"^{field} must be finite, got {bad!r}$"):
            SecondMoments(**{"occ_upper": 0.5, "occ_lower": 0.5, field: bad})

    @pytest.mark.parametrize(
        "bad", [complex(0.5, math.nan), complex(math.inf, 0.0), complex(0.0, -math.inf)], ids=repr
    )
    @pytest.mark.parametrize("field", MOMENT_FIELDS[2:])
    def test_complex_moments(self, field, bad):
        message = rf"^{field} must be finite, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            SecondMoments(0.5, 0.5, **{field: bad})

    @pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
    @pytest.mark.parametrize("field", RATE_FIELDS)
    def test_rates(self, field, bad):
        rates = dict.fromkeys(RATE_FIELDS, 0.01) | {field: bad}
        with pytest.raises(ValueError, match=rf"^{field} must be finite, got {bad!r}$"):
            RateSet(**rates)

    def test_finite_extremes_are_accepted(self):
        big = 1.7976931348623157e308
        SecondMoments(big, 5e-324, complex(-big, big), -0j, complex(5e-324, -5e-324))
        RateSet(big, big, 0.0, 5e-324)


def reference_rows(trajectory: Trajectory) -> list[str]:
    """Each cell formatted on its own, the way ``format_value`` does."""
    rows = []
    for t, (occ_u, occ_l, sq_u, sq_l, cross) in zip(
        trajectory.times.tolist(), trajectory.moments.tolist()
    ):
        cells = (t, occ_u.real, occ_l.real, sq_u.real, sq_u.imag, sq_l.real, sq_l.imag,
                 cross.real, cross.imag)
        rows.append(",".join(format(v, VALUE_FORMAT) for v in cells))
    return rows


SPECIAL_FLOATS = [
    0.0,
    -0.0,
    5e-324,  # smallest subnormal
    -2.5e-310,
    2.2250738585072014e-308,  # smallest normal
    1e16,
    -1e16,
    123456789012.5,
    1e-5,
    0.1 + 0.2,
    1.7976931348623157e308,
    math.inf,
    -math.inf,
    math.nan,
]


def table_trajectory(table: np.ndarray) -> Trajectory:
    """The trajectory whose rows are the 9-column table (imaginary parts of
    the occupations, which no column shows, left 0)."""
    moments = np.zeros((len(table), 5), dtype=complex)
    moments.real[:, :2] = table[:, 1:3]
    moments.real[:, 2:] = table[:, 3::2]
    moments.imag[:, 2:] = table[:, 4::2]
    return Trajectory(table[:, 0].copy(), moments)


cell_values = st.sampled_from(SPECIAL_FLOATS) | st.floats()


@st.composite
def tables(draw):
    """1 to 5 rows (with two rows every column is often constant); each
    column varies, holds one value, or mixes +0 and -0."""
    n = draw(st.integers(1, 5))
    columns = []
    for _ in range(9):
        kind = draw(st.sampled_from(["varies", "constant", "signed zeros"]))
        if kind == "constant":
            columns.append([draw(cell_values)] * n)
        else:
            cells = cell_values if kind == "varies" else st.sampled_from([0.0, -0.0])
            columns.append(draw(st.lists(cells, min_size=n, max_size=n)))
    return np.array(columns).T


class TestTrajectoryRows:
    @given(solves())
    def test_rows_equal_the_per_cell_format(self, solve):
        basis, rates, initial, dt, steps, stride = solve
        trajectory = evolve_trajectory(initial, rates, basis, steps * dt, dt, stride)
        assert trajectory_rows(trajectory) == reference_rows(trajectory)

    @pytest.mark.parametrize("x", SPECIAL_FLOATS, ids=repr)
    def test_special_floats_format_as_one_cell_would(self, x):
        moments = np.empty((2, 5), dtype=complex)
        moments.real, moments.imag = x, -x
        moments[1] = [x, 1.0, complex(-1.5, x), complex(x, 2.0), -x]
        trajectory = Trajectory(np.array([x, 0.5]), moments)
        rows = trajectory_rows(trajectory)
        assert rows == reference_rows(trajectory)
        assert rows[0].split(",")[:3] == [format(x, VALUE_FORMAT)] * 3

    @given(tables())
    def test_constant_columns_format_as_each_cell_would(self, table):
        trajectory = table_trajectory(table)
        assert trajectory_rows(trajectory) == reference_rows(trajectory)

    @pytest.mark.parametrize(
        "columns",
        [
            {3: [0.0] * 3, 4: [-0.0] * 3},  # all +0 and all -0
            {3: [0.0, -0.0, 0.0], 4: [-0.0, 0.0, 0.0]},  # +0 and -0 mixed
            {1: [0.25] * 3, 2: [-1e-300] * 3},  # constant and nonzero
            {5: [math.inf] * 3, 6: [math.nan] * 3, 7: [-math.inf] * 3},
        ],
    )
    def test_each_kind_of_constant_column(self, columns):
        table = np.array([[0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]] * 3)
        table[:, 0] = [0.0, 1.0, 2.0]  # the time column always varies
        for j, cells in columns.items():
            table[:, j] = cells
        trajectory = table_trajectory(table)
        rows = trajectory_rows(trajectory)
        assert rows == reference_rows(trajectory)
        for j, cells in columns.items():
            assert [row.split(",")[j] for row in rows] == [format(x, VALUE_FORMAT) for x in cells]

    @pytest.mark.parametrize("extra", [-1, 0, 1, "twice plus one"])
    def test_block_edges_format_as_each_cell_would(self, extra):
        block = dynamics._FORMAT_BLOCK_ROWS
        n = 2 * block + 1 if extra == "twice plus one" else block + extra
        rng = np.random.default_rng(n)
        table = np.empty((n, 9))
        table[:, 0] = np.arange(n) * 0.125
        table[:, 1] = rng.uniform(0.0, 3.0, n)  # varies
        table[:, 2] = 0.25  # constant
        table[:, 3] = rng.choice([0.0, -0.0], n)  # signed zeros
        table[:, 4] = -0.0  # constant -0
        table[:, 5] = rng.choice(SPECIAL_FLOATS, n)
        table[:, 6] = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        table[:, 7:] = 0.0
        trajectory = table_trajectory(table)
        assert trajectory_rows(trajectory) == reference_rows(trajectory)
        # only the time varies: every other cell comes from the template
        table[:, 1:] = table[0, 1:]
        trajectory = table_trajectory(table)
        rows = trajectory_rows(trajectory)
        assert rows == reference_rows(trajectory)
        assert len(rows) == n and len(set(row.partition(",")[2] for row in rows)) == 1

    def test_two_rows_where_every_column_is_constant(self):
        table = np.array([[-0.0, 0.1, math.nan, 0.0, -0.0, math.inf, 1e16, 5e-324, -2.5]] * 2)
        trajectory = table_trajectory(table)
        assert trajectory_rows(trajectory) == reference_rows(trajectory)
        assert trajectory_rows(trajectory)[0] == "-0,0.1,nan,0,-0,inf,1e+16,4.94065645841e-324,-2.5"

    def test_trajectory_is_arrays_from_the_initial_state(self):
        b = hopfield_basis(hopfield(1, 1, 0.5))
        r = collective_rates(b, bright_env())
        start = SecondMoments(0.3, 0.1, -0.2 + 0.4j, 0.5, -0.1j)
        trajectory = evolve_trajectory(start, r, b, 1.0, dt=0.01, stride=25)
        assert trajectory.times.shape == (5,) and trajectory.moments.shape == (5, 5)
        assert trajectory.moments.dtype == complex
        assert trajectory.times[0] == 0.0
        assert trajectory.moments[0].tolist() == moment_vector(start).tolist()

    def test_negative_occupation_is_rejected(self, monkeypatch):
        b = hopfield_basis(hopfield(1, 1, 0.5))
        r = collective_rates(b, bright_env())
        negative = np.array([[0.1, -1e-300, 0.0, 0.0, 0.0]], dtype=complex)
        monkeypatch.setattr(dynamics, "_exact_moments", lambda *args: negative)
        with pytest.raises(ValueError, match="occupations must be non-negative"):
            evolve_trajectory(SecondMoments.vacuum(), r, b, 0.01, dt=0.01)


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
        s = coefficient_matrix(b)
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


class TestBalanceFrequency:
    def test_printed_value(self):
        assert resonant_balance_frequency(0.25, 1.0) == pytest.approx(0.8828, abs=5e-5)

    def test_weak_coupling_limit_is_resonance(self):
        assert resonant_balance_frequency(1e-6, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_purities_balance_at_the_root(self):
        lam = 0.25
        wa = resonant_balance_frequency(lam, 1.0)
        gamma = thermal_covariance_closed(hopfield(wa, 1, lam), 0.2)
        rep = matrix_report(gamma)
        assert abs(rep.mu_a - rep.mu_b) < 1e-9

    @given(st.floats(0.05, 1.5), st.floats(0.05, 1.0))
    def test_balance_holds_at_any_temperature(self, lam, temperature):
        wa = resonant_balance_frequency(lam, 1.0)
        gamma = thermal_covariance_closed(hopfield(wa, 1, lam), temperature)
        rep = matrix_report(gamma)
        assert abs(rep.mu_a - rep.mu_b) < 1e-9
