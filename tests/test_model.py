import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfield_gaussian.model import (
    DegenerateSpectrumError,
    InstabilityError,
    _closed_coefficients,
    _closed_frequencies,
    bogoliubov_diagonalize,
    build_dynamical_matrix,
    critical_coupling,
    general,
    hopfield,
    hopfield_basis,
    no_a2,
    no_a2_basis,
    no_a2_resonant_basis,
    polariton_frequencies,
)

GOLDEN_U = (1 + math.sqrt(5)) / 2  # frequencies of hopfield(1, 1, 0.5)
GOLDEN_L = (math.sqrt(5) - 1) / 2

stable_hopfield = st.builds(
    hopfield,
    st.floats(0.1, 4.0),
    st.just(1.0),
    st.floats(0.01, 2.5),
)

stable_no_a2 = st.tuples(
    st.floats(0.2, 4.0), st.floats(0.02, 0.98)
).map(lambda t: no_a2(t[0], 1.0, t[1] * critical_coupling(t[0], 1.0)))


class TestModelParams:
    def test_hopfield_constructor_sets_diamagnetic_weight(self):
        p = hopfield(1.0, 2.0, 0.6)
        assert p.lambda1 == p.lambda2 == 0.6
        assert p.diamag == pytest.approx(0.18)

    def test_no_a2_constructor(self):
        p = no_a2(1.0, 1.0, 0.3)
        assert p.diamag == 0.0 and p.coupling == 0.3

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(omega_a=0.0, omega_b=1, lambda1=0, lambda2=0, diamag=0),
            dict(omega_a=1, omega_b=-1, lambda1=0, lambda2=0, diamag=0),
            dict(omega_a=1, omega_b=1, lambda1=-0.1, lambda2=0, diamag=0),
            dict(omega_a=1, omega_b=1, lambda1=0, lambda2=0, diamag=-1),
            dict(omega_a=math.nan, omega_b=1, lambda1=0, lambda2=0, diamag=0),
            dict(omega_a=1, omega_b=math.inf, lambda1=0, lambda2=0, diamag=0),
            dict(omega_a=1, omega_b=1, lambda1=math.nan, lambda2=math.nan, diamag=0),
            dict(omega_a=1, omega_b=1, lambda1=0, lambda2=0, diamag=math.inf),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            general(**kwargs)


class TestDynamicalMatrix:
    def test_decoupled_is_diagonal(self):
        m = build_dynamical_matrix(hopfield(1, 1, 0))
        assert np.array_equal(m, np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_full_coupling_entries(self):
        # D = 0.25, so the cavity diagonal is shifted to 1.5 and the
        # counter-rotating cavity entry is 0.5
        m = build_dynamical_matrix(hopfield(1, 1, 0.5))
        assert m[0, 0] == 1.5
        assert m[0, 2] == 0.5
        assert m[0, 1] == m[0, 3] == 0.5
        assert m[2, 2] == -1.5

    def test_mixing_only_squeezing_entries_vanish(self):
        m = build_dynamical_matrix(general(1, 1, 0.3, 0.0, 0.0))
        assert m[0, 3] == m[1, 2] == m[2, 1] == m[3, 0] == 0.0
        assert m[0, 1] == m[1, 0] == 0.3
        assert m[2, 3] == m[3, 2] == -0.3

    def test_coefficient_vector_is_left_eigenvector(self):
        # the closed-form coefficients must satisfy c M = omega c
        p = hopfield(1.3, 1, 0.4)
        m = build_dynamical_matrix(p)
        basis = hopfield_basis(p)
        for coeffs, w in [
            (basis.coeffs_upper, basis.omega_upper),
            (basis.coeffs_lower, basis.omega_lower),
        ]:
            c = np.array(coeffs)
            assert np.max(np.abs(c @ m - w * c)) < 1e-12

    @given(stable_hopfield)
    def test_bogoliubov_symmetry(self, p):
        # M = -K M K with K swapping the dagger block
        m = build_dynamical_matrix(p)
        k = np.zeros((4, 4))
        k[:2, 2:] = np.eye(2)
        k[2:, :2] = np.eye(2)
        assert np.max(np.abs(m + k @ m @ k)) == 0.0


class TestFrequencies:
    def test_uncoupled(self):
        assert polariton_frequencies(hopfield(1, 1, 0)) == (1.0, 1.0)

    def test_golden_ratio_point(self):
        wu, wl = polariton_frequencies(hopfield(1, 1, 0.5))
        assert wu == pytest.approx(GOLDEN_U, abs=1e-12)
        assert wl == pytest.approx(GOLDEN_L, abs=1e-12)

    def test_instability_at_critical_coupling(self):
        with pytest.raises(InstabilityError):
            polariton_frequencies(no_a2(1, 1, 0.5))

    def test_stability_boundary_sharp(self):
        lam_c = critical_coupling(1, 1)
        polariton_frequencies(no_a2(1, 1, lam_c * (1 - 1e-12)))
        with pytest.raises(InstabilityError):
            polariton_frequencies(no_a2(1, 1, lam_c * (1 + 1e-12)))
        with pytest.raises(InstabilityError):
            polariton_frequencies(no_a2(1, 1, lam_c))

    @given(stable_hopfield)
    def test_product_rule(self, p):
        wu, wl = polariton_frequencies(p)
        ref = p.omega_a * p.omega_b
        assert abs(wu * wl - ref) / ref < 1e-12

    @given(st.floats(0.2, 5.0).filter(lambda wa: abs(wa - 1) > 0.05))
    def test_decoupling_limit_orders_frequencies(self, wa):
        wu, wl = polariton_frequencies(hopfield(wa, 1, 1e-8))
        assert wu == pytest.approx(max(wa, 1.0), rel=1e-6)
        assert wl == pytest.approx(min(wa, 1.0), rel=1e-6)


class TestCriticalCoupling:
    def test_values(self):
        assert critical_coupling(1, 1) == 0.5
        assert critical_coupling(4, 1) == 1.0

    def test_degenerate_input_rejected(self):
        with pytest.raises(ValueError):
            critical_coupling(1, 0)


class TestHopfieldBasis:
    def test_mixing_angle_at_golden_point(self):
        b = hopfield_basis(hopfield(1, 1, 0.5))
        assert math.cos(2 * b.theta) == pytest.approx(1 / math.sqrt(5), abs=1e-12)
        assert math.sin(2 * b.theta) == pytest.approx(-2 / math.sqrt(5), abs=1e-12)
        assert -math.pi / 2 < b.theta < 0

    def test_degenerate_point_raises(self):
        with pytest.raises(DegenerateSpectrumError):
            hopfield_basis(hopfield(1, 1, 0))

    @given(stable_hopfield)
    def test_normalization_and_orthogonality(self, p):
        b = hopfield_basis(p)
        nu, nl = b.bogoliubov_norms()
        assert abs(nu - 1) < 1e-10 and abs(nl - 1) < 1e-10
        assert b.orthogonality_residual() < 1e-10

    @given(stable_hopfield)
    def test_matches_numeric_oracle(self, p):
        analytic = hopfield_basis(p)
        numeric = bogoliubov_diagonalize(p)
        assert numeric.omega_upper == pytest.approx(analytic.omega_upper, rel=1e-10)
        assert numeric.omega_lower == pytest.approx(analytic.omega_lower, rel=1e-10)
        for a, n in [
            (analytic.coeffs_upper, numeric.coeffs_upper),
            (analytic.coeffs_lower, numeric.coeffs_lower),
        ]:
            assert np.allclose(np.abs(a), np.abs(n), atol=1e-9)


closed_form_inputs = st.lists(
    st.tuples(st.floats(0.1, 4.0), st.floats(0.1, 4.0), st.floats(1e-3, 2.5),
              st.floats(0.0, 1.0)),
    min_size=1, max_size=8,
)


def bits(values: np.ndarray) -> np.ndarray:
    """The bit pattern of each value, -0.0 apart from 0.0 and every NaN alike."""
    return np.where(np.isnan(values), np.nan, values).view(np.int64)


class TestClosedFormOnArrays:
    """The kernel's arrays and the scalar route's floats take the same bits."""

    @given(closed_form_inputs)
    def test_float_and_stacked_inputs_agree_bit_for_bit(self, rows):
        # past the stability edge too, where omega_L and the coefficients
        # are NaN on both inputs
        columns = [np.array(c) for c in zip(*rows)]
        _, wu, wl = _closed_frequencies(*columns)
        with np.errstate(divide="ignore", invalid="ignore"):
            theta, upper, lower = _closed_coefficients(*columns, wu, wl)
        stacked = np.vstack([wu, wl, theta, upper, lower])
        for i, row in enumerate(rows):
            _, wu_i, wl_i = _closed_frequencies(*row)
            theta_i, upper_i, lower_i = _closed_coefficients(*row, wu_i, wl_i)
            single = np.array([wu_i, wl_i, theta_i, *upper_i, *lower_i])
            assert (bits(single) == bits(stacked[:, i])).all(), row

    def test_past_the_edge_omega_lower_is_nan(self):
        product, _, wl = _closed_frequencies(1.0, 1.0, 0.6, 0.0)
        assert product < 0.0 and math.isnan(wl)
        with pytest.raises(InstabilityError):
            polariton_frequencies(no_a2(1.0, 1.0, 0.6))


class TestNumericDiagonalization:
    def test_decoupling_limit(self):
        b = bogoliubov_diagonalize(hopfield(5, 1, 0.01))
        assert b.omega_upper == pytest.approx(5, abs=1e-3)
        assert b.omega_lower == pytest.approx(1, abs=1e-3)

    def test_instability_detected(self):
        with pytest.raises(InstabilityError):
            bogoliubov_diagonalize(no_a2(1, 1, 0.6))

    def test_leading_coefficient_positive(self):
        b = bogoliubov_diagonalize(hopfield(1, 1, 0.5))
        assert b.coeffs_upper[0] > 0 and b.coeffs_lower[0] > 0

    def test_degenerate_squeezing_only_is_accepted(self):
        b = bogoliubov_diagonalize(general(1, 1, 0.0, 0.3, 0.0))
        nu, nl = b.bogoliubov_norms()
        assert abs(nu - 1) < 1e-10 and abs(nl - 1) < 1e-10
        assert b.orthogonality_residual() < 1e-10
        assert b.omega_upper == pytest.approx(math.sqrt(1 - 0.3**2), abs=1e-12)

    def test_mixing_only_frequencies(self):
        b = bogoliubov_diagonalize(general(1, 1, 0.3, 0.0, 0.0))
        assert b.omega_upper == pytest.approx(1.3, abs=1e-12)
        assert b.omega_lower == pytest.approx(0.7, abs=1e-12)


class TestNoA2Basis:
    @given(stable_no_a2)
    def test_matches_numeric_oracle(self, p):
        closed = no_a2_basis(p)
        numeric = bogoliubov_diagonalize(p)
        assert numeric.omega_upper == pytest.approx(closed.omega_upper, rel=1e-10)
        for a, n in [
            (closed.coeffs_upper, numeric.coeffs_upper),
            (closed.coeffs_lower, numeric.coeffs_lower),
        ]:
            assert np.allclose(np.abs(a), np.abs(n), atol=1e-9)

    def test_resonant_magnitude_symmetry(self):
        b = no_a2_basis(no_a2(1, 1, 0.25))
        for w, x, y, z in (b.coeffs_upper, b.coeffs_lower):
            assert abs(w) == pytest.approx(abs(x), abs=1e-12)
            assert abs(y) == pytest.approx(abs(z), abs=1e-12)

    def test_resonant_reduction_agrees_with_general_form(self):
        p = no_a2(1, 1, 0.25)
        b, r = no_a2_basis(p), no_a2_resonant_basis(p)
        assert np.allclose(b.coeffs_upper, r.coeffs_upper, atol=1e-12)
        assert np.allclose(b.coeffs_lower, r.coeffs_lower, atol=1e-12)

    def test_weak_coupling_is_nearly_one_hot(self):
        b = no_a2_basis(no_a2(2, 1, 1e-5))
        assert b.coeffs_upper[0] == pytest.approx(1, abs=1e-8)
        assert abs(b.coeffs_upper[1]) < 1e-4
        assert b.coeffs_lower[1] == pytest.approx(-1, abs=1e-8) or b.coeffs_lower[
            1
        ] == pytest.approx(1, abs=1e-8)

    def test_instability_propagates(self):
        with pytest.raises(InstabilityError):
            no_a2_basis(no_a2(1, 1, 0.51))
