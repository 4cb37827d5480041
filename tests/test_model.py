import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hopfield_gaussian.dynamics import collective_rates
from hopfield_gaussian.model import (
    _DET_FILTER,
    _DET_FLOOR,
    InstabilityError,
    ModelParams,
    _exact_determinants,
    _stability_determinants,
    general,
    hopfield,
)
from hopfield_gaussian.oracles import (
    DegenerateSpectrumError,
    _closed_frequencies,
    bogoliubov_diagonalize,
    build_dynamical_matrix,
    critical_coupling,
    hopfield_basis,
    no_a2,
    polariton_frequencies,
    single_coupling,
)
from hopfield_gaussian.states import Environment
from hopfield_gaussian.sweep import diagonalize_params
from oracles import no_a2_basis

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
        assert p.diamag == 0.0 and single_coupling(p) == 0.3

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


def exact_determinants(wa, wb, l1, l2, dd):
    """(det V, det T) of the exact inputs, as Fractions."""
    wa, wb, l1, l2, dd = map(Fraction, (wa, wb, l1, l2, dd))
    return (wa + 4 * dd) * wb - (l1 + l2) ** 2, wa * wb - (l1 - l2) ** 2


def sign(x) -> int:
    return (x > 0) - (x < 0)


def rounded(d: Fraction) -> float:
    """d correctly rounded to a float, with its sign kept: +-inf where it
    rounds past the largest float, +-ulp(0) where a nonzero d rounds to 0."""
    try:
        f = float(d)
    except OverflowError:
        return math.inf if d > 0 else -math.inf
    return f if f or not d else math.ulp(0.0) if d > 0 else -math.ulp(0.0)


def expected_determinants(point) -> tuple[float, float]:
    """The values ``_stability_determinants`` gives: the float p - q where
    the filter trusts the signs of both, else the rounded exact values."""
    wa, wb, l1, l2, dd = point
    pairs = ((wa + 4.0 * dd) * wb, (l1 + l2) * (l1 + l2)), (wa * wb, (l1 - l2) * (l1 - l2))
    if all(abs(p - q) > _DET_FILTER * (p + q) + _DET_FLOOR for p, q in pairs):
        return tuple(p - q for p, q in pairs)
    return tuple(map(rounded, exact_determinants(*point)))


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


FLOAT_MAX = 1.7976931348623157e308
positive = st.floats(5e-324, FLOAT_MAX)
non_negative = st.floats(0.0, FLOAT_MAX)


@st.composite
def stability_points(draw):
    """(wa, wb, lambda1, lambda2, D) anywhere in the float range, free or
    within a few ulps of an edge, where a float determinant cancels."""
    wa, wb, l2, dd = draw(positive), draw(positive), draw(non_negative), draw(non_negative)
    if draw(st.booleans()):
        return wa, wb, draw(non_negative), l2, dd
    # lambda1 next to the root of det V (lambda1 + lambda2 = sqrt((wa + 4D) wb))
    # or of det T (lambda1 - lambda2 = +-sqrt(wa wb)); every edge has one
    if draw(st.booleans()):
        edge = math.sqrt(wa + 4.0 * dd) * math.sqrt(wb) - l2
    else:
        edge = l2 + draw(st.sampled_from([1.0, -1.0])) * math.sqrt(wa) * math.sqrt(wb)
    l1 = abs(edge) if math.isfinite(edge) else FLOAT_MAX
    for _ in range(draw(st.integers(0, 4))):
        l1 = math.nextafter(l1, draw(st.sampled_from([0.0, math.inf])))
    return wa, wb, min(l1, FLOAT_MAX), l2, dd


class TestExactStability:
    """The signs of ``_stability_determinants`` are those of the exact
    determinants anywhere in the float range: where a product overflows, where
    both underflow, and within rounding of an edge.  Where the float filter
    misses, its values are the exact determinants correctly rounded."""

    # a product past the largest float on both sides (inf - inf), and a
    # determinant below the smallest subnormal: scaled copies of
    # (1, 1, 1/2, 0, 0), a stable point; both products of det V
    # underflowing, where their float difference of one subnormal ulp has
    # the wrong sign; and an exact det V 2^919 past the largest float, under
    # half its ulp (2^970), which rounds to the largest float, not to inf
    NAMED = [(1e200, 1e200, 5e199, 0.0, 0.0), (1e-170, 1e-170, 5e-171, 0.0, 0.0),
             (4.9525104639851177e-138, 5.135678329444881e-181, 9.789312546799335e-160,
              9.789312546799335e-160, 6.278506246869001e-139),
             (FLOAT_MAX, 2.0, 1.3407807929942597e154, 0.0, 2.4948003869184003e291)]

    @settings(max_examples=1000)
    @given(stability_points())
    @example(NAMED[0])
    @example(NAMED[1])
    @example(NAMED[2])
    @example(NAMED[3])
    def test_signs_are_exact_on_floats(self, point):
        dets = _stability_determinants(*point)
        assert [sign(d) for d in dets] == [sign(d) for d in exact_determinants(*point)], point
        assert all(map(same_bits, dets, expected_determinants(point))), point
        exact = map(rounded, exact_determinants(*point))
        assert all(map(same_bits, _exact_determinants(*point), exact)), point

    def test_values_are_the_rounded_exact_determinants(self):
        assert _stability_determinants(*self.NAMED[0]) == (math.inf, math.inf)
        assert _stability_determinants(*self.NAMED[1]) == (math.ulp(0.0), math.ulp(0.0))
        assert _stability_determinants(*self.NAMED[2])[0] == -math.ulp(0.0)
        assert _stability_determinants(*self.NAMED[3])[0] == FLOAT_MAX

    @settings(max_examples=200)
    @given(st.lists(stability_points(), min_size=1, max_size=12))
    @example(NAMED)
    def test_arrays_decide_as_floats(self, points):
        with np.errstate(over="ignore", invalid="ignore"):  # as in evaluate_grid
            det_v, det_t = _stability_determinants(*map(np.array, zip(*points)))
        for i, point in enumerate(points):
            dets = _stability_determinants(*point)
            assert [sign(d) for d in dets] == [sign(d) for d in exact_determinants(*point)]
            # the float filter runs the same operations on each element
            assert np.float64(det_v[i]).tobytes() == np.float64(dets[0]).tobytes(), point
            assert np.float64(det_t[i]).tobytes() == np.float64(dets[1]).tobytes(), point
            assert all(map(same_bits, (det_v[i], det_t[i]), expected_determinants(point))), point


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


class TestClosedFrequencies:
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


FREQUENCY = st.floats(0.2, 3.0)
COUPLING = st.one_of(st.just(0.0), st.floats(1e-3, 1.6))


@st.composite
def frame_points(draw):
    """(params, temperature, gamma_a, gamma_b, dark) of a stable-side point.

    Generic and lambda1 = lambda2 points, near-degenerate ones (resonant,
    with couplings and D scaled by 1e-3 to 1e-9) and points 1e-3 to 1e-14
    inside the V or the T edge.  ``dark`` asks for the damping slopes that
    cancel one branch's bath amplitude, so that its rates are 0.
    """
    wa = draw(FREQUENCY)
    wb = draw(st.one_of(st.just(wa), FREQUENCY))
    dd = draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.5)))
    l1, l2 = draw(COUPLING), draw(COUPLING)
    kind = draw(st.sampled_from(("generic", "single", "near-degenerate", "edge")))
    if kind == "single":
        l2 = l1
    elif kind == "near-degenerate":
        wb = wa
        k = draw(st.sampled_from((1e-3, 1e-6, 1e-9)))
        l1, l2, dd = k * l1, k * l2, k * dd
    elif kind == "edge":
        if draw(st.booleans()):
            ratio = (l1 + l2) ** 2 / ((wa + 4.0 * dd) * wb)
        else:
            ratio = (l1 - l2) ** 2 / (wa * wb)
        assume(ratio > 0.0)
        eps = draw(st.sampled_from((1e-3, 1e-6, 1e-9, 1e-12, 1e-14)))
        l1, l2 = (v * (1.0 - eps) / math.sqrt(ratio) for v in (l1, l2))
    temperature = draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
    gammas = draw(st.floats(1e-4, 0.2)), draw(st.floats(1e-4, 0.2))
    return ModelParams(wa, wb, l1, l2, dd), temperature, *gammas, draw(st.booleans())


def _rates(basis, env):
    r = collective_rates(basis, env)
    return r.up_upper, r.down_upper, r.up_lower, r.down_lower


class TestFrameBasis:
    """``diagonalize_params``, the basis of the sector frames, against the
    numeric solver.

    The conditioning factor is kappa = max(cond V, cond T, scale^2 /
    (omega_U^2 - omega_L^2)), with cond A = (p + q) / det A for det A = p - q,
    the relative precision that a float determinant keeps: it bounds both
    routes' error next to an edge.  The last term is the sensitivity of the
    branch vectors to a split spectrum, infinite where it is degenerate.
    Frequencies take cond alone, and the Bogoliubov residuals sqrt(cond) times
    the squared coefficients.  Each tolerance is about 10 times the largest
    deviation seen on 90,000 or more random points of these kinds.
    """

    @settings(max_examples=300)
    @given(frame_points())
    # lambda = 0 and D tuned to a degenerate pair: the two frames, read on
    # their own, can pair their branches the other way round
    @example((ModelParams(0.5, 1.0, 0.0, 0.0, 0.375), 0.25, 0.01, 0.01, False))
    @example((ModelParams(1.0, 1.0, 0.0, 0.3, 0.0), 0.0, 0.01, 0.02, False))
    def test_frame_basis_matches_the_numeric_solver(self, point):
        params, temperature, gamma_a, gamma_b, dark = point
        try:
            basis, oracle = diagonalize_params(params), bogoliubov_diagonalize(params)
        except InstabilityError:  # past the edge, or the oracle's tolerance next to it
            assume(False)
        wa, wb, l1, l2, dd = (params.omega_a, params.omega_b, params.lambda1,
                              params.lambda2, params.diamag)
        det_v, det_t = _stability_determinants(wa, wb, l1, l2, dd)
        cond = max(((wa + 4.0 * dd) * wb + (l1 + l2) ** 2) / det_v,
                   (wa * wb + (l1 - l2) ** 2) / det_t)
        wu, wl = basis.omega_upper, basis.omega_lower
        scale, gap_sq = max(wa + 4.0 * dd, wb, l1, l2), wu * wu - wl * wl
        kappa = max(cond, scale * scale / gap_sq) if gap_sq > 0.0 else math.inf

        assert abs(wu - oracle.omega_upper) <= 3e-14 * cond * wu, point
        assert abs(wl - oracle.omega_lower) <= 3e-14 * cond * wl, point

        coeffs = basis.coeffs_upper, basis.coeffs_lower
        sizes = [math.fsum(v * v for v in c) for c in coeffs]
        for c, size, norm in zip(coeffs, sizes, basis.bogoliubov_norms()):
            assert abs(norm - 1.0) <= 1e-14 * math.sqrt(cond) * size, point
            head = 1e-12 * max(map(abs, c))
            assert c[0] > head or (abs(c[0]) <= head and c[1] > 0), point
        orthogonality = basis.orthogonality_residual()
        assert orthogonality <= 3e-15 * math.sqrt(cond * sizes[0] * sizes[1]), point

        if dark:
            amplitudes = [(w - y, x - z) for w, x, y, z in coeffs]
            ratios = [(a / b) ** 2 for a, b in amplitudes if a * b < 0.0]
            assume(ratios)
            gamma_b = gamma_a * ratios[0]
        if not gap_sq > 0.0:  # degenerate: any orthonormal pair is a basis
            return
        top = max(map(abs, coeffs[0] + coeffs[1]))
        for c, ref in zip(coeffs, (oracle.coeffs_upper, oracle.coeffs_lower)):
            dev = min(max(abs(a - s * b) for a, b in zip(c, ref)) for s in (1.0, -1.0))
            assert dev <= 3e-14 * kappa * top, point
        env = Environment(temperature, gamma_a, gamma_b)
        rates, ref = _rates(basis, env), _rates(oracle, env)
        assert max(abs(a - b) for a, b in zip(rates, ref)) <= 6e-14 * kappa * max(ref), point
        if dark:
            assert min(rates) <= 6e-14 * kappa * max(ref), point
