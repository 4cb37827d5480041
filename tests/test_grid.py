"""The batched grid kernel against the scalar route, point by point."""

import math
from dataclasses import fields

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hopfield_gaussian import csvwriter, grid, sweep
from hopfield_gaussian.grid import GridPoints, evaluate_grid
from hopfield_gaussian.measures import (
    _STEERING_CLASSES,
    STEERING_THRESHOLD,
    UnphysicalStateError,
    _sector_invariants,
    classify_steering,
    ppt_symplectic_eigenvalues,
)
from hopfield_gaussian.model import (
    DegenerateSpectrumError,
    InstabilityError,
    ModelParams,
    _sector_modes,
    _stability_determinants,
    bogoliubov_diagonalize,
    hopfield_basis,
    natural_diamag,
    polariton_frequencies,
)
from hopfield_gaussian.scenarios import (
    FULL,
    MIX_ONLY,
    SQUEEZE_ONLY,
    Axis,
    SweepSpec,
)
from hopfield_gaussian.states import (
    Environment,
    _sector_covariance,
    sector_matrix,
    steady_state_covariance,
    symplectic_spectrum,
    thermal_covariance_closed,
)
from hopfield_gaussian.sweep import grid_points, run_point, spec_to_params

# fixed before the kernel was written, from the measured deviations of a
# prototype: the determinant formula for E_N loses about half its digits
# when the two partial-transpose symplectic eigenvalues nearly coincide
TOL = 1e-12
E_N_TOL = 1e-9
CLASS_BAND = 1e-10
# both routes build bit-identical bases and covariances, so the frequencies
# and every column taken from the covariance without a logarithm are exact;
# np.log and math.log can differ in the last bit
EXACT = ("omega_upper", "omega_lower", "mu_a", "mu_b", "mu_ab", "n_a", "n_b")
MEASURES = (*EXACT, "e_n", "g_ab", "g_ba")

# lambda runs past every stability edge of the three coupling structures;
# 1e-12 at resonance splits the two branches by only 2e-12
AXIS_RANGES = {
    "lambda": st.one_of(st.just(1e-12), st.floats(0.0, 1.6)),
    "wa": st.floats(0.2, 3.0),
    "wb": st.floats(0.2, 3.0),
    "T": st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
}


@st.composite
def grid_specs(draw):
    names = draw(st.lists(st.sampled_from(sorted(AXIS_RANGES)), min_size=1,
                          max_size=2, unique=True))
    axes = tuple(
        Axis(name, tuple(draw(st.lists(AXIS_RANGES[name], min_size=2, max_size=6))))
        for name in names
    )
    coupling = draw(st.sampled_from((FULL, SQUEEZE_ONLY, MIX_ONLY)))
    modes = ["zero", "value"] + (["auto"] if coupling == FULL else [])
    diamag = draw(st.sampled_from(modes))
    if diamag == "value":
        diamag = draw(st.floats(0.0, 0.5))
    fixed = {"wa": 1.0, "wb": 1.0, "lambda": draw(st.floats(0.0, 1.2)),
             "T": draw(st.floats(0.0, 1.0))}
    return SweepSpec(
        scenario="custom",
        axes=axes,
        fixed=fixed,
        diamag_mode=diamag,
        state=draw(st.sampled_from(("ground", "thermal"))),
        coupling=coupling,
    )


ENV = Environment(0.0, 0.02, 0.03)
RESONANT_DEGENERATE = SweepSpec(
    scenario="custom",
    axes=(Axis("lambda", (1e-12, 0.3, 0.45)), Axis("T", (0.0, 0.4))),
    fixed={"wa": 1.0, "wb": 1.0},
    diamag_mode="zero",
)

# lambda2 = 1 puts det T = 1 - lambda2^2 exactly at 0: an unstable row in both
# routes (the numeric solver took it for stable, with omega_L = 8e-9)
SQUEEZED_TO_THE_EDGE = SweepSpec(
    scenario="custom",
    axes=(Axis("lambda", (0.5, 1.0)),),
    fixed={"wa": 1.0, "wb": 1.0},
    diamag_mode=0.25,
    state="ground",
    coupling=SQUEEZE_ONLY,
)

# lambda1 = 1 puts det T = 1 - lambda1^2 exactly at 0 as well (the numeric
# solver found omega_L = 3e-9 and a covariance singular to rounding)
SINGULAR_AT_THE_EDGE = SweepSpec(
    scenario="custom",
    axes=(Axis("lambda", (0.5, 1.0)),),
    fixed={"wa": 1.0, "wb": 1.0, "T": 0.705482318654789},
    diamag_mode=0.2551133598784275,
    coupling=MIX_ONLY,
)


def _closed_form_edge(lam, temperature, diamag):
    """A lambda1 = lambda2 sweep to within rounding of the stability edge."""
    return SweepSpec(
        scenario="custom",
        axes=(Axis("lambda", (0.3, lam)),),
        fixed={"wa": 1.0, "wb": 1.0, "T": temperature},
        diamag_mode=diamag,
        state="thermal",
    )


# within one rounding of the edge, where the closed-form covariance had a
# block determinant that rounded to zero or below (found by a random search);
# the sector route gives a stable row at both
FORMER_CLOSED_FORM_EDGES = (
    _closed_form_edge(0.49999999999999994, 0.7720568085913025, "zero"),
    _closed_form_edge(0.6489071605117458, 0.6105204476099405, 0.17108050296341676),
)


def _close(x, ref, tol):
    return abs(x - ref) <= tol * max(1.0, abs(ref))


class TestKernelAgainstScalarRoute:
    @settings(max_examples=150)
    @given(grid_specs())
    @example(RESONANT_DEGENERATE)
    @example(SQUEEZED_TO_THE_EDGE)
    @example(SINGULAR_AT_THE_EDGE)
    def test_every_point_matches_run_point(self, spec):
        refs = []
        for point in spec.grid():
            params, temperature = spec_to_params(spec, point)
            env = Environment(temperature, ENV.gamma_a, ENV.gamma_b)
            try:
                refs.append(run_point(params, env, spec.state))
            except (ValueError, ArithmeticError):
                # the kernel checks physicality of the whole grid first, so it
                # may name another point; it must fail all the same
                with pytest.raises(ValueError):
                    evaluate_grid(grid_points(spec, ENV), spec.state)
                return
        result = evaluate_grid(grid_points(spec, ENV), spec.state)
        for i, (point, ref) in enumerate(zip(spec.grid(), refs)):
            where = f"point {point}"
            assert bool(result.stable[i]) == ref.stable, where
            for name, value in (("lam", ref.lam), ("wa", ref.wa), ("wb", ref.wb),
                                ("temperature", ref.temperature)):
                assert getattr(result, name)[i] == value, where
            if not ref.stable:
                assert all(math.isnan(getattr(result, m)[i]) for m in MEASURES)
                assert result.classification[i] == -1
                continue
            for name in EXACT:
                assert getattr(result, name)[i] == getattr(ref, name), (where, name)
            for name in ("g_ab", "g_ba"):
                assert _close(getattr(result, name)[i], getattr(ref, name), TOL), (
                    where, name)
            assert _close(result.e_n[i], ref.e_n, E_N_TOL), where
            near = any(abs(g - STEERING_THRESHOLD) < CLASS_BAND
                       for g in (ref.g_ab, ref.g_ba))
            if not near:
                label = _STEERING_CLASSES[result.classification[i]].value
                assert label == ref.classification, where

    @pytest.mark.parametrize("spec", [SINGULAR_AT_THE_EDGE, SQUEEZED_TO_THE_EDGE])
    def test_det_t_zero_points_are_unstable_rows(self, spec):
        edge, _ = spec_to_params(spec, list(spec.grid())[1])
        with mpmath.workdps(50):
            wa, wb, l1, l2 = map(mpmath.mpf, (edge.omega_a, edge.omega_b,
                                              edge.lambda1, edge.lambda2))
            assert wa * wb - (l1 - l2) ** 2 == 0
        row = run_point(edge, Environment(spec.fixed.get("T", 0.0)), spec.state)
        assert not row.stable
        result = evaluate_grid(grid_points(spec, ENV), spec.state)
        assert result.stable.tolist() == [True, False]
        assert result.csv_rows()[1] == row.to_csv()

    @pytest.mark.parametrize("spec", FORMER_CLOSED_FORM_EDGES)
    def test_former_closed_form_edges_are_stable_rows(self, spec):
        edge, temperature = spec_to_params(spec, list(spec.grid())[1])
        row = run_point(edge, Environment(temperature), spec.state)
        assert row.stable
        assert evaluate_grid(grid_points(spec, ENV), spec.state).csv_rows()[1] == row.to_csv()
        point = (edge.omega_a, edge.omega_b, edge.lambda1, edge.lambda2, edge.diamag)
        ref = _mpmath_row(*point, temperature)
        for name, value in ref.items():
            # the thermal state within 1e-16 of the edge loses about half its
            # digits (up to 3.3e-8, in E_N), an open precision limit
            assert abs(getattr(row, name) - value) <= 1e-7 * abs(value), name
        assert row.classification == classify_steering(ref["g_ab"], ref["g_ba"]).value

    def test_csv_rows_follow_the_row_format(self):
        # enough rows for the array writer, unstable rows past lambda = 1.1,
        # the vacuum at T = 0 (N_a and E_N exactly 0), and a T whose cell is
        # a near tie that the writer leaves to format()
        spec = SweepSpec(
            "custom",
            (Axis("lambda", tuple(np.linspace(0.05, 1.5, 30).tolist())),
             Axis("T", (0.0, 0.1234567890125, 0.25, 0.5, 1.0))),
            {"wa": 1.0, "wb": 1.25}, diamag_mode="zero", coupling=MIX_ONLY,
        )
        points = grid_points(spec, ENV)
        assert len(points) >= grid._WRITER_ROWS
        result = evaluate_grid(points, "thermal")
        refs = []
        for point in spec.grid():
            params, temperature = spec_to_params(spec, point)
            env = Environment(temperature, ENV.gamma_a, ENV.gamma_b)
            refs.append(run_point(params, env, "thermal").to_csv())
        rows = result.csv_rows()
        assert rows == refs
        cells = [row.split(",") for row in rows]
        assert sum(c[-1] == "false" for c in cells) == 40
        assert rows[-1] == "1.5,1,1.25,1,,,,,,,,,,,,false"
        assert sum(c[3] == "0" and c[12] == c[6] == "0" for c in cells) == 22
        assert sum(c[3] == format(0.1234567890125, ".12g") for c in cells) == 30
        x = np.array([0.1234567890125])
        assert csvwriter.cell_words(x, np.empty((1, 3), np.uint64), np.empty(1, np.intp))[0]


FREQUENCY = st.floats(0.2, 3.0)
COUPLING = st.one_of(st.just(0.0), st.floats(1e-3, 1.6))


@st.composite
def sector_points(draw):
    """(wa, wb, lambda1, lambda2, D, T) for the x-p sector route.

    Generic, resonant, uncoupled and weakly coupled (a near-degenerate pair
    at resonance) points, and points at relative distance 1e-3 to 1e-16 on
    either side of the nearer stability edge.  Couplings and D are 0 or at
    least 1e-3 before scaling, so that 50 digits hold every determinant of
    the inputs near zero exactly.
    """
    wa = draw(FREQUENCY)
    wb = draw(st.one_of(st.just(wa), FREQUENCY))
    dd = draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.5)))
    l1, l2 = draw(COUPLING), draw(COUPLING)
    kind = draw(st.sampled_from(("generic", "uncoupled", "weak", "edge")))
    if kind == "uncoupled":
        l1 = l2 = 0.0
    elif kind == "weak":
        l1, l2 = 1e-9 * l1, 1e-9 * l2
    elif kind == "edge":
        nearer = max((l1 + l2) ** 2 / ((wa + 4.0 * dd) * wb), (l1 - l2) ** 2 / (wa * wb))
        assume(nearer > 0.0)
        eps = draw(st.sampled_from((1e-3, 1e-6, 1e-9, 1e-12, 1e-14, 1e-16)))
        scale = (1.0 + draw(st.sampled_from((-1.0, 1.0))) * eps) / math.sqrt(nearer)
        l1, l2 = l1 * scale, l2 * scale
    return wa, wb, l1, l2, dd, draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0)))


def _sector_state(wa, wb, l1, l2, dd, temperature):
    """(frequencies, sector blocks, 4x4 covariance), or None past the edge."""
    det_v, det_t = _stability_determinants(wa, wb, l1, l2, dd)
    if not (det_v > 0.0 and det_t > 0.0):
        return None
    frame_x, frame_p, passive = _sector_modes(wa, wb, l1, l2, dd, det_v, det_t)
    sectors = _sector_covariance(frame_x, frame_p, passive, temperature)
    return frame_p[:2], sectors, sector_matrix(sectors).entries


def _numeric_basis(point):
    try:
        return bogoliubov_diagonalize(ModelParams(*point[:5]))
    except InstabilityError:  # its own tolerance, next to the edge
        return None


def _mpmath_row(wa, wb, l1, l2, dd, temperature, dps=50):
    """The measures of a point's state, as floats, from ``dps``-digit mpmath.

    With M = T^1/2 V T^1/2 = U diag(omega^2) U^T, Gamma_xx = T^1/2 U
    diag(c / omega) U^T T^1/2 and Gamma_pp = T^-1/2 U diag(c omega) U^T
    T^-1/2, c = 1/2 + n(omega); d~_- from the determinant formula, which at
    this precision loses nothing that matters.
    """
    with mpmath.workdps(dps):
        wa, wb, l1, l2, dd, temp = map(mpmath.mpf, (wa, wb, l1, l2, dd, temperature))
        v = mpmath.matrix([[wa + 4 * dd, l1 + l2], [l1 + l2, wb]])
        t_evals, q = mpmath.eigsy(mpmath.matrix([[wa, l1 - l2], [l1 - l2, wb]]))
        root = q * mpmath.diag([mpmath.sqrt(e) for e in t_evals]) * q.T
        inverse_root = mpmath.inverse(root)
        squares, u = mpmath.eigsy(root * v * root)
        omega = [mpmath.sqrt(w2) for w2 in squares]
        c = [0.5 + (1 / mpmath.expm1(w / temp) if temp > 0 else 0) for w in omega]
        gxx = root * u * mpmath.diag([cj / w for cj, w in zip(c, omega)]) * u.T * root
        gpp = inverse_root * u * mpmath.diag([cj * w for cj, w in zip(c, omega)]) * u.T
        gpp = gpp * inverse_root
        i_a, i_b = gxx[0, 0] * gpp[0, 0], gxx[1, 1] * gpp[1, 1]
        i_ab = mpmath.det(gxx) * mpmath.det(gpp)
        delta = i_a + i_b - 2 * gxx[0, 1] * gpp[0, 1]
        d_minus = mpmath.sqrt((delta - mpmath.sqrt(delta * delta - 4 * i_ab)) / 2)
        row = {
            "omega_upper": max(omega),
            "omega_lower": min(omega),
            "e_n": max(0, -mpmath.log(2 * d_minus)),
            "g_ab": max(0, mpmath.log(i_a / (4 * i_ab)) / 2),
            "g_ba": max(0, mpmath.log(i_b / (4 * i_ab)) / 2),
            "mu_a": 1 / (4 * i_a),
            "mu_b": 1 / (4 * i_b),
            "mu_ab": 1 / (16 * i_ab),
            "n_a": (gxx[0, 0] + gpp[0, 0] - 1) / 2,
            "n_b": (gxx[1, 1] + gpp[1, 1] - 1) / 2,
        }
        return {name: float(value) for name, value in row.items()}


@st.composite
def hopfield_family_points(draw):
    """(wa, wb, lambda, lambda, D, T) with lambda > 0, the family the closed
    forms cover: resonant and off-resonant, D auto (lambda^2 / wb, always
    stable), zero or a value, ground and thermal, and with D zero or a value
    at relative distance 1e-3 to 1e-14 below the stability edge."""
    wa = draw(FREQUENCY)
    wb = draw(st.one_of(st.just(wa), FREQUENCY))
    lam = draw(st.floats(1e-3, 1.6))
    diamag = draw(st.sampled_from(("auto", "zero", "value")))
    if diamag == "auto":
        dd = natural_diamag(lam, wb)
    else:
        dd = 0.0 if diamag == "zero" else draw(st.floats(1e-3, 0.5))
        if draw(st.booleans()):
            eps = draw(st.sampled_from((1e-3, 1e-6, 1e-9, 1e-12, 1e-14)))
            lam = 0.5 * math.sqrt((wa + 4.0 * dd) * wb) * (1.0 - eps)
    return wa, wb, lam, lam, dd, draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0)))


EDGE_EXAMPLES = (
    (1.0, 1.0, 0.0, 1.0, 0.25, 0.0),  # det T = 0 exactly
    (1.0, 1.0, 1.0, 0.0, 0.2551133598784275, 0.705),  # likewise
    (1.0, 1.0, 0.0, 0.9999999999999999, 0.0, 0.0),  # both determinants 2.2e-16
    (1.0, 1.0, 0.0, 1.0000000000000002, 0.0, 0.3),  # both -4.4e-16
)


class TestSectorRouteAgainstOracles:
    """The x-p sector stages against the numeric solver, the closed forms of
    the lambda1 = lambda2 family, the 4x4 T diag(c) T^T covariance, the
    symplectic and PPT spectra and mpmath.

    Tolerances scale with cond(Gamma), or with omega_U / omega_L where the
    sector route builds a well-conditioned Gamma from a nearly singular
    frame (a nearly number-conserving point next to the edge), and for the
    frequencies with 1/omega_L, the conditioning of the numeric solver's
    nearly defective pair, or with the conditioning (p + q) / det V of the
    float determinant that both closed routes take.  Each is about 5 to 20
    times the largest deviation seen on 20,000 to 30,000 random generic,
    near-degenerate and near-edge points; where mpmath could tell, the
    larger deviations were the numeric oracle's own error.
    """

    @settings(max_examples=300)
    @given(sector_points())
    @example(EDGE_EXAMPLES[0])
    @example(EDGE_EXAMPLES[1])
    @example(EDGE_EXAMPLES[2])
    @example(EDGE_EXAMPLES[3])
    def test_stability_decision_is_the_sign_of_the_exact_determinants(self, point):
        wa, wb, l1, l2, dd, _ = point
        det_v, det_t = _stability_determinants(wa, wb, l1, l2, dd)
        with mpmath.workdps(50):
            wa, wb, l1, l2, dd = map(mpmath.mpf, (wa, wb, l1, l2, dd))
            exact_v = (wa + 4 * dd) * wb - (l1 + l2) ** 2
            exact_t = wa * wb - (l1 - l2) ** 2
        assert (det_v > 0.0, det_v < 0.0) == (exact_v > 0, exact_v < 0), point
        assert (det_t > 0.0, det_t < 0.0) == (exact_t > 0, exact_t < 0), point

    @settings(max_examples=300)
    @given(sector_points())
    @example(EDGE_EXAMPLES[2])
    def test_frequencies_match_the_numeric_solver(self, point):
        state, basis = _sector_state(*point), _numeric_basis(point)
        assume(state is not None and basis is not None)
        (wu, wl), _, _ = state
        wa, wb, l1, l2, dd, _ = point
        scale = max(wa + 4.0 * dd, wb, l1, l2)
        tol = 1e-13 * scale * scale / wl
        assert abs(wu - basis.omega_upper) <= tol, point
        assert abs(wl - basis.omega_lower) <= tol, point

    @settings(max_examples=300)
    @given(sector_points())
    def test_covariance_matches_the_numeric_route(self, point):
        state, basis = _sector_state(*point), _numeric_basis(point)
        assume(state is not None and basis is not None)
        oracle = steady_state_covariance(basis, point[5]).entries
        dev = np.abs(state[2] - oracle).max() / np.abs(oracle).max()
        assert dev <= 1e-11 * np.linalg.cond(oracle), point

    @settings(max_examples=300)
    @given(sector_points())
    def test_partial_transpose_pair_matches_the_eigen_oracle(self, point):
        state = _sector_state(*point)
        assume(state is not None)
        (wu, wl), sectors, gamma = state
        try:
            d_minus, d_plus = ppt_symplectic_eigenvalues(sector_matrix(sectors))
        except UnphysicalStateError:  # the oracle's check, on the rounded 4x4 matrix
            assume(False)
        pair = _sector_invariants(*sectors)[5:]
        tol = 1e-13 * max(np.linalg.cond(gamma), wu / wl) * d_plus
        assert abs(pair[0] - d_minus) <= tol and abs(pair[1] - d_plus) <= tol, point

    @given(st.lists(sector_points(), min_size=1, max_size=8))
    @example(list(EDGE_EXAMPLES))
    def test_float_and_stacked_inputs_agree_bit_for_bit(self, points):
        def leaves(tree, k=None):
            if isinstance(tree, (tuple, list)):
                return [leaf for branch in tree for leaf in leaves(branch, k)]
            return [np.float64(tree if k is None else tree[k]).tobytes()]

        wa, wb, l1, l2, dd, temperature = map(np.array, zip(*points))
        det_v, det_t = _stability_determinants(wa, wb, l1, l2, dd)
        ok = (det_v > 0.0) & (det_t > 0.0)
        frames = _sector_modes(*(a[ok] for a in (wa, wb, l1, l2, dd)), det_v[ok], det_t[ok])
        sectors = _sector_covariance(*frames, temperature[ok])
        stacked = (frames, sectors, _sector_invariants(*sectors))
        k = 0
        for i, point in enumerate(points):
            dets = _stability_determinants(*point[:5])
            assert leaves(dets) == leaves((det_v, det_t), i), point
            if not ok[i]:
                continue
            frames = _sector_modes(*point[:5], *dets)
            sectors = _sector_covariance(*frames, point[5])
            scalar = (frames, sectors, _sector_invariants(*sectors))
            assert leaves(scalar) == leaves(stacked, k), point
            k += 1


    @settings(max_examples=300)
    @given(hopfield_family_points())
    def test_hopfield_family_matches_the_closed_form_oracles(self, point):
        params, temperature = ModelParams(*point[:5]), point[5]
        state = _sector_state(*point)
        try:
            frequencies = polariton_frequencies(params)
            oracles = (steady_state_covariance(hopfield_basis(params), temperature),
                       thermal_covariance_closed(params, temperature))
        except (InstabilityError, DegenerateSpectrumError):  # the oracles' own rules
            assume(False)
        # the closed form's rounded product can call a point on the exact edge stable
        assume(state is not None)
        (wu, wl), _, gamma = state
        wa, wb, lam, _, dd, _ = point
        # a float det V keeps a relative precision of eps (p + q) / det V only
        p, q = (wa + 4.0 * dd) * wb, 4.0 * lam * lam
        tol = 5e-15 * (p + q) / _stability_determinants(*point[:5])[0]
        for value, ref in zip((wu, wl), frequencies):
            assert abs(value - ref) <= tol * ref, point
        for oracle in (g.entries for g in oracles):
            dev = np.abs(gamma - oracle).max() / np.abs(oracle).max()
            assert dev <= 5e-14 * np.linalg.cond(oracle), point

    @settings(max_examples=300)
    @given(st.one_of(sector_points(), hopfield_family_points()))
    @example(EDGE_EXAMPLES[2])
    def test_weights_are_the_symplectic_spectrum(self, point):
        # the sector route's c_U, c_L stand in for a physicality check
        state = _sector_state(*point)
        assume(state is not None)
        (wu, wl), (_, _, c_u, c_l, _), gamma = state
        low, high = sorted((c_u, c_l))  # a degenerate pair may come in either order
        assert low >= 0.5, point
        nu_minus, nu_plus = symplectic_spectrum(gamma.tolist())
        # NaN where the oracle's Cholesky factor fails on the rounded 4x4 matrix
        assume(not math.isnan(nu_minus))
        tol = 1e-14 * max(np.linalg.cond(gamma), wu / wl)
        assert abs(nu_minus - low) <= tol * low and abs(nu_plus - high) <= tol * high, point

    @pytest.mark.parametrize("eps, tol", [(1e-9, 3e-10), (1e-12, 3e-13), (1e-14, 3e-15)])
    def test_resonant_ground_state_entanglement_next_to_the_edge(self, eps, tol):
        # omega_a = omega_b = 1 and D = 0: lambda_C = 1/2, and det V = 1 - (2 lambda)^2
        # of the float inputs rounds by about eps^2 only
        rng = np.random.default_rng(13)
        for scale in (1.0, *rng.uniform(1.0, 3.0, 7)):
            lam = 0.5 * (1.0 - eps * scale)
            row = run_point(ModelParams(1.0, 1.0, lam, lam, 0.0), None, "ground")
            ref = _mpmath_row(1.0, 1.0, lam, lam, 0.0, 0.0, dps=60)["e_n"]
            assert abs(row.e_n - ref) <= tol * ref, lam


class TestChunks:
    @given(grid_specs(), st.lists(st.floats(0.0, 1.0), max_size=4))
    def test_rows_equal_concatenated_rows_of_any_contiguous_split(self, spec, cuts):
        points = grid_points(spec, ENV)
        bounds = [0, *sorted(round(c * len(points)) for c in cuts), len(points)]

        def rows(chunks):
            try:
                return [r for c in chunks for r in evaluate_grid(c, spec.state).csv_rows()]
            except ValueError:
                return None

        split = [points.chunk(start, stop) for start, stop in zip(bounds, bounds[1:])]
        assert rows(split) == rows([points])

    def test_single_point_chunks(self):
        axes = (Axis("wa", (0.5, 1.0, 2.0)), Axis("lambda", (0.3, 0.9)))
        spec = SweepSpec("custom", axes, {"wb": 1.0, "T": 0.2},
                         coupling=SQUEEZE_ONLY, diamag_mode=0.1)
        points = grid_points(spec, ENV)
        singles = [evaluate_grid(points.chunk(i, i + 1), "thermal").csv_rows()[0]
                   for i in range(len(points))]
        assert singles == evaluate_grid(points, "thermal").csv_rows()


class TestGridPoints:
    def test_integer_arrays_are_read_as_floats(self):
        points = GridPoints(*map(np.array, ([1.2], [1], [0.3], [0.3], [0], [1])))
        assert all(getattr(points, f.name).dtype == np.float64 for f in fields(points))
        row = evaluate_grid(points, "thermal").csv_rows()[0]
        ref = run_point(ModelParams(1.2, 1, 0.3, 0.3, 0), Environment(1), "thermal")
        assert row == ref.to_csv()
        assert row.startswith("0.3,1.2,1,1,")

    def test_row_major_arrays(self):
        axes = (Axis("wa", (0.5, 2.0)), Axis("lambda", (0.1, 0.2, 0.3)))
        spec = SweepSpec("custom", axes, {"wb": 1.5, "T": 0.1},
                         coupling=SQUEEZE_ONLY, diamag_mode="0.05")
        points = grid_points(spec, ENV)
        for i, point in enumerate(spec.grid()):
            params, temperature = spec_to_params(spec, point)
            assert points.params(i) == params
            assert points.temperature[i] == temperature

    @pytest.mark.parametrize(
        "fixed, axis, coupling, diamag, message",
        [
            ({"T": 0.1}, Axis("wb", (1.0, 0.0)), FULL, "auto", "frequencies must be"),
            ({}, Axis("T", (0.1, -0.2)), FULL, "auto", "temperature must be"),
            ({}, Axis("lambda", (0.0, 0.2)), SQUEEZE_ONLY, "auto", "needs equal mixing"),
            ({}, Axis("lambda", (0.1, -0.2)), MIX_ONLY, "zero", "strengths must be"),
            ({"wa": math.nan}, Axis("T", (0.1, 0.2)), FULL, "zero", "must be finite"),
            ({}, Axis("T", (0.1, 0.2)), FULL, "-0.1", "diamagnetic coefficient"),
        ],
    )
    def test_bad_points_rejected_with_the_scalar_message(
        self, fixed, axis, coupling, diamag, message, monkeypatch
    ):
        spec = SweepSpec("custom", (axis,), fixed, diamag_mode=diamag, coupling=coupling)
        with pytest.raises(ValueError) as scalar:
            for point in spec.grid():
                _, temperature = spec_to_params(spec, point)
                Environment(temperature, ENV.gamma_a, ENV.gamma_b)
        assert message in str(scalar.value)

        def no_kernel(*args):
            raise AssertionError("no point may be computed")

        monkeypatch.setattr(sweep, "evaluate_grid", no_kernel)
        with pytest.raises(ValueError) as batched:
            sweep.run_sweep(spec, ENV)
        assert str(batched.value) == str(scalar.value)
