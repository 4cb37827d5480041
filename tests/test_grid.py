"""The batched grid kernel against the scalar route, point by point."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfield_gaussian import grid, model, sweep
from hopfield_gaussian.grid import GridPoints, evaluate_grid
from hopfield_gaussian.measures import STEERING_THRESHOLD, UnphysicalStateError
from hopfield_gaussian.model import (
    DEGENERATE_MIX_TOL,
    InstabilityError,
    ModelParams,
    bogoliubov_diagonalize,
    build_dynamical_matrix,
)
from hopfield_gaussian.scenarios import (
    FULL,
    MIX_ONLY,
    SCENARIOS,
    SQUEEZE_ONLY,
    Axis,
    SweepSpec,
)
from hopfield_gaussian.states import Environment
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
# 1e-12 at resonance splits the closed-form branches by less than the
# labelling tolerance, which sends the point to the numeric solver
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

# lambda2 = 1 lies within 1e-8 of the stability edge here: the numeric basis
# is so squeezed that the partial-transpose eigenvalue of the covariance
# rounds to zero in both routes
SQUEEZED_TO_THE_EDGE = SweepSpec(
    scenario="custom",
    axes=(Axis("lambda", (0.5, 1.0)),),
    fixed={"wa": 1.0, "wb": 1.0},
    diamag_mode=0.25,
    state="ground",
    coupling=SQUEEZE_ONLY,
)

# lambda1 = 1 leaves omega_L at 3e-9 here: det Gamma rounds to zero, the scalar
# route divides by it and the kernel reports the point instead of writing inf
SINGULAR_AT_THE_EDGE = SweepSpec(
    scenario="custom",
    axes=(Axis("lambda", (0.5, 1.0)),),
    fixed={"wa": 1.0, "wb": 1.0, "T": 0.705482318654789},
    diamag_mode=0.2551133598784275,
    coupling=MIX_ONLY,
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
                assert result.classification[i] is None
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
                assert result.classification[i] == ref.classification, where

    def test_resonant_near_zero_coupling_takes_the_numeric_solver(self, monkeypatch):
        calls = []
        solver = grid._numeric_form

        def counted(wa, wb, l1, l2, dd):
            out = solver(wa, wb, l1, l2, dd)
            calls.append((l1.tolist(), l2.tolist(), out[0].tolist()))
            return out

        monkeypatch.setattr(grid, "_numeric_form", counted)
        result = evaluate_grid(grid_points(RESONANT_DEGENERATE, ENV), "thermal")
        assert calls == [([1e-12, 1e-12], [1e-12, 1e-12], [True, True])]
        assert result.stable.all()

    def test_closed_form_block_skips_the_numeric_solver(self, monkeypatch):
        def no_call(*args):
            raise AssertionError("no point of this block needs the numeric solver")

        monkeypatch.setattr(grid, "_numeric_form", no_call)
        points = grid_points(SCENARIOS["fig3a"], ENV).chunk(0, sweep._BLOCK_POINTS)
        result = evaluate_grid(points, "thermal")
        assert len(result.stable) == sweep._BLOCK_POINTS and result.stable.any()

    @pytest.mark.parametrize(
        "spec, message",
        [
            (SINGULAR_AT_THE_EDGE, "singular to rounding, at the stability edge"),
            (SQUEEZED_TO_THE_EDGE, "singular to rounding, at the stability edge"),
        ],
    )
    def test_stability_edge_errors_name_the_point(self, spec, message):
        edge, _ = spec_to_params(spec, list(spec.grid())[1])
        with pytest.raises(ValueError, match=message) as scalar:
            run_point(edge, Environment(spec.fixed.get("T", 0.0)), spec.state)
        assert type(scalar.value) is ValueError
        with pytest.raises(ValueError, match=message) as batched:
            evaluate_grid(grid_points(spec, ENV), spec.state)
        assert type(batched.value) is ValueError
        assert repr(edge) in str(batched.value)

    def test_uncertainty_error_names_the_first_offending_point(self, monkeypatch):
        # a bound of 3/2 rejects every state here; the first point is unstable
        monkeypatch.setattr(grid, "PHYSICALITY_TOL", -1.0)
        spec = SweepSpec("custom", (Axis("lambda", (1.5, 0.3, 0.4)),),
                         {"wa": 1.0, "wb": 1.0}, diamag_mode="zero", state="ground")
        with pytest.raises(UnphysicalStateError) as err:
            evaluate_grid(grid_points(spec, ENV), "ground")
        second, _ = spec_to_params(spec, list(spec.grid())[1])
        assert f"at {second!r} violates" in str(err.value)

    def test_csv_rows_follow_the_row_format(self):
        spec = SweepSpec("custom", (Axis("lambda", (0.2, 0.45, 0.6)),),
                         {"wa": 1.0, "wb": 1.0, "T": 0.25}, diamag_mode="zero")
        rows = evaluate_grid(grid_points(spec, ENV), "thermal").csv_rows()
        for row, point in zip(rows, spec.grid()):
            params, _ = spec_to_params(spec, point)
            ref = run_point(params, Environment(0.25), "thermal").to_csv().split(",")
            cells = row.split(",")
            assert len(cells) == len(ref) == 16
            assert cells[:4] == ref[:4] and cells[14:] == ref[14:]
            for x, y in zip(cells[4:14], ref[4:14]):
                assert (x == y == "") or _close(float(x), float(y), E_N_TOL)
        assert rows[2] == "0.6,1,1,0.25,,,,,,,,,,,,false"


FREQUENCY = st.floats(0.2, 3.0)
# up to 1.6 crosses the stability edge of every coupling structure; 1e-12
# splits a resonant pair by less than DEGENERATE_MIX_TOL (Gram-Schmidt)
COUPLING = st.one_of(st.just(0.0), st.just(1e-12), st.floats(0.0, 1.6))


@st.composite
def numeric_points(draw):
    wa = draw(FREQUENCY)
    wb = draw(st.one_of(st.just(wa), FREQUENCY))
    diamag = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5)))
    return wa, wb, draw(COUPLING), draw(COUPLING), diamag


# mix-only at resonance without D: the branches are omega_b +- lambda1
HALF_MIX_TOL = 0.5 * DEGENERATE_MIX_TOL


class TestStackedSolverAgainstScalarSolver:
    """``grid._numeric_form`` equals the scalar solver bit for bit, point by point."""

    @settings(max_examples=300)
    @given(st.lists(numeric_points(), min_size=1, max_size=12))
    @example([(1.0, 1.0, 0.0, 0.0, 0.0)])  # uncoupled resonant: an exact tie
    @example([(1.0, 1.0, 1e-12, 0.0, 0.0)])  # mix-only: Gram-Schmidt
    @example([(1.0, 1.0, HALF_MIX_TOL * 1.0001, 0.0, 0.0)])  # gap just above
    @example([(1.0, 1.0, HALF_MIX_TOL * 0.9999, 0.0, 0.0)])  # gap just below
    @example([(1.0, 1.0, 0.0, 1.5, 0.0)])  # squeeze-only far past the edge
    # resonant squeeze-only: a degenerate pair with strong squeezing, where
    # numpy's complex division in Gram-Schmidt changed the last bit
    @example([(1.0851397779997347, 1.0851397779997347, 0.0, 0.24208253631007376, 0.0)])
    @example([(1.0, 1.0, 0.0, 1.5, 0.0), (1.0, 1.0, 1e-12, 0.0, 0.0),
              (1.3, 0.7, 0.4, 0.1, 0.2), (1.0, 1.0, 0.0, 0.0, 0.0),
              (0.8, 1.2, 0.9, 1.4, 0.0)])  # stable and unstable in one block
    def test_stable_flags_frequencies_and_coefficients(self, points):
        wa, wb, l1, l2, dd = map(np.array, zip(*points))
        stable, wu, wl, upper, lower = grid._numeric_form(wa, wb, l1, l2, dd)
        for i, values in enumerate(points):
            params = ModelParams(*values)
            try:
                basis = bogoliubov_diagonalize(params)
            except InstabilityError:
                assert not stable[i], params
                continue
            assert stable[i], params
            assert (wu[i], wl[i]) == (basis.omega_upper, basis.omega_lower), params
            assert tuple(upper[:, i]) == basis.coeffs_upper, params
            assert tuple(lower[:, i]) == basis.coeffs_lower, params

    def test_examples_reach_the_rules_they_name(self):
        def gap(l1):
            one, zero = np.ones(1), np.zeros(1)
            _, wu, wl, _, _ = grid._numeric_form(one, one, l1 * one, zero, zero)
            return wu[0] - wl[0]

        assert gap(HALF_MIX_TOL * 1.0001) > DEGENERATE_MIX_TOL
        assert gap(HALF_MIX_TOL * 0.9999) < DEGENERATE_MIX_TOL
        assert gap(0.0) == 0.0
        eigenvalues = np.linalg.eigvals(
            build_dynamical_matrix(ModelParams(1.0, 1.0, 0.0, 1.5, 0.0))
        )
        assert np.abs(eigenvalues.imag).max() > 0.1


@st.composite
def phased_vectors(draw):
    """A real 4-vector times a phase, with an optional imaginary remainder."""
    real = draw(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4)
                .filter(lambda r: max(map(abs, r)) > 1e-3))
    rest = draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    size = draw(st.sampled_from((0.0, 1e-12, 1e-6)))
    angle = draw(st.floats(-math.pi, math.pi))
    return np.exp(1j * angle) * (np.array(real) + 1j * size * np.array(rest))


class TestPhaseFixing:
    """``grid._fix_phase`` of each row equals ``model._fix_phase``."""

    @given(st.lists(phased_vectors(), min_size=1, max_size=6))
    @example([np.array([0.0, -0.5, 1.0, 0.0], complex)])  # sign read from x
    @example([np.array([1e-13, -0.5, 1.0, 0.0], complex)])  # w below the head
    @example([np.array([1.0, 1j, 0.5, 0.0])])  # not real up to a phase
    def test_rows_match_the_scalar_rule(self, vectors):
        fixed, real = grid._fix_phase(np.array(vectors))
        for i, c in enumerate(vectors):
            try:
                ref = model._fix_phase(c)
            except InstabilityError:
                assert not real[i], c
                continue
            assert real[i], c
            assert tuple(fixed[i]) == tuple(ref), c


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
