"""The batched grid kernel against the scalar route, point by point."""

import math
from dataclasses import fields

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hopfield_gaussian import csvwriter, sweep
from hopfield_gaussian.measures import (
    _STEERING_CLASSES,
    STEERING_THRESHOLD,
    _sector_invariants,
    _sector_measures,
    classify_steering,
    correlation_report,
)
from hopfield_gaussian.model import (
    InstabilityError,
    ModelParams,
    _frame_row,
    _sector_modes,
    _stability_determinants,
    natural_diamag,
)
from hopfield_gaussian.oracles import (
    CovarianceMatrix,
    DegenerateSpectrumError,
    UnphysicalStateError,
    bogoliubov_diagonalize,
    hopfield_basis,
    polariton_frequencies,
    ppt_symplectic_eigenvalues,
    steady_state_covariance,
    symplectic_spectrum,
    thermal_covariance_closed,
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
    _thermal_spectrum,
    sector_rows,
)
from hopfield_gaussian.sweep import (
    GridPoints,
    evaluate_grid,
    grid_points,
    run_point,
    spec_to_params,
)
from oracles import grid

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
    # the ground state is at T = 0: a ground spec fixes T = 0 and sweeps no T
    state = "thermal" if "T" in names else draw(st.sampled_from(("ground", "thermal")))
    fixed = {"wa": 1.0, "wb": 1.0, "lambda": draw(st.floats(0.0, 1.2)),
             "T": draw(st.floats(0.0, 1.0)) if state == "thermal" else 0.0}
    return SweepSpec(
        scenario="custom",
        axes=axes,
        fixed=fixed,
        diamag_mode=diamag,
        state=state,
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
        for point in grid(spec):
            params, temperature = spec_to_params(spec, point)
            env = Environment(temperature, ENV.gamma_a, ENV.gamma_b)
            try:
                refs.append(run_point(params, env, spec.state))
            except ValueError as exc:
                # the kernel names the first faulting point, with the same message
                with pytest.raises(ValueError) as batched:
                    evaluate_grid(grid_points(spec), spec.state)
                assert str(batched.value).replace(f" at {params}", "", 1) == str(exc)
                return
        result = evaluate_grid(grid_points(spec), spec.state)
        for i, (point, ref) in enumerate(zip(grid(spec), refs)):
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
        edge, _ = spec_to_params(spec, grid(spec)[1])
        with mpmath.workdps(50):
            wa, wb, l1, l2 = map(mpmath.mpf, (edge.omega_a, edge.omega_b,
                                              edge.lambda1, edge.lambda2))
            assert wa * wb - (l1 - l2) ** 2 == 0
        row = run_point(edge, Environment(spec.fixed.get("T", 0.0)), spec.state)
        assert not row.stable
        result = evaluate_grid(grid_points(spec), spec.state)
        assert result.stable.tolist() == [True, False]
        assert result.csv_text().splitlines()[1] == row.to_csv()

    @pytest.mark.parametrize("spec", FORMER_CLOSED_FORM_EDGES)
    def test_former_closed_form_edges_are_stable_rows(self, spec):
        edge, temperature = spec_to_params(spec, grid(spec)[1])
        row = run_point(edge, Environment(temperature), spec.state)
        assert row.stable
        result = evaluate_grid(grid_points(spec), spec.state)
        assert result.csv_text().splitlines()[1] == row.to_csv()
        point = (edge.omega_a, edge.omega_b, edge.lambda1, edge.lambda2, edge.diamag)
        ref = _mpmath_row(*point, temperature)
        for name, value in ref.items():
            # the thermal state within 1e-16 of the edge loses about half its
            # digits (up to 3.3e-8, in E_N), an open precision limit
            assert abs(getattr(row, name) - value) <= 1e-7 * abs(value), name
        assert row.classification == classify_steering(ref["g_ab"], ref["g_ba"]).value

    def test_csv_rows_follow_the_row_format(self):
        # 150 rows, of which the 40 past lambda = 1.1 are unstable, the vacuum at T = 0 (N_a and E_N exactly 0), and a T whose cell is
        # a near tie that the writer leaves to format()
        spec = SweepSpec(
            "custom",
            (Axis("lambda", tuple(np.linspace(0.05, 1.5, 30).tolist())),
             Axis("T", (0.0, 0.1234567890125, 0.25, 0.5, 1.0))),
            {"wa": 1.0, "wb": 1.25}, diamag_mode="zero", coupling=MIX_ONLY,
        )
        points = grid_points(spec)
        assert len(points) == 150
        result = evaluate_grid(points, "thermal")
        refs = []
        for point in grid(spec):
            params, temperature = spec_to_params(spec, point)
            env = Environment(temperature, ENV.gamma_a, ENV.gamma_b)
            refs.append(run_point(params, env, "thermal").to_csv())
        rows = result.csv_text().splitlines()
        assert rows == refs
        cells = [row.split(",") for row in rows]
        assert sum(c[-1] == "false" for c in cells) == 40
        assert rows[-1] == "1.5,1,1.25,1,,,,,,,,,,,,false"
        assert sum(c[3] == "0" and c[12] == c[6] == "0" for c in cells) == 22
        assert sum(c[3] == format(0.1234567890125, ".12g") for c in cells) == 30
        x = np.array([0.1234567890125])
        assert csvwriter.cell_words(x, np.empty((1, 3), np.uint64), np.empty(1, np.intp))[0]


# points whose measures fault, as (params, temperature): det Gamma_xx rounds
# to zero in the ground state (omega_a is the smallest subnormal), once with
# zero and once with nonzero off-diagonal sector entries; det Gamma ~ T^4
# overflows, and at T = 1.7e308 the occupation of omega_L itself; and one
# rounding from the edge omega_L = 1e-8 lets a temperature overflow that a
# point in the bulk survives
FAULTY_POINTS = [
    (ModelParams(5e-324, 1.0000000000000002, 0.0, 0.0, 1e10), 0.0),
    (ModelParams(5e-324, 1.0000000000000002, 5e-324, 1e-300, 1e10), 0.0),
    (ModelParams(1.0, 1.0, 0.5, 0.5, 0.25), 1e80),
    (ModelParams(1.0, 1.0, 0.5, 0.5, 0.25), 1.7e308),
    (ModelParams(1.0, 1.0, 0.49999999999999994, 0.49999999999999994, 0.0), 1e70),
    # omega_L of the (T, V) frame underflows to 0: an infinite weight on both routes
    (ModelParams(6.845772737231646e245, 3.6509797094270246e-166, 2.1811256879978044e-196, 0.0,
                 2.490144585750596e301), 0.0),
    # stable by the exact determinants, which leave the float range: past the
    # largest float, and below the smallest subnormal, where the whole sector
    # product underflows to 0 and the frame is NaN on both routes
    (ModelParams(1e200, 1e200, 5e199, 0.0, 0.0), 0.0),
    (ModelParams(1e-170, 1e-170, 5e-171, 0.0, 0.0), 0.0),
]


class TestFaultParity:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("params, temperature", FAULTY_POINTS)
    def test_run_point_and_the_kernel_raise_one_message(self, params, temperature):
        state = "thermal" if temperature else "ground"
        with pytest.raises(ValueError) as scalar:
            run_point(params, Environment(temperature), state)
        values = [getattr(params, f.name) for f in fields(params)]
        with pytest.raises(ValueError) as batched:
            evaluate_grid(GridPoints(*([v] for v in (*values, temperature))), state)
        where = f" at {params}"
        assert where in str(batched.value)
        assert str(batched.value).replace(where, "", 1) == str(scalar.value)
        # the temperature is blamed only where there is one
        assert ("temperature" in str(scalar.value)) == (temperature > 0)

    # (params, temperature, c_L, cause) of overflowing points: c_L = 1/2, no
    # excitations; 1/2 < c_L < inf (None), the thermal state; c_L = inf at
    # omega_L > 0, whose occupation the temperature overflows; and c_L = inf
    # where omega_L underflows to 0 at T > 0, which the parameters cause
    OVERFLOW_CAUSES = [
        (ModelParams(1e300, 1.0, 0.5, 0.5, 0.25), 0.0, 0.5, "the mode frequencies and couplings"),
        (ModelParams(1.0, 1.0, 0.5, 0.5, 0.25), 1e80, None, "the reservoir temperature"),
        (ModelParams(1.0, 1.0, 0.5, 0.5, 0.25), 1.7e308, math.inf, "the reservoir temperature"),
        (ModelParams(1.377954588754046e-234, 1.0, 0.0, 0.0, 0.0), 0.5, math.inf,
         "the mode frequencies and couplings"),
    ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("params, temperature, c_l, cause", OVERFLOW_CAUSES)
    def test_overflow_names_the_temperature_only_for_finite_excitations(
        self, params, temperature, c_l, cause
    ):
        values = [getattr(params, f.name) for f in fields(params)]
        frames = _sector_modes(*values, *_stability_determinants(*values))
        c_lower = _sector_covariance(*frames, *_thermal_spectrum(frames[1][0], temperature))[3]
        assert c_lower == c_l if c_l is not None else 0.5 < c_lower < math.inf
        with pytest.raises(ValueError, match="overflows") as scalar:
            run_point(params, Environment(temperature), "thermal")
        with pytest.raises(ValueError, match="overflows") as batched:
            evaluate_grid(GridPoints(*([v] for v in (*values, temperature))), "thermal")
        for message in (str(scalar.value), str(batched.value)):
            assert f"because {cause}" in message, message

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("temperature", [1e160, 1.7e308])
    def test_4x4_route_blames_the_temperature_for_its_overflow(self, temperature):
        # at 1.7e308 the occupation of omega_L > 0 is infinite
        basis = hopfield_basis(ModelParams(1.0, 1.0, 0.5, 0.5, 0.25))
        with pytest.raises(ValueError, match="because the reservoir temperature is too high"):
            steady_state_covariance(basis, temperature)

    @pytest.mark.filterwarnings("error")
    def test_exact_decision_past_the_float_range_is_infinite(self):
        # the exact determinants are about -1e600, past the largest float:
        # both round to -inf, and both routes take the point for unstable
        point = (1e-160, 0.5, 0.5, 1e300, 1.0)
        assert _stability_determinants(*point) == (-math.inf, -math.inf)
        row = run_point(ModelParams(*point), None, "ground")
        assert row.to_csv() == "1e+300,1e-160,0.5,0,,,,,,,,,,,,false"
        result = evaluate_grid(GridPoints(*([v] for v in (*point, 0.0))), "ground")
        assert result.csv_text().splitlines() == [row.to_csv()]

    @pytest.mark.filterwarnings("error")
    def test_run_point_and_a_one_point_grid_agree_on_any_input(self):
        # every input log-uniform over the float range, seed 7; omega_L of
        # the named point, and of 8% of the draws, underflows to 0 at T > 0,
        # an infinite occupation on both routes
        draws = 10.0 ** np.random.default_rng(7).uniform(-320, 305, (1000, 6))
        for values in [(1.377954588754046e-234, 1.0, 0.0, 0.0, 0.0, 0.5), *draws.tolist()]:
            params, temperature = ModelParams(*values[:5]), values[5]
            try:
                scalar = run_point(params, Environment(temperature), "thermal").to_csv() + "\n"
            except ValueError as exc:
                scalar = str(exc)
            try:
                batched = evaluate_grid(GridPoints(*([v] for v in values)), "thermal").csv_text()
            except ValueError as exc:
                batched = str(exc).replace(f" at {params}", "", 1)
            assert batched == scalar, values


POSITIVE = st.one_of(st.floats(0.1, 10.0),
                     st.floats(0.0, exclude_min=True, allow_infinity=False))
NON_NEGATIVE = st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(0.0, allow_infinity=False))


class TestUncoupledPoints:
    """At lambda1 = lambda2 = 0 both sector off-diagonals are exactly 0 and
    the state is a product of the two modes: E_N, G_ab and G_ba are exactly
    0, not the rounding of their logarithms, on both routes."""

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300)
    @given(POSITIVE, POSITIVE, NON_NEGATIVE, NON_NEGATIVE, st.sampled_from(("ground", "thermal")))
    @example(1.0, 1.0, 0.125, 0.0, "ground")  # E_N and G_ab were 2.2e-16
    @example(0.5, 2.0, 0.4, 0.0, "ground")  # E_N was 6.7e-16 and G_ab 3.3e-16
    def test_measures_are_zero_and_the_routes_agree_bit_for_bit(self, wa, wb, dd, temperature,
                                                                 state):
        params = ModelParams(wa, wb, 0.0, 0.0, dd)
        temperature = temperature if state == "thermal" else 0.0
        try:
            row = run_point(params, Environment(temperature), state)
        except ValueError as exc:
            with pytest.raises(ValueError) as batched:
                evaluate_grid(GridPoints([wa], [wb], [0.0], [0.0], [dd], [temperature]), state)
            assert str(batched.value).replace(f" at {params}", "", 1) == str(exc)
            return
        result = evaluate_grid(GridPoints([wa], [wb], [0.0], [0.0], [dd], [temperature]), state)
        assert row.stable and (row.e_n, row.g_ab, row.g_ba) == (0.0, 0.0, 0.0)
        assert result.cells[0].tobytes() == np.array(row[:-2], float).tobytes()
        assert _STEERING_CLASSES[result.classification[0]].value == row.classification
        assert result.csv_text() == row.to_csv() + "\n"


class TestSwapSymmetry:
    """At D = 0 the model is symmetric under a <-> b: swapping omega_a and
    omega_b swaps G_ab and G_ba, mu_a and mu_b, N_a and N_b, and keeps the
    frequencies, E_N, mu_ab and stability.  A check with no oracle, bounded
    absolutely below 1 (a measure near 0 has no relative precision)."""

    SWAPPED = {"wa": "wb", "wb": "wa", "g_ab": "g_ba", "g_ba": "g_ab", "mu_a": "mu_b",
               "mu_b": "mu_a", "n_a": "n_b", "n_b": "n_a"}
    # the class index is (G_ab above threshold) + 2 (G_ba above threshold)
    SWAPPED_CLASS = (0, 2, 1, 3)

    @staticmethod
    def points(n=4000):
        rng = np.random.default_rng(5)
        wa, wb = rng.uniform(0.1, 3.0, (2, n))
        l1, l2 = rng.uniform(0.0, 1.5, (2, n))
        temperature = np.where(rng.random(n) < 0.25, 0.0, rng.uniform(0.01, 1.0, n))
        return wa, wb, l1, l2, np.zeros(n), temperature

    @staticmethod
    def close(x, y):
        return np.abs(x - y) <= 1e-13 * np.maximum(1.0, np.abs(x))

    @staticmethod
    def decided(g_ab, g_ba):
        return (np.abs(g_ab - STEERING_THRESHOLD) >= 1e-13) & (
            np.abs(g_ba - STEERING_THRESHOLD) >= 1e-13)

    def test_kernel(self):
        wa, wb, *rest = self.points()
        one = evaluate_grid(GridPoints(wa, wb, *rest), "thermal")
        two = evaluate_grid(GridPoints(wb, wa, *rest), "thermal")
        stable = one.stable
        assert (two.stable == stable).all() and stable.sum() > 1000
        for name in sweep._CELLS:
            x, y = getattr(one, name)[stable], getattr(two, self.SWAPPED.get(name, name))[stable]
            assert self.close(x, y).all(), name
        sure = self.decided(one.g_ab, one.g_ba) & self.decided(two.g_ab, two.g_ba) & stable
        swapped = np.take(self.SWAPPED_CLASS, two.classification[sure])
        assert (one.classification[sure] == swapped).all()

    def test_run_point(self):
        labels = [c.value for c in _STEERING_CLASSES]
        for values in zip(*(a.tolist() for a in self.points())):
            env = Environment(values[5])
            one = run_point(ModelParams(*values[:5]), env, "thermal")
            two = run_point(ModelParams(values[1], values[0], *values[2:5]), env, "thermal")
            assert one.stable == two.stable, values
            if not one.stable:
                continue
            for name in sweep._CELLS:
                x, y = getattr(one, name), getattr(two, self.SWAPPED.get(name, name))
                assert self.close(x, y), (values, name)
            if self.decided(one.g_ab, one.g_ba) and self.decided(two.g_ab, two.g_ba):
                swapped = labels[self.SWAPPED_CLASS[labels.index(two.classification)]]
                assert one.classification == swapped, values


FREQUENCY = st.floats(0.2, 3.0)
COUPLING = st.one_of(st.just(0.0), st.floats(1e-3, 1.6))


def in_state(points, state):
    """(wa, wb, lambda1, lambda2, D, T) points as drawn for ``state``: the
    ground state is at T = 0, so its points take T = 0, as ``grid_specs``
    fixes it."""
    return list(points) if state == "thermal" else [(*p[:5], 0.0) for p in points]


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
    sectors = _sector_covariance(
        frame_x, frame_p, passive, *_thermal_spectrum(frame_p[0], temperature))
    return frame_p[0], sectors, CovarianceMatrix(sector_rows(sectors)).entries


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
# the rare shapes of an array block: V = T (lambda2 = D = 0) and V != T points
# in one block, S = I flat at lambda = 0, and a block whose every point has V = T
MIXED_BLOCK = (
    (1.0, 1.0, 0.0, 0.0, 0.0, 0.25),  # V = T and S = I
    (1.0, 1.0, 0.0, 0.3, 0.0, 0.25),
    (1.0, 1.0, 0.3, 0.0, 0.0, 0.25),  # V = T
    (0.5, 2.0, 0.4, 0.2, 0.3, 0.0),
)
PASSIVE_BLOCK = (MIXED_BLOCK[0], MIXED_BLOCK[2])


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
            d_minus, d_plus = ppt_symplectic_eigenvalues(CovarianceMatrix(sector_rows(sectors)))
        except UnphysicalStateError:  # the oracle's check, on the rounded 4x4 matrix
            assume(False)
        pair = _sector_invariants(*sectors)[5:]
        tol = 1e-13 * max(np.linalg.cond(gamma), wu / wl) * d_plus
        assert abs(pair[0] - d_minus) <= tol and abs(pair[1] - d_plus) <= tol, point

    @given(st.lists(sector_points(), min_size=1, max_size=8))
    @example(list(EDGE_EXAMPLES))
    @example(list(MIXED_BLOCK))
    @example(list(PASSIVE_BLOCK))
    def test_float_and_stacked_inputs_agree_bit_for_bit(self, points):
        def leaves(tree, k=None):
            # a stacked array holds its pairs and triples along the first axis
            if isinstance(tree, (tuple, list)) or np.ndim(tree) > 1:
                return [leaf for branch in tree for leaf in leaves(branch, k)]
            return [np.float64(tree if k is None else tree[k]).tobytes()]

        wa, wb, l1, l2, dd, temperature = map(np.array, zip(*points))
        det_v, det_t = _stability_determinants(wa, wb, l1, l2, dd)
        ok = (det_v > 0.0) & (det_t > 0.0)
        frames = _sector_modes(*(a[ok] for a in (wa, wb, l1, l2, dd)), det_v[ok], det_t[ok])
        spectrum = _thermal_spectrum(frames[1][0], temperature[ok])
        sectors = _sector_covariance(*frames, *spectrum)
        # the stage fed c = 1/2 builds the ground state of any temperature
        ground = _sector_covariance(*frames, *np.full((2, len(spectrum[0])), 0.5))
        # the first frame of arrays is the pair of both frames; its frame 1 is the second
        pair = _frame_row(frames[0], 0), _frame_row(frames[0], 1)
        assert leaves(pair[1]) == leaves(frames[1])
        stacked = ((*pair, frames[2]), spectrum, sectors, _sector_invariants(*sectors),
                   ground, _sector_invariants(*ground))
        k = 0
        for i, point in enumerate(points):
            dets = _stability_determinants(*point[:5])
            assert leaves(dets) == leaves((det_v, det_t), i), point
            if not ok[i]:
                continue
            frames = _sector_modes(*point[:5], *dets)
            spectrum = _thermal_spectrum(frames[1][0], point[5])
            sectors = _sector_covariance(*frames, *spectrum)
            ground = _sector_covariance(*frames, 0.5, 0.5)
            scalar = (frames, spectrum, sectors, _sector_invariants(*sectors),
                      ground, _sector_invariants(*ground))
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


class TestSpectrumStage:
    """The covariance stage builds the state whose symplectic eigenvalues it
    is given: fed those of ``_thermal_spectrum`` it gives the thermal row of
    ``run_point``, and fed c = 1/2 the ground row, bit for bit, on floats and
    on a one-block grid."""

    @staticmethod
    def _fed_sectors(inputs, temperature, state):
        """(sectors, omega_L) of a point, or of arrays, from the stage fed the
        thermal spectrum or c = 1/2."""
        frames = _sector_modes(*inputs, *_stability_determinants(*inputs))
        if state == "thermal":
            c = _thermal_spectrum(frames[1][0], temperature)
        else:
            c = np.full((2, len(temperature)), 0.5) if np.ndim(temperature) else (0.5, 0.5)
        return _sector_covariance(*frames, *c), frames[1][0][1]

    @given(st.lists(sector_points(), min_size=1, max_size=8),
           st.sampled_from(("thermal", "ground")))
    @example(list(MIXED_BLOCK), "thermal")
    @example(list(MIXED_BLOCK), "ground")
    def test_rows_of_the_fed_stage(self, points, state):
        points = [p for p in in_state(points, state) if _sector_state(*p) is not None]
        assume(points)
        table = np.array(points).T
        sectors = self._fed_sectors(table[:5], table[5], state)[0]
        fault, measures, classes = _sector_measures(sectors)
        assume(not fault.any())
        result = evaluate_grid(GridPoints(*table), state)
        assert result.cells[:, 6:].tobytes() == np.array(measures).T.tobytes()
        assert result.classification.tolist() == classes.tolist()
        for point in points:
            report = correlation_report(*self._fed_sectors(point[:5], point[5], state))
            row = run_point(ModelParams(*point[:5]), Environment(point[5]), state)
            assert np.array(row[6:14]).tobytes() == np.array(report[:-1]).tobytes(), point
            assert row.classification == report.classification.value, point


@st.composite
def block_points(draw):
    """(wa, wb, lambda1, lambda2, D, T) of one kind each: passive (lambda2 =
    D = 0, V = T), active, unstable (past the edge, D = 0) or degenerate
    (wa = wb, D = 0)."""
    kind = draw(st.sampled_from(("passive", "active", "unstable", "degenerate")))
    temperature = draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
    wa, wb = draw(FREQUENCY), draw(FREQUENCY)
    l1, l2, dd = draw(COUPLING), draw(COUPLING), draw(st.floats(0.0, 0.5))
    if kind == "passive":
        l2 = dd = 0.0
    elif kind == "unstable":
        # det V = wa wb - (l1 + l2)^2 < 0
        l1 = l2 = math.sqrt(wa * wb) * draw(st.floats(0.51, 2.0))
        dd = 0.0
    elif kind == "degenerate":
        wb, dd = wa, 0.0
    return wa, wb, l1, l2, dd, temperature


class TestStackedPass:
    """The kernel takes both sector frames of a block in one (2, n) pass; on
    every kind of point its cells are the bits of ``run_point``'s row, but
    for the three logarithms, which ``np.log`` and ``math.log`` may round a
    last bit apart."""

    LOGS = [sweep._CELLS.index(name) for name in ("e_n", "g_ab", "g_ba")]

    @settings(max_examples=120)
    @given(st.lists(block_points(), min_size=1, max_size=24),
           st.sampled_from(("ground", "thermal")),
           st.one_of(st.none(), st.tuples(st.sampled_from(FAULTY_POINTS), st.integers(0, 24))))
    def test_rows_equal_run_point_bit_for_bit(self, points, state, faulty):
        if faulty is not None:
            (params, temperature), at = faulty
            values = (*(getattr(params, f.name) for f in fields(params)), temperature)
            points = [*points[:at], values, *points[at:]]
        points = in_state(points, state)
        refs = []
        for values in points:
            params = ModelParams(*values[:5])
            try:
                refs.append(run_point(params, Environment(values[5]), state))
            except ValueError as exc:
                # the kernel raises for the first faulty point, with its message
                with pytest.raises(ValueError) as batched:
                    evaluate_grid(GridPoints(*zip(*points)), state)
                where = f" at {params}"
                assert where in str(batched.value)
                assert str(batched.value).replace(where, "", 1) == str(exc)
                return
        result = evaluate_grid(GridPoints(*zip(*points)), state)
        rows = result.csv_text().splitlines()
        for i, ref in enumerate(refs):
            assert bool(result.stable[i]) == ref.stable, points[i]
            cells = result.cells[i]
            if not ref.stable:
                assert cells[:4].tobytes() == np.array(ref[:4], float).tobytes(), points[i]
                assert np.isnan(cells[4:]).all() and result.classification[i] == -1
                assert rows[i] == ref.to_csv()
                continue
            expected = np.array(ref[:14], float)
            logs = expected[self.LOGS]
            assert (np.abs(cells[self.LOGS] - logs) <= 4 * np.spacing(np.abs(logs))).all(), points[i]
            expected[self.LOGS] = cells[self.LOGS]
            assert cells.tobytes() == expected.tobytes(), points[i]
            label = _STEERING_CLASSES[result.classification[i]].value
            assert label == ref.classification, points[i]
            # the row text of the kernel's cells is ``ResultRow.to_csv``'s
            assert rows[i] == ref._replace(e_n=cells[6], g_ab=cells[7], g_ba=cells[8]).to_csv()


class TestAllStableBlocks:
    """A block whose points are all stable skips the gather of its stable
    points; its rows are those the same points get among unstable ones."""

    @settings(max_examples=100)
    @given(st.lists(block_points(), min_size=2, max_size=24), st.randoms(use_true_random=False),
           st.sampled_from(("ground", "thermal")))
    def test_rows_equal_the_rows_among_unstable_points(self, points, rng, state):
        points = in_state(points, state)

        def stable(point):
            det_v, det_t = _stability_determinants(*point[:5])
            return det_v > 0.0 and det_t > 0.0

        alone = [p for p in points if stable(p)]
        others = [p for p in points if not stable(p)]
        assume(alone and others)
        mixed = [*alone, *others]
        rng.shuffle(mixed)
        # the stable points in their own order, the unstable ones interleaved
        order = iter(alone)
        mixed = [next(order) if stable(p) else p for p in mixed]
        try:
            result = evaluate_grid(GridPoints(*zip(*alone)), state)
        except ValueError as exc:
            # the first faulty stable point is the first one of both blocks
            with pytest.raises(ValueError) as among:
                evaluate_grid(GridPoints(*zip(*mixed)), state)
            assert str(among.value) == str(exc)
            return
        assert result.stable.all()
        rows = evaluate_grid(GridPoints(*zip(*mixed)), state).csv_text().splitlines()
        assert result.csv_text().splitlines() == [
            row for row, p in zip(rows, mixed) if stable(p)
        ]


class TestChunks:
    @given(grid_specs(), st.lists(st.floats(0.0, 1.0), max_size=4))
    def test_rows_equal_concatenated_rows_of_any_contiguous_split(self, spec, cuts):
        points = grid_points(spec)
        bounds = [0, *sorted(round(c * len(points)) for c in cuts), len(points)]

        def rows(chunks):
            try:
                return "".join(evaluate_grid(c, spec.state).csv_text() for c in chunks)
            except ValueError:
                return None

        split = [points.chunk(start, stop) for start, stop in zip(bounds, bounds[1:])]
        assert rows(split) == rows([points])

    def test_single_point_chunks(self):
        axes = (Axis("wa", (0.5, 1.0, 2.0)), Axis("lambda", (0.3, 0.9)))
        spec = SweepSpec("custom", axes, {"wb": 1.0, "T": 0.2},
                         coupling=SQUEEZE_ONLY, diamag_mode=0.1)
        points = grid_points(spec)
        singles = [evaluate_grid(points.chunk(i, i + 1), "thermal").csv_text()
                   for i in range(len(points))]
        assert "".join(singles) == evaluate_grid(points, "thermal").csv_text()


class TestGridPoints:
    def test_integer_arrays_are_read_as_floats(self):
        points = GridPoints(*map(np.array, ([1.2], [1], [0.3], [0.3], [0], [1])))
        assert points.table.dtype == np.float64 and points.omega_b.tolist() == [1.0]
        row = evaluate_grid(points, "thermal").csv_text().splitlines()[0]
        ref = run_point(ModelParams(1.2, 1, 0.3, 0.3, 0), Environment(1), "thermal")
        assert row == ref.to_csv()
        assert row.startswith("0.3,1.2,1,1,")

    def test_row_major_arrays(self):
        axes = (Axis("wa", (0.5, 2.0)), Axis("lambda", (0.1, 0.2, 0.3)))
        spec = SweepSpec("custom", axes, {"wb": 1.5, "T": 0.1},
                         coupling=SQUEEZE_ONLY, diamag_mode="0.05")
        points = grid_points(spec)
        for i, point in enumerate(grid(spec)):
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
            for point in grid(spec):
                _, temperature = spec_to_params(spec, point)
                Environment(temperature, ENV.gamma_a, ENV.gamma_b)
        assert message in str(scalar.value)

        def no_kernel(*args):
            raise AssertionError("no point may be computed")

        monkeypatch.setattr(sweep, "evaluate_grid", no_kernel)
        with pytest.raises(ValueError) as batched:
            sweep.sweep_csv(spec, ENV)
        assert str(batched.value) == f"{scalar.value} at grid point {point}"

    def test_bad_point_named_by_its_axis_values(self):
        # the first bad point of a two-axis grid, past rows of good ones
        axes = (Axis("T", (0.1, 0.2, -1e-4)), Axis("lambda", (0.1, 0.2)))
        with pytest.raises(ValueError) as batched:
            grid_points(SweepSpec("custom", axes, {}))
        assert str(batched.value) == (
            "temperature must be non-negative at grid point {'T': -0.0001, 'lambda': 0.1}")
