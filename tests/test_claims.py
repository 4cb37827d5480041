"""Sentences of the paper's abstract, each checked on the preset columns.

Each test quotes one sentence of the abstract and checks a predicate on
the rows of the presets that show it, with the regime stated where the
claim holds only in one.  Every preset is one kernel call
(``sweep.evaluate_grid``), made once for the module.
"""

from functools import cache

import numpy as np

from hopfield_gaussian.measures import _STEERING_CLASSES, SteeringClass
from hopfield_gaussian.scenarios import SCENARIOS
from hopfield_gaussian.states import Environment
from hopfield_gaussian.sweep import evaluate_grid, grid_points


@cache
def preset(name):
    """(rows of the preset as one ``GridResult``, its axis values)."""
    spec = SCENARIOS[name]
    result = evaluate_grid(grid_points(spec, Environment(0.0)), spec.state)
    return result, tuple(np.array(axis.values) for axis in spec.axes)


def column(name, field):
    """A column of a preset, shaped as its grid (the first axis outermost)."""
    result, axes = preset(name)
    return getattr(result, field).reshape([len(a) for a in axes])


def class_counts(name):
    """How many rows of a preset fall in each steering class."""
    classes = preset(name)[0].classification
    return {c: int(np.count_nonzero(classes == i)) for i, c in enumerate(_STEERING_CLASSES)}


def test_lower_optical_frequencies_enhance_entanglement_and_steering():
    """"Moreover, lower optical frequencies enhance both quantum
    entanglement and EPR steering." (ground state)

    On fig2a, E_N, G_ab and G_ba are strictly ordered omega_a = 0.5 > 1 > 2
    at every one of its 100 couplings.
    """
    wa, lam = preset("fig2a")[1]
    assert wa.tolist() == [0.5, 1.0, 2.0] and len(lam) == 100
    for field in ("e_n", "g_ab", "g_ba"):
        values = column("fig2a", field)
        assert (values[0] > values[1]).all() and (values[1] > values[2]).all(), field


def test_ultrastrong_coupling_and_low_frequency_improve_thermal_entanglement():
    """"Further, when considering thermal effects, the ultrastrong and deep
    strong coupling regimes, paired with lower optical frequencies, lead to
    improved entanglement." (fig3a, T = 0.15)

    The claim holds in the ultrastrong regime only: no coupling row of E_N is
    monotone in omega_a; omega_a = 0.1 beats omega_a = 2 from lambda = 0.5
    on, at every larger lambda and at none just below; and the optimum
    omega_a* falls, never rising, from 0.95 at lambda = 0.02 to 0.2 at
    lambda = 1.5.
    """
    wa, lam = preset("fig3a")[1]
    e_n = column("fig3a", "e_n")
    steps = np.diff(e_n, axis=0)
    assert not ((steps >= 0.0).all(axis=0) | (steps <= 0.0).all(axis=0)).any()
    assert (wa[0], wa[-1]) == (0.1, 2.0)
    beats = e_n[0] > e_n[-1]
    start = np.flatnonzero(~beats)[-1] + 1  # the first lambda of the last run of wins
    assert np.isclose(lam[start], 0.5) and beats[start:].all()
    best = wa[e_n.argmax(axis=0)]
    assert (best[0], best[-1]) == (0.95, 0.2) and (lam[0], lam[-1]) == (0.02, 1.5)
    assert (np.diff(best) <= 0.0).all()


def test_correlations_stem_from_squeezing_interactions():
    """"These quantum correlations primarily stem from squeezing interactions
    in weak and normal strong coupling regimes." (ground state, resonance)

    With the mixing term alone (fig2d) the ground state is the vacuum at all
    90 couplings: E_N = G_ab = G_ba = 0, pure modes, no excitations.  With
    the squeezing term alone (fig2c) it is entangled at all 90.
    """
    assert preset("fig2d")[0].stable.all() and len(preset("fig2d")[0].stable) == 90
    for field in ("e_n", "g_ab", "g_ba", "n_a", "n_b"):
        assert (column("fig2d", field) == 0.0).all(), field
    for field in ("mu_a", "mu_b", "mu_ab"):
        assert (column("fig2d", field) == 1.0).all(), field
    e_n = column("fig2c", "e_n")
    assert len(e_n) == 90 and (e_n > 0.0).all()


def test_one_way_steering_for_the_nonresonant_case():
    """"Additionally, one-way EPR steering can also be produced for
    nonresonant case." (thermal)

    On fig8 (omega_a = 2, no diamagnetic term) 64 of the 70 rows steer one
    way, b -> a, and none a -> b.  On fig6 (omega_a swept off resonance) both
    one-way directions occur, with every class: 30 b -> a, 25 a -> b,
    17 two-way and 7 no-way.
    """
    assert class_counts("fig8") == {
        SteeringClass.NO_WAY: 6,
        SteeringClass.ONE_WAY_A_TO_B: 0,
        SteeringClass.ONE_WAY_B_TO_A: 64,
        SteeringClass.TWO_WAY: 0,
    }
    assert class_counts("fig6") == {
        SteeringClass.NO_WAY: 7,
        SteeringClass.ONE_WAY_A_TO_B: 25,
        SteeringClass.ONE_WAY_B_TO_A: 30,
        SteeringClass.TWO_WAY: 17,
    }
