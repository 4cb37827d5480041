#!/usr/bin/env python3
"""Thermalization demo: integrate the polariton moments from vacuum and
compare the long-time state against the closed-form steady covariance.

Prints the trajectory tail and the elementwise gap between the two
routes to the steady bare-basis covariance matrix.
"""

import argparse

import numpy as np

from hopfield_gaussian.dynamics import (
    SecondMoments,
    collective_rates,
    evolve_trajectory,
)
from hopfield_gaussian.model import hopfield, hopfield_basis
from hopfield_gaussian.states import (
    Environment,
    quadrature_transform,
    steady_state_covariance,
    thermal_covariance_closed,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--wa", type=float, default=1.0)
    parser.add_argument("--coupling", type=float, default=0.5)
    parser.add_argument("--temp", type=float, default=0.25)
    parser.add_argument("--gamma-a", type=float, default=0.05)
    parser.add_argument("--gamma-b", type=float, default=0.03)
    args = parser.parse_args()

    params = hopfield(args.wa, 1.0, args.coupling)
    basis = hopfield_basis(params)
    env = Environment(args.temp, args.gamma_a, args.gamma_b)
    rates = collective_rates(basis, env)

    decay = min(rates.decay_upper(), rates.decay_lower())
    t_final = 30.0 / decay
    points = evolve_trajectory(
        SecondMoments.vacuum(), rates, basis, t_final, stride=2000
    )
    print("      t        occ_U        occ_L")
    for t, m in points[-5:]:
        print(f"{t:9.1f}  {m.occ_upper:.9f}  {m.occ_lower:.9f}")

    final = points[-1][1]
    # the steady-state product T diag(n + 1/2) T^T with the relaxed occupations
    u = quadrature_transform(basis)
    occ = np.array([final.occ_upper, final.occ_upper, final.occ_lower, final.occ_lower])
    relaxed = (u * (occ + 0.5)) @ u.T
    closed = thermal_covariance_closed(params, args.temp).entries
    steady = steady_state_covariance(basis, args.temp).entries
    print(f"max |relaxed - closed| = {np.max(np.abs(relaxed - closed)):.3e}")
    print(f"(two-route reference    {np.max(np.abs(steady - closed)):.3e})")


if __name__ == "__main__":
    main()
