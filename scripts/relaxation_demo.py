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
from hopfield_gaussian.model import hopfield
from hopfield_gaussian.oracles import thermal_covariance_closed
from hopfield_gaussian.states import Environment, quadrature_transform, steady_state_covariance
from hopfield_gaussian.sweep import diagonalize_params


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--wa", type=float, default=1.0)
    parser.add_argument("--coupling", type=float, default=0.5)
    parser.add_argument("--temp", type=float, default=0.25)
    parser.add_argument("--gamma-a", type=float, default=0.05)
    parser.add_argument("--gamma-b", type=float, default=0.03)
    args = parser.parse_args()

    params = hopfield(args.wa, 1.0, args.coupling)
    basis = diagonalize_params(params)  # the basis of the dynamics command
    env = Environment(args.temp, args.gamma_a, args.gamma_b)
    rates = collective_rates(basis, env)

    decay = min(rates.decay_upper(), rates.decay_lower())
    t_final = 30.0 / decay
    times, moments = evolve_trajectory(
        SecondMoments.vacuum(), rates, basis, t_final, stride=2000
    )
    occ_u, occ_l = moments[:, :2].real.T
    print("      t        occ_U        occ_L")
    for t, n_u, n_l in zip(times[-5:], occ_u[-5:], occ_l[-5:]):
        print(f"{t:9.1f}  {n_u:.9f}  {n_l:.9f}")

    # the steady-state product T diag(n + 1/2) T^T with the relaxed occupations
    u = quadrature_transform(basis)
    occ = np.array([occ_u[-1], occ_u[-1], occ_l[-1], occ_l[-1]])
    relaxed = (u * (occ + 0.5)) @ u.T
    closed = thermal_covariance_closed(params, args.temp).entries
    steady = steady_state_covariance(basis, args.temp).entries
    print(f"max |relaxed - closed| = {np.max(np.abs(relaxed - closed)):.3e}")
    print(f"(two-route reference    {np.max(np.abs(steady - closed)):.3e})")


if __name__ == "__main__":
    main()
