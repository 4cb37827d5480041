"""Dissipative dynamics of the polaritons in a common Ohmic reservoir.

Both modes couple to one bath through their position quadratures, so each
polariton branch sees an interference-weighted collective rate built from
W_j = w_j - y_j and X_j = x_j - z_j.  The second moments then obey closed
linear equations: occupations relax towards the Bose number of their
branch frequency, squeezing and cross moments decay while rotating.  The
same generator re-expressed over the bare-mode operators (a 4x4
Kossakowski matrix) exposes the coupling asymmetry responsible for
one-way steering.

Sign convention for the bath response: absorption at rate
gamma * omega * N(omega) and emission at gamma * omega * (N(omega) + 1),
the unique choice whose steady state carries the coth weights of the
closed-form covariances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PolaritonBasis
from .states import Environment, format_value, thermal_occupation

__all__ = [
    "NoSteadyStateError",
    "RateSet",
    "SecondMoments",
    "collective_rates",
    "steady_state_second_moments",
    "evolve_second_moments",
    "evolve_trajectory",
    "TRAJECTORY_HEADER",
    "trajectory_rows",
    "kossakowski_matrix",
    "local_representation_coefficients",
    "LOCAL_GENERATOR_LABELS",
    "second_moment_drift",
    "ladder_commutator_matrix",
    "asymmetry_diagnostic",
    "resonant_balance_frequency",
]

MAX_STEP_FRACTION = 0.1  # dt * fastest rate-or-frequency must stay below this


class NoSteadyStateError(ValueError):
    """A branch has no net damping, so its occupation never relaxes."""


@dataclass(frozen=True)
class RateSet:
    """Collective absorption (up) and emission (down) rates per branch."""

    up_upper: float
    down_upper: float
    up_lower: float
    down_lower: float

    def __post_init__(self):
        for r in (self.up_upper, self.down_upper, self.up_lower, self.down_lower):
            if r < 0:
                raise ValueError("rates must be non-negative")

    def decay_upper(self) -> float:
        return self.down_upper - self.up_upper

    def decay_lower(self) -> float:
        return self.down_lower - self.up_lower


@dataclass(frozen=True)
class SecondMoments:
    """Branch occupations, squeezing moments and the cross coherence."""

    occ_upper: float
    occ_lower: float
    sq_upper: complex = 0.0
    sq_lower: complex = 0.0
    cross: complex = 0.0

    def __post_init__(self):
        if self.occ_upper < 0 or self.occ_lower < 0:
            raise ValueError("occupations must be non-negative")

    @classmethod
    def vacuum(cls) -> "SecondMoments":
        return cls(0.0, 0.0)


def _branch_rates(
    wj: float, weight_a: float, weight_b: float, env: Environment
) -> tuple[float, float]:
    # interference of the two coupling paths; can vanish (dark branch)
    amp = math.sqrt(env.gamma_a) * weight_a + math.sqrt(env.gamma_b) * weight_b
    strength = wj * amp * amp
    n = thermal_occupation(wj, env.temperature)
    return strength * n, strength * (n + 1.0)


def collective_rates(basis: PolaritonBasis, env: Environment) -> RateSet:
    """Common-bath rates per branch from the quadrature weights W_j, X_j."""
    wu_, xu, yu, zu = basis.coeffs_upper
    wl_, xl, yl, zl = basis.coeffs_lower
    up_u, down_u = _branch_rates(basis.omega_upper, wu_ - yu, xu - zu, env)
    up_l, down_l = _branch_rates(basis.omega_lower, wl_ - yl, xl - zl, env)
    return RateSet(up_u, down_u, up_l, down_l)


def steady_state_second_moments(rates: RateSet) -> SecondMoments:
    """Fixed point of the moment equations: occ = up/(down - up), rest zero.

    Detailed balance makes this the Bose occupation of each branch,
    independent of the damping slopes.
    """
    for up, decay in (
        (rates.up_upper, rates.decay_upper()),
        (rates.up_lower, rates.decay_lower()),
    ):
        if decay <= 0.0:
            raise NoSteadyStateError(
                "no net damping on a branch (dark mode or inverted rates)"
            )
    return SecondMoments(
        occ_upper=rates.up_upper / rates.decay_upper(),
        occ_lower=rates.up_lower / rates.decay_lower(),
    )


def _moment_generator(
    rates: RateSet, wu: float, wl: float
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal drift a and inhomogeneity b of the moment vector ODE y' = a y + b.

    Component order: (occ_U, occ_L, sq_U, sq_L, cross)."""
    dec_u, dec_l = rates.decay_upper(), rates.decay_lower()
    drift = np.array(
        [
            -dec_u,
            -dec_l,
            -dec_u - 2j * wu,
            -dec_l - 2j * wl,
            1j * (wu - wl) - 0.5 * (dec_u + dec_l),
        ],
        dtype=complex,
    )
    inhom = np.array([rates.up_upper, rates.up_lower, 0.0, 0.0, 0.0], dtype=complex)
    return drift, inhom


def _pack(m: SecondMoments) -> np.ndarray:
    return np.array(
        [m.occ_upper, m.occ_lower, m.sq_upper, m.sq_lower, m.cross], dtype=complex
    )


def _unpack(v: np.ndarray) -> SecondMoments:
    return SecondMoments(
        occ_upper=float(v[0].real),
        occ_lower=float(v[1].real),
        sq_upper=complex(v[2]),
        sq_lower=complex(v[3]),
        cross=complex(v[4]),
    )


def _check_step(dt: float, scale: float) -> None:
    if dt <= 0:
        raise ValueError("dt must be positive")
    if dt * scale > MAX_STEP_FRACTION:
        raise ValueError(
            f"dt={dt:g} too large for fastest scale {scale:g}: "
            f"dt * scale must stay below {MAX_STEP_FRACTION}"
        )


def _rk4_update(dt: float, drift: np.ndarray, inhom: np.ndarray):
    """Per-step affine map of the classical 4th-order scheme.

    For the diagonal system y' = a y + b one RK4 step is exactly
    y -> g y + kick, with g = R(a dt) = 1 + z P(z) the degree-4 stability
    polynomial and kick = dt P(a dt) b, P being its integrated companion.
    Returns (g - 1, kick); g - 1 = z P is formed directly, since 1 + z P
    rounded and minus 1 would lose the digits of a slow decay.
    """
    z = dt * drift
    p = 1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0))
    return z * p, dt * p * inhom


def _rk4_iterates(initial, rates, basis, t_final, dt, stride=None):
    """Closed-form RK4 solve: the step size, the recorded step counts k
    (every ``stride``-th step and the last; only the last without a
    stride) and the moment vector after each.

    k steps of y -> g y + kick give y_k = g^k y0 + kick (g^k - 1)/(g - 1),
    with g^k - 1 = expm1(k log1p(g - 1)) and the sum k where g = 1.  The
    fixed point -b/a is not used: it is 0/0 on a dark branch, where the
    iteration holds its value.
    """
    wu, wl = basis.omega_upper, basis.omega_lower
    top_rate = max(rates.up_upper, rates.down_upper, rates.up_lower, rates.down_lower)
    scale = max(wu, wl, top_rate)
    if dt is None:
        dt = 0.05 / scale
    _check_step(dt, scale)
    if stride is not None and stride < 1:
        raise ValueError("stride must be at least 1")
    steps = max(1, int(round(t_final / dt)))
    recorded = [steps] if stride is None else [*range(stride, steps, stride), steps]
    gain_m1, kick = _rk4_update(dt, *_moment_generator(rates, wu, wl))
    # numpy's complex log1p takes the log of |g| and loses the digits of g - 1
    u, v = gain_m1.real, gain_m1.imag
    log_gain = 0.5 * np.log1p(u * (2.0 + u) + v * v) + 1j * np.arctan2(v, 1.0 + u)
    k = np.array(recorded, dtype=float)[:, None]
    k_log_gain = k * log_gain
    with np.errstate(invalid="ignore"):  # 0/0 where g = 1
        sums = np.where(gain_m1 == 0, k, np.expm1(k_log_gain) / gain_m1)
    return dt, recorded, np.exp(k_log_gain) * _pack(initial) + kick * sums


def evolve_second_moments(
    initial: SecondMoments,
    rates: RateSet,
    basis: PolaritonBasis,
    t_final: float,
    dt: float | None = None,
) -> SecondMoments:
    """Fixed-step 4th-order integration of the moment equations.

    Gives the iterate after round(t_final / dt) steps of size dt (the
    integrated time is the nearest multiple of dt), in closed form.
    """
    _, _, moments = _rk4_iterates(initial, rates, basis, t_final, dt)
    return _unpack(moments[0])


def evolve_trajectory(
    initial: SecondMoments,
    rates: RateSet,
    basis: PolaritonBasis,
    t_final: float,
    dt: float | None = None,
    stride: int = 1,
) -> list[tuple[float, SecondMoments]]:
    """Like evolve_second_moments but records every ``stride``-th step."""
    dt, recorded, moments = _rk4_iterates(initial, rates, basis, t_final, dt, stride)
    return [(0.0, initial)] + [(k * dt, _unpack(y)) for k, y in zip(recorded, moments)]


TRAJECTORY_HEADER = "t,occ_U,occ_L,re_sq_U,im_sq_U,re_sq_L,im_sq_L,re_cross,im_cross"


def trajectory_rows(points: list[tuple[float, SecondMoments]]) -> list[str]:
    rows = []
    for t, m in points:
        rows.append(
            ",".join(
                [
                    format_value(t),
                    format_value(m.occ_upper),
                    format_value(m.occ_lower),
                    format_value(m.sq_upper.real),
                    format_value(m.sq_upper.imag),
                    format_value(m.sq_lower.real),
                    format_value(m.sq_lower.imag),
                    format_value(m.cross.real),
                    format_value(m.cross.imag),
                ]
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Local (bare-operator) representation of the global generator.

_OPS = ("a", "b", "adag", "bdag")
_DAGGER = {0: 2, 1: 3, 2: 0, 3: 1}

LOCAL_GENERATOR_LABELS: tuple[tuple[str, str], ...] = tuple(
    (_OPS[mu], _OPS[_DAGGER[nu]]) for mu in range(4) for nu in range(4)
)


def ladder_commutator_matrix() -> np.ndarray:
    """c[i, j] = [u_i, u_j] for the ladder vector u = (a, b, a', b')."""
    c = np.zeros((4, 4))
    c[0, 2] = c[1, 3] = 1.0
    c[2, 0] = c[3, 1] = -1.0
    return c


def kossakowski_matrix(basis: PolaritonBasis, rates: RateSet) -> np.ndarray:
    """Weights K[mu, nu] of the dissipators u_mu rho u_nu' - {u_nu' u_mu, rho}/2.

    Summed over both branch jump operators; real symmetric and positive
    semidefinite by construction.
    """
    k = np.zeros((4, 4))
    for coeffs, down, up in (
        (basis.coeffs_upper, rates.down_upper, rates.up_upper),
        (basis.coeffs_lower, rates.down_lower, rates.up_lower),
    ):
        w, x, y, z = coeffs
        lower = np.array([w, x, y, z])  # p_j over (a, b, a', b')
        raise_ = np.array([y, z, w, x])  # p_j' over the same basis
        k += down * np.outer(lower, lower) + up * np.outer(raise_, raise_)
    return k


def local_representation_coefficients(
    basis: PolaritonBasis, rates: RateSet
) -> dict[tuple[str, str], float]:
    """The sixteen bare-operator dissipator weights as a labelled table.

    The key ("o", "o'") weighs the term  o rho o' - {o' o, rho}/2  with o'
    written as it appears on the right of rho; e.g. ("a", "adag") is the
    plain cavity-decay channel.
    """
    k = kossakowski_matrix(basis, rates)
    return {
        (_OPS[mu], _OPS[_DAGGER[nu]]): float(k[mu, nu])
        for mu in range(4)
        for nu in range(4)
    }


def second_moment_drift(
    kossakowski: np.ndarray,
    dynamical: np.ndarray | None,
    q: np.ndarray,
) -> np.ndarray:
    """d<u_i u_j>/dt for the quadratic-moment matrix q under the generator.

    With c the ladder commutator matrix and nu-bar the daggered index of a
    jump operator, the dissipative drift is

        dq = (c K~ q + q K c~ + transposes) / 2,

    K~ being K with conjugated columns and c~ the row-conjugated c.
    ``dynamical`` adds the Hamiltonian part -i (M q + q M^T); pass None for
    the dissipator alone.
    """
    c = ladder_commutator_matrix()
    k = np.asarray(kossakowski, dtype=float)
    q = np.asarray(q, dtype=complex)
    perm = [2, 3, 0, 1]
    a1 = c @ k[:, perm] @ q
    a2 = q @ k @ c[perm, :]
    dq = 0.5 * (a1 + a1.T + a2 + a2.T)
    if dynamical is not None:
        m = np.asarray(dynamical, dtype=float)
        dq = dq - 1j * (m @ q + q @ m.T)
    return dq


def asymmetry_diagnostic(basis: PolaritonBasis, temperature: float) -> float:
    """(N(omega_U) - N(omega_L)) cos(2 theta): zero iff the bath couples
    symmetrically to the two modes."""
    if basis.theta is None:
        raise ValueError("diagnostic needs a basis with a mixing angle")
    n_u = thermal_occupation(basis.omega_upper, temperature)
    n_l = thermal_occupation(basis.omega_lower, temperature)
    return (n_u - n_l) * math.cos(2.0 * basis.theta)


def resonant_balance_frequency(lam: float, omega_b: float = 1.0) -> float:
    """Cavity frequency at which the marginal purities balance, mu_a = mu_b.

    Root of omega_a^2 + 4 (lam^2/omega_b) omega_a - omega_b^2 = 0, i.e. the
    vanishing of cos(2 theta) for the natural diamagnetic weight.
    """
    if lam <= 0:
        raise ValueError("coupling must be positive")
    if omega_b <= 0:
        raise ValueError("omega_b must be positive")
    lam_sq = lam * lam
    return (-4.0 * lam_sq + 2.0 * math.hypot(2.0 * lam_sq, omega_b * omega_b)) / (
        2.0 * omega_b
    )
