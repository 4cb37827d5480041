"""Dissipative dynamics of the polaritons in a common Ohmic reservoir.

Both modes couple to one bath through their position quadratures, so each
polariton branch sees an interference-weighted collective rate built from
W_j = w_j - y_j and X_j = x_j - z_j.  The second moments then obey closed
linear equations: occupations relax towards the Bose number of their
branch frequency, squeezing and cross moments decay while rotating.  The
equations are diagonal, y' = a y + b, and are solved exactly,
y(t) = e^{a t} y0 + b expm1(a t) / a, at the recorded times.

Sign convention for the bath response: absorption at rate
gamma * omega * N(omega) and emission at gamma * omega * (N(omega) + 1),
the unique choice whose steady state carries the coth weights of the
steady-state covariances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import PolaritonBasis
from .states import _CELL, VALUE_FORMAT, Environment, thermal_occupation

__all__ = [
    "RateSet",
    "SecondMoments",
    "collective_rates",
    "evolve_second_moments",
    "Trajectory",
    "evolve_trajectory",
    "TRAJECTORY_HEADER",
    "trajectory_rows",
]

MAX_TRAJECTORY_ROWS = 10**7  # rows one solve may record, checked before allocating


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


def _moment_drift(rates: RateSet, wu: float, wl: float) -> np.ndarray:
    """Diagonal drift a of the moment equations y' = a y + b, whose drive b
    is (up_U, up_L, 0, 0, 0).  Component order: (occ_U, occ_L, sq_U, sq_L,
    cross)."""
    dec_u, dec_l = rates.decay_upper(), rates.decay_lower()
    cross = 1j * (wu - wl) - 0.5 * (dec_u + dec_l)
    return np.array([-dec_u, -dec_l, -dec_u - 2j * wu, -dec_l - 2j * wl, cross])


def _output_step(dt: float | None, rates: RateSet, basis: PolaritonBasis) -> float:
    """dt, or by default 0.05 over the fastest branch frequency or rate."""
    if dt is not None:
        return dt
    top_rate = max(rates.up_upper, rates.down_upper, rates.up_lower, rates.down_lower)
    return 0.05 / max(basis.omega_upper, basis.omega_lower, top_rate)


def _pack(m: SecondMoments) -> np.ndarray:
    return np.array(
        [m.occ_upper, m.occ_lower, m.sq_upper, m.sq_lower, m.cross], dtype=complex
    )


def _unpack(v: np.ndarray) -> SecondMoments:
    occ_upper, occ_lower, *rest = v.tolist()
    return SecondMoments(occ_upper.real, occ_lower.real, *rest)


def _recorded_times(t_final, dt, stride):
    """Times k * dt for k = 0, stride, 2 stride, ... and the last step
    round(t_final / dt); a stride of None records the first and the last
    only.  The rows are counted before anything is allocated."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if stride is not None and stride < 1:
        raise ValueError("stride must be at least 1")
    if not t_final > 0:  # NaN included; inf is counted below
        raise ValueError(f"t_final must be positive, got t_final={t_final}")
    ratio = t_final / dt
    if not math.isfinite(ratio):
        if stride is None:
            raise ValueError(f"t_final={t_final:g} and dt={dt:g} give no finite last step")
        rows = math.inf
    else:
        steps = max(1, round(ratio))
        stride = stride or steps
        rows = 2 + (steps - 1) // stride
    if rows > MAX_TRAJECTORY_ROWS:
        raise ValueError(
            f"t_final={t_final:g}, dt={dt:g} and stride={stride} would record "
            f"{rows:.8g} rows; the limit is {MAX_TRAJECTORY_ROWS:,}"
        )
    k = np.arange(rows, dtype=float) * min(stride, steps)  # a huge stride may not fit a float
    k[-1] = steps
    return k * dt


def _exact_moments(initial, rates, basis, times):
    """Exact solution of y' = a y + b at each of ``times``, shape (n, 5):

        y(t) = e^{a t} y0 + b expm1(a t) / a,  or y0 + b t where a = 0.

    Only the occupations have a drive b, and it is real.  The drive is
    added first, as +0 in the other columns, so that the -0 which e^{a t}
    times 0 can give comes out +0.  At t = 0 this is y0 bit for bit.
    """
    t = times[:, None]
    decay = np.array([rates.decay_upper(), rates.decay_lower()])
    with np.errstate(invalid="ignore"):  # 0/0 on a branch with no decay
        relax = np.where(decay == 0, t, np.expm1(-decay * t) / -decay)
    moments = np.zeros((len(times), 5), dtype=complex)
    moments[:, :2] = relax * (rates.up_upper, rates.up_lower)
    y0 = _pack(initial)
    if y0.any():  # from vacuum e^{a t} y0 is 0
        drift = _moment_drift(rates, basis.omega_upper, basis.omega_lower)
        moments += np.exp(t * drift) * y0
    return moments


def evolve_second_moments(
    initial: SecondMoments,
    rates: RateSet,
    basis: PolaritonBasis,
    t_final: float,
    dt: float | None = None,
) -> SecondMoments:
    """Exact moments at t = round(t_final / dt) * dt: the last row of
    ``evolve_trajectory`` (default dt as there), which records only the
    first and the last step."""
    trajectory = evolve_trajectory(initial, rates, basis, t_final, dt, None)
    return _unpack(trajectory.moments[-1])


class Trajectory(NamedTuple):
    """Recorded times, shape (n,), and moment vectors, shape (n, 5) complex,
    in the order (occ_U, occ_L, sq_U, sq_L, cross)."""

    times: np.ndarray
    moments: np.ndarray


def evolve_trajectory(
    initial: SecondMoments,
    rates: RateSet,
    basis: PolaritonBasis,
    t_final: float,
    dt: float | None = None,
    stride: int | None = 1,
) -> Trajectory:
    """Exact moments at t = k * dt for k = 0, stride, 2 stride, ... and the
    last step round(t_final / dt); a stride of None records k = 0 and the
    last step only.

    dt is only the output time spacing; the default is 0.05 over the
    fastest branch frequency or rate.  Row 0 is the initial state.
    """
    times = _recorded_times(t_final, _output_step(dt, rates, basis), stride)
    moments = _exact_moments(initial, rates, basis, times)
    if moments[:, :2].real.min() < 0:
        raise ValueError("occupations must be non-negative")
    return Trajectory(times, moments)


TRAJECTORY_HEADER = "t,occ_U,occ_L,re_sq_U,im_sq_U,re_sq_L,im_sq_L,re_cross,im_cross"


def trajectory_rows(trajectory: Trajectory) -> list[str]:
    """One CSV row per recorded time, in the columns of TRAJECTORY_HEADER.

    A column whose cells are bit-identical in every row (the squeezing and
    cross moments from vacuum are all +0) is formatted once, into the '%'
    row template; the rest go through one '%' per row.
    """
    times, moments = trajectory
    if not len(times):
        return []
    table = np.empty((len(times), 9))
    table[:, 0] = times
    table[:, 1:3] = moments[:, :2].real
    table[:, 3::2] = moments[:, 2:].real
    table[:, 4::2] = moments[:, 2:].imag
    bits = table.view(np.int64)
    varies = (bits != bits[0]).any(axis=0)
    template = ",".join(_CELL if v else format(x, VALUE_FORMAT)
                        for v, x in zip(varies.tolist(), table[0].tolist()))
    return [template % row for row in map(tuple, table[:, varies].tolist())]
