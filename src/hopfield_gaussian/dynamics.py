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


def _require_finite(record, names) -> None:
    """Reject a NaN or infinite field of ``record``, complex ones included."""
    for name in names:
        value = getattr(record, name)
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class RateSet:
    """Collective absorption (up) and emission (down) rates per branch."""

    up_upper: float
    down_upper: float
    up_lower: float
    down_lower: float

    def __post_init__(self):
        _require_finite(self, ("up_upper", "down_upper", "up_lower", "down_lower"))
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
        _require_finite(self, ("occ_upper", "occ_lower", "sq_upper", "sq_lower", "cross"))
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
    times 0 can give comes out +0.  At t = 0 this is y0 bit for bit, with
    -0 as +0.
    """
    moments = np.zeros((len(times), 5), dtype=complex)
    drive = moments.real
    for j, up, decay in ((0, rates.up_upper, rates.decay_upper()),
                         (1, rates.up_lower, rates.decay_lower())):
        if decay == 0:
            drive[:, j] = times * up
        else:
            drive[:, j] = np.expm1(-decay * times) / -decay * up
    # from vacuum (signed zeros included, which test false) e^{a t} y0 is 0
    if (initial.occ_upper or initial.occ_lower
            or initial.sq_upper or initial.sq_lower or initial.cross):
        drift = _moment_drift(rates, basis.omega_upper, basis.omega_lower)
        moments += np.exp(times[:, None] * drift) * _pack(initial)
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
    fastest branch frequency or rate.  Row 0 is the initial state.  A branch
    that grows past the float range by the last step raises ValueError.
    """
    times = _recorded_times(t_final, _output_step(dt, rates, basis), stride)
    if rates.decay_upper() > 0.0 < rates.decay_lower():
        moments = _exact_moments(initial, rates, basis, times)
    else:  # a branch that does not decay may grow with t: its last row overflows first
        with np.errstate(over="ignore", invalid="ignore"):
            moments = _exact_moments(initial, rates, basis, times)
        if not np.isfinite(moments[-1]).all():
            name = "upper" if rates.decay_upper() <= rates.decay_lower() else "lower"
            raise ValueError(f"the {name} branch grows past the float range by t = {times[-1]:g}")
    if moments[:, :2].real.min() < 0:
        raise ValueError("occupations must be non-negative")
    return Trajectory(times, moments)


TRAJECTORY_HEADER = "t,occ_U,occ_L,re_sq_U,im_sq_U,re_sq_L,im_sq_L,re_cross,im_cross"

# Rows per '%' in trajectory_rows, which bounds the memory of a long run.
# On a 100,001-row trajectory (2-core x86 VM, best of 7) the tracemalloc peak
# is 20.6 MB for any block size from 64 to 4,096 rows, 28-29 MB with one '%'
# over all rows and 34.0 MB with one per row; the time, 1.0-1.6 us a row,
# does not depend on the block size beyond the spread between runs.  At 1,024
# rows the block's template join (16 us) is under 2% of its '%' (1.2 ms).
_FORMAT_BLOCK_ROWS = 1024


def trajectory_rows(trajectory: Trajectory) -> list[str]:
    """One CSV row per recorded time, in the columns of TRAJECTORY_HEADER.

    A column whose cells are bit-identical in every row (the squeezing and
    cross moments from vacuum are all +0) is formatted once, into the '%'
    row template.  The varying cells of up to ``_FORMAT_BLOCK_ROWS`` rows
    go through one '%' on that template repeated with newlines, which is
    then split into rows.
    """
    times, moments = trajectory
    n = len(times)
    if not n:
        return []
    table = np.empty((n, 9))
    table[:, 0] = times
    table[:, 1:3] = moments[:, :2].real
    table[:, 3::2] = moments[:, 2:].real
    table[:, 4::2] = moments[:, 2:].imag
    bits = table.view(np.int64)
    varies = (bits != bits[0]).any(axis=0)
    template = ",".join(_CELL if v else format(x, VALUE_FORMAT)
                        for v, x in zip(varies.tolist(), table[0].tolist()))
    cells = table[:, varies]
    rows = []
    for start in range(0, n, _FORMAT_BLOCK_ROWS):
        block = cells[start:start + _FORMAT_BLOCK_ROWS]
        rows += ("\n".join([template] * len(block)) % tuple(block.ravel().tolist())).split("\n")
    return rows
