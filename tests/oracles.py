"""Reference routes that only the tests use.

Closed forms of the diamag = 0 model, the moment table of a
branch-diagonal state, the common-bath generator over the bare-mode
operators, the fixed point of the moment equations, a CSV row formatted
one cell at a time, a sweep's grid points one at a time, and the
per-field input checks of ``ModelParams`` and ``Environment``.  No command
and no ``verify`` check runs them; the tests pin each to the command path
or to ``hopfield_gaussian.oracles``.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from hopfield_gaussian.dynamics import RateSet, SecondMoments
from hopfield_gaussian.model import (
    DEGENERACY_TOL,
    ModelParams,
    PolaritonBasis,
    _mixing_angle,
)
from hopfield_gaussian.oracles import (
    CovarianceMatrix,
    DegenerateSpectrumError,
    _coth_weight,
    polariton_frequencies,
    single_coupling,
)
from hopfield_gaussian.scenarios import SweepSpec
from hopfield_gaussian.states import format_value
from hopfield_gaussian.sweep import ResultRow


def grid(spec: SweepSpec) -> list[dict]:
    """The axis values of each grid point of a sweep, in row-major order
    (the first axis outermost), the order of ``sweep.grid_points``."""
    names = [axis.name for axis in spec.axes]
    return [dict(zip(names, values))
            for values in itertools.product(*(axis.values for axis in spec.axes))]


def unchecked(cls, *values):
    """An instance of the frozen dataclass ``cls`` with its fields set to
    ``values`` in order and no check run: what ``model_params_check`` and
    ``environment_check`` take, so that a refusal's repr is the type's own."""
    obj = cls.__new__(cls)
    obj.__dict__.update(zip((f.name for f in dataclasses.fields(cls)), values))
    return obj


def model_params_check(self) -> None:
    """The checks of ``ModelParams``, one field at a time, as its generated
    ``__init__`` ran them: the reference of its one-pass range test."""
    values = (self.omega_a, self.omega_b, self.lambda1, self.lambda2, self.diamag)
    if not all(map(math.isfinite, values)):
        raise ValueError(f"model parameters must be finite, got {self}")
    if self.omega_a <= 0 or self.omega_b <= 0:
        raise ValueError("mode frequencies must be positive")
    if self.lambda1 < 0 or self.lambda2 < 0:
        raise ValueError("coupling strengths must be non-negative")
    if self.diamag < 0:
        raise ValueError("diamagnetic coefficient must be non-negative")


def environment_check(self) -> None:
    """The checks of ``Environment``, one field at a time, as its generated
    ``__init__`` ran them: the reference of its one-pass range test."""
    if not all(map(math.isfinite, (self.temperature, self.gamma_a, self.gamma_b))):
        raise ValueError(f"environment values must be finite, got {self}")
    if self.temperature < 0:
        raise ValueError("temperature must be non-negative")
    if self.gamma_a <= 0 or self.gamma_b <= 0:
        raise ValueError("damping slopes must be positive")


def row_csv(row: ResultRow) -> str:
    """``ResultRow.to_csv`` one ``format_value`` per cell: None prints as an
    empty cell, the class as itself and the flag as true or false."""
    cells = [format_value(v) for v in (row.lam, row.wa, row.wb, row.temperature)]
    for v in (
        row.omega_upper,
        row.omega_lower,
        row.e_n,
        row.g_ab,
        row.g_ba,
        row.mu_a,
        row.mu_b,
        row.mu_ab,
        row.n_a,
        row.n_b,
    ):
        cells.append("" if v is None else format_value(v))
    cells.append(row.classification or "")
    cells.append("true" if row.stable else "false")
    return ",".join(cells)


def coefficient_matrix(basis: PolaritonBasis) -> np.ndarray:
    """Rows (p_U, p_L, p_U', p_L') over columns (a, b, a', b')."""
    w, x, y, z = basis.coeffs_upper
    wu_row = [w, x, y, z]
    wu_conj = [y, z, w, x]
    w, x, y, z = basis.coeffs_lower
    wl_row = [w, x, y, z]
    wl_conj = [y, z, w, x]
    return np.array([wu_row, wl_row, wu_conj, wl_conj])


# ---------------------------------------------------------------------------
# The diamag = 0 model in closed form.


def no_a2_basis(params: ModelParams) -> PolaritonBasis:
    """Closed-form coefficients of the diamag = 0 model.

    Per branch, before normalization:
        w = (wa + wj)(wb + wj) / (2 lam wa)
        x = (wj + wb) / (wj - wb)
        y = (wj - wa)(wb + wj) / (2 lam wa)
        z = 1
    normalized to Bogoliubov norm +1.
    """
    if params.diamag != 0.0:
        raise ValueError("closed form requires diamag = 0")
    lam = single_coupling(params)
    if lam <= 0.0:
        raise ValueError("coupling must be positive")
    wu, wl = polariton_frequencies(params)  # raises InstabilityError at lam >= lam_C
    wa, wb = params.omega_a, params.omega_b

    def branch(wj: float) -> tuple[float, float, float, float]:
        w = (wa + wj) * (wb + wj) / (2.0 * lam * wa)
        x = (wj + wb) / (wj - wb)
        y = (wj - wa) * (wb + wj) / (2.0 * lam * wa)
        z = 1.0
        norm = math.sqrt(w * w + x * x - y * y - z * z)
        return (w / norm, x / norm, y / norm, z / norm)

    theta = _mixing_angle(wa, wb, lam, params.diamag, wu, wl)
    return PolaritonBasis(wu, wl, branch(wu), branch(wl), theta)


def _g_plus(x: float) -> float:
    return math.sqrt(x)


def _g_minus(x: float) -> float:
    return 1.0 / math.sqrt(x)


def polariton_to_bare_transform(
    params: ModelParams, basis: PolaritonBasis
) -> np.ndarray:
    """Closed-form transform for the single-coupling family.

    Written with g+(x) = sqrt(x) and g-(x) = 1/sqrt(x): position rows scale
    with g- of (branch frequency / mode frequency), momentum rows with g+,
    and the branch mixing is the rotation by the basis angle theta.
    """
    if basis.theta is None:
        raise ValueError("closed-form transform needs a basis with a mixing angle")
    wa, wb = params.omega_a, params.omega_b
    wu, wl = basis.omega_upper, basis.omega_lower
    ct, st = math.cos(basis.theta), math.sin(basis.theta)
    return np.array(
        [
            [ct * _g_minus(wu / wa), 0.0, st * _g_minus(wl / wa), 0.0],
            [0.0, ct * _g_plus(wu / wa), 0.0, st * _g_plus(wl / wa)],
            [-st * _g_minus(wu / wb), 0.0, ct * _g_minus(wl / wb), 0.0],
            [0.0, -st * _g_plus(wu / wb), 0.0, ct * _g_plus(wl / wb)],
        ]
    )


def no_a2_covariance_closed(params: ModelParams, temperature: float) -> CovarianceMatrix:
    """Closed-form steady state of the diamag = 0 model.

    Branch sums with the unnormalized coefficient combinations folded in:
    with n_j the squared Bogoliubov normalization of branch j and
    c_j = coth(omega_j / 2T),

        G11 = sum_j c_j (wb + wj)^2 / (2 n_j lam^2)
        G22 = sum_j c_j wj^2 (wb + wj)^2 / (2 n_j lam^2 wa^2)
        G33 = sum_j c_j 2 wb^2 / (n_j (wj - wb)^2)
        G44 = sum_j c_j 2 wj^2 / (n_j (wj - wb)^2)
        G13 = sum_j c_j wb (wb + wj) / (n_j lam (wj - wb))
        G24 = sum_j c_j wj^2 (wb + wj) / (n_j lam wa (wj - wb))

    At resonance the cavity and matter blocks coincide element-wise.
    """
    if params.diamag != 0.0:
        raise ValueError("closed form requires diamag = 0")
    lam = single_coupling(params)
    if lam <= 0.0:
        raise ValueError("coupling must be positive")
    wu, wl = polariton_frequencies(params)
    if wu - wl < DEGENERACY_TOL * params.omega_b:
        raise DegenerateSpectrumError("branch splitting vanishes in the denominators")
    wa, wb = params.omega_a, params.omega_b
    g = np.zeros((4, 4))
    for wj in (wu, wl):
        cj = _coth_weight(wj, temperature)
        wt = (wa + wj) * (wb + wj) / (2.0 * lam * wa)
        xt = (wj + wb) / (wj - wb)
        yt = (wj - wa) * (wb + wj) / (2.0 * lam * wa)
        n_sq = wt * wt + xt * xt - yt * yt - 1.0
        g[0, 0] += cj * (wb + wj) ** 2 / (2.0 * n_sq * lam * lam)
        g[1, 1] += cj * wj * wj * (wb + wj) ** 2 / (2.0 * n_sq * lam * lam * wa * wa)
        g[2, 2] += cj * 2.0 * wb * wb / (n_sq * (wj - wb) ** 2)
        g[3, 3] += cj * 2.0 * wj * wj / (n_sq * (wj - wb) ** 2)
        g[0, 2] += cj * wb * (wb + wj) / (n_sq * lam * (wj - wb))
        g[1, 3] += cj * wj * wj * (wb + wj) / (n_sq * lam * wa * (wj - wb))
    g[2, 0], g[3, 1] = g[0, 2], g[1, 3]
    return CovarianceMatrix(g)

# ---------------------------------------------------------------------------
# Quadratic moments of a branch-diagonal polariton state.


_MOMENT_KEYS = (
    "adag_a",
    "a_adag",
    "adag_adag",
    "a_a",
    "bdag_b",
    "b_bdag",
    "bdag_bdag",
    "b_b",
    "bdag_adag",
    "adag_b",
    "a_bdag",
    "a_b",
)


def second_order_correlators(
    basis: PolaritonBasis, occupations: tuple[float, float]
) -> dict[str, float]:
    """All twelve quadratic moments of a branch-diagonal polariton state.

    ``occupations`` are the branch fillings <p_j' p_j>; squeezing and
    cross moments of the polaritons are assumed zero, which is the steady
    state of the common-bath dynamics.
    """
    n_u, n_l = occupations
    if n_u < 0 or n_l < 0:
        raise ValueError("occupations must be non-negative")
    out = dict.fromkeys(_MOMENT_KEYS, 0.0)
    for (w, x, y, z), n in [(basis.coeffs_upper, n_u), (basis.coeffs_lower, n_l)]:
        out["adag_a"] += (w * w + y * y) * n + y * y
        out["a_adag"] += (w * w + y * y) * n + w * w
        out["adag_adag"] += -w * y * (2 * n + 1)
        out["a_a"] += -w * y * (2 * n + 1)
        out["bdag_b"] += (x * x + z * z) * n + z * z
        out["b_bdag"] += (x * x + z * z) * n + x * x
        out["bdag_bdag"] += -x * z * (2 * n + 1)
        out["b_b"] += -x * z * (2 * n + 1)
        out["bdag_adag"] += -((w * z + x * y) * n + w * z)
        out["adag_b"] += (w * x + y * z) * n + y * z
        out["a_bdag"] += (w * x + y * z) * n + w * x
        out["a_b"] += -((w * z + x * y) * n + w * z)
    return out


def covariance_from_correlators(moments: dict[str, float]) -> CovarianceMatrix:
    """Assemble the bare covariance from the quadratic-moment table."""
    m = moments
    g = np.zeros((4, 4))
    g[0, 0] = 0.5 * (m["a_a"] + m["adag_adag"] + m["a_adag"] + m["adag_a"])
    g[1, 1] = 0.5 * (m["a_adag"] + m["adag_a"] - m["a_a"] - m["adag_adag"])
    g[2, 2] = 0.5 * (m["b_b"] + m["bdag_bdag"] + m["b_bdag"] + m["bdag_b"])
    g[3, 3] = 0.5 * (m["b_bdag"] + m["bdag_b"] - m["b_b"] - m["bdag_bdag"])
    g[0, 2] = g[2, 0] = 0.5 * (m["a_b"] + m["a_bdag"] + m["adag_b"] + m["bdag_adag"])
    g[1, 3] = g[3, 1] = 0.5 * (m["a_bdag"] + m["adag_b"] - m["a_b"] - m["bdag_adag"])
    return CovarianceMatrix(g)

# ---------------------------------------------------------------------------
# Fixed point of the moment equations, and the local (bare-operator)
# representation of the common-bath generator.


class NoSteadyStateError(ValueError):
    """A branch has no net damping, so its occupation never relaxes."""


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
