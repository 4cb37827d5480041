"""Second routes to what the commands compute, for ``verify`` and the tests.

No command imports this module.  Each route here is independent of the
x-p sector stages that every command runs, and is pinned to them or to
another route here.  Every 4x4 route takes or gives a ``CovarianceMatrix``;
``parse_covariance`` reads the text that ``point --dump-cov`` writes.

- ``polariton_frequencies`` and ``hopfield_basis``, the closed forms of
  the lambda1 = lambda2 family, and ``bogoliubov_diagonalize``, a numeric
  eigensolver of the 4x4 dynamical matrix: ``verify`` checks 1-3 pin the
  closed forms to the product rule, to the solver and to
  ``critical_coupling``; the tests pin ``sweep.diagonalize_params`` and
  the sector frequencies to the solver (``test_model.TestFrameBasis``,
  ``test_sweep_kernel.TestSectorRouteAgainstOracles``).
- ``thermal_covariance_closed``: check 4 pins it to
  ``steady_state_covariance`` of ``hopfield_basis``, the 4x4 route
  T diag(n + 1/2) T^T from any basis (``quadrature_transform``), and the
  tests pin the sector covariance to both.
- ``symplectic_invariants`` and ``matrix_report``, the invariants and the
  measures of any 4x4 matrix from its block determinants, with the
  physicality test (``is_physical``, ``symplectic_spectrum``): check 9
  pins the invariants to the spectrum of the momentum-flipped matrix
  (``ppt_symplectic_eigenvalues``) on random states, check 6 the measures
  of ``ground_state_covariance_closed`` to the closed ground-state
  measures, and the tests pin the sector invariants and weights to both
  spectra.
- ``resonant_balance_frequency``: check 7 pins it to the purities
  (``matrix_report``) of the closed-form thermal state.

``no_a2`` (the family without D) and ``single_coupling`` (its one
coupling) serve only these routes, ``verify`` and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .measures import (
    _STEERING_CLASSES,
    OVERFLOW,
    CorrelationReport,
    _measures,
    _occupation,
    measure_error,
)
from .model import (
    DEGENERACY_TOL,
    InstabilityError,
    ModelParams,
    PolaritonBasis,
    _mixing_angle,
    _positive_lead,
)
from .states import _HEADER, thermal_occupation

__all__ = [
    "CovarianceMatrix",
    "parse_covariance",
    "DegenerateSpectrumError",
    "UnphysicalStateError",
    "no_a2",
    "single_coupling",
    "critical_coupling",
    "build_dynamical_matrix",
    "polariton_frequencies",
    "hopfield_basis",
    "bogoliubov_diagonalize",
    "symplectic_form",
    "symplectic_spectrum",
    "symplectic_eigenvalues",
    "is_physical",
    "quadrature_transform",
    "steady_state_covariance",
    "ground_state_covariance_closed",
    "thermal_covariance_closed",
    "SymplecticInvariants",
    "symplectic_invariants",
    "matrix_report",
    "ppt_symplectic_eigenvalues",
    "ground_state_log_negativity_closed",
    "ground_state_steering_closed",
    "resonant_balance_frequency",
]

# Relative tolerances of the numeric solver, in units of omega_b.
IMAG_TOL = 1e-10
# Gap below which the numeric path re-orthogonalizes the two
# positive-frequency eigenvectors instead of trusting LAPACK.
DEGENERATE_MIX_TOL = 1e-6
# Phase fixing: largest imaginary part left after removing the phase,
# relative to the largest coefficient.
PHASE_TOL = 1e-8
# a state passes the physicality test when nu_- >= 1/2 - PHYSICALITY_TOL
PHYSICALITY_TOL = 1e-10


class DegenerateSpectrumError(ValueError):
    """The two polariton frequencies coincide; the branch split is undefined."""


class UnphysicalStateError(ValueError):
    """Covariance matrix violates the uncertainty bound."""


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric 4x4 second-moment matrix of the bare quadratures."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (4, 4):
            raise ValueError("covariance matrix must be 4x4")
        if not np.all(np.isfinite(m)):
            raise ValueError("covariance matrix entries must be finite")
        m = 0.5 * (m + m.T)  # store an exactly symmetric matrix
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)


def parse_covariance(text: str) -> CovarianceMatrix:
    """The matrix of ``states.format_covariance``'s text; any other header or
    a non-finite entry is a ValueError."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) != 5 or not lines[0].startswith("basis:"):
        raise ValueError("expected a basis line followed by four matrix rows")
    if lines[0].split(":", 1)[1].strip() != "bare":
        raise ValueError(f"expected the header {_HEADER!r}, got {lines[0].strip()!r}")
    rows = [[float(tok) for tok in ln.split()] for ln in lines[1:]]
    return CovarianceMatrix(np.array(rows))


# ---------------------------------------------------------------------------
# Normal modes.


def no_a2(omega_a: float, omega_b: float, lam: float) -> ModelParams:
    """The lambda1 = lambda2 coupling of ``model.hopfield`` without the
    diamagnetic term."""
    return ModelParams(omega_a, omega_b, lam, lam, 0.0)


def single_coupling(params: ModelParams) -> float:
    """The one coupling strength of the lambda1 = lambda2 family."""
    if params.lambda1 != params.lambda2:
        raise ValueError("lambda1 != lambda2: no single coupling strength")
    return params.lambda1


def critical_coupling(omega_a: float, omega_b: float) -> float:
    """Coupling at which the D = 0 model loses stability: sqrt(wa*wb)/2."""
    if omega_a <= 0 or omega_b <= 0:
        raise ValueError("frequencies must be positive")
    return math.sqrt(omega_a * omega_b) / 2.0


def build_dynamical_matrix(params: ModelParams) -> np.ndarray:
    """Matrix M with [v_i, H] = sum_j M_ij v_j for v = (a, b, a', b').

    Mixing entries (a <-> b) carry lambda1, squeezing entries (a <-> b')
    carry lambda2; the diamagnetic term shifts the cavity diagonal by 2D
    and couples a <-> a'.
    """
    wa, wb = params.omega_a, params.omega_b
    l1, l2, dd = params.lambda1, params.lambda2, params.diamag
    return np.array(
        [
            [wa + 2 * dd, l1, 2 * dd, l2],
            [l1, wb, l2, 0.0],
            [-2 * dd, -l2, -(wa + 2 * dd), -l1],
            [-l2, 0.0, -l1, -wb],
        ]
    )


def _closed_frequencies(wa, wb, lam, dd):
    """(product invariant, omega_U, omega_L) of the lambda1 = lambda2 family.

    omega_L^2 is the product invariant divided by omega_U^2 rather than a
    difference of nearly equal terms, so the product rule omega_U * omega_L
    = omega_a * omega_b (diamag = lambda^2/omega_b case) holds to machine
    precision at any coupling.  omega_L is NaN where the product is not
    positive, past the stability edge.
    """
    aa = wa * wa + 4.0 * dd * wa
    bb = wb * wb
    half_sum = 0.5 * (aa + bb)
    # hypot keeps the discriminant accurate deep in the strong-coupling regime
    half_gap = math.hypot(0.5 * (aa - bb), 2.0 * lam * math.sqrt(wa * wb))
    product = aa * bb - 4.0 * lam * lam * wa * wb
    wu_sq = half_sum + half_gap
    wl = math.sqrt(product / wu_sq) if product > 0.0 else math.nan
    return product, math.sqrt(wu_sq), wl


def polariton_frequencies(params: ModelParams) -> tuple[float, float]:
    """Closed-form normal-mode frequencies (omega_U, omega_L), lambda1 = lambda2."""
    lam = single_coupling(params)
    product, wu, wl = _closed_frequencies(params.omega_a, params.omega_b, lam, params.diamag)
    if product <= 0.0:
        raise InstabilityError(
            f"lower branch unstable: lambda={lam:g} exceeds the "
            f"critical coupling for diamag={params.diamag:g}"
        )
    return wu, wl


def _closed_coefficients(wa, wb, lam, dd, wu, wl):
    """(theta, upper, lower) of the lambda1 = lambda2 family.

    Upper branch: (cos t * f+(wU/wa), -sin t * f+(wU/wb),
                   cos t * f-(wU/wa), -sin t * f-(wU/wb)),
    lower branch the same with sin and cos swapped (no sign flip) and
    omega_L in place of omega_U, where f+-(x) = (sqrt(x) +- 1/sqrt(x))/2.
    The branch split must not be degenerate.
    """
    theta = _mixing_angle(wa, wb, lam, dd, wu, wl)
    ct, st = math.cos(theta), math.sin(theta)

    def branch(wj, c_a, c_b):
        r_a, r_b = math.sqrt(wj / wa), math.sqrt(wj / wb)
        return (
            c_a * (0.5 * (r_a + 1.0 / r_a)),
            c_b * (0.5 * (r_b + 1.0 / r_b)),
            c_a * (0.5 * (r_a - 1.0 / r_a)),
            c_b * (0.5 * (r_b - 1.0 / r_b)),
        )

    return theta, branch(wu, ct, -st), branch(wl, st, ct)


def hopfield_basis(params: ModelParams) -> PolaritonBasis:
    """Closed-form Bogoliubov coefficients for the lambda1 = lambda2 family."""
    wu, wl = polariton_frequencies(params)
    if wu - wl < DEGENERACY_TOL * params.omega_b:
        raise DegenerateSpectrumError(
            "polariton branches coincide; coefficients are not defined"
        )
    theta, upper, lower = _closed_coefficients(
        params.omega_a, params.omega_b, single_coupling(params), params.diamag, wu, wl
    )
    return PolaritonBasis(wu, wl, upper, lower, theta)


def _bogoliubov_inner(u: np.ndarray, v: np.ndarray) -> complex:
    g = np.array([1.0, 1.0, -1.0, -1.0])
    return complex(np.conj(u) @ (g * v))


def _fix_phase(c: np.ndarray) -> np.ndarray:
    """Rotate to a real vector with positive leading (w) component."""
    k = int(np.argmax(np.abs(c)))
    phase = c[k] / abs(c[k])
    c = c * np.conj(phase)
    if np.max(np.abs(c.imag)) > PHASE_TOL * np.max(np.abs(c)):
        raise InstabilityError("eigenvector is not real up to a phase")
    return np.array(_positive_lead(c.real))


def bogoliubov_diagonalize(params: ModelParams) -> PolaritonBasis:
    """Numeric Bogoliubov diagonalization of the 4x4 dynamical matrix.

    Eigen-decomposes M of ``build_dynamical_matrix``, keeps the two
    positive-frequency eigenvalues and maps each right eigenvector u to the
    coefficient vector (u1, u2, -u3, -u4), which is normalized to
    Bogoliubov norm +1 and phase-fixed so the leading coefficient is real
    and positive.  The larger frequency is labelled upper.

    Raises InstabilityError if any eigenvalue has an imaginary part above
    tolerance or fewer than two positive frequencies survive.  A (near-)
    degenerate pair is accepted and re-orthogonalized in the Bogoliubov
    metric; any orthonormal choice spans the same normal-mode subspace, so
    downstream covariances are unaffected.
    """
    scale = params.omega_b
    evals, evecs = np.linalg.eig(build_dynamical_matrix(params))
    if np.max(np.abs(evals.imag)) > IMAG_TOL * scale:
        raise InstabilityError("complex normal-mode frequency: dynamically unstable")
    real_evals = evals.real
    positive = np.flatnonzero(real_evals > IMAG_TOL * scale)
    if positive.size != 2:
        raise InstabilityError("fewer than two positive normal-mode frequencies")
    order = positive[np.argsort(real_evals[positive])[::-1]]
    wu, wl = float(real_evals[order[0]]), float(real_evals[order[1]])

    flip = np.array([1.0, 1.0, -1.0, -1.0])
    c_u = flip * evecs[:, order[0]].astype(complex)
    c_l = flip * evecs[:, order[1]].astype(complex)
    if wu - wl < DEGENERATE_MIX_TOL * scale:
        c_l = c_l - (_bogoliubov_inner(c_u, c_l) / _bogoliubov_inner(c_u, c_u)) * c_u

    coeffs = []
    for c in (c_u, c_l):
        norm_sq = _bogoliubov_inner(c, c).real
        if norm_sq <= 0.0:
            raise InstabilityError("non-positive Bogoliubov norm on a kept branch")
        coeffs.append(_fix_phase(c / math.sqrt(norm_sq)))
    return PolaritonBasis(wu, wl, tuple(coeffs[0]), tuple(coeffs[1]), None)


# ---------------------------------------------------------------------------
# Covariances and the physicality test.


def symplectic_form() -> np.ndarray:
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.block([[j, np.zeros((2, 2))], [np.zeros((2, 2)), j]])


def _root(x: float) -> float:
    return math.sqrt(x) if x > 0.0 else math.nan


def symplectic_spectrum(g):
    """Symplectic eigenvalues (nu_-, nu_+) of a two-mode covariance, in closed form.

    ``g`` is the matrix as a nested list of floats; only the lower triangle
    g[i][j], i >= j, is read.

    With Gamma = L L^T (Cholesky), K = L^T Omega L is antisymmetric with
    eigenvalues +-i nu_+-.  Its self-dual and anti-self-dual parts have
    norms u = nu_+ + nu_- and v = nu_+ - nu_-, and Pf K = det L = nu_+ nu_-,
    so nu_+ = (u + v)/2 and nu_- = det L / nu_+ with no difference of two
    nearly equal numbers.  A pivot that is not positive (Gamma not positive
    definite, hence not a state) makes both values NaN, and so does a u
    that underflows to zero.  Squares of K's entries overflow for entries
    above about 1e150.
    """
    l00 = _root(g[0][0])
    l10, l20, l30 = g[1][0] / l00, g[2][0] / l00, g[3][0] / l00
    l11 = _root(g[1][1] - l10 * l10)
    l21 = (g[2][1] - l20 * l10) / l11
    l31 = (g[3][1] - l30 * l10) / l11
    l22 = _root(g[2][2] - l20 * l20 - l21 * l21)
    l32 = (g[3][2] - l30 * l20 - l31 * l21) / l22
    l33 = _root(g[3][3] - l30 * l30 - l31 * l31 - l32 * l32)
    k01 = l00 * l11 + l20 * l31 - l30 * l21
    k02 = l20 * l32 - l30 * l22
    k03 = l20 * l33
    k12 = l21 * l32 - l31 * l22
    k13 = l21 * l33
    k23 = l22 * l33
    s1, s2, s3 = k01 + k23, k02 - k13, k03 + k12
    d1, d2, d3 = k01 - k23, k02 + k13, k03 - k12
    # v is zero for a degenerate pair, so only u takes the NaN guard
    u = _root(s1 * s1 + s2 * s2 + s3 * s3)
    v = math.sqrt(d1 * d1 + d2 * d2 + d3 * d3)
    nu_plus = 0.5 * (u + v)
    return l00 * l11 * l22 * l33 / nu_plus, nu_plus


def symplectic_eigenvalues(gamma: CovarianceMatrix) -> np.ndarray:
    """(nu_-, nu_+); both NaN when the matrix is not positive definite."""
    return np.array(symplectic_spectrum(gamma.entries.tolist()))


def is_physical(gamma: CovarianceMatrix) -> bool:
    return symplectic_spectrum(gamma.entries.tolist())[0] >= 0.5 - PHYSICALITY_TOL


# a1 and b1 of T diag(a1, a1, b1, b1) T^T are the symplectic eigenvalues of
# the state, so det Gamma = (a1 b1)^2 overflows past a1 b1 = 1.3e154; past
# this bound the product itself could overflow, and inf * 0 give NaN entries
_MAX_WEIGHT_PRODUCT = 1e200


def _coth_weight(omega: float, temperature: float) -> float:
    """coth(omega / 2T) evaluated overflow-free as 1 + 2 N(omega)."""
    return 1.0 + 2.0 * thermal_occupation(omega, temperature)


def quadrature_transform(basis: PolaritonBasis) -> np.ndarray:
    """Quadrature-space map assembled directly from the Bogoliubov coefficients.

    x_a picks up (w - y) of each branch, p_a picks up (w + y), and the
    matter rows the same with (x, z).  The result is symplectic because the
    coefficients are Bogoliubov-orthonormal.
    """
    wu_, xu, yu, zu = basis.coeffs_upper
    wl_, xl, yl, zl = basis.coeffs_lower
    return np.array(
        [
            [wu_ - yu, 0.0, wl_ - yl, 0.0],
            [0.0, wu_ + yu, 0.0, wl_ + yl],
            [xu - zu, 0.0, xl - zl, 0.0],
            [0.0, xu + zu, 0.0, xl + zl],
        ]
    )


def steady_state_covariance(basis: PolaritonBasis, temperature: float) -> CovarianceMatrix:
    """Generic bare-basis steady state: T diag(a1, a1, b1, b1) T^T of
    ``quadrature_transform``, a1 and b1 the coth weights / 2 of the two
    branches; at T = 0 the polariton vacuum (1/2) T T^T.

    Works for every stable basis, including the general bilinear family
    where no closed form is available.
    """
    a1 = 0.5 * _coth_weight(basis.omega_upper, temperature)
    b1 = 0.5 * _coth_weight(basis.omega_lower, temperature)
    if not a1 * b1 < _MAX_WEIGHT_PRODUCT:
        raise measure_error(OVERFLOW, omega_l=basis.omega_lower, c_l=b1)
    t = quadrature_transform(basis)
    return CovarianceMatrix((t * np.array([a1, a1, b1, b1])) @ t.T)


def ground_state_covariance_closed(params: ModelParams) -> CovarianceMatrix:
    """Closed-form bare-basis ground state for the single-coupling family.

    Valid for any diamagnetic weight; with D = lambda^2/omega_b the product
    rule omega_U omega_L = omega_a omega_b collapses the entries to the
    familiar (omega_a + omega_b) / 2(omega_U + omega_L) pattern.
    """
    wu, wl = polariton_frequencies(params)
    wa, wb, lam = params.omega_a, params.omega_b, single_coupling(params)
    shifted = wa * wa + 4.0 * params.diamag * wa
    s, prod = wu + wl, wu * wl
    g = np.zeros((4, 4))
    g[0, 0] = wa * (wb * wb + prod) / (2.0 * prod * s)
    g[1, 1] = (shifted + prod) / (2.0 * wa * s)
    g[2, 2] = wb * (shifted + prod) / (2.0 * prod * s)
    g[3, 3] = (wb * wb + prod) / (2.0 * wb * s)
    g[0, 2] = g[2, 0] = -lam * wa * wb / (prod * s)
    g[1, 3] = g[3, 1] = lam / s
    return CovarianceMatrix(g)


def thermal_covariance_closed(params: ModelParams, temperature: float) -> CovarianceMatrix:
    """Closed-form bare-basis steady state at reservoir temperature T.

    Each entry is a two-branch coth combination; the T -> 0 limit
    reproduces the ground-state matrix.  Needs a finite branch splitting.
    """
    wu, wl = polariton_frequencies(params)
    if wu - wl < DEGENERACY_TOL * params.omega_b:
        raise DegenerateSpectrumError("branch splitting vanishes in the denominators")
    wa, wb, lam = params.omega_a, params.omega_b, single_coupling(params)
    cu = _coth_weight(wu, temperature)
    cl = _coth_weight(wl, temperature)
    wu2, wl2, wb2 = wu * wu, wl * wl, wb * wb
    gap = wl2 - wu2
    g = np.zeros((4, 4))
    g[0, 0] = wa * (cl * wu * (wl2 - wb2) - cu * wl * (wu2 - wb2)) / (
        2.0 * wl * wu * gap
    )
    g[1, 1] = (cl * wl * (wl2 - wb2) - cu * wu * (wu2 - wb2)) / (2.0 * wa * gap)
    g[2, 2] = wb * (cu * wl * (wl2 - wb2) - cl * wu * (wu2 - wb2)) / (
        2.0 * wl * wu * gap
    )
    g[3, 3] = (cu * wu * (wl2 - wb2) - cl * wl * (wu2 - wb2)) / (2.0 * wb * gap)
    g[0, 2] = g[2, 0] = lam * wa * wb * (cl * wu - cu * wl) / (wl * wu * gap)
    g[1, 3] = g[3, 1] = lam * (cl * wl - cu * wu) / gap
    return CovarianceMatrix(g)


# ---------------------------------------------------------------------------
# Measures of any 4x4 covariance.


def _require_physical(gamma: CovarianceMatrix) -> None:
    if not is_physical(gamma):
        raise UnphysicalStateError(
            "covariance matrix violates the symplectic uncertainty bound"
        )


def _clipped_root(x: float) -> float:
    """sqrt(max(x, 0.0)); -0.0 and NaN pass as they are."""
    return math.sqrt(max(x, 0.0))


def _partial_transpose_pair(i_a, i_b, i_c, i_ab):
    """(delta~^2 - 4 det Gamma, d~_-, d~_+) from the four block determinants.

    d~_{+-}^2 are the roots of s^2 - delta~ s + det(Gamma) with
    delta~ = det A + det B - 2 det C, the sign flip of det C implementing
    the momentum reversal of the second mode.  Negative radicands are
    clipped to zero, so no input raises.
    """
    delta = i_a + i_b - 2.0 * i_c
    disc_sq = delta * delta - 4.0 * i_ab
    disc = _clipped_root(disc_sq)
    d_minus = _clipped_root(0.5 * (delta - disc))
    return disc_sq, d_minus, _clipped_root(0.5 * (delta + disc))


class SymplecticInvariants(NamedTuple):
    """Block determinants and the partial-transpose symplectic pair."""

    i_a: float
    i_b: float
    i_c: float
    i_ab: float
    d_minus: float
    d_plus: float


def _checked_measures(gamma: CovarianceMatrix):
    """(``SymplecticInvariants``, measures, class index) of any 4x4 matrix.

    A ``measures._measures`` fault raises its ``measure_error`` before the
    physicality test, which such a matrix fails too, so that a point at
    the stability edge is reported as what it is.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        # one call for the 2x2 blocks [[A, C^T], [C, B]], the same bits as
        # one call per block
        (i_a, _), (i_c, i_b) = np.linalg.det(
            gamma.entries.reshape(2, 2, 2, 2).swapaxes(1, 2)
        ).tolist()
        i_ab = float(np.linalg.det(gamma.entries))
    disc_sq, d_minus, d_plus = _partial_transpose_pair(i_a, i_b, i_c, i_ab)
    xa, pa, xb, pb = gamma.entries.diagonal().tolist()
    n_a, n_b = _occupation(xa, pa), _occupation(xb, pb)
    fault, values, index = _measures(i_a, i_b, i_c, i_ab, disc_sq, d_minus, n_a, n_b)
    if fault:
        raise measure_error(fault)
    _require_physical(gamma)
    return SymplecticInvariants(i_a, i_b, i_c, i_ab, d_minus, d_plus), values, index


def symplectic_invariants(gamma: CovarianceMatrix) -> SymplecticInvariants:
    """Block determinants and the partial-transpose symplectic pair."""
    return _checked_measures(gamma)[0]


def matrix_report(gamma: CovarianceMatrix) -> CorrelationReport:
    """``measures.correlation_report`` of any 4x4 covariance, which is first
    checked for physicality."""
    _, values, index = _checked_measures(gamma)
    return CorrelationReport(*values, _STEERING_CLASSES[index])


def ppt_symplectic_eigenvalues(gamma: CovarianceMatrix) -> np.ndarray:
    """Oracle route: symplectic spectrum of the momentum-flipped state."""
    _require_physical(gamma)
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    tilde = flip @ gamma.entries @ flip
    ev = np.linalg.eigvals(1j * symplectic_form() @ tilde)
    return np.sort(np.abs(ev))[::2]


def _zeta(params: ModelParams, wu: float, wl: float) -> float:
    wa, wb = params.omega_a, params.omega_b
    prod = wu * wl
    return (4.0 * params.diamag * wa + wa * wa + prod) * (wb * wb + prod)


def ground_state_log_negativity_closed(params: ModelParams) -> float:
    """Closed-form ground-state entanglement of the single-coupling family."""
    wu, wl = polariton_frequencies(params)
    wa, wb, lam = params.omega_a, params.omega_b, single_coupling(params)
    two_d = abs(2.0 * lam * math.sqrt(wa * wb) - math.sqrt(_zeta(params, wu, wl))) / (
        (wu + wl) * math.sqrt(wu * wl)
    )
    return max(0.0, -math.log(two_d))


def ground_state_steering_closed(params: ModelParams) -> float:
    """Closed-form ground-state steering, identical in both directions."""
    wu, wl = polariton_frequencies(params)
    wa, wb, lam = params.omega_a, params.omega_b, single_coupling(params)
    zeta = _zeta(params, wu, wl)
    ratio = wu * wl * (wu + wl) ** 2 * zeta / (zeta - 4.0 * lam * lam * wa * wb) ** 2
    return max(0.0, 0.5 * math.log(ratio))


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
