"""Bilinear two-mode Hamiltonian and its Bogoliubov diagonalization.

The model couples a cavity mode a (frequency omega_a) to a matter mode b
(frequency omega_b, the unit of every quantity here) through a mode-mixing
term lambda1 (a'b + ab'), a mode-squeezing term lambda2 (a'b' + ab) and a
diamagnetic term D (a + a')^2.  For light coupled to natural matter
lambda1 = lambda2 = lambda and D = lambda^2 / omega_b.

Diagonalization is offered twice on purpose: closed forms for the
lambda1 = lambda2 family, and a numeric eigensolver of the 4x4 dynamical
matrix (a plain array) that covers the general bilinear family, including
degenerate spectra, and serves as an oracle for the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InstabilityError",
    "DegenerateSpectrumError",
    "ModelParams",
    "PolaritonBasis",
    "hopfield",
    "natural_diamag",
    "no_a2",
    "general",
    "critical_coupling",
    "build_dynamical_matrix",
    "polariton_frequencies",
    "hopfield_basis",
    "no_a2_basis",
    "no_a2_resonant_basis",
    "bogoliubov_diagonalize",
]

# Relative tolerances, in units of omega_b.
IMAG_TOL = 1e-10
DEGENERACY_TOL = 1e-10
# Gap below which the numeric path re-orthogonalizes the two
# positive-frequency eigenvectors instead of trusting LAPACK.
DEGENERATE_MIX_TOL = 1e-6
# Phase fixing: largest imaginary part left after removing the phase, and the
# size below which the leading coefficient's sign is read from the next one,
# both relative to the largest coefficient.
PHASE_TOL = 1e-8
SIGN_TOL = 1e-12


class InstabilityError(ValueError):
    """The lower normal mode has a non-real frequency: no stable spectrum."""


class DegenerateSpectrumError(ValueError):
    """The two polariton frequencies coincide; the branch split is undefined."""


@dataclass(frozen=True)
class ModelParams:
    """Hamiltonian parameters, all in units of omega_b."""

    omega_a: float
    omega_b: float
    lambda1: float
    lambda2: float
    diamag: float

    def __post_init__(self):
        values = (self.omega_a, self.omega_b, self.lambda1, self.lambda2, self.diamag)
        if not all(map(math.isfinite, values)):
            raise ValueError(f"model parameters must be finite, got {self}")
        if self.omega_a <= 0 or self.omega_b <= 0:
            raise ValueError("mode frequencies must be positive")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("coupling strengths must be non-negative")
        if self.diamag < 0:
            raise ValueError("diamagnetic coefficient must be non-negative")

    @property
    def is_single_coupling(self) -> bool:
        """True when lambda1 == lambda2, i.e. the closed forms apply."""
        return self.lambda1 == self.lambda2

    @property
    def coupling(self) -> float:
        if not self.is_single_coupling:
            raise ValueError("lambda1 != lambda2: no single coupling strength")
        return self.lambda1


def natural_diamag(lam, omega_b):
    """Diamagnetic weight lambda^2/omega_b of light coupled to natural matter."""
    return lam * lam / omega_b


def hopfield(omega_a: float, omega_b: float, lam: float) -> ModelParams:
    """Light-matter parameters with the natural diamagnetic weight lambda^2/omega_b."""
    return ModelParams(omega_a, omega_b, lam, lam, natural_diamag(lam, omega_b))


def no_a2(omega_a: float, omega_b: float, lam: float) -> ModelParams:
    """Same bilinear coupling but with the diamagnetic term dropped."""
    return ModelParams(omega_a, omega_b, lam, lam, 0.0)


def general(
    omega_a: float,
    omega_b: float,
    lambda1: float,
    lambda2: float,
    diamag: float,
) -> ModelParams:
    return ModelParams(omega_a, omega_b, lambda1, lambda2, diamag)


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


def _by_math(fn, *args, dtype=float):
    """A scalar Python function (``math``, Python's complex division) per element.

    Floats go to ``fn`` as they are.  numpy's hypot, arctan2 and expm1 can
    differ from ``math`` in the last bit, and its complex division from
    Python's, and the determinant formula for E_N magnifies a last-bit
    change of a covariance entry to about 1e-8 near a separable pure state;
    with Python's arithmetic on every element the grid kernel's covariances
    equal those of the scalar route exactly.
    """
    if not isinstance(args[0], np.ndarray):
        return fn(*args)
    values = map(fn, *(a.tolist() for a in args))
    return np.fromiter(values, dtype, len(args[0]))


def _closed_frequencies(wa, wb, lam, dd):
    """(product invariant, omega_U, omega_L) of the lambda1 = lambda2 family.

    Takes floats or equal-length arrays and runs the same floating-point
    operations on both.  omega_L^2 is the product invariant divided by
    omega_U^2 rather than a difference of nearly equal terms, so the
    product rule omega_U * omega_L = omega_a * omega_b (diamag =
    lambda^2/omega_b case) holds to machine precision at any coupling.
    omega_L is NaN where the product is not positive, past the stability
    edge.
    """
    stacked = isinstance(wa, np.ndarray)
    xp = np if stacked else math
    aa = wa * wa + 4.0 * dd * wa
    bb = wb * wb
    half_sum = 0.5 * (aa + bb)
    # hypot keeps the discriminant accurate deep in the strong-coupling regime
    half_gap = _by_math(math.hypot, 0.5 * (aa - bb), 2.0 * lam * xp.sqrt(wa * wb))
    product = aa * bb - 4.0 * lam * lam * wa * wb
    wu_sq = half_sum + half_gap
    if stacked:
        wl = np.sqrt(np.where(product > 0.0, product, np.nan) / wu_sq)
    else:
        wl = math.sqrt(product / wu_sq) if product > 0.0 else math.nan
    return product, xp.sqrt(wu_sq), wl


def polariton_frequencies(params: ModelParams) -> tuple[float, float]:
    """Closed-form normal-mode frequencies (omega_U, omega_L), lambda1 = lambda2."""
    product, wu, wl = _closed_frequencies(
        params.omega_a, params.omega_b, params.coupling, params.diamag
    )
    if product <= 0.0:
        raise InstabilityError(
            f"lower branch unstable: lambda={params.coupling:g} exceeds the "
            f"critical coupling for diamag={params.diamag:g}"
        )
    return wu, wl


@dataclass(frozen=True)
class PolaritonBasis:
    """Normal-mode frequencies and Bogoliubov coefficients.

    Each branch j carries (w, x, y, z) with p_j = w a + x b + y a' + z b',
    normalized to w^2 + x^2 - y^2 - z^2 = 1.  theta is the 2x2 mixing angle
    of the single-coupling family (negative by convention) and is None for
    bases obtained numerically from a general bilinear matrix.
    """

    omega_upper: float
    omega_lower: float
    coeffs_upper: tuple[float, float, float, float]
    coeffs_lower: tuple[float, float, float, float]
    theta: float | None = None

    def coefficient_matrix(self) -> np.ndarray:
        """Rows (p_U, p_L, p_U', p_L') over columns (a, b, a', b')."""
        w, x, y, z = self.coeffs_upper
        wu_row = [w, x, y, z]
        wu_conj = [y, z, w, x]
        w, x, y, z = self.coeffs_lower
        wl_row = [w, x, y, z]
        wl_conj = [y, z, w, x]
        return np.array([wu_row, wl_row, wu_conj, wl_conj])

    def bogoliubov_norms(self) -> tuple[float, float]:
        def norm(c):
            w, x, y, z = c
            return w * w + x * x - y * y - z * z

        return norm(self.coeffs_upper), norm(self.coeffs_lower)

    def orthogonality_residual(self) -> float:
        wu, xu, yu, zu = self.coeffs_upper
        wl, xl, yl, zl = self.coeffs_lower
        return abs(wu * wl + xu * xl - yu * yl - zu * zl)


def _mixing_angle(wa, wb, lam, dd, wu, wl):
    """Angle theta in [-pi/2, 0] from its double-angle sine and cosine.

    Floats or equal-length arrays, as in ``_closed_frequencies``.
    """
    xp = np if isinstance(wa, np.ndarray) else math
    gap_sq = wu * wu - wl * wl
    cos2t = (wa * wa + 4.0 * dd * wa - wb * wb) / gap_sq
    sin2t = -4.0 * lam * xp.sqrt(wa * wb) / gap_sq
    return 0.5 * _by_math(math.atan2, sin2t, cos2t)


def _closed_coefficients(wa, wb, lam, dd, wu, wl):
    """(theta, upper, lower) of the lambda1 = lambda2 family.

    Upper branch: (cos t * f+(wU/wa), -sin t * f+(wU/wb),
                   cos t * f-(wU/wa), -sin t * f-(wU/wb)),
    lower branch the same with sin and cos swapped (no sign flip) and
    omega_L in place of omega_U, where f+-(x) = (sqrt(x) +- 1/sqrt(x))/2.
    Floats or equal-length arrays, as in ``_closed_frequencies``; the
    branch split must not be degenerate.
    """
    xp = np if isinstance(wa, np.ndarray) else math
    theta = _mixing_angle(wa, wb, lam, dd, wu, wl)
    ct, st = xp.cos(theta), xp.sin(theta)

    def branch(wj, c_a, c_b):
        r_a, r_b = xp.sqrt(wj / wa), xp.sqrt(wj / wb)
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
        params.omega_a, params.omega_b, params.coupling, params.diamag, wu, wl
    )
    return PolaritonBasis(wu, wl, upper, lower, theta)


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
    lam = params.coupling
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


def no_a2_resonant_basis(params: ModelParams) -> PolaritonBasis:
    """Resonant (omega_a = omega_b) reduction of the diamag = 0 coefficients.

    The branch magnitudes satisfy |w| = |x| and |y| = |z|, which is what
    forbids one-way steering in this model at resonance.
    """
    if params.diamag != 0.0 or params.omega_a != params.omega_b:
        raise ValueError("resonant reduction requires diamag = 0 and omega_a = omega_b")
    lam = params.coupling
    if lam <= 0.0:
        raise ValueError("coupling must be positive")
    wu, wl = polariton_frequencies(params)
    w0 = params.omega_a

    def branch(sign: float) -> tuple[float, float, float, float]:
        root = math.sqrt(w0 * (w0 + sign * 2.0 * lam))
        w = (w0 + root) / lam + sign
        x = sign * ((w0 + root) / lam) + 1.0
        y = sign * 1.0
        z = 1.0
        norm = math.sqrt(w * w + x * x - y * y - z * z)
        return (w / norm, x / norm, y / norm, z / norm)

    return PolaritonBasis(wu, wl, branch(+1.0), branch(-1.0), -math.pi / 4.0)


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
    c = c.real.copy()
    head = SIGN_TOL * np.max(np.abs(c))
    if c[0] < -head or (abs(c[0]) <= head and c[1] < 0):
        c = -c
    return c


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
