"""Bilinear two-mode Hamiltonian and its Bogoliubov diagonalization.

The model couples a cavity mode a (frequency omega_a) to a matter mode b
(frequency omega_b, the unit of every quantity here) through a mode-mixing
term lambda1 (a'b + ab'), a mode-squeezing term lambda2 (a'b' + ab) and a
diamagnetic term D (a + a')^2.  For light coupled to natural matter
lambda1 = lambda2 = lambda and D = lambda^2 / omega_b.

Every command takes its normal modes from one source, the 2x2 frames of
the x-p sectors of H = x^T V x / 2 + p^T T p / 2, V = [[omega_a + 4D,
lambda1 + lambda2], [lambda1 + lambda2, omega_b]], T = V with lambda1 -
lambda2 and no D (``_sector_modes``).  Sweeps and ``point`` build their
covariances from the frames; ``diagonalize`` and the dynamics read the
Bogoliubov coefficients off them (``_frame_coefficients``).  The closed
forms of the lambda1 = lambda2 family (``hopfield_basis``) and a numeric
eigensolver of the 4x4 dynamical matrix (``bogoliubov_diagonalize``) are
oracles only: ``verify`` and the tests pin the sector route to them.
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
# a float a*b - c*c within this multiple of a*b + c*c of zero may be of either sign
_DET_FILTER = 1e-15


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
    def coupling(self) -> float:
        """The one coupling strength of the lambda1 = lambda2 family."""
        if self.lambda1 != self.lambda2:
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
    of the single-coupling family (negative by convention), a display field;
    it is None where that family's split spectrum does not define it, and in
    every basis of the numeric solver.
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
    """Angle theta in [-pi/2, 0] from its double-angle sine and cosine."""
    gap_sq = wu * wu - wl * wl
    cos2t = (wa * wa + 4.0 * dd * wa - wb * wb) / gap_sq
    sin2t = -4.0 * lam * math.sqrt(wa * wb) / gap_sq
    return 0.5 * math.atan2(sin2t, cos2t)


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


def _stability_determinants(wa, wb, l1, l2, dd):
    """(det V, det T), stable iff both are positive; floats or arrays.

    Within rounding of zero both come from the exact inputs: an exact decision.
    """
    t12 = l1 - l2
    pv, qv, pt, qt = (wa + 4.0 * dd) * wb, (l1 + l2) * (l1 + l2), wa * wb, t12 * t12
    near = (abs(pv - qv) <= _DET_FILTER * (pv + qv)) | (abs(pt - qt) <= _DET_FILTER * (pt + qt))
    if isinstance(wa, np.ndarray):
        det_v, det_t = pv - qv, pt - qt
        for i in np.flatnonzero(near).tolist():
            det_v[i], det_t[i] = _stability_determinants(wa[i], wb[i], l1[i], l2[i], dd[i])
        return det_v, det_t
    if not near:
        return pv - qv, pt - qt
    from fractions import Fraction  # 8 ms to import, and needed only here
    wa, wb, l1, l2, dd = map(Fraction, (wa, wb, l1, l2, dd))
    return float((wa + 4 * dd) * wb - (l1 + l2) ** 2), float(wa * wb - (l1 - l2) ** 2)


def _where(cond, a, b):
    """``np.where`` of arrays, a conditional expression of floats."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _sector_frame(a, b, det_a, det_ab):
    """(omega_U, omega_L, u_U, A^1/2, det A) of the sector pair (A, B), as (11, 12, 22).

    A^1/2 B A^1/2 = R diag(omega_U^2, omega_L^2) R^T, omega_L^2 = det A det B /
    omega_U^2; R's first column u_U and A^1/2 = (A + sqrt(det A) I) / sqrt(tr A
    + 2 sqrt(det A)) take no difference of nearly equal terms.
    """
    xp = np if isinstance(det_a, np.ndarray) else math
    s = xp.sqrt(det_a)
    tau = xp.sqrt(a[0] + a[2] + 2.0 * s)
    r11, r12, r22 = root = ((a[0] + s) / tau, a[1] / tau, (a[2] + s) / tau)
    m11, m12, m21, m22 = (r11 * b[0] + r12 * b[1], r11 * b[1] + r12 * b[2],
                          r12 * b[0] + r22 * b[1], r12 * b[1] + r22 * b[2])
    s11, s12, s22 = m11 * r11 + m12 * r12, m11 * r12 + m12 * r22, m21 * r12 + m22 * r22
    half_gap = 0.5 * (s11 - s22)
    h = xp.sqrt(half_gap * half_gap + s12 * s12)
    wu_sq = 0.5 * (s11 + s22) + h
    flat = h == 0.0  # any R serves: take the identity
    half_gap, h = half_gap + flat, h + flat
    # u_U is (g, s12) or (s12, g) over its norm sqrt(2 h g)
    g = h + abs(half_gap)
    norm, first = xp.sqrt(2.0 * h * g), half_gap >= 0.0
    u = _where(first, g, s12) / norm, _where(first, s12, g) / norm
    return xp.sqrt(wu_sq), xp.sqrt(det_ab / wu_sq), u, root, det_a


def _sector_modes(wa, wb, l1, l2, dd, det_v, det_t):
    """Frames (T, V) for Gamma_xx and (V, T) for Gamma_pp, and whether V = T.

    With forward roots only, both stay well conditioned next to either edge.
    The point's frequencies are those of (V, T); floats or arrays.
    """
    v, t, det = (wa + 4.0 * dd, l1 + l2, wb), (wa, l1 - l2, wb), det_v * det_t
    frames = _sector_frame(t, v, det_t, det), _sector_frame(v, t, det_v, det)
    return (*frames, (l2 == 0.0) & (dd == 0.0))


def _frame_vectors(u, root):
    """(A^1/2 u_U, A^1/2 u_L) of a frame's u_U and A^1/2, u_L = (-u2, u1)."""
    (u1, u2), (r11, r12, r22) = u, root
    return ((r11 * u1 + r12 * u2, r12 * u1 + r22 * u2),
            (r12 * u1 - r11 * u2, r22 * u1 - r12 * u2))


def _positive_lead(c):
    """c or -c, the one with w > 0, or with x > 0 where w is zero to
    SIGN_TOL of the largest coefficient: the sign of every branch.

    Negation is 0 - v, not -v, here and below, so that a zero coefficient
    stays +0 and prints as 0.
    """
    head = SIGN_TOL * max(abs(v) for v in c)
    flip = c[0] < -head or (abs(c[0]) <= head and c[1] < 0)
    return tuple(0.0 - v for v in c) if flip else tuple(c)


def _frame_coefficients(frame_x, passive):
    """Bogoliubov coefficients (w, x, y, z) of the upper and the lower branch
    from the (T, V) frame and the V = T flag of ``_sector_modes``; floats.

    The x-amplitudes X_j = (w - y, x - z) are T^1/2 u_j / sqrt(omega_j), the
    vectors of Gamma_xx.  The p-amplitudes P_j = (w + y, x + z), V^1/2 u'_j /
    sqrt(omega_j) of the (V, T) frame, obey X^T P = I (Bogoliubov norm +1,
    orthogonal branches), so they are taken as X^-T, det X = sqrt(det T /
    (omega_U omega_L)) > 0: each entry a product of forward terms, and no
    pairing of the two frames' branches, whose u_U is arbitrary at a
    degenerate spectrum.  Where V = T, X = P = R and y = z = 0 exactly.
    """
    wu, wl, (u1, u2), root, det_t = frame_x
    if passive:
        return _positive_lead((u1, u2, 0.0, 0.0)), _positive_lead((0.0 - u2, u1, 0.0, 0.0))
    s_u, s_l = math.sqrt(wu), math.sqrt(wl)
    (a_u, b_u), (a_l, b_l) = _frame_vectors((u1, u2), root)
    a_u, b_u, a_l, b_l = a_u / s_u, b_u / s_u, a_l / s_l, b_l / s_l
    inverse_det = s_u * s_l / math.sqrt(det_t)
    p_u = (b_l * inverse_det, 0.0 - a_l * inverse_det)
    p_l = (0.0 - b_u * inverse_det, a_u * inverse_det)
    return tuple(
        _positive_lead((0.5 * (p1 + x1), 0.5 * (p2 + x2), 0.5 * (p1 - x1), 0.5 * (p2 - x2)))
        for (x1, x2), (p1, p2) in (((a_u, b_u), p_u), ((a_l, b_l), p_l))
    )


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
