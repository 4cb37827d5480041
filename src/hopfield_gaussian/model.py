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
Bogoliubov coefficients off them (``_frame_coefficients``).  A point takes
its two frames as floats (``_sector_frame``); a sweep block runs the same
formulas once over the (2, n) arrays of the (T, V) and (V, T) frames of all
its points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InstabilityError",
    "ModelParams",
    "PolaritonBasis",
    "hopfield",
    "natural_diamag",
    "general",
]

# Smallest branch split, relative to omega_b, that defines the mixing angle.
DEGENERACY_TOL = 1e-10
# Size below which the leading coefficient's sign is read from the next one,
# relative to the largest coefficient.
SIGN_TOL = 1e-12
# a float a*b - c*c within this multiple of a*b + c*c, plus two subnormal
# ulps (the roundings of products that underflow), of zero may be of either sign
_DET_FILTER = 1e-15
_DET_FLOOR = 1e-323


class InstabilityError(ValueError):
    """The lower normal mode has a non-real frequency: no stable spectrum.

    The default message is the one of every command that refuses such a point.
    """

    def __init__(self, message="the x or p sector of the Hamiltonian is not positive definite"):
        super().__init__(message)


# A single point builds one of these per call, so the generated __init__
# (one object.__setattr__ per field, then per-field checks) is replaced by
# one that fills the instance __dict__ directly and admits the common case
# with one chained range test: a float is finite and not negative exactly
# where 0 <= x < inf, and NaN fails every comparison.  Only what that test
# does not admit runs the checks of ``_refuse``, which word every refusal,
# in their order.
@dataclass(frozen=True, init=False)
class ModelParams:
    """Hamiltonian parameters, all in units of omega_b."""

    omega_a: float
    omega_b: float
    lambda1: float
    lambda2: float
    diamag: float

    def __init__(self, omega_a, omega_b, lambda1, lambda2, diamag):
        state = self.__dict__
        state["omega_a"] = omega_a
        state["omega_b"] = omega_b
        state["lambda1"] = lambda1
        state["lambda2"] = lambda2
        state["diamag"] = diamag
        try:
            if (0.0 < omega_a < math.inf and 0.0 < omega_b < math.inf
                    and 0.0 <= lambda1 < math.inf and 0.0 <= lambda2 < math.inf
                    and 0.0 <= diamag < math.inf):
                return
        except TypeError:  # not a number: math.isfinite words it below
            pass
        self._refuse()

    def _refuse(self):
        values = (self.omega_a, self.omega_b, self.lambda1, self.lambda2, self.diamag)
        if not all(map(math.isfinite, values)):
            raise ValueError(f"model parameters must be finite, got {self}")
        if self.omega_a <= 0 or self.omega_b <= 0:
            raise ValueError("mode frequencies must be positive")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("coupling strengths must be non-negative")
        if self.diamag < 0:
            raise ValueError("diamagnetic coefficient must be non-negative")


def natural_diamag(lam, omega_b):
    """Diamagnetic weight lambda^2/omega_b of light coupled to natural matter."""
    return lam * lam / omega_b


def hopfield(omega_a: float, omega_b: float, lam: float) -> ModelParams:
    """Light-matter parameters with the natural diamagnetic weight lambda^2/omega_b."""
    return ModelParams(omega_a, omega_b, lam, lam, natural_diamag(lam, omega_b))


def general(
    omega_a: float,
    omega_b: float,
    lambda1: float,
    lambda2: float,
    diamag: float,
) -> ModelParams:
    return ModelParams(omega_a, omega_b, lambda1, lambda2, diamag)


@dataclass(frozen=True)
class PolaritonBasis:
    """Normal-mode frequencies and Bogoliubov coefficients.

    Each branch j carries (w, x, y, z) with p_j = w a + x b + y a' + z b',
    normalized to w^2 + x^2 - y^2 - z^2 = 1.  theta is the 2x2 mixing angle
    of the single-coupling family (negative by convention), a display field;
    it is None where that family's split spectrum does not define it.
    """

    omega_upper: float
    omega_lower: float
    coeffs_upper: tuple[float, float, float, float]
    coeffs_lower: tuple[float, float, float, float]
    theta: float | None = None

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


def _stability_determinants(wa, wb, l1, l2, dd):
    """(det V, det T), stable iff both are positive; floats or arrays, each
    formula one expression for both.  Where a determinant is within rounding
    of zero, or NaN (inf - inf past the largest float), both are exact values
    (``_exact_determinants``)."""
    lv, lt = l1 + l2, l1 - l2
    pv, qv, pt, qt = (wa + 4.0 * dd) * wb, lv * lv, wa * wb, lt * lt
    det_v, det_t = pv - qv, pt - qt
    far = ((abs(det_v) > _DET_FILTER * (pv + qv) + _DET_FLOOR)
           & (abs(det_t) > _DET_FILTER * (pt + qt) + _DET_FLOOR))
    if isinstance(far, np.ndarray):
        for i in np.flatnonzero(~far).tolist():
            det_v[i], det_t[i] = _exact_determinants(wa[i], wb[i], l1[i], l2[i], dd[i])
        return det_v, det_t
    return (det_v, det_t) if far else _exact_determinants(wa, wb, l1, l2, dd)


def _exact_determinants(wa, wb, l1, l2, dd):
    """(det V, det T) of the exact inputs, integers over q^2 with q the largest
    of the inputs' power-of-two denominators, each rounded once by int true
    division: +-inf past the largest float, +-ulp(0) where a nonzero one rounds to 0."""
    ratios = [x.as_integer_ratio() for x in (wa, wb, l1, l2, dd)]
    q = max(d for _, d in ratios)
    wa, wb, l1, l2, dd = [n * (q // d) for n, d in ratios]
    dets = []
    for det in ((wa + 4 * dd) * wb - (l1 + l2) ** 2, wa * wb - (l1 - l2) ** 2):
        sign = (det > 0) - (det < 0)
        try:
            dets.append(det / (q * q) or sign * math.ulp(0.0))
        except OverflowError:
            dets.append(sign * math.inf)
    return tuple(dets)


def _where(cond, a, b):
    """``np.where`` of arrays, a conditional expression of floats."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _sector_frame(a, b, det_a, det_ab, sqrt=math.sqrt):
    """((omega_U, omega_L), u_U, A^1/2, det A) of the sector pair (A, B), each
    matrix as (11, 12, 22): floats, or with ``sqrt=np.sqrt`` arrays, each
    formula one expression for both shapes.

    A^1/2 B A^1/2 = R diag(omega_U^2, omega_L^2) R^T, omega_L^2 = det A det B /
    omega_U^2; R's first column u_U and A^1/2 = (A + sqrt(det A) I) / sqrt(tr A
    + 2 sqrt(det A)) take no difference of nearly equal terms.  Only u_U's
    choice takes a form per shape: ``np.where`` of arrays, a conditional
    expression of floats, which must also catch a lost frame before its
    division by zero raises where numpy's gives inf or NaN.
    """
    s = sqrt(det_a)
    tau = sqrt(a[0] + a[2] + 2.0 * s)
    r11, r12, r22 = root = ((a[0] + s) / tau, a[1] / tau, (a[2] + s) / tau)
    m11, m12, m21, m22 = (r11 * b[0] + r12 * b[1], r11 * b[1] + r12 * b[2],
                          r12 * b[0] + r22 * b[1], r12 * b[1] + r22 * b[2])
    s11, s12, s22 = m11 * r11 + m12 * r12, m11 * r12 + m12 * r22, m21 * r12 + m22 * r22
    half_gap = 0.5 * (s11 - s22)
    h = sqrt(half_gap * half_gap + s12 * s12)
    wu_sq = 0.5 * (s11 + s22) + h
    # any R serves where S = c I, c > 0: take the identity.  Adding 0 where S
    # is not flat changes only the sign of a zero half_gap, which neither
    # its abs nor its sign test reads
    flat = (h == 0.0) & (wu_sq > 0.0)
    half_gap, h = half_gap + flat, h + flat
    # u_U is (g, s12) or (s12, g) over its norm sqrt(2 h g)
    g = h + abs(half_gap)
    norm = sqrt(2.0 * h * g)
    if sqrt is np.sqrt:
        u1, u2 = np.where(half_gap >= 0.0, (g, s12), (s12, g))
    elif wu_sq:
        u1, u2 = (g, s12) if half_gap >= 0.0 else (s12, g)
    else:
        # S underflowed to 0: the frame is lost, NaN as numpy's 0 / 0 gives
        return (0.0, math.nan), (math.nan, math.nan), root, det_a
    return (sqrt(wu_sq), sqrt(det_ab / wu_sq)), (u1 / norm, u2 / norm), root, det_a


def _sector_modes(wa, wb, l1, l2, dd, det_v, det_t):
    """Frames (T, V) for Gamma_xx and (V, T) for Gamma_pp, and whether V = T.

    With forward roots only, both stay well conditioned next to either edge.
    The point's frequencies are those of (V, T).  A frame is (w, u, root,
    det A): the frequency pair, u_U and A^1/2 of ``_sector_frame``.  On
    arrays both frames are one pass of ``_sector_frame`` over (2, n)
    arrays, frame 0 the (T, V) frame and frame 1 the (V, T) frame, point on
    the last axis: the first frame returned is that pair of frames, and the
    second its frame 1 (``_frame_row``).
    """
    det = det_v * det_t
    passive = (l2 == 0.0) & (dd == 0.0)
    if isinstance(det, np.ndarray):
        # A holds T in frame 0 and V in frame 1, B the other; one contiguous
        # array, since numpy loops over reversed views run slower
        wv, lt, lv = wa + 4.0 * dd, l1 - l2, l1 + l2
        ab = np.array((wa, wv, lt, lv, wb, wb, wv, wa, lv, lt, wb, wb, det_t, det_v))
        ab = ab.reshape(7, 2, -1)
        frames = _sector_frame(ab[:3], ab[3:6], ab[6], det, np.sqrt)
        return frames, _frame_row(frames, 1), passive
    v, t = (wa + 4.0 * dd, l1 + l2, wb), (wa, l1 - l2, wb)
    return _sector_frame(t, v, det_t, det), _sector_frame(v, t, det_v, det), passive


def _frame_row(frames, k):
    """Frame k of a pair of frames of arrays, as tuples of views."""
    (wu, wl), (u1, u2), (r11, r12, r22), det_a = frames
    return (wu[k], wl[k]), (u1[k], u2[k]), (r11[k], r12[k], r22[k]), det_a[k]


def _frame_vectors(u, root):
    """(A^1/2 u_U, A^1/2 u_L) of a frame's u_U and A^1/2, u_L = (-u2, u1);
    floats or arrays."""
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
    (wu, wl), (u1, u2), root, det_t = frame_x
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


