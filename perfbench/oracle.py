"""Independent two-mode Gaussian oracle for the benchmark's output checks.

Everything here is computed from the model formula alone, without the
package: the quadrature Hamiltonian matrix ``Hq`` of the bilinear model,
its Williamson normal form (polariton frequencies and the symplectic map
to normal-mode quadratures), the common-bath steady state, and the
standard measures of a two-mode covariance matrix (Serafini, *Quantum
Continuous Variables*, 2017; Kogias et al., PRL 114, 060403, 2015).

Conventions match the package: quadratures ordered (x_a, p_a, x_b, p_b),
vacuum variance 1/2, H = (1/2) xi^T Hq xi, hbar = k_B = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

OMEGA = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)
# partial transposition of mode b: p_b -> -p_b
PPT_FLIP = np.diag([1.0, 1.0, 1.0, -1.0])
STEERING_THRESHOLD = 1e-12


def quadrature_hamiltonian(
    wa: float, wb: float, lambda1: float, lambda2: float, diamag: float
) -> np.ndarray:
    """Hq of  wa a'a + wb b'b + l1 (a'b + ab') + l2 (a'b' + ab) + D (a + a')^2."""
    hq = np.diag([wa + 4.0 * diamag, wa, wb, wb])
    hq[0, 2] = hq[2, 0] = lambda1 + lambda2
    hq[1, 3] = hq[3, 1] = lambda1 - lambda2
    return hq


def stability_margin(hq: np.ndarray) -> float:
    """Smallest eigenvalue of Hq over its largest magnitude; > 0 iff stable."""
    ev = np.linalg.eigvalsh(hq)
    return float(ev[0] / np.max(np.abs(ev)))


@dataclass(frozen=True)
class NormalForm:
    """Williamson form T^T Hq T = diag(wU, wU, wL, wL) with T symplectic.

    Columns of T are the normal-mode quadratures (x_U, p_U, x_L, p_L)
    written in the bare quadratures.
    """

    omega_upper: float
    omega_lower: float
    transform: np.ndarray


def williamson(hq: np.ndarray) -> NormalForm:
    """Symplectic diagonalization of a positive-definite Hq.

    With K = Hq^(1/2) Omega Hq^(1/2) antisymmetric, an orthogonal O that
    brings K to 2x2 rotation blocks gives T = Hq^(-1/2) O diag(w)^(1/2).
    """
    ev, vec = np.linalg.eigh(hq)
    if ev[0] <= 0.0:
        raise ValueError("Hq is not positive definite: no stable normal form")
    root = vec @ np.diag(np.sqrt(ev)) @ vec.T
    inv_root = vec @ np.diag(1.0 / np.sqrt(ev)) @ vec.T
    k = root @ OMEGA @ root
    w2, u = np.linalg.eigh(k.T @ k)  # eigenvalues w_L^2, w_L^2, w_U^2, w_U^2
    omegas = np.sqrt(np.maximum(w2[[3, 1]], 0.0))
    cols = []
    for pair, w in zip(((3, 2), (1, 0)), omegas):
        for idx in pair:  # first candidate not already spanned by earlier pairs
            e = u[:, idx].copy()
            for c in cols:
                e -= (c @ e) * c
            norm = np.linalg.norm(e)
            if norm > 1e-6:
                break
        e /= norm
        f = -k @ e / w
        cols.extend([e, f])
    o = np.column_stack(cols)
    t = inv_root @ o @ np.diag(np.sqrt(np.repeat(omegas, 2)))
    # orient each pair so that T^T Omega T = Omega (not -Omega)
    form = t.T @ OMEGA @ t
    for j in (0, 1):
        if form[2 * j, 2 * j + 1] < 0.0:
            t[:, 2 * j + 1] *= -1.0
    return NormalForm(float(omegas[0]), float(omegas[1]), t)


def bose(omega: float, temperature: float) -> float:
    if temperature == 0.0 or omega / temperature > 700.0:
        return 0.0
    return 1.0 / math.expm1(omega / temperature)


def steady_state(nf: NormalForm, temperature: float) -> np.ndarray:
    """Gamma = T diag(coth(w / 2T) / 2) T^T; temperature 0 gives the ground state."""
    nu_u = 0.5 + bose(nf.omega_upper, temperature)
    nu_l = 0.5 + bose(nf.omega_lower, temperature)
    t = nf.transform
    return t @ np.diag([nu_u, nu_u, nu_l, nu_l]) @ t.T


def symplectic_spectrum(gamma: np.ndarray) -> np.ndarray:
    """The two symplectic eigenvalues, ascending: |eig(i Omega Gamma)| pairs."""
    ev = np.sort(np.abs(np.linalg.eigvals(1j * OMEGA @ gamma)))
    return ev[::2]


def classify(g_ab: float, g_ba: float) -> str:
    ab = g_ab > STEERING_THRESHOLD
    ba = g_ba > STEERING_THRESHOLD
    if ab and ba:
        return "two-way"
    if ab:
        return "one-way-a-to-b"
    if ba:
        return "one-way-b-to-a"
    return "no-way"


def measures(gamma: np.ndarray) -> dict[str, float | str]:
    """Every CSV measure column, plus the textbook purities Tr rho^2.

    E_N from the PPT symplectic spectrum; steering and purities from block
    determinants.  The ``mu_*`` entries follow the package's documented
    determinant form 1/(4 det A), 1/(4 det B), 1/(16 det Gamma); the
    ``tr_rho2_*`` entries are the Gaussian Tr rho^2 = 1/(2 sqrt det A),
    1/(2 sqrt det B), 1/(4 sqrt det Gamma) for comparison.
    """
    det_a = float(np.linalg.det(gamma[:2, :2]))
    det_b = float(np.linalg.det(gamma[2:, 2:]))
    det_g = float(np.linalg.det(gamma))
    nu_ppt = symplectic_spectrum(PPT_FLIP @ gamma @ PPT_FLIP)[0]
    e_n = max(0.0, -math.log(2.0 * nu_ppt))
    g_ab = max(0.0, 0.5 * math.log(det_a / (4.0 * det_g)))
    g_ba = max(0.0, 0.5 * math.log(det_b / (4.0 * det_g)))
    return {
        "E_N": e_n,
        "G_ab": g_ab,
        "G_ba": g_ba,
        "mu_a": 1.0 / (4.0 * det_a),
        "mu_b": 1.0 / (4.0 * det_b),
        "mu_ab": 1.0 / (16.0 * det_g),
        "N_a": 0.5 * (gamma[0, 0] + gamma[1, 1] - 1.0),
        "N_b": 0.5 * (gamma[2, 2] + gamma[3, 3] - 1.0),
        "class": classify(g_ab, g_ba),
        "tr_rho2_a": 1.0 / (2.0 * math.sqrt(det_a)),
        "tr_rho2_b": 1.0 / (2.0 * math.sqrt(det_b)),
        "tr_rho2_ab": 1.0 / (4.0 * math.sqrt(det_g)),
    }


def branch_decay_rates(
    nf: NormalForm, gamma_a: float, gamma_b: float
) -> tuple[float, float]:
    """Net common-bath decay per branch, w_j |sqrt(g_a) x_a + sqrt(g_b) x_b|_j^2.

    Both modes couple to the bath through x_a and x_b; the amplitude of
    that coupling operator on branch j is read off the (x_j, p_j) columns
    of T, which makes it independent of the phase of each normal mode.
    """
    t = nf.transform
    out = []
    for j, w in ((0, nf.omega_upper), (1, nf.omega_lower)):
        amp = math.sqrt(gamma_a) * t[0, 2 * j : 2 * j + 2] + math.sqrt(gamma_b) * t[
            2, 2 * j : 2 * j + 2
        ]
        out.append(w * float(amp @ amp))
    return out[0], out[1]


def relaxed_occupation(n_ss: float, decay: float, t: float) -> float:
    """Branch occupation relaxing from vacuum: n_ss (1 - exp(-decay t))."""
    return -n_ss * math.expm1(-decay * t)
