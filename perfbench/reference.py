"""Reference computations the benchmark checks qclone's outputs against.

Everything here is derived apart from the qclone package, from numpy and
the standard library only:

* the clone of alpha|01> - beta|10> under an isotropic shrink s is an
  X-state with concurrence C = max(0, 2 s alpha beta - (1 - s)/2), where
  s = 1 for wzcm, (M + 4)/(5M) for scm and s1 or s2 for acm;
* entanglement of formation follows from concurrence by Wootters' law
  (PRL 80, 2245, 1998), applied to X-states as in Yu & Eberly (QIC 7,
  459, 2007);
* the alpha integral is taken by Gauss-Legendre in theta = asin(alpha),
  split at the kink sin(2 theta) = (1 - s)/(2 s) where C reaches zero;
* generic concurrence comes from numpy.linalg.eigh of
  sqrt(rho) rho~ sqrt(rho).
"""

from __future__ import annotations

import math

import numpy as np

#: |4(1-s1-s2)^2 - (1-s1)(1-s2)| below which either region answer is accepted.
REGION_BAND = 1e-9
#: |s - endpoint| below which a shrink pair counts as a degenerate endpoint.
DEGENERATE_TOL = 1e-12
#: Gauss-Legendre order on each of the two pieces of the alpha integral.
GL_ORDER = 96

_LN2 = math.log(2.0)
_SIGMA_YY = np.array(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=np.complex128
)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
#: rows: phi+, phi-, psi+, psi- over |00>, |01>, |10>, |11>.
BELL = np.array(
    [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]], dtype=np.complex128
) * _INV_SQRT2


def scm_shrink(count: int) -> float:
    """Shrink factor of one copy of the symmetric M-copy machine."""
    return (count + 4) / (5 * count)


def eof_from_concurrence(c):
    """Wootters' entanglement of formation, accurate for small C too."""
    c = np.clip(np.asarray(c, dtype=float), 0.0, 1.0)
    root = np.sqrt(1.0 - c * c)
    # y = 1 - x with x = (1 + root)/2, written without cancellation
    y = c * c / (2.0 * (1.0 + root))
    x = 1.0 - y
    with np.errstate(divide="ignore", invalid="ignore"):
        hx = np.where(x > 0.0, -x * np.log1p(-y), 0.0)
        hy = np.where(y > 0.0, -y * np.log(y), 0.0)
    return (hx + hy) / _LN2


def family_concurrence(alpha, s):
    """Concurrence of the shrink-s clone of alpha|01> - beta|10>."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.sqrt(np.clip(1.0 - alpha * alpha, 0.0, None))
    return np.maximum(0.0, 2.0 * s * alpha * beta - (1.0 - s) / 2.0)


def family_eof(alpha, s):
    """Entanglement of formation of the shrink-s clone of the family state."""
    return eof_from_concurrence(family_concurrence(alpha, s))


def boundary_s2(s1, branch: str):
    """s2 on a boundary branch of the acm region, clipped to [0, 1]."""
    s1 = np.asarray(s1, dtype=float)
    root = np.sqrt(np.clip(1.0 + 14.0 * s1 - 15.0 * s1 * s1, 0.0, None))
    sign = 1.0 if branch == "upper" else -1.0
    return np.clip((7.0 * (1.0 - s1) + sign * root) / 8.0, 0.0, 1.0)


def region_value(s1, s2):
    """4(1-s1-s2)^2 - (1-s1)(1-s2): non-positive inside the acm region."""
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    u = 1.0 - s1 - s2
    return 4.0 * u * u - (1.0 - s1) * (1.0 - s2)


def region_answer(s1, s2):
    """(inside, ambiguous): membership, and where either answer is accepted."""
    g = region_value(s1, s2)
    return g <= 0.0, np.abs(g) <= REGION_BAND


def degenerate(s1, s2):
    """True at the shrink pairs (1, 0) and (0, 1)."""
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    t = DEGENERATE_TOL
    return ((np.abs(s1 - 1.0) <= t) & (np.abs(s2) <= t)) | (
        (np.abs(s1) <= t) & (np.abs(s2 - 1.0) <= t)
    )


_GL_U, _GL_W = np.polynomial.legendre.leggauss(GL_ORDER)
_GL_U = 0.5 * (_GL_U + 1.0)
_GL_W = 0.5 * _GL_W


def mean_eof(s: float) -> float:
    """Integral over alpha in [0, 1] of the shrink-s clone's EoF.

    With alpha = sin(theta) the integrand is E(C(theta)) cos(theta) and
    C = max(0, s sin(2 theta) - (1 - s)/2) vanishes outside
    [theta1, pi/2 - theta1], sin(2 theta1) = (1 - s)/(2 s).  E behaves like
    C^2 log C at both ends, so each half is mapped by theta = end + h u^2,
    which leaves a smooth integrand for Gauss-Legendre.
    """
    if s <= 1.0 / 3.0:
        return 0.0
    k = (1.0 - s) / (2.0 * s)
    theta1 = 0.5 * math.asin(min(k, 1.0))
    theta2 = 0.5 * math.pi - theta1
    mid = 0.25 * math.pi
    total = 0.0
    for end, h in ((theta1, mid - theta1), (theta2, mid - theta2)):
        theta = end + h * _GL_U * _GL_U
        jac = 2.0 * abs(h) * _GL_U
        c = np.maximum(0.0, s * np.sin(2.0 * theta) - (1.0 - s) / 2.0)
        total += float(np.sum(_GL_W * jac * eof_from_concurrence(c) * np.cos(theta)))
    return total


def mean_eof_pair(s1: float, s2: float) -> float:
    """Alpha average of the two-copy mean EoF of the acm at (s1, s2)."""
    return 0.5 * (mean_eof(s1) + mean_eof(s2))


def family_state(alpha: float) -> np.ndarray:
    """alpha|01> - sqrt(1 - alpha^2)|10>."""
    return np.array([0.0, alpha, -math.sqrt(1.0 - alpha * alpha), 0.0], dtype=np.complex128)


def shrink_clone(alpha: float, s: float) -> np.ndarray:
    """s |psi><psi| + (1 - s) I/4 for the family state psi(alpha)."""
    v = family_state(alpha)
    return s * np.outer(v, v.conj()) + (1.0 - s) / 4.0 * np.eye(4)


def wzcm_clone_from_bell(coeffs) -> np.ndarray:
    """Either wzcm copy: the Bell-diagonal mixture sum_i |c_i|^2 |B_i><B_i|."""
    w = np.abs(np.asarray(coeffs)) ** 2
    return np.einsum("i,ia,ib->ab", w, BELL, BELL.conj())


def wzcm_reduced(coeffs, subsystem: str) -> np.ndarray:
    """Reduced states of sum_i c_i |B_i>|B_i>|w_i>, read off its structure."""
    c = np.asarray(coeffs, dtype=np.complex128)
    if subsystem == "machine":
        # <B_j B_j | B_i B_i> = delta_ij, so the machine keeps |c_i|^2 only
        return np.diag(np.abs(c) ** 2).astype(np.complex128)
    return wzcm_clone_from_bell(c)


def concurrence(rho):
    """(C, EoF, lambdas) of a two-qubit density matrix via numpy's eigh.

    Eigenvalues of the Hermitian sandwich are clipped at zero before the
    square root; the lambdas come out in decreasing order.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    w, v = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    flipped = _SIGMA_YY @ rho.conj() @ _SIGMA_YY
    h = root @ flipped @ root
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(0.5 * (h + h.conj().T)), 0.0, None))[::-1]
    c = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
    return c, float(eof_from_concurrence(c)), lam
