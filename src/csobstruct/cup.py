"""Alexander-Whitney cup products and the Poincare duality pairing.

The cochain-level product is the front-face/back-face formula; it is
non-commutative but satisfies the Leibniz rule exactly, which is all the
class-level statements need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complex_core import (Cochain, INT, REAL, _check_length,
                           fundamental_cycle)
from .errors import Error
from .homology import basis
from .snf import smith_normal_form


def cup(complex_, alpha, beta):
    """Alexander-Whitney product: (a u b)(v0..vk+l) = a(front) * b(back).

    One gather per factor through the memoized face index arrays; the
    products are elementwise, in Python ints when both factors are INT.
    """
    k, l = alpha.degree, beta.degree
    if k < 0 or l < 0:
        raise Error("DEGREE_OUT_OF_RANGE", f"cup degrees {k} and {l}")
    if k + l > complex_.dim:
        raise Error("DEGREE_OVERFLOW",
                    f"cup degree {k}+{l} exceeds dim {complex_.dim}")
    _check_length(complex_, alpha)
    _check_length(complex_, beta)
    front, back = _cup_faces(complex_, k, l)
    if alpha.ring == INT and beta.ring == INT:
        a = np.asarray(alpha.values, dtype=object)
        b = np.asarray(beta.values, dtype=object)
        return Cochain(k + l, INT, a[front] * b[back])
    a = np.asarray(alpha.values, dtype=float)
    b = np.asarray(beta.values, dtype=float)
    return Cochain(k + l, REAL, a[front] * b[back])


def _cup_faces(complex_, k, l):
    """Indices of the front k-face and back l-face of each (k+l)-simplex
    (memoized)."""
    def build():
        taus = complex_.simplices[k + l]
        idx_k, idx_l = complex_._index[k], complex_._index[l]
        front = np.array([idx_k[t[:k + 1]] for t in taus], dtype=np.intp)
        back = np.array([idx_l[t[k:]] for t in taus], dtype=np.intp)
        return front, back
    return complex_._memo(("cup_faces", k, l), build)


def pair_with_fundamental(complex_, omega):
    """Evaluate a top cochain against the fundamental cycle."""
    if omega.degree != complex_.dim:
        raise Error("DEGREE_OUT_OF_RANGE",
                    f"pairing needs degree {complex_.dim}, got {omega.degree}")
    _check_length(complex_, omega)
    if omega.ring == INT:
        return int(sum(int(e) * int(v) for e, v in zip(
            fundamental_cycle(complex_).values, omega.values)))
    return float(_fundamental_signs(complex_) @ omega.values)


def _fundamental_signs(complex_):
    """The fundamental cycle's signs as floats (memoized)."""
    return complex_._memo("fundamental_signs", lambda: fundamental_cycle(
        complex_).values.astype(float))


@dataclass(frozen=True)
class PairingMatrix:
    """P[i][j] = <w_i u e_j, [X]> over the H^k and H^{n-k} bases."""

    degree: int
    codegree: int
    matrix: np.ndarray
    nondegenerate: bool


def poincare_pairing_matrix(complex_, k):
    """Cup pairing H^k x H^{n-k} -> R evaluated on the fundamental cycle.

    The entries are integers (integral representatives), so the matrix is
    nondegenerate exactly when it is square and its Smith normal form has
    full rank; 0x0 is nondegenerate.
    """
    n = complex_.dim
    bk = basis(complex_, k)
    bnk = basis(complex_, n - k)
    mat = np.zeros((bk.size, bnk.size))
    for i, wi in enumerate(bk.representative_cochains()):
        for j, wj in enumerate(bnk.representative_cochains()):
            mat[i, j] = pair_with_fundamental(complex_, cup(complex_, wi, wj))
    nondeg = bk.size == bnk.size and \
        smith_normal_form(mat).rank == bk.size
    return PairingMatrix(k, n - k, mat, nondeg)
