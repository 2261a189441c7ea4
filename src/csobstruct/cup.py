"""Alexander-Whitney cup products and the Poincare duality pairing.

The cochain-level product is the front-face/back-face formula; it is
non-commutative but satisfies the Leibniz rule exactly, which is all the
class-level statements need.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .complex_core import (Cochain, INT, REAL, SparseMatrix, _check_length,
                           fundamental_cycle)
from .errors import Error
from .homology import integral_generators
from .snf import smith_normal_form


def cup(complex_, alpha, beta):
    """Alexander-Whitney product: (a u b)(v0..vk+l) = a(front) * b(back).

    One gather per factor through the memoized face index arrays; the
    products are elementwise, in Python ints when both factors are INT
    and in floats otherwise.
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
    ring = INT if alpha.ring == beta.ring == INT else REAL
    return Cochain(k + l, ring, alpha.values[front] * beta.values[back])


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
    """Evaluate a top cochain against the fundamental cycle; an INT
    cochain is summed in Python ints."""
    if omega.degree != complex_.dim:
        raise Error("DEGREE_OUT_OF_RANGE",
                    f"pairing needs degree {complex_.dim}, got {omega.degree}")
    _check_length(complex_, omega)
    if omega.ring == INT:
        return sum(map(operator.mul, fundamental_cycle(
            complex_).values.tolist(), omega.values.tolist()))
    return float(_fundamental_signs(complex_) @ omega.values)


def _fundamental_signs(complex_):
    """The fundamental cycle's signs as floats (memoized)."""
    return complex_._memo("fundamental_signs", lambda: fundamental_cycle(
        complex_).values.astype(float))


@dataclass(frozen=True)
class PairingMatrix:
    """P[i][j] = <g_i u h_j, [X]> over the free integral generators g_i
    of H^k and h_j of H^{n-k}, as floats."""

    degree: int
    codegree: int
    matrix: np.ndarray
    nondegenerate: bool


def poincare_pairing_matrix(complex_, k):
    """Cup pairing H^k x H^{n-k} -> R evaluated on the fundamental cycle.

    Each entry is the INT cup of two free integral generators paired in
    Python ints, so the matrix is exact, and nondegenerate exactly when
    it is square and the Smith normal form of its nonzeros (a
    SparseMatrix) has full rank; 0x0 is nondegenerate.  The matrix is
    returned as floats.  Every degree needs the fundamental cycle, so a
    complex without one gets NOT_CLOSED or NON_ORIENTABLE.
    """
    n = complex_.dim
    gk = [Cochain(k, INT, w) for w in integral_generators(complex_, k)[0]]
    fundamental_cycle(complex_)     # integral_generators checked the degree
    gnk = [Cochain(n - k, INT, w)
           for w in integral_generators(complex_, n - k)[0]]
    P = np.array([[pair_with_fundamental(complex_, cup(complex_, a, b))
                   for b in gnk] for a in gk],
                 dtype=object).reshape(len(gk), len(gnk))
    ij = np.nonzero(P)
    nondeg = len(gk) == len(gnk) and smith_normal_form(SparseMatrix(
        P.shape, *ij, P[ij])).rank == len(gk)
    return PairingMatrix(k, n - k, P.astype(float), nondeg)
