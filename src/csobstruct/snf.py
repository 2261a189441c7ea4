"""Smith normal form over the integers with unimodular transforms.

Arithmetic is on Python ints (arbitrary precision), stored in numpy
object arrays so row/column operations stay vectorized.  Pivoting picks
the smallest nonzero entry of the remaining block, which keeps entry
growth tame on incidence-style matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SNFResult:
    """Decomposition M = U @ S @ V with U, V unimodular, S diagonal.

    diag holds the invariant factors d_1 | d_2 | ... (nonnegative);
    v_inv is the exact inverse of V.
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray
    v_inv: np.ndarray

    @property
    def diag(self):
        m, n = self.S.shape
        return [int(self.S[i, i]) for i in range(min(m, n))]

    @property
    def rank(self):
        return sum(1 for d in self.diag if d != 0)

    @property
    def invariant_factors(self):
        return [d for d in self.diag if d != 0]


def _int_matrix(M):
    arr = np.array([[int(x) for x in row] for row in M], dtype=object)
    if arr.ndim != 2:
        arr = arr.reshape(len(M), -1)
    return arr


def smith_normal_form(M):
    """Exact SNF; accepts any integer matrix (nested lists or arrays)."""
    S = _int_matrix(M)
    m, n = S.shape
    U = np.array([[1 if i == j else 0 for j in range(m)] for i in range(m)],
                 dtype=object)
    V = np.array([[1 if i == j else 0 for j in range(n)] for i in range(n)],
                 dtype=object)
    Vinv = V.copy()

    # elementary operations, keeping M = U S V and V^-1 in sync
    def row_add(r, t, q):          # row r -= q * row t
        S[r, :] -= q * S[t, :]
        U[:, t] += q * U[:, r]

    def col_add(c, t, q):          # col c -= q * col t
        S[:, c] -= q * S[:, t]
        V[t, :] += q * V[c, :]
        Vinv[:, c] -= q * Vinv[:, t]

    def row_swap(a, b):
        S[[a, b], :] = S[[b, a], :]
        U[:, [a, b]] = U[:, [b, a]]

    def col_swap(a, b):
        S[:, [a, b]] = S[:, [b, a]]
        V[[a, b], :] = V[[b, a], :]
        Vinv[:, [a, b]] = Vinv[:, [b, a]]

    def row_negate(r):
        S[r, :] = -S[r, :]
        U[:, r] = -U[:, r]

    for t in range(min(m, n)):
        while True:
            # smallest nonzero pivot in the remaining block
            sub = S[t:, t:]
            nz = sub != 0
            if not nz.any():
                return SNFResult(U, S, V, Vinv)
            mags = np.abs(sub)
            sentinel = mags.max() + 1
            mags = np.where(nz, mags, sentinel)
            i, j = np.unravel_index(int(np.argmin(mags)), mags.shape)
            i, j = i + t, j + t
            if i != t:
                row_swap(t, i)
            if j != t:
                col_swap(t, j)
            if S[t, t] < 0:
                row_negate(t)

            piv = S[t, t]
            done = True
            for r in range(t + 1, m):
                if S[r, t] != 0:
                    q = S[r, t] // piv
                    row_add(r, t, q)
                    if S[r, t] != 0:
                        done = False
            for c in range(t + 1, n):
                if S[t, c] != 0:
                    q = S[t, c] // piv
                    col_add(c, t, q)
                    if S[t, c] != 0:
                        done = False
            if not done:
                continue

            # enforce divisibility: pivot must divide the remaining block
            offender = None
            if t + 1 < m and t + 1 < n:
                bad = ((S[t + 1:, t + 1:] % piv) != 0).any(axis=1)
                if bad.any():
                    offender = t + 1 + int(np.argmax(bad))
            if offender is None:
                break
            row_add(t, offender, -1)  # row t += offending row, retry pivot

    return SNFResult(U, S, V, Vinv)
