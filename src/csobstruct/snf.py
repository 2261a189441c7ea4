"""Smith normal form over the integers with unimodular transforms.

One elimination body runs on numpy arrays of a given dtype, so row and
column operations stay vectorized.  It runs first on int64 under an
overflow guard; if an entry would outgrow the guard, the whole reduction
reruns in the same body on Python ints (arbitrary precision, object
arrays), so the result is exact either way and, the arithmetic being
exact in both, bit for bit the same.  Pivoting picks the smallest nonzero
entry of the remaining block, which keeps entry growth tame on
incidence-style matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# int64 guard: every entry of S, U, V and v_inv stays below this in
# magnitude (checked on each vector an update writes).  An update then
# reads only such entries, and its multiplier q = S[r, t] // piv (or -1)
# obeys |q| <= |S[r, t]| < 2**31, so |a - q*b| < 2**31 + 2**62 < 2**63
# and no int64 operation can overflow.
_GUARD = 1 << 31


class _Outgrown(Exception):
    """An int64 entry reached the guard; rerun on Python ints."""


@dataclass(frozen=True)
class SNFResult:
    """Decomposition M = U @ S @ V with U, V unimodular, S diagonal.

    diag holds the invariant factors d_1 | d_2 | ... (nonnegative);
    v_inv is the exact inverse of V.  All four are object arrays of
    Python ints.
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


def _within_guard(arr):
    return arr.size == 0 or (-_GUARD < int(arr.min()) and
                             int(arr.max()) < _GUARD)


def _int_matrix(M):
    """M as an int64 array when every entry is below the guard, else as
    an object array of Python ints."""
    if isinstance(M, np.ndarray) and M.dtype.kind in "iu" and M.ndim == 2:
        if _within_guard(M):
            return M.astype(np.int64, copy=False)
        M = M.tolist()
    arr = np.array([[int(x) for x in row] for row in M], dtype=object)
    if arr.ndim != 2:
        arr = arr.reshape(len(M), -1)
    return arr.astype(np.int64) if _within_guard(arr) else arr


def smith_normal_form(M):
    """Exact SNF; accepts any integer matrix (nested lists or arrays)."""
    A = _int_matrix(M)
    if A.dtype == np.int64:
        try:
            return _smith(A, np.int64)
        except _Outgrown:
            A = A.astype(object)
    return _smith(A, object)


def _smith(A, dtype):
    """The one reduction body: SNF of A in arrays of dtype, np.int64 (A's
    entries below the guard; raises _Outgrown) or object (Python ints)."""
    S = A.astype(dtype)
    m, n = S.shape
    U = np.eye(m, dtype=np.int64).astype(dtype)
    V = np.eye(n, dtype=np.int64).astype(dtype)
    Vinv = V.copy()
    guarded = dtype is np.int64

    def result():                  # one at a time, to free each int64 array
        nonlocal U, S, V, Vinv
        U = U.astype(object)
        V = V.astype(object)
        Vinv = Vinv.astype(object)
        S = S.astype(object)
        return SNFResult(U, S, V, Vinv)

    def guard(*written):           # |entries| < 2**62 + 2**31: abs cannot wrap
        if guarded and max(np.abs(w).max() for w in written) >= _GUARD:
            raise _Outgrown

    # elementary operations, keeping M = U S V and V^-1 in sync
    def row_add(r, t, q):          # row r -= q * row t
        S[r, :] -= q * S[t, :]
        U[:, t] += q * U[:, r]
        guard(S[r, :], U[:, t])

    def col_add(c, t, q):          # col c -= q * col t
        S[:, c] -= q * S[:, t]
        V[t, :] += q * V[c, :]
        Vinv[:, c] -= q * Vinv[:, t]
        guard(S[:, c], V[t, :], Vinv[:, c])

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
                return result()
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

    return result()
