"""Smith normal form over the integers with unimodular transforms.

The reduction is a sparse replay of dense elimination: it performs the
same elementary operations in the same order, so it returns the same U,
S, V and v_inv bit for bit (tests/oracles.py keeps the dense form as the
reference).  Step t pivots on the first minimal-|entry| nonzero of the
remaining block, in row-major order of the current positions (a row
walk that stops at the first +-1, taking its leftmost one; a full scan
only when no unit is left), swaps it to (t, t), makes it positive and
clears its column and row by floor-quotient operations, again while
remainders are left; a pivot other than 1 that does not divide the rest
of the block has the first offending row added to its row, and the step
starts again.  Small pivots keep entry growth tame on incidence-style
matrices.

S is held as one dict of nonzeros per row plus a column-to-rows index,
so a swap only updates permutation maps and a step touches only the
nonzeros of its pivot row and column.  The transforms stay dense, and
each sweep applies its row or column operations to them as one product:
the operations of a sweep commute, as each reads only the pivot row or
column, which the sweep never writes.  They run on int64 under the
overflow guard below; if an entry would outgrow it, the whole reduction
reruns in the same body on Python ints (object arrays), so the result is
exact either way and, the arithmetic being exact in both, the same.

The body also records its row operations on S, in order, as the column
operations they make on U: a sweep's U[:, r] += sum q * U[:, s], a
divisibility fold's U[:, offender] -= U[:, r] and a negation of U[:, r].
U^-1 itself is never formed.  Its rows rank: on (the tail, with tail @ U
= [0 | I]; it reads a vector's coordinates in the free part of
Z^m / im M) are made on demand by replaying that record backwards on
unit rows, in Python ints, at O(1) per operation and row
(SNFResult.u_inv_tail).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# int64 guard: every entry of S, U, V and v_inv stays below this in
# magnitude, checked on every entry of S written and on every transform
# entry a sweep's product writes.  Before the product, the sweep's
# multipliers must have sum(|q|) < 2**31, so sum(|q|) * max|entry| <
# 2**62 and a written entry stays below 2**31 + 2**62 < 2**63: no int64
# operation can overflow.
_GUARD = 1 << 31


class _Outgrown(Exception):
    """An int64 entry reached the guard; rerun on Python ints."""


@dataclass(frozen=True)
class SNFResult:
    """Decomposition M = U @ S @ V with U, V unimodular, S diagonal.

    diag holds the invariant factors d_1 | d_2 | ... (nonnegative);
    v_inv is the exact inverse of V.  All four are object arrays of
    Python ints.  u_inv_tail() gives the rows rank: of U^-1.
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray
    v_inv: np.ndarray
    # the record of U's column operations, and the row labels in
    # position order (see _smith)
    _u_ops: list = field(repr=False)
    _rlab: list = field(repr=False)

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

    def u_inv_tail(self):
        """Rows rank: of U^-1, exact, as an object array of Python ints.

        U^-1 = E_N ... E_1 is the product of the row operations on S, so
        row i is e_i E_N ... E_1: each unit row is pushed back through
        the record, last operation first.  U[:, i] += q * U[:, j] is the
        row operation S[j] -= q * S[i], which sends y to y[i] -= q * y[j];
        a negation of U[:, i] negates y[i].  y[c] holds column c of all
        wanted rows at once.
        """
        m = self.S.shape[0]
        want = self._rlab[self.rank:]
        b = len(want)
        y = [[0] * b for _ in range(m)]
        for t, lab in enumerate(want):
            y[lab][t] = 1
        for i, js, qs in reversed(self._u_ops):
            if js is None:
                y[i] = [-x for x in y[i]]
                continue
            for j, q in zip(js, qs):
                y[i] = [a - q * x for a, x in zip(y[i], y[j])]
        return np.array(y, dtype=object).reshape(m, b).T


def _within_guard(arr):
    return arr.size == 0 or (-_GUARD < int(arr.min()) and
                             int(arr.max()) < _GUARD)


def _int_matrix(M):
    """M as an int64 array when every entry is below the guard, else as
    an object array of Python ints."""
    if isinstance(M, np.ndarray) and M.dtype.kind in "iuO" and \
            M.ndim == 2 and _within_guard(M):
        return M.astype(np.int64, copy=False)
    arr = np.array([[int(x) for x in row] for row in M], dtype=object)
    if arr.size == 0:              # [] has no row to give the width
        arr = arr.reshape(np.shape(M) if np.ndim(M) == 2 else (0, 0))
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
    """The one reduction body: SNF of A with transforms in arrays of
    dtype, np.int64 (A's entries below the guard; raises _Outgrown) or
    object (Python ints)."""
    m, n = A.shape
    guarded = dtype is np.int64
    # S lives in sparse rows of Python ints, keyed by row and column
    # labels (the original indices): rlab/clab list the labels by current
    # position and rpos/cpos invert them, so a swap only updates these
    # maps, and cols[c] holds the labels of the rows with a nonzero in
    # column c.  The transforms are dense and stored by label, one row
    # each: Ut[r] = U[:, r], V[c] = V[c, :] and W[c] = v_inv[:, c].
    rows = [{} for _ in range(m)]
    cols = [set() for _ in range(n)]
    ij = np.nonzero(A)
    for i, j, x in zip(ij[0].tolist(), ij[1].tolist(), A[ij].tolist()):
        rows[i][j] = x
        cols[j].add(i)
    rlab, rpos = list(range(m)), list(range(m))
    clab, cpos = list(range(n)), list(range(n))
    Ut = np.eye(m, dtype=dtype)
    V = np.eye(n, dtype=dtype)
    W = V.copy()
    u_moved, v_moved = np.zeros(m, dtype=bool), np.zeros(n, dtype=bool)
    u_ops = []                     # U's column operations, in order
    diag = []

    def put(r, c, x):              # S[r, c] = x
        row = rows[r]
        if x:
            if guarded and not -_GUARD < x < _GUARD:
                raise _Outgrown
            if c not in row:
                cols[c].add(r)
            row[c] = x
        elif c in row:
            del row[c]
            cols[c].discard(r)

    def multipliers(qs):           # qs as an array, once every sum fits
        if guarded and sum(map(abs, qs)) >= _GUARD:
            raise _Outgrown
        return np.array(qs, dtype=dtype)

    def check(written):
        if guarded and np.abs(written).max() >= _GUARD:
            raise _Outgrown

    def add_rows(X, moved, i, idx, qs):
        """X[i] += sum of q * X[j] over j, q in idx, qs.  A row not yet
        written (moved[j] False) is still e_j: it adds q at column j."""
        qs, idx = multipliers(qs), np.array(idx)
        unit = ~moved[idx]
        X[i, idx[unit]] += qs[unit]
        if not unit.all():
            X[i] += qs[~unit] @ X[idx[~unit]]
        moved[i] = True
        check(X[i])

    def swap(lab, pos, a, b):
        lab[a], lab[b] = lab[b], lab[a]
        pos[lab[a]], pos[lab[b]] = a, b

    while len(diag) < min(m, n):
        t = len(diag)              # steps done; the block is S[t:, t:]
        # the first minimal |entry| of the block, row-major by position
        best = None
        for p in range(t, m):
            row = rows[rlab[p]]
            if row:
                mag, _, c = min((abs(x), cpos[k], k) for k, x in row.items())
                if best is None or mag < best[0]:
                    best = mag, p, c
                    if mag == 1:
                        break
        if best is None:
            break                  # the rest of S is zero
        _, p, c = best
        r = rlab[p]
        swap(rlab, rpos, t, p)
        swap(clab, cpos, t, cpos[c])
        if rows[r][c] < 0:
            rows[r] = {k: -x for k, x in rows[r].items()}
            Ut[r] = -Ut[r]
            u_moved[r] = True
            u_ops.append((r, None, None))
        piv = rows[r][c]

        # clear column c: row s -= q * row r, so U[:, r] += q * U[:, s]
        below = sorted(cols[c] - {r}, key=rpos.__getitem__)
        if below:
            pivot_row = list(rows[r].items())
            qs = []
            for s in below:
                row = rows[s]
                q = row[c] // piv
                qs.append(q)
                for k, x in pivot_row:
                    put(s, k, row.get(k, 0) - q * x)
            add_rows(Ut, u_moved, r, below, qs)
            u_ops.append((r, below, qs))

        # clear row r: col k -= q * col c, so V[c, :] += q * V[k, :] and
        # v_inv[:, k] -= q * v_inv[:, c] (only where that is nonzero)
        right = sorted((k for k in rows[r] if k != c), key=cpos.__getitem__)
        if right:
            pivot_col = [(s, rows[s][c]) for s in cols[c]]
            qs = []
            for k in right:
                q = rows[r][k] // piv
                qs.append(q)
                for s, x in pivot_col:
                    put(s, k, rows[s].get(k, 0) - q * x)
            add_rows(V, v_moved, c, right, qs)
            nz = np.flatnonzero(W[c])
            block = np.ix_(right, nz)
            w = W[block] - np.outer(multipliers(qs), W[c, nz])
            check(w)
            W[block] = w
        if len(cols[c]) > 1 or len(rows[r]) > 1:
            continue               # remainders left: pivot again

        # divisibility: fold the first row holding an entry the pivot does
        # not divide into row r, then take the step again
        offender = None
        if piv != 1:
            offender = next((rlab[p] for p in range(t + 1, m) if any(
                x % piv for x in rows[rlab[p]].values())), None)
        if offender is not None:
            for k, x in list(rows[offender].items()):
                put(r, k, rows[r].get(k, 0) + x)
            add_rows(Ut, u_moved, offender, [r], [-1])
            u_ops.append((offender, [r], [-1]))
            continue
        diag.append(piv)

    # position order and Python ints, each int64 array freed as its
    # object copy is made
    Ut = Ut[rlab]
    U = Ut.T.astype(object)
    del Ut
    V = V[clab]
    V = V.astype(object)
    W = W[clab]
    Vinv = W.T.astype(object)
    del W
    S = np.zeros((m, n), dtype=object)
    for t, d in enumerate(diag):
        S[t, t] = d
    return SNFResult(U, S, V, Vinv, u_ops, rlab)
