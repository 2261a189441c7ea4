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

Everything is held sparse, in dicts of nonzero Python ints: S as one
dict per row plus a column-to-rows index, and the transforms as one dict
per column of U, row of V and column of v_inv.  A swap only updates
permutation maps, and a step touches only the nonzeros of its pivot row
and column and of the transform lines they combine.  The arithmetic is
exact, so there is no overflow to guard against; on incidence matrices
the transforms stay a few percent full, with small entries.  U, V and
v_inv are made dense (object arrays) once, at the end.

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

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import Error


@dataclass(frozen=True)
class SNFResult:
    """Decomposition M = U @ S @ V with U, V unimodular, S diagonal.

    diag holds the invariant factors d_1 | d_2 | ... (nonnegative);
    v_inv is the exact inverse of V.  All four are dense object arrays of
    Python ints, made once from the body's sparse lines.  u_inv_tail()
    gives the rows rank: of U^-1.
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


def _int_matrix(M):
    """M as a 2-D array whose entries are numbers (nested lists become
    an object array); the body checks the nonzeros are integers."""
    A = M if isinstance(M, np.ndarray) else np.array(M, dtype=object)
    if A.shape == (0,):            # [] has no row to give the width
        A = A.reshape(0, 0)
    if A.ndim != 2:
        raise Error("BAD_PARAMETER", f"matrix must be 2-D, not of shape "
                                     f"{A.shape}")
    if A.dtype.kind not in "iufO" or A.dtype.kind == "O" and any(
            t is bool or not issubclass(t, numbers.Real)
            for t in set(map(type, A.ravel().tolist()))):
        raise Error("BAD_PARAMETER", "matrix entries must be numbers")
    return A


def smith_normal_form(M):
    """Exact SNF of an integer matrix (nested lists or a 2-D array);
    integral floats count as integers, anything else is BAD_PARAMETER."""
    return _smith(_int_matrix(M))


def _smith(A):
    """The reduction body: SNF of the 2-D array A of numbers."""
    m, n = A.shape
    # S lives in sparse rows of Python ints, keyed by row and column
    # labels (the original indices): rlab/clab list the labels by current
    # position and rpos/cpos invert them, so a swap only updates these
    # maps, and cols[c] holds the labels of the rows with a nonzero in
    # column c.  The transforms are sparse lines stored by label and
    # keyed by original index: Ut[r] = U[:, r], V[c] = V[c, :] and
    # W[c] = v_inv[:, c].
    rows = [{} for _ in range(m)]
    cols = [set() for _ in range(n)]
    ij = np.nonzero(A)
    for i, j, x in zip(ij[0].tolist(), ij[1].tolist(), A[ij].tolist()):
        if type(x) is not int:
            if not float(x).is_integer():
                raise Error("BAD_PARAMETER",
                            f"matrix entry {x!r} is not an integer")
            x = int(x)
        rows[i][j] = x
        cols[j].add(i)
    rlab, rpos = list(range(m)), list(range(m))
    clab, cpos = list(range(n)), list(range(n))
    Ut = [{i: 1} for i in range(m)]
    V = [{j: 1} for j in range(n)]
    W = [{j: 1} for j in range(n)]
    u_ops = []                     # U's column operations, in order
    diag = []

    def put(r, c, x):              # S[r, c] = x
        row = rows[r]
        if x:
            if c not in row:
                cols[c].add(r)
            row[c] = x
        elif c in row:
            del row[c]
            cols[c].discard(r)

    def add(line, other, q):       # line += q * other
        for k, x in other.items():
            y = line.get(k, 0) + q * x
            if y:
                line[k] = y
            else:
                line.pop(k, None)

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
            Ut[r] = {k: -x for k, x in Ut[r].items()}
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
                add(Ut[r], Ut[s], q)
            u_ops.append((r, below, qs))

        # clear row r: col k -= q * col c, so V[c, :] += q * V[k, :] and
        # v_inv[:, k] -= q * v_inv[:, c]
        right = sorted((k for k in rows[r] if k != c), key=cpos.__getitem__)
        if right:
            pivot_col = [(s, rows[s][c]) for s in cols[c]]
            for k in right:
                q = rows[r][k] // piv
                for s, x in pivot_col:
                    put(s, k, rows[s].get(k, 0) - q * x)
                add(V[c], V[k], q)
                add(W[k], W[c], -q)
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
            add(Ut[offender], Ut[r], -1)
            u_ops.append((offender, [r], [-1]))
            continue
        diag.append(piv)

    def dense(lines, lab, size):   # row p of the result is lines[lab[p]]
        X = np.zeros((len(lab), size), dtype=object)
        for p, label in enumerate(lab):
            for k, x in lines[label].items():
                X[p, k] = x
        return X

    S = np.zeros((m, n), dtype=object)
    for t, d in enumerate(diag):
        S[t, t] = d
    return SNFResult(dense(Ut, rlab, m).T, S, dense(V, clab, n),
                     dense(W, clab, n).T, u_ops, rlab)
