"""Smith normal form over the integers with unimodular transforms.

The reduction is a sparse replay of dense elimination: it performs the
same elementary operations in the same order, so it gives the same U,
S, V and v_inv bit for bit (tests/oracles.py keeps the dense form as the
reference).  Step t pivots on the first minimal-|entry| nonzero of the
remaining block, in row-major order of the current positions, swaps it
to (t, t), makes it positive and clears its column and row by
floor-quotient operations, again while remainders are left; a pivot
other than 1 that does not divide the rest of the block has the first
offending row added to its row, and the step starts again.  Small
pivots keep entry growth tame on incidence-style matrices.

The pivot search walks the live rows only: the positions whose rows may
still be nonempty, in order.  A row seen empty leaves that list for
good, since every write goes to the pivot row or to a row with an entry
in the pivot column, and the divisibility check reads the same list.
The walk stops at the first row holding a +-1 and takes its leftmost
one.  A pivot of 1 leaves its column clear of all but itself, so each
column operation that clears its row writes that row alone: the row is
cleared in bulk, with the same record and no write per entry.

The input is a complex_core.SparseMatrix, the library's one form of a
reduction input (d_k, the image lattices and the pairing matrices arrive
in it), so the body reads only nonzeros.  S is held sparse, in one dict
of nonzero Python ints per row plus a column-to-rows index; a swap only
updates permutation maps, and a step touches only the nonzeros of its
pivot row and column.  The arithmetic is exact, so there is no overflow
to guard against.

The transforms are never formed while reducing.  The body keeps one
record of its row operations on S and one of its column operations, in
order and by row and column label, and nothing else: the record is the
only transform state.  Every transform line (a column of U, a row of
U^-1, a row of V, a column of v_inv) is read by one walk of a record,
backwards from start lines, on sparse dicts of Python ints (_replay).
A start line at position p is unit line p, or any integer combination
of such lines: the walk is linear, so a combined start gives the same
combination of transform lines, in one walk.  A caller reads products
with a transform (generators, class maps) by starting from its own
lines, and gets sparse lines back; no m x m or n x n transform is ever
made (tests/oracles.py builds whole ones from unit lines).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complex_core import SparseMatrix, _is_int
from .errors import Error


@dataclass(frozen=True)
class SNFResult:
    """Decomposition M = U @ S @ V with U, V unimodular, S diagonal.

    Keeps the shape, diag (the invariant factors d_1 | d_2 | ..., then
    zeros, min(m, n) in all), the row and column operation records and
    the row and column labels in position order (see _smith).  lines()
    walks a record into the transform lines a caller reads (v_inv is the
    exact inverse of V), as sparse dicts of Python ints; no whole U, S, V
    or v_inv is kept or made.
    """

    shape: tuple
    diag: list
    _row_ops: list = field(repr=False)
    _col_ops: list = field(repr=False)
    _rlab: list = field(repr=False)
    _clab: list = field(repr=False)

    @property
    def rank(self):
        return sum(1 for d in self.diag if d != 0)

    def lines(self, which, start):
        """Combined lines of one transform: columns of U, rows of U_inv
        (U^-1), rows of V or columns of v_inv, as which says.

        start maps a position p to a sparse line {t: x}: line t is the
        sum of x times the transform's line p over the positions.  The
        walk consumes the start dicts: each becomes the result's line at
        its label and may be changed in place, so a caller passes fresh
        dicts it does not read again.  The result holds, per row or
        column label k, the dict {t: entry k of line t}; _dense makes it
        an array.
        """
        pull = {"U": False, "U_inv": True, "V": False, "v_inv": True}[which]
        if which in ("U", "U_inv"):
            return _replay(self._row_ops, self._rlab, start, pull)
        return _replay(self._col_ops, self._clab, start, pull)


def _units(positions):
    """Start lines for the unit lines at the given positions, in order."""
    return {p: {t: 1} for t, p in enumerate(positions)}


def _dense(lines, count):
    """The count lines of per-label dicts as the rows of an object array."""
    return np.asarray(_sparse(lines, count))


def _sparse(lines, count):
    """The count lines of per-label dicts as the rows of a SparseMatrix."""
    E = np.array(sorted((t, k, x) for k, line in enumerate(lines)
                        for t, x in line.items()), dtype=object).reshape(-1, 3)
    return SparseMatrix((count, len(lines)), E[:, 0].astype(np.intp),
                        E[:, 1].astype(np.intp), E[:, 2])


def _replay(ops, lab, start, pull):
    """Walk a record from start lines; per label k, {t: entry k of line t}.

    ops records (i, js, qs): U[:, i] += q * U[:, j] for each (j, q), or
    a negation of U[:, i] when js is None (the row record); or column
    k -= q * column c of S for each (k, q), which is V[c, :] += q * V[k, :]
    (the column record, with i = c and js the k).  A transform is the
    product of these operations, so its line at label l is the unit line
    e_l walked through the record, last operation first, and every step
    is linear in the lines.  A column of U or a row of V is pushed
    (y[j] += q * y[i]); a row of U^-1 or a column of v_inv is pulled
    through the inverse operations (y[i] -= q * y[j]); a negation negates
    y[i].  y[k] holds entry k of every line, so both directions add one
    sparse dict into another.  Position p holds label lab[p], and its
    start line is y[lab[p]] itself, not a copy.
    """
    y = [{} for _ in lab]
    for p, line in start.items():
        y[lab[p]] = line
    for i, js, qs in reversed(ops):
        if js is None:
            y[i] = {t: -x for t, x in y[i].items()}
        elif pull:
            for j, q in zip(js, qs):
                if y[j]:
                    _add(y[i], y[j], -q)
        elif y[i]:
            for j, q in zip(js, qs):
                _add(y[j], y[i], q)
    return y


def _add(line, other, q):          # line += q * other
    for k, x in other.items():
        y = line.get(k, 0) + q * x
        if y:
            line[k] = y
        else:
            line.pop(k, None)


def smith_normal_form(M):
    """Exact SNF of an integer matrix, given as a SparseMatrix; anything
    else is BAD_PARAMETER.  Integral floats and rationals of denominator 1
    count as integers (complex_core._is_int), any other entry is
    BAD_PARAMETER."""
    if not isinstance(M, SparseMatrix):
        raise Error("BAD_PARAMETER", f"matrix must be a SparseMatrix, not "
                                     f"{type(M).__name__}")
    return _smith(M)


def _smith(M):
    """The reduction body: SNF of the SparseMatrix M of numbers."""
    m, n = M.shape
    # S lives in sparse rows of Python ints, keyed by row and column
    # labels (the original indices): rlab/clab list the labels by current
    # position and rpos/cpos invert them, so a swap only updates these
    # maps, and cols[c] holds the labels of the rows with a nonzero in
    # column c.  The records hold the operations by label.
    rows = [{} for _ in range(m)]
    cols = [set() for _ in range(n)]
    for i, j, x in zip(M.rows.tolist(), M.cols.tolist(), M.vals.tolist()):
        if type(x) is not int:
            if not _is_int(x):
                raise Error("BAD_PARAMETER",
                            f"matrix entry {x!r} is not an integer")
            x = int(x)
        rows[i][j] = x
        cols[j].add(i)
    rlab, rpos = list(range(m)), list(range(m))
    clab, cpos = list(range(n)), list(range(n))
    row_ops, col_ops = [], []
    diag = []
    # live lists, ascending, the positions from t on whose rows may be
    # nonempty: every nonempty one is in it.  An empty row never refills,
    # so the search drops the rows it sees empty.
    live = [p for p in range(m) if rows[p]]

    def put(r, c, x):              # S[r, c] = x
        row = rows[r]
        if x:
            if c not in row:
                cols[c].add(r)
            row[c] = x
        elif c in row:
            del row[c]
            cols[c].discard(r)

    def swap(lab, pos, a, b):
        lab[a], lab[b] = lab[b], lab[a]
        pos[lab[a]], pos[lab[b]] = a, b

    while len(diag) < min(m, n):
        t = len(diag)              # steps done; the block is S[t:, t:]
        if live and live[0] < t:
            del live[0]            # the last step's pivot row
        # the first minimal |entry| of the block, row-major by position
        best = None
        kept = []                  # the nonempty rows walked
        for i, p in enumerate(live):
            row = rows[rlab[p]]
            if not row:
                continue
            kept.append(p)
            mag, _, c = min((abs(x), cpos[k], k) for k, x in row.items())
            if best is None or mag < best[0]:
                best = mag, p, c
                if mag == 1:
                    break
        if best is None:
            break                  # the rest of S is zero
        live[:i + 1] = kept
        _, p, c = best
        r = rlab[p]
        swap(rlab, rpos, t, p)
        swap(clab, cpos, t, cpos[c])
        if live[0] != t:
            live.insert(0, t)      # the row swapped out of t was empty
        if rows[r][c] < 0:
            rows[r] = {k: -x for k, x in rows[r].items()}
            row_ops.append((r, None, None))
        pivot_row = rows[r]
        piv = pivot_row[c]

        # clear column c: row s -= q * row r, so U[:, r] += q * U[:, s];
        # piv is the least |entry| of the block, so no q is 0.  Row r and
        # column c hold nothing before position t, so r sorts first below
        # and c first right.
        below = sorted(cols[c], key=rpos.__getitem__)[1:]
        if below:
            items = list(pivot_row.items())
            qs = []
            for s in below:
                row = rows[s]
                q = row[c] // piv
                qs.append(q)
                for k, x in items:     # S[s, k] -= q * x
                    y = row.get(k)
                    if y is None:
                        row[k] = -q * x
                        cols[k].add(s)
                    else:
                        y -= q * x
                        if y:
                            row[k] = y
                        else:
                            del row[k]
                            cols[k].discard(s)
            row_ops.append((r, below, qs))

        # clear row r: col k -= q * col c
        right = sorted(pivot_row, key=cpos.__getitem__)[1:]
        if piv == 1:
            # q = S[s, c] left column c clear, so col k -= S[r, k] * col c
            # writes S[r, k] = 0 alone: row r is {c: 1} afterwards, and
            # the step is done
            if right:
                col_ops.append((c, right, [pivot_row[k] for k in right]))
                for k in right:
                    cols[k].discard(r)
                rows[r] = {c: 1}
            diag.append(1)
            continue
        if right:
            pivot_col = [(s, rows[s][c]) for s in cols[c]]
            qs = []
            for k in right:
                q = rows[r][k] // piv
                qs.append(q)
                for s, x in pivot_col:
                    put(s, k, rows[s].get(k, 0) - q * x)
            col_ops.append((c, right, qs))
        if len(cols[c]) > 1 or len(rows[r]) > 1:
            continue               # remainders left: pivot again

        # divisibility: fold the first row holding an entry the pivot does
        # not divide into row r, then take the step again
        offender = next((rlab[p] for p in live[1:] if any(
            x % piv for x in rows[rlab[p]].values())), None)
        if offender is not None:
            for k, x in list(rows[offender].items()):
                put(r, k, rows[r].get(k, 0) + x)
            row_ops.append((offender, [r], [-1]))
            continue
        diag.append(piv)

    diag += [0] * (min(m, n) - len(diag))
    return SNFResult((m, n), diag, row_ops, col_ops, rlab, clab)
