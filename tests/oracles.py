"""Independent brute-force oracles used to cross-check the library.

Deliberately naive: textbook gcd-sweep diagonalization for invariant
factors, fraction-free (Bareiss) elimination for ranks and
determinants, and the alternating-face rule for local coboundaries,
sharing no code with the package's Smith normal form, basis or
coboundary machinery.
"""

import numpy as np


def local_coboundary(sub, k):
    """Integer d_k of a face-closed subcomplex, from its simplex lists.

    Rows are the subcomplex's (k+1)-simplices and columns its k-simplices,
    each in the order of sub.simplices; dropping vertex i gives sign (-1)^i.
    """
    rows = sub.simplices.get(k + 1, [])
    cols = {s: j for j, s in enumerate(sub.simplices.get(k, []))}
    m = [[0] * len(cols) for _ in rows]
    for r, tau in enumerate(rows):
        for i in range(len(tau)):
            m[r][cols[tau[:i] + tau[i + 1:]]] += (-1) ** i
    return np.array(m, dtype=int).reshape(len(rows), len(cols))


def exact_rank(rows):
    """Rank over Q by fraction-free (Bareiss) elimination on Python ints.

    After each pivot every entry below it is a minor of the input, so the
    division by the previous pivot is exact.
    """
    m = [[int(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(n_cols):
        piv = next((r for r in range(rank, n_rows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, n_rows):
            f = m[r][col]
            m[r] = [(p * a - f * b) // prev for a, b in zip(m[r], m[rank])]
        prev = p
        rank += 1
        if rank == n_rows:
            break
    return rank


def exact_det(rows):
    """Determinant of a square integer matrix by Bareiss elimination.

    Each row swap flips the sign; the last pivot is the determinant of
    the permuted matrix, every division exact as in exact_rank.
    """
    m = [[int(x) for x in row] for row in rows]
    sign, prev = 1, 1
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        p = m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col]
            m[r] = [(p * a - f * b) // prev for a, b in zip(m[r], m[col])]
        prev = p
    return sign * prev


def invariant_factors(rows):
    """Nonzero invariant factors by repeated gcd sweeps (no transforms)."""
    m = [[int(x) for x in row] for row in rows]
    out = []
    while True:
        m = [row for row in m if any(row)]
        if not m:
            return out
        n_rows, n_cols = len(m), len(m[0])
        # move a minimal nonzero entry to (0, 0)
        best = min(((abs(m[i][j]), i, j) for i in range(n_rows)
                    for j in range(n_cols) if m[i][j]), key=lambda t: t[0])
        _, bi, bj = best
        m[0], m[bi] = m[bi], m[0]
        for row in m:
            row[0], row[bj] = row[bj], row[0]
        while True:
            piv = m[0][0]
            changed = False
            for i in range(1, n_rows):
                if m[i][0] % piv:
                    q = m[i][0] // piv
                    m[i] = [a - q * b for a, b in zip(m[i], m[0])]
                    m[0], m[i] = m[i], m[0]
                    changed = True
                    piv = m[0][0]
            for j in range(1, n_cols):
                if m[0][j] % piv:
                    q = m[0][j] // piv
                    for row in m:
                        row[j] -= q * row[0]
                    for row in m:
                        row[0], row[j] = row[j], row[0]
                    changed = True
                    piv = m[0][0]
            if not changed:
                break
        piv = m[0][0]
        for i in range(1, n_rows):
            if m[i][0]:
                q = m[i][0] // piv
                m[i] = [a - q * b for a, b in zip(m[i], m[0])]
        for j in range(1, n_cols):
            if m[0][j]:
                q = m[0][j] // piv
                for row in m:
                    row[j] -= q * row[0]
        # pivot must also divide the rest; fold an offender in and retry
        offender = next((i for i in range(1, n_rows)
                         for j in range(1, n_cols) if m[i][j] % piv), None)
        if offender is not None:
            m[0] = [a + b for a, b in zip(m[0], m[offender])]
            continue
        out.append(abs(piv))
        m = [row[1:] for row in m[1:]]
        if not m or not m[0]:
            return out


def betti(complex_, k):
    """Real Betti number from exact ranks of the coboundaries."""
    up = exact_rank(complex_.coboundary_matrix(k).toarray().tolist()) \
        if k < complex_.dim else 0
    down = exact_rank(complex_.coboundary_matrix(k - 1).toarray().tolist()) \
        if k > 0 else 0
    return complex_.n_simplices(k) - up - down


def torsion(complex_, k):
    """Torsion of H^k from invariant factors of d_{k-1}."""
    if k <= 0:
        return []
    mat = complex_.coboundary_matrix(k - 1).toarray().tolist()
    return [d for d in invariant_factors(mat) if d > 1]
