"""Independent brute-force oracles used to cross-check the library.

Deliberately naive: textbook gcd-sweep diagonalization for invariant
factors, fraction-free (Bareiss) elimination for ranks and
determinants, the alternating-face rule for local coboundaries and a
per-simplex loop for the cup product and the Chern-Simons quadratic
form, sharing no code with the
package's Smith normal form, basis, coboundary or cup machinery.
dense_smith is the dense form of the package's pivot rule, kept as the
reference its sparse replay must match bit for bit.  cech_descent is
the level-by-level Cech descent on the closed-star cover, the reference
for the closed form of cech.connecting_delta, and duality_coordinates
reads class coordinates by Poincare duality, without the class map.
min_norm_solution is the exact minimum-norm least-squares solution, by
rational row reduction and a Fraction solve, the reference for the
package's factored solve.
coboundary_csr, sparse, whole and cs_gradient_fd are the exceptions:
coboundary_csr puts the package's own d_k triplets into a scipy CSR
matrix, for tests that read d_k as a matrix; sparse puts a test's
matrix into the package's SparseMatrix, the one input smith_normal_form
takes; whole reads a whole U, S, V or v_inv out of an SNFResult's
records, which the package never forms, for comparison with
dense_smith; and cs_gradient_fd differentiates the package's own
cs_action, one edge at a time, for comparison with its exact gradient.
"""

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from csobstruct import (Connection, cs_action, fundamental_cycle,
                        integral_generators)
from csobstruct.complex_core import Cochain, REAL, SparseMatrix


def coboundary_csr(complex_, k):
    """The package's d_k: C^k -> C^{k+1} as an int64 CSR matrix."""
    d = complex_._d_triplets(k)
    return sp.csr_matrix((d.vals.astype(np.int64), (d.rows, d.cols)),
                         shape=d.shape)


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


def cup_reference(complex_, alpha, beta):
    """Alexander-Whitney values, one (k+l)-simplex at a time.

    (a u b)(v_0..v_{k+l}) = a(v_0..v_k) * b(v_k..v_{k+l}), with faces
    looked up by position in the lexicographic simplex lists; Python
    ints when both factors are integral, else floats.
    """
    k, l = alpha.degree, beta.degree
    exact = alpha.ring == beta.ring == "int"
    conv = int if exact else float
    pos_k = {s: i for i, s in enumerate(complex_.simplices[k])}
    pos_l = {s: i for i, s in enumerate(complex_.simplices[l])}
    out = [conv(alpha.values[pos_k[tau[:k + 1]]]) *
           conv(beta.values[pos_l[tau[k:]]])
           for tau in complex_.simplices[k + l]]
    return np.array(out, dtype=object if exact else float)


def cs_quadratic_matrix(complex_):
    """Dense n_1 x n_1 matrix C with cs_action(A) = A^T C A.

    Each top simplex tau adds eps_tau times row back(tau) of d_1 to row
    front(tau) of C, with d_1 from local_coboundary and faces looked up
    by position in the simplex lists; its gradient is (C + C^T) A.
    """
    d1 = local_coboundary(complex_, 1).astype(float)
    pos1 = {s: i for i, s in enumerate(complex_.simplices[1])}
    pos2 = {s: i for i, s in enumerate(complex_.simplices[2])}
    C = np.zeros((len(pos1), len(pos1)))
    for eps, tau in zip(fundamental_cycle(complex_).values,
                        complex_.simplices[3]):
        C[pos1[tau[:2]]] += float(eps) * d1[pos2[tau[1:]]]
    return C


def cs_gradient_fd(complex_, a, step=1e-6):
    """Central finite-difference gradient of cs_action (oracle path)."""
    vals = a.values.astype(float).copy()
    out = np.zeros_like(vals)
    for i in range(len(vals)):
        vals[i] += step
        plus = cs_action(complex_, Connection(vals))
        vals[i] -= 2 * step
        minus = cs_action(complex_, Connection(vals))
        vals[i] += step
        out[i] = (plus - minus) / (2 * step)
    return Cochain(1, REAL, out)


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


def min_norm_solution(d, b):
    """The minimum-norm least-squares solution of d x = b, in Fractions.

    The nonzero rows of an echelon form of d, made by rational row
    reduction, are the columns of a basis B of the row space of d.  The
    minimizer of least norm lies in that space, so it is B z with
    (B^T d^T d B) z = B^T d^T b, solved here by Gaussian elimination.
    Inputs are converted exactly (a float b is its binary value).
    """
    rows = [[Fraction(v) for v in row] for row in np.asarray(d).tolist()]
    b = [Fraction(v) for v in np.asarray(b).tolist()]
    basis = []
    for row in rows:
        for piv, e in basis:
            if row[piv]:
                f = row[piv] / e[piv]
                row = [a - f * c for a, c in zip(row, e)]
        piv = next((j for j, a in enumerate(row) if a), None)
        if piv is not None:
            basis.append((piv, row))
    B = [e for _, e in basis]                       # rows of B^T
    dB = [[sum(a * c for a, c in zip(row, e) if a) for e in B]
          for row in rows]                          # d B, m x r
    r = len(B)
    M = [[sum(dB[t][i] * dB[t][j] for t in range(len(dB)))
          for j in range(r)] + [sum(dB[t][i] * b[t] for t in range(len(dB)))]
         for i in range(r)]
    for c in range(r):                              # M is positive definite
        for i in range(c + 1, r):
            if M[i][c]:
                f = M[i][c] / M[c][c]
                M[i] = [a - f * e for a, e in zip(M[i], M[c])]
    z = [Fraction(0)] * r
    for i in reversed(range(r)):
        z[i] = (M[i][r] - sum(M[i][j] * z[j]
                              for j in range(i + 1, r))) / M[i][i]
    n = len(rows[0]) if rows else 0
    return [sum((B[i][j] * z[i] for i in range(r)), Fraction(0))
            for j in range(n)]


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
    up = exact_rank(coboundary_csr(complex_, k).toarray().tolist()) \
        if k < complex_.dim else 0
    down = exact_rank(coboundary_csr(complex_, k - 1).toarray().tolist()) \
        if k > 0 else 0
    return complex_.n_simplices(k) - up - down


def torsion(complex_, k):
    """Torsion of H^k from invariant factors of d_{k-1}."""
    if k <= 0:
        return []
    mat = coboundary_csr(complex_, k - 1).toarray().tolist()
    return [d for d in invariant_factors(mat) if d > 1]


def sparse(M):
    """Nested lists or a 2-D array as a SparseMatrix of its nonzeros,
    each entry as given, so the reduction body checks it."""
    A = M if isinstance(M, np.ndarray) else np.array(M, dtype=object)
    if A.shape == (0,):            # [] has no row to give the width
        A = A.reshape(0, 0)
    ij = np.nonzero(A)
    return SparseMatrix(A.shape, *ij, A[ij])


def densify(lines, count):
    """SNFResult.lines' per-label dicts as the rows of an object array,
    one row per line."""
    X = np.zeros((count, len(lines)), dtype=object)
    for k, line in enumerate(lines):
        for t, x in line.items():
            X[t, k] = x
    return X


def unit_lines(res, which, positions):
    """An SNFResult's transform lines at the given positions, as rows."""
    start = {p: {t: 1} for t, p in enumerate(positions)}
    return densify(res.lines(which, start), len(positions))


def whole(res, which):
    """U, S, V or v_inv of an SNFResult as a whole object array of Python
    ints: S from diag, the others from all their unit lines (columns of U
    and v_inv, rows of V)."""
    m, n = res.shape
    if which == "S":
        S = np.zeros((m, n), dtype=object)
        for t, d in enumerate(res.diag):
            S[t, t] = d
        return S
    X = unit_lines(res, which, range(m if which == "U" else n))
    return X if which == "V" else X.T


def dense_smith(M):
    """(U, S, V, v_inv) of M = U S V by dense elimination, as object arrays.

    Each step t takes the first minimal-|entry| nonzero of the block
    S[t:, t:] in row-major order, swaps it to (t, t), makes it positive,
    clears its column and row by floor-quotient row and column
    operations (repeating while remainders are left), and, if the pivot
    does not divide the rest of the block, adds the first offending row
    to row t and starts the step again.  Runs on int64 while every entry
    stays below 2**31 (so no update can overflow), else on Python ints.
    """
    A = np.array([[int(x) for x in row] for row in M], dtype=object)
    A = A.reshape(np.shape(M))
    if all(abs(x) < 1 << 31 for x in A.ravel()):
        try:
            return _dense_smith(A.astype(np.int64), np.int64)
        except _Outgrown:
            pass
    return _dense_smith(A, object)


class _Outgrown(Exception):
    pass


def _dense_smith(A, dtype):
    S = A.astype(dtype)
    m, n = S.shape
    U = np.eye(m, dtype=np.int64).astype(dtype)
    V = np.eye(n, dtype=np.int64).astype(dtype)
    Vinv = V.copy()

    def guard(*written):
        if dtype is np.int64 and \
                max(np.abs(w).max() for w in written) >= 1 << 31:
            raise _Outgrown

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

    def result():
        return tuple(X.astype(object) for X in (U, S, V, Vinv))

    for t in range(min(m, n)):
        while True:
            sub = S[t:, t:]
            nz = sub != 0
            if not nz.any():
                return result()
            mags = np.abs(sub)
            mags = np.where(nz, mags, mags.max() + 1)
            i, j = np.unravel_index(int(np.argmin(mags)), mags.shape)
            i, j = i + t, j + t
            if i != t:
                row_swap(t, i)
            if j != t:
                col_swap(t, j)
            if S[t, t] < 0:
                S[t, :] = -S[t, :]
                U[:, t] = -U[:, t]

            piv = S[t, t]
            done = True
            for r in range(t + 1, m):
                if S[r, t] != 0:
                    row_add(r, t, S[r, t] // piv)
                    if S[r, t] != 0:
                        done = False
            for c in range(t + 1, n):
                if S[t, c] != 0:
                    col_add(c, t, S[t, c] // piv)
                    if S[t, c] != 0:
                        done = False
            if not done:
                continue

            offender = None
            if t + 1 < m and t + 1 < n:
                bad = ((S[t + 1:, t + 1:] % piv) != 0).any(axis=1)
                if bad.any():
                    offender = t + 1 + int(np.argmax(bad))
            if offender is None:
                break
            row_add(t, offender, -1)
    return result()


# -- Cech descent on the closed-star cover ----------------------------


@dataclass(frozen=True)
class Subcomplex:
    """A face-closed part of a complex, keyed by the complex's tuples."""

    parent: object
    simplices: dict  # degree -> sorted list of the parent's own tuples
    indices: dict    # degree -> np.ndarray of the parent's canonical indices

    def dim(self):
        return max(self.simplices) if self.simplices else -1

    def n_simplices(self, k):
        return len(self.simplices.get(k, []))

    def restrict(self, values, k):
        """Restrict a global degree-k value array to this subcomplex."""
        return values[self.indices.get(k, np.zeros(0, dtype=int))]


@dataclass(frozen=True)
class Star:
    """Closed star of one simplex, a cone on the simplex's first vertex."""

    simplex: tuple
    sub: Subcomplex

    def solve(self, values, k):
        """Cone primitive h of a closed local k-cochain w, k >= 1.

        With apex v = simplex[0], h(tau) = (-1)^j w(tau with v inserted at
        position j) for tau not on v, and 0 for tau on v.  Every tau + v is
        in the star, and d(h) = w - h(dw): exact when w is closed.
        """
        v, parent = self.simplex[0], self.sub.parent
        taus = self.sub.simplices.get(k - 1, [])
        rows = [r for r, tau in enumerate(taus) if v not in tau]
        at = np.array([bisect.bisect(taus[r], v) for r in rows], dtype=int)
        cofaces = [parent.index(taus[r][:j] + (v,) + taus[r][j:])
                   for r, j in zip(rows, at.tolist())]
        out = np.zeros(len(taus))
        out[rows] = (-1.0) ** at * values[
            np.searchsorted(self.sub.indices.get(k, []), cofaces)]
        return out


@dataclass(frozen=True)
class StarCover:
    """The closed star of every simplex, keyed by the simplex."""

    complex: object
    stars: dict                       # simplex tuple -> Star

    def star(self, simplex):
        return self.stars[tuple(simplex)]


@dataclass(frozen=True)
class LocalFamily:
    """Per-vertex local primitives nu_v on the closed vertex stars."""

    degree: int
    members: dict                     # vertex -> local value array


def star_cover(complex_):
    """Closed stars of every simplex: each is the face closure of the
    maximal simplices that contain it."""
    covered = {t[:i] + t[i + 1:] for k in range(1, complex_.dim + 1)
               for t in complex_.simplices[k] for i in range(len(t))}
    tops = {}
    for k in range(complex_.dim + 1):
        for top in complex_.simplices[k]:
            if top in covered:
                continue
            for r in range(1, len(top) + 1):
                for f in itertools.combinations(top, r):
                    tops.setdefault(f, []).append(top)
    stars = {}
    for k in range(complex_.dim + 1):
        for s in complex_.simplices[k]:
            closure = {f for top in tops[s] for r in range(1, len(top) + 1)
                       for f in itertools.combinations(top, r)}
            indices = {}
            for f in closure:
                indices.setdefault(len(f) - 1, []).append(complex_.index(f))
            indices = {d: np.array(sorted(ids), dtype=int)
                       for d, ids in sorted(indices.items())}
            simplices = {d: [complex_.simplices[d][i] for i in ids]
                         for d, ids in indices.items()}
            stars[s] = Star(s, Subcomplex(complex_, simplices, indices))
    return StarCover(complex_, stars)


def local_primitives(cover, omega):
    """Per-vertex nu_v with d(nu_v) = omega restricted to star(v)."""
    vals = omega.as_float()
    k = omega.degree
    members = {}
    for (v,) in cover.complex.simplices[0]:
        star = cover.star((v,))
        members[v] = star.solve(star.sub.restrict(vals, k), k)
    return LocalFamily(k - 1, members)


def cech_difference(cover, members, q, coeff_degree):
    """Alternating sum of the level-(q-1) members on each q-overlap.

    star(tau) lies inside star(face), and both index arrays are sorted
    global indices, so searchsorted gives the positions to restrict by.
    """
    empty = np.zeros(0, dtype=int)
    out = {}
    for tau in cover.complex.simplices[q]:
        local = cover.star(tau).sub.indices.get(coeff_degree, empty)
        acc = np.zeros(local.size)
        for i in range(q + 1):
            face = tau[:i] + tau[i + 1:]
            outer = cover.star(face).sub.indices.get(coeff_degree, empty)
            acc += ((-1) ** i) * members[face][np.searchsorted(outer, local)]
        out[tau] = acc
    return out


def nerve_sign(k):
    """(-1)^(k(k+1)/2): the descent solves d(nu_p) = delta(nu_(p-1))
    with no signs; in the tic-tac-toe double complex with
    D = delta + (-1)^p d (Bott-Tu §9), alpha_p = e_p nu_p with e_0 = 1,
    e_p = (-1)^(p+1) e_(p-1) cancels every inner term of D(sum alpha_p),
    leaving omega + e_(k-1) c, so omega and -e_(k-1) c are cohomologous."""
    return (-1) ** (k * (k + 1) // 2)


def cech_descent(cover, omega, tol=1e-8):
    """Descended Cech k-cocycle of a closed k-cochain, level by level.

    Cone primitives at every level, Cech differences between levels, and
    at level k a check that each closed local 0-cochain is constant (to
    tol, relative) before its mean is read; the result carries the nerve
    sign.  Returns the cocycle's values on the k-simplices.
    """
    complex_ = cover.complex
    k = omega.degree
    members = {(v,): nu
               for v, nu in local_primitives(cover, omega).members.items()}
    for q in range(1, k + 1):
        # level q holds degree k-q local cochains on the q-overlaps
        diffs = cech_difference(cover, members, q, k - q)
        if q == k:
            break
        members = {tau: cover.star(tau).solve(mu, k - q)
                   for tau, mu in diffs.items()}
    values = np.zeros(complex_.n_simplices(k))
    for tau, mu in diffs.items():
        const = float(np.mean(mu))
        assert float(np.max(np.abs(mu - const))) <= tol * (1.0 + abs(const)), \
            f"descent output not constant on star of {tau}"
        values[complex_.index(tau)] = const
    return nerve_sign(k) * values


# -- Poincare duality --------------------------------------------------


def duality_coordinates(complex_, omega):
    """Class coordinates of a closed k-cochain by Poincare duality.

    With g_i the free generators of H^k and h_j those of H^(n-k), write
    omega = sum_i x_i g_i + torsion + coboundary.  On a closed orientable
    n-manifold coboundaries and torsion pair to zero with closed
    cochains, so y_j = <omega u h_j, [X]> = sum_i x_i Pi_ij with
    Pi_ij = <g_i u h_j, [X]>, and Pi is unimodular (Munkres, ch. 8).
    So x solves Pi^T x = y, in Python ints for an integral omega.  Reads
    the package's generators and fundamental cycle, never its class map;
    the cup product is cup_reference.
    """
    k, n = omega.degree, complex_.dim
    eps = [int(e) for e in fundamental_cycle(complex_).values]

    def pair(a, b):
        return sum(e * v for e, v in zip(eps, cup_reference(complex_, a, b)))

    g = [Cochain(k, "int", v) for v in integral_generators(complex_, k)[0]]
    h = [Cochain(n - k, "int", v)
         for v in integral_generators(complex_, n - k)[0]]
    pi = [[pair(gi, hj) for hj in h] for gi in g]
    assert exact_det(pi) in (1, -1), pi
    inv = _unimodular_inverse([list(col) for col in zip(*pi)])
    y = [pair(omega, hj) for hj in h]
    x = [sum(a * b for a, b in zip(row, y)) for row in inv]
    return np.array(x, dtype=object if omega.ring == "int" else float)


def _unimodular_inverse(rows):
    """Inverse of a square integer matrix of determinant +-1, in ints,
    by Gauss-Jordan elimination on Fractions."""
    n = len(rows)
    m = [[Fraction(int(a)) for a in row] + [Fraction(int(i == j))
                                            for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        m[c] = [a / m[c][c] for a in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    inv = [row[n:] for row in m]
    assert all(a.denominator == 1 for row in inv for a in row)
    return [[int(a) for a in row] for row in inv]
