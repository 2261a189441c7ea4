"""Independent reference computations the benchmark checks outputs against.

Nothing here calls the program: the face closure, the coboundary (drop
vertex i, sign (-1)^i), the Alexander-Whitney cup product and the
fundamental-class evaluation are recomputed from the top simplices of a
complex file.  Integer cohomology generators are built by hand, so the
benchmark can make inputs with a known class:

* t3: the vertex label of the staircase product C3 x C3 x C3 is
  9x + 3y + z, and the projection onto each circle factor is an
  order-preserving simplicial map.  Pulling back the circle cocycle that
  is 1 on the edge (0, 2) gives integral H^1 generators a_x, a_y, a_z;
  their cup products generate H^2(T^3; Z) = Z^3.
* rp3: the nonzero class w1 of H^1(RP^3; Z/2) is found by elimination
  over GF(2); d(lift of w1) / 2 is an integer 2-cocycle whose class is
  the Bockstein of w1, the generator of H^2(RP^3; Z) = Z/2.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import scipy.sparse as sp

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi

# Cohomology of the fixtures, from their topology: Betti numbers by degree
# and the torsion of H^k(X; Z).
BETTI = {"t3": (1, 3, 3, 1), "rp3": (1, 0, 0, 1)}
TORSION = {"t3": {}, "rp3": {2: [2]}}


class RefComplex:
    """Face closure, coboundaries and cup products of a complex file."""

    def __init__(self, text):
        doc = json.loads(text)
        tops = [tuple(s) for s in doc["top_simplices"]]
        self.dim = max(len(s) for s in tops) - 1
        by_degree = [set() for _ in range(self.dim + 1)]
        for s in tops:
            for size in range(1, len(s) + 1):
                by_degree[size - 1].update(itertools.combinations(s, size))
        self.simplices = [sorted(b) for b in by_degree]
        self.index = [{s: i for i, s in enumerate(b)} for b in self.simplices]
        self.d = [self._coboundary(k) for k in range(self.dim)]
        self.orientation = np.asarray(doc["orientation"], dtype=np.int64)
        if np.any(self.d[self.dim - 1].T @ self.orientation):
            raise ValueError("stored orientation is not a cycle")

    def n(self, k):
        return len(self.simplices[k])

    def _coboundary(self, k):
        rows, cols, vals = [], [], []
        idx = self.index[k]
        for r, tau in enumerate(self.simplices[k + 1]):
            for i in range(len(tau)):
                rows.append(r)
                cols.append(idx[tau[:i] + tau[i + 1:]])
                vals.append(-1 if i % 2 else 1)
        return sp.csr_matrix((np.asarray(vals, dtype=np.int64), (rows, cols)),
                             shape=(self.n(k + 1), self.n(k)))

    def cobound(self, k, values):
        """d_k applied to a degree-k value vector (exact on int64 input)."""
        return self.d[k] @ np.asarray(values)

    def cup(self, k, a, l, b):
        """Alexander-Whitney product: front k-face times back l-face."""
        ik, il = self.index[k], self.index[l]
        front = [ik[t[:k + 1]] for t in self.simplices[k + l]]
        back = [il[t[k:]] for t in self.simplices[k + l]]
        return np.asarray(a)[front] * np.asarray(b)[back]

    def evaluate(self, top_values):
        """<omega, [X]> with the file's orientation as fundamental cycle."""
        return self.orientation @ np.asarray(top_values)

    def is_cocycle(self, k, values):
        return k >= self.dim or not np.any(self.cobound(k, values))


def t3_generators(ref):
    """Integral generators (H^1 list, H^2 list) of the 3-torus fixture."""
    edges = ref.simplices[1]
    axes = []
    for shift in (9, 3, 1):
        coord = [((a // shift) % 3, (b // shift) % 3) for a, b in edges]
        axes.append(np.asarray([1 if c == (0, 2) else 0 for c in coord],
                               dtype=np.int64))
    h2 = [ref.cup(1, axes[i], 1, axes[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    for k, gens in ((1, axes), (2, h2)):
        if not all(ref.is_cocycle(k, g) for g in gens):
            raise ValueError(f"t3 seam generator of degree {k} is not closed")
    # Poincare duality: the classes are independent exactly when the triple
    # products <a_i u a_j u a_k, [X]> form a unimodular matrix.
    triple = np.asarray([[ref.evaluate(ref.cup(2, g, 1, a)) for a in axes]
                         for g in h2])
    if round(abs(np.linalg.det(triple))) != 1:
        raise ValueError("t3 seam generators are not a basis")
    return axes, h2


def rp3_torsion_generator(ref):
    """Integer 2-cocycle representing the generator of H^2(RP^3; Z) = Z/2."""
    n1 = ref.n(1)
    d1 = ref.d[1].tocsr()
    rows = [_bits(d1.indices[d1.indptr[r]:d1.indptr[r + 1]])
            for r in range(ref.n(2))]
    kernel = _gf2_kernel(rows, n1)
    d0 = ref.d[0].tocsc()
    image = _Echelon()
    for v in range(ref.n(0)):
        image.add(_bits(d0.indices[d0.indptr[v]:d0.indptr[v + 1]]))
    w1 = next(w for w in kernel if image.reduce(w))
    lift = np.asarray([(w1 >> i) & 1 for i in range(n1)], dtype=np.int64)
    dw = ref.cobound(1, lift)
    if np.any(dw % 2):
        raise ValueError("w1 is not a cocycle mod 2")
    return dw // 2


def _bits(cols):
    out = 0
    for c in cols:
        out |= 1 << int(c)
    return out


class _Echelon:
    """Row-echelon basis over GF(2) of bit-set vectors, keyed by pivot."""

    def __init__(self):
        self.rows = {}

    def reduce(self, v):
        while v:
            p = v.bit_length() - 1
            if p not in self.rows:
                return v
            v ^= self.rows[p]
        return 0

    def add(self, v):
        v = self.reduce(v)
        if v:
            self.rows[v.bit_length() - 1] = v
        return v


def _gf2_kernel(rows, n_cols):
    """Basis of {x : row . x = 0 mod 2 for every row}, as bit sets."""
    pivots = {}                       # pivot column -> fully reduced row
    for r in rows:
        for p, pr in pivots.items():
            if (r >> p) & 1:
                r ^= pr
        if not r:
            continue
        p = r.bit_length() - 1
        for q in list(pivots):
            if (pivots[q] >> p) & 1:
                pivots[q] ^= r
        pivots[p] = r
    basis = []
    for f in range(n_cols):
        if f in pivots:
            continue
        x = 1 << f
        for p, pr in pivots.items():
            if (pr >> f) & 1:
                x |= 1 << p
        basis.append(x)
    return basis


def near_multiples(values, unit, tol=1e-6):
    """True when every value lies within tol of an integer multiple of unit."""
    q = np.asarray(values, dtype=float) / unit
    return bool(np.all(np.abs(q - np.round(q)) <= tol * (1.0 + np.abs(q))))


def integer_gcd(values):
    """gcd of a vector of (nearly) integer floats; 0 for the zero vector."""
    g = 0
    for v in np.round(np.asarray(values, dtype=float)).astype(np.int64):
        g = math.gcd(g, int(v))
    return g


def close(a, b, tol=1e-6):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    scale = 1.0 + (float(np.max(np.abs(b))) if b.size else 0.0)
    return bool(np.all(np.abs(a - b) <= tol * scale))
