"""Finite oriented simplicial complexes and their coboundary calculus.

Simplices are strictly increasing vertex tuples; within each degree the
canonical index is lexicographic order on those tuples.  The coboundary
uses the alternating-face convention: the face obtained by dropping vertex
i carries sign (-1)^i.  d_k is held only as a SparseMatrix, its (row, col,
sign) triplets sorted by row and then column; every reader (the real
products, the Smith reductions, the Gram matrix of the least-squares
factor, the exact loops) works from them.  All integer arithmetic is
exact (Python ints).
"""

from __future__ import annotations

import itertools
import json
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import Error

INT = "int"
REAL = "real"


def _closure(simplices, dim):
    """Per degree 0..dim, the set of all faces of the given simplices."""
    by_degree = [set() for _ in range(dim + 1)]
    for s in simplices:
        for r in range(1, len(s) + 1):
            by_degree[r - 1].update(itertools.combinations(s, r))
    return by_degree


@dataclass(frozen=True)
class SparseMatrix:
    """A shape[0] x shape[1] matrix held as its nonzero entries vals[i] at
    (rows[i], cols[i]), in row-major order: the one form of d_k and of
    every Smith reduction input.  np.asarray(M, dtype) makes it dense."""

    shape: tuple
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __array__(self, dtype=None, copy=None):
        A = np.zeros(self.shape, self.vals.dtype if dtype is None else dtype)
        A[self.rows, self.cols] = self.vals
        return A


def _is_int(v):
    """The integer rule for parsed input and matrix entries: ints,
    integral floats and rationals of denominator 1, but not bools, other
    numbers or non-numbers.  A rational is decided exactly, so a huge one
    is never turned into a float.  Plain ints, the common case, skip the
    abstract-class checks."""
    return type(v) is int or isinstance(v, numbers.Real) and \
        not isinstance(v, bool) and (v.denominator == 1 if isinstance(
            v, numbers.Rational) else float(v).is_integer())


class SimplicialComplex:
    """Immutable simplicial complex with canonical per-degree orderings.

    Attributes
    ----------
    dim : top dimension
    simplices : dict degree -> list of increasing vertex tuples (lex sorted)
    top_orientation : optional list of +-1 per top simplex
    """

    def __init__(self, top_simplices, top_orientation=None, dim=None):
        try:
            tops = [tuple(s) for s in top_simplices]
        except TypeError:
            raise Error("PARSE_ERROR", "top simplices must be lists")
        if not all(s and all(map(_is_int, s)) for s in tops):
            raise Error("PARSE_ERROR",
                        "top simplices must be nonempty integer lists")
        tops = [tuple(map(int, s)) for s in tops]
        if not tops:
            raise Error("DANGLING_VERTEX", "empty complex")
        for s in tops:
            if any(a >= b for a, b in zip(s, s[1:])):
                raise Error("NON_INCREASING_TUPLE", f"simplex {s}")
        if len(set(tops)) != len(tops):
            raise Error("DUPLICATE_SIMPLEX", "repeated top simplex")

        top_dim = max(len(s) - 1 for s in tops)
        if dim is not None and not (_is_int(dim) and dim == top_dim):
            raise Error("PARSE_ERROR",
                        f"declared dim {dim} does not match top simplices")
        self.dim = top_dim

        by_degree = _closure(tops, self.dim)
        vertices = sorted(v for (v,) in by_degree[0])
        if vertices != list(range(len(vertices))):
            raise Error("DANGLING_VERTEX",
                        "vertex labels must be contiguous 0..V-1")

        self.simplices = {k: sorted(by_degree[k]) for k in range(self.dim + 1)}
        self._index = {k: {s: i for i, s in enumerate(self.simplices[k])}
                       for k in range(self.dim + 1)}
        self._memo_data = {}

        if top_orientation is not None:
            try:
                ori = list(top_orientation)
            except TypeError:
                ori = None
            if ori is None or len(ori) != len(self.simplices[self.dim]) or \
                    not all(_is_int(e) and e in (-1, 1) for e in ori):
                raise Error("BAD_ORIENTATION",
                            "orientation must be one +-1 per top simplex")
            self.top_orientation = [int(e) for e in ori]
        else:
            self.top_orientation = None

    def _memo(self, key, build):
        """The one per-complex cache: build() runs once per key.

        Complexes are immutable, so every derived datum (coboundaries,
        fundamental cycle, integral generators, cohomology bases) is kept
        here and read back on later calls.
        """
        if key not in self._memo_data:
            self._memo_data[key] = build()
        return self._memo_data[key]

    # -- basic queries -------------------------------------------------

    def n_simplices(self, k):
        if k < 0 or k > self.dim:
            return 0
        return len(self.simplices[k])

    @property
    def n_vertices(self):
        return self.n_simplices(0)

    def f_vector(self):
        return tuple(self.n_simplices(k) for k in range(self.dim + 1))

    def index(self, simplex):
        s = tuple(simplex)
        k = len(s) - 1
        if k not in self._index or s not in self._index[k]:
            raise Error("UNKNOWN_SIMPLEX", f"simplex {s} not in complex")
        return self._index[k][s]

    def euler_characteristic(self):
        return sum((-1) ** k * self.n_simplices(k)
                   for k in range(self.dim + 1))

    # -- coboundary ----------------------------------------------------

    def _d_triplets(self, k):
        """d_k: C^k -> C^{k+1} as a SparseMatrix (intp rows and cols, int64
        signs), sorted by row and then column, the order a CSR product
        sums in; d_{-1} is the n_0 x 0 matrix and d_dim the 0 x n_dim one."""
        return self._memo(("triplets", k), lambda: self._build_triplets(k))

    def _build_triplets(self, k):
        # dropping a later vertex gives a lex-smaller face: drop the last first
        drops = range(k + 1, -1, -1)
        taus = self.simplices[k + 1] if 0 <= k < self.dim else []
        cols = [self._index[k][tau[:i] + tau[i + 1:]]
                for tau in taus for i in drops]
        return SparseMatrix((self.n_simplices(k + 1), self.n_simplices(k)),
                            np.repeat(np.arange(len(taus)), k + 2),
                            np.array(cols, dtype=np.intp),
                            np.tile([(-1) ** i for i in drops], len(taus)))


# -- cochains and chains ----------------------------------------------


@dataclass(frozen=True)
class Cochain:
    """Degree-k cochain; values aligned with the canonical k-simplex order.

    The constructor fixes the value form of each ring, so readers use the
    values as they are: an INT cochain holds a 1-D object array of Python
    ints (each value passes through operator.index, so numpy integer
    scalars convert exactly and cannot wrap), and a non-integer value
    raises PARSE_ERROR; a REAL cochain holds float64 (a float64 array is
    kept, not copied).
    """

    degree: int
    ring: str
    values: np.ndarray

    def __post_init__(self):
        if self.ring not in (INT, REAL):
            raise Error("BAD_RING", f"ring must be int or real, got {self.ring}")
        if self.ring == REAL:
            values = np.asarray(self.values, dtype=float)
        else:
            try:
                values = np.fromiter(map(operator.index, self.values), object)
            except TypeError:
                raise Error("PARSE_ERROR", "int cochain values must be integers")
        object.__setattr__(self, "values", values)

    @staticmethod
    def make(degree, ring, values):
        """Cochain from parsed numbers; rejects values the ring cannot hold."""
        if any(isinstance(v, bool) or not isinstance(v, numbers.Real)
               for v in values):
            raise Error("PARSE_ERROR", "cochain values must be numbers")
        try:  # readers of either ring convert the values to floats
            arr = np.asarray([float(v) for v in values])
        except OverflowError:
            raise Error("PARSE_ERROR", "cochain values exceed the float range")
        if ring == INT:
            if not all(map(_is_int, values)):
                raise Error("PARSE_ERROR", "int cochain values must be integers")
            arr = [int(v) for v in values]
        elif not np.all(np.isfinite(arr)):
            raise Error("PARSE_ERROR", "real cochain values must be finite")
        return Cochain(degree, ring, arr)

    @staticmethod
    def zeros(complex_, degree, ring=REAL):
        return Cochain(degree, ring, [0] * complex_.n_simplices(degree))

    def as_float(self):
        """A new float array of the values, each converted as float(v)."""
        return self.values.astype(float)


@dataclass(frozen=True)
class Chain:
    """Degree-k chain with exact integer coefficients."""

    degree: int
    values: np.ndarray  # dtype=object, Python ints


def _check_length(complex_, cochain):
    """One value per simplex of the cochain's degree, else BASE_MISMATCH."""
    if len(cochain.values) != complex_.n_simplices(cochain.degree):
        raise Error("BASE_MISMATCH", "cochain length does not match complex")


def apply_d(complex_, cochain):
    """Coboundary of a cochain; exact for integer coefficients."""
    return Cochain(cochain.degree + 1, cochain.ring,
                   _d_values(complex_, cochain))


def _d_values(complex_, cochain):
    """d v as an array: float64 for a REAL cochain, Python ints in an
    object array for an INT one."""
    k = cochain.degree
    if not 0 <= k < complex_.dim:
        raise Error("DEGREE_OUT_OF_RANGE", f"degree {k}, dim {complex_.dim}")
    _check_length(complex_, cochain)
    d = complex_._d_triplets(k)
    if cochain.ring == REAL:
        return np.bincount(d.rows, d.vals * cochain.values[d.cols], d.shape[0])
    # row i of d_k holds the k + 2 faces of (k+1)-simplex i in one drop
    # order, so every row carries the sign tile d.vals[:k+2] and d v is
    # k + 2 signed column sums of the gathered faces, in Python ints
    faces = cochain.values[d.cols].reshape(-1, k + 2).T
    dv = 0
    for s, column in zip(d.vals[:k + 2].tolist(), faces):
        dv = dv + column if s > 0 else dv - column
    return dv


# -- fundamental cycle -------------------------------------------------


def fundamental_cycle(complex_):
    """Signs eps per top simplex with boundary(sum eps*sigma) = 0 over Z.

    Signs are found by propagating orientation across shared
    codimension-1 faces, read off the triplets of d_{n-1}: top simplex t
    owns triplets t*(n+1) .. t*(n+1)+n, its faces and their signs.  Each
    component of the dual graph is seeded +1 at its first top simplex; a
    propagation contradiction means the complex is non-orientable, a
    nonzero boundary after propagation means it is not closed.  Memoized
    per complex (complexes are immutable).
    """
    return complex_._memo("fundamental_cycle",
                          lambda: _fundamental_cycle_compute(complex_))


def _fundamental_cycle_compute(complex_):
    n = complex_.dim
    if n < 1:
        raise Error("NOT_CLOSED", "0-dimensional complex has no cycle")
    n_top = complex_.n_simplices(n)

    # cofaces of each (n-1)-simplex, with incidence signs
    cofaces = [[] for _ in range(complex_.n_simplices(n - 1))]
    d = complex_._d_triplets(n - 1)
    rows, cols, signs = d.rows.tolist(), d.cols.tolist(), d.vals.tolist()
    for r, c, s in zip(rows, cols, signs):
        cofaces[c].append((r, s))

    eps = [0] * n_top
    for seed in range(n_top):
        if eps[seed]:
            continue
        eps[seed] = 1
        queue = [seed]
        while queue:
            t = queue.pop()
            for j in range(t * (n + 1), (t + 1) * (n + 1)):
                f, st = cols[j], signs[j]
                if len(cofaces[f]) != 2:
                    continue  # boundary / non-manifold face, checked below
                (t1, s1), (t2, s2) = cofaces[f]
                other, so = (t2, s2) if t1 == t else (t1, s1)
                want = -eps[t] * st * so  # eps_t*s_t + eps_o*s_o = 0
                if eps[other] == 0:
                    eps[other] = want
                    queue.append(other)
                elif eps[other] != want:
                    raise Error("NON_ORIENTABLE",
                                "orientation propagation contradicts itself")

    # exact boundary check
    boundary = [0] * complex_.n_simplices(n - 1)
    for r, c, s in zip(rows, cols, signs):
        boundary[c] += s * eps[r]
    if any(b != 0 for b in boundary):
        raise Error("NOT_CLOSED", "no sign choice makes the top sum a cycle")

    if complex_.top_orientation is not None:
        stored = complex_.top_orientation
        if stored != eps and stored != [-e for e in eps]:
            raise Error("BAD_ORIENTATION",
                        "stored orientation is not a fundamental cycle")
        eps = stored
    return Chain(n, np.array(eps, dtype=object))


# -- interchange format ------------------------------------------------


def load_complex(text):
    """Parse the JSON interchange document into a SimplicialComplex."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise Error("PARSE_ERROR", str(e))
    if not isinstance(doc, dict) or "top_simplices" not in doc:
        raise Error("PARSE_ERROR", "missing top_simplices field")
    return SimplicialComplex(doc["top_simplices"],
                             top_orientation=doc.get("orientation"),
                             dim=doc.get("dim"))


def dump_complex(complex_):
    doc = {
        "dim": complex_.dim,
        "top_simplices": [list(s) for s in complex_.simplices[complex_.dim]],
    }
    if complex_.top_orientation is not None:
        doc["orientation"] = complex_.top_orientation
    return json.dumps(doc, sort_keys=True, indent=2)


def load_cochain(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise Error("PARSE_ERROR", str(e))
    if not isinstance(doc, dict):
        raise Error("PARSE_ERROR", "cochain document must be an object")
    for f in ("degree", "ring", "values"):
        if f not in doc:
            raise Error("PARSE_ERROR", f"missing cochain field {f}")
    if not _is_int(doc["degree"]):
        raise Error("PARSE_ERROR", "cochain degree must be an integer")
    if not isinstance(doc["values"], list):
        raise Error("PARSE_ERROR", "cochain values must be a list")
    return Cochain.make(int(doc["degree"]), doc["ring"], doc["values"])


def dump_cochain(cochain):
    return json.dumps({"degree": cochain.degree, "ring": cochain.ring,
                       "values": cochain.values.tolist()},
                      sort_keys=True, indent=2)
