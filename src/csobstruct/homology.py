"""Integer and real cohomology: groups, bases, primitives.

Everything is read off exact Smith normal forms, made once per complex,
by one path in every degree (Munkres, Elements of Algebraic Topology,
Sec. 11): one per coboundary d_k, kept in the complex's memo (d_dim is
the 0 x n_dim matrix), and one per image lattice, except at the top,
where d_k = 0 and the lattice is d_{k-1} itself.  Besides the integral
generators, the same reductions give an exact class map P_k, an integer
matrix that sends a closed k-cochain to its coordinates in
the free generators: P_k g_i = e_i, P_k t = 0 on torsion generators and
P_k d_{k-1} = 0.  Real class coordinates are P_k @ v, and the real Betti
number is the number of free generators (universal coefficients,
Munkres Sec. 53).  Coordinates of an integral cocycle are then integers,
which keeps pairing matrices and Chern classes exact.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .complex_core import Cochain, INT, REAL, _check_length, _d_values
from .errors import Error
from .snf import _add, _dense, _sparse, _units, smith_normal_form

EXACT_REL_TOL = 1e-9
EXACT_ABS_TOL = 1e-12


@dataclass(frozen=True)
class GroupDescriptor:
    betti: int
    torsion: list

    def __str__(self):
        if not self.torsion:
            return f"Z^{self.betti}"
        t = " + ".join(f"Z/{d}" for d in self.torsion)
        return f"Z^{self.betti} + {t}" if self.betti else t


def _check_degree(complex_, k):
    """The integer rule for degrees: a non-bool Integral in 0..dim."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or \
            not 0 <= k <= complex_.dim:
        raise Error("DEGREE_OUT_OF_RANGE", f"k={k}, dim={complex_.dim}")


def homology_groups(complex_, k, coefficients=REAL):
    """Cohomology group H^k, read off the integral generators.

    Over the reals it is the free part: by universal coefficients the
    Betti number is the number of free generators.
    """
    _check_degree(complex_, k)
    if coefficients not in (INT, REAL):
        raise Error("BAD_RING",
                    f"ring must be int or real, got {coefficients}")
    free, torsion, _ = _cohomology(complex_, k)
    if coefficients == REAL:
        return GroupDescriptor(len(free), [])
    return GroupDescriptor(len(free), [order for order, _ in torsion])


# -- integral generators ----------------------------------------------


def integral_generators(complex_, k):
    """Generators of H^k(Z): (free basis cocycles, [(order, cocycle), ...]).

    Free generators are integer cocycles spanning the free part; torsion
    generators have the stated order.  All returned arrays are object-int.
    """
    _check_degree(complex_, k)
    return _cohomology(complex_, k)[:2]


def _snf(complex_, k):
    """smith_normal_form(d_k), made once per complex and degree, on the
    complex's own SparseMatrix of d_k."""
    return complex_._memo(("snf", k), lambda: smith_normal_form(
        complex_._d_triplets(k)))


def _cohomology(complex_, k):
    """(free, torsion, P_k) of H^k = ker d_k / im d_{k-1}, memoized; P_k
    is the exact class map, one row per free generator, in Python ints.

    One path for every degree, as d_{-1} (n_0 x 0) and d_dim (0 x n_dim)
    are matrices with no entries.  With _snf(k), d_k = U S V of rank r:
    v_inv[:, r:] is a basis of the lattice ker d_k and V[r:, :] gives a
    kernel vector's coordinates in it.  The image lattice is
    V[r:, :] @ d_{k-1}, summed from the rows of V and the triplets of
    d_{k-1} and reduced here (at k = 0 an (n_0 - r) x 0 matrix); when
    d_k = 0, which holds only at the top, V is the identity and the
    lattice is d_{k-1} itself, read from _snf(k-1).  With
    image = U_2 S_2 V_2 of rank r_2, the generators are the columns of U_2
    at the torsion positions (d_i > 1) and the free ones (i >= r_2), and
    P_k is the rows r_2: of U_2^-1.  Each is carried into C^k by one more
    walk, started from those lines placed at positions r + j:
    v_inv[:, r:] @ U_2[:, i] and U_2^-1[i, :] @ V[r:, :].  Every product
    is a walk of a record (SNFResult.lines).  Both reductions read a
    SparseMatrix: d_k is the complex's own, and the lattice is built
    straight into that form; only the outputs are dense.
    """
    def build():
        res, n = _snf(complex_, k), complex_.n_simplices(k)
        r = res.rank
        if r == 0:                         # d_k = 0: only at the top
            image = _snf(complex_, k - 1)
        else:
            # column j of the lattice: s times line c of V, summed over the
            # triplets (c, j, s) of d_{k-1}
            V = res.lines("V", _units(range(r, n)))
            d = complex_._d_triplets(k - 1)
            lattice = [{} for _ in range(d.shape[1])]
            for c, j, s in zip(d.rows.tolist(), d.cols.tolist(),
                               d.vals.tolist()):
                _add(lattice[j], V[c], s)
            image = smith_normal_form(_sparse(lattice, n - r))
        m, r2, diag = image.shape[0], image.rank, image.diag
        torsion = [i for i in range(r2) if diag[i] > 1]
        wanted = torsion + list(range(r2, m))
        # kernel coordinates -> C^k
        gens = res.lines("v_inv", dict(enumerate(
            image.lines("U", _units(wanted)), r)))
        cmap = res.lines("V", dict(enumerate(
            image.lines("U_inv", _units(range(r2, m))), r)))
        G = _dense(gens, len(wanted))
        return list(G[len(torsion):]), [
            (diag[i], g) for i, g in zip(torsion, G)], _dense(cmap, m - r2)
    return complex_._memo(("cohomology", k), build)


# -- real cohomology basis --------------------------------------------


@dataclass(frozen=True, eq=False)
class CohomologyBasis:
    """H^k basis of the free integral generators plus their class map.

    coordinates() maps any closed k-cochain v to its coefficients in this
    basis, as P_k @ v with the exact integer class map P_k: exact
    cochains and torsion generators map to zero, representative i maps
    to e_i, and an integral cocycle maps to integers.
    """

    degree: int
    representatives: list          # float arrays with integer entries
    _class_map: np.ndarray = field(repr=False)   # P_k as floats

    @property
    def size(self):
        return len(self.representatives)

    def coordinates(self, values):
        if len(values) != self._class_map.shape[1]:
            raise Error("BASE_MISMATCH",
                        "cochain length does not match the basis")
        return self._class_map @ np.asarray(values, dtype=float)

    def representative_cochains(self):
        return [Cochain(self.degree, REAL, w.copy())
                for w in self.representatives]


def cohomology_basis_real(complex_, k):
    """Basis of H^k over the reals, with integral representatives."""
    _check_degree(complex_, k)
    free, _, cmap = _cohomology(complex_, k)
    reps = [np.asarray(w, dtype=float) for w in free]
    return CohomologyBasis(k, reps, cmap.astype(float))


def basis(complex_, k):
    """Memoized cohomology_basis_real (complexes are immutable); the
    degree is checked first, as 2.0 and True hash like 2 and 1."""
    _check_degree(complex_, k)
    return complex_._memo(("basis", k),
                          lambda: cohomology_basis_real(complex_, k))


# -- exactness and primitives -----------------------------------------


def check_tol(tol, default=None):
    """A caller's tolerance, default for None; else finite and > 0."""
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise Error("BAD_PARAMETER", f"tol {tol} must be finite and > 0")
    return default if tol is None else tol


def _sup(x):
    """max |x| as a float, 0.0 for an empty array; a NaN propagates."""
    return float(np.abs(x).max(initial=0.0))


def _closedness_tol(values):
    norm = _sup(np.asarray(values, dtype=float))
    return max(EXACT_ABS_TOL, EXACT_REL_TOL * norm)


def require_closed(complex_, cochain, code="NOT_CLOSED"):
    """Raise code unless d v = 0: exactly in Python ints for an int
    cochain, within the closedness tolerance for a real one."""
    if cochain.degree == complex_.dim:
        _check_length(complex_, cochain)
    if cochain.degree >= complex_.dim:
        return  # top degree: closed by convention
    dv = _d_values(complex_, cochain)
    if cochain.ring == INT:
        if any(dv.tolist()):
            raise Error(code, "coboundary is not zero over Z")
        return
    norm, limit = _sup(dv), _closedness_tol(cochain.values)
    if not norm <= limit:  # NaN fails
        raise Error(code, f"coboundary norm {norm:.3e} exceeds {limit:.3e}")


def _factor(complex_, k):
    """(V, w): the eigenpairs of G = d_{k-1}^T d_{k-1} with w > 0, made
    once per complex and degree.

    G is summed from the triplets with one bincount: row t of d_{k-1}
    holds the k+1 faces of k-simplex t, and each of the (k+1)^2 pairs of
    its entries adds s_a s_b at (c_a, c_b), so G is exact and symmetric
    and no dense d is made.  An eigenvalue counts as zero at or below
    n eps max(w); the kept count is the rank of d_{k-1}.  G and the full
    eigenvector matrix are dropped once V is kept.
    """
    def build():
        d = complex_._d_triplets(k - 1)
        n = d.shape[1]
        cols, signs = d.cols.reshape(-1, k + 1), d.vals.reshape(-1, k + 1)
        w, V = np.linalg.eigh(np.bincount(
            (cols[:, :, None] * n + cols[:, None, :]).ravel(),
            (signs[:, :, None] * signs[:, None, :]).ravel(),
            n * n).reshape(n, n))       # G, freed when eigh returns
        keep = w > n * np.finfo(float).eps * w.max(initial=0.0)
        return V[:, keep], w[keep]
    return complex_._memo(("factor", k - 1), build)


def _least_squares(complex_, k, values):
    """(x, d x - values) for the minimum-norm least-squares x of
    d_{k-1} x = values.

    The library's one solve.  The minimum-norm x lies in im d^T, on
    which G = d^T d is invertible: x = V diag(1/w) V^T d^T values, with
    the eigenpairs (V, w) of _factor.  d^T values and d x are bincount
    products over the triplets (at k = 0, d_{-1} is the n_0 x 0 matrix
    and x is empty).  The solve runs on values / 2^e, with 2^e the binary
    exponent of max |values|: scaling by a power of two is exact, so x
    keeps its bits and the intermediates stay far from the float limit.
    """
    _check_degree(complex_, k)
    V, w = _factor(complex_, k)
    d = complex_._d_triplets(k - 1)
    e = math.frexp(_sup(values))[1]
    dty = np.bincount(d.cols, d.vals * np.ldexp(values, -e)[d.rows],
                      d.shape[1])
    x = np.ldexp(V @ ((V.T @ dty) / w), e)
    if not np.all(np.isfinite(x)):
        raise Error("SOLVER_FAILURE", "least squares gave a non-finite x")
    return x, np.bincount(d.rows, d.vals * x[d.cols], d.shape[0]) - values


@dataclass(frozen=True, eq=False)
class PrimitiveResult:
    primitive: Cochain | None
    class_coordinates: np.ndarray

    @property
    def exact(self):
        return self.primitive is not None


def find_primitive(complex_, cochain, tol=None):
    """Solve d(beta) = cochain when the class vanishes; else report coords.

    The closedness test, the float values and their class coordinates
    P_k v come first; _primitive, the step current_globality shares,
    then decides from them.  The default limit is computed only when tol
    is None.
    """
    limit = check_tol(tol) or _closedness_tol(cochain.values)
    require_closed(complex_, cochain)
    k = cochain.degree
    vals = cochain.as_float()
    return _primitive(complex_, k, vals, basis(complex_, k).coordinates(vals),
                      limit)


def _primitive(complex_, k, vals, coords, limit):
    """PrimitiveResult of the closed k-cochain vals, whose class
    coordinates are coords: none when some |coordinate| or the solve's
    residual exceeds limit, else beta, the minimum-norm least-squares
    solution of d(beta) = vals (_least_squares, from the memoized
    eigenfactor of d_{k-1}); any minimizer would do, since primitives
    are only defined up to the kernel of d."""
    if _sup(coords) > limit:
        return PrimitiveResult(None, coords)
    beta, residual = _least_squares(complex_, k, vals)
    if _sup(residual) > limit:
        return PrimitiveResult(None, coords)
    return PrimitiveResult(Cochain(k - 1, REAL, beta), coords)
