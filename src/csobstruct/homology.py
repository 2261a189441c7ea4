"""Integer and real cohomology: groups, bases, primitives.

Everything is read off exact Smith normal forms, made once per complex:
one per coboundary, kept in the complex's memo (that of d_{dim-1} also
splits H^dim), and one per image lattice below the top degree (Munkres,
Elements of Algebraic Topology, Sec. 11).  Besides the integral
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
from dataclasses import dataclass, field

import numpy as np

from .complex_core import Cochain, INT, REAL, _check_length, apply_d
from .errors import Error
from .snf import smith_normal_form

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
    if not 0 <= k <= complex_.dim:
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
    free, torsion, _ = _cohomology(complex_, k)
    return free, torsion


def _snf(complex_, k):
    """smith_normal_form(d_k), made once per complex and degree."""
    return complex_._memo(("snf", k), lambda: smith_normal_form(
        complex_._d_array(k, np.int64)))


def _cohomology(complex_, k):
    """(free, torsion, P_k) of H^k = ker d_k / im d_{k-1}, memoized; P_k
    is the exact class map, one row per free generator, in Python ints.

    With _snf(k), d_k = U S V of rank r: v_inv[:, r:] is a basis of the
    lattice ker d_k and V[r:, :] gives a kernel vector's coordinates in it
    (at k = dim the kernel is all of C^k, in the standard basis).  Below
    the top, H^0 is ker d_0 itself (d_{-1} = 0): the kernel columns are
    its free generators, with no torsion, and P_0 = V[r:, :].  Otherwise,
    in those coordinates the image is d_{k-1}, reduced by _snf(k-1), at
    k = dim (an n_0 x 0 matrix at k = 0); V[r:, :] @ d_{k-1}, reduced
    here, below it.  With image = U_2 S_2 V_2 of rank r_2, the generators
    are the kernel vectors of columns of U_2, and P_k = (U_2^-1)[r_2:, :],
    times V[r:, :] below the top.  Only these slices are replayed from the
    SNFs' records.
    """
    def build():
        kernel = coords = None
        if k < complex_.dim:
            res, n = _snf(complex_, k), complex_.n_simplices(k)
            kernel = res.v_inv_columns(range(res.rank, n))
            coords = res.v_rows(range(res.rank, n))
            if k == 0:
                return list(kernel.T), [], coords
        if coords is None:
            image = _snf(complex_, k - 1)
        else:
            image = smith_normal_form(_sparse_product(
                coords, complex_._d_array(k - 1, np.int64)))
        P = image.u_inv_tail()
        return (*_quotient_generators(image, kernel),
                P if coords is None else _sparse_product(P, coords))
    return complex_._memo(("cohomology", k), build)


def _sparse_product(A, B):
    """A @ B in Python ints, summed over the nonzeros of A only and
    reading only the rows of B they meet: A (V[r:, :], a U^-1 tail or
    transposed generator columns of U) has a few nonzeros per line.
    Being exact, it needs no overflow guard.
    """
    out = np.zeros((A.shape[0], B.shape[1]), dtype=object)
    i, j = np.nonzero(A)
    used, at = np.unique(j, return_inverse=True)
    rows = B[used].astype(object)
    for a, c, t in zip(i, j, at):
        out[a] += A[a, c] * rows[t]
    return out


def _quotient_generators(res, lattice=None):
    """(free, torsion) generators of lattice / image.

    res is the SNF of the image written in lattice coordinates; lattice
    holds the basis vectors as columns (None: the standard basis).  The
    generators are the lattice vectors of columns i of U for the free
    positions i >= rank and the torsion positions (d_i > 1), and only
    those columns are replayed from res.
    """
    diag, r = res.diag, res.rank
    torsion = [i for i in range(r) if diag[i] > 1]
    U = res.u_columns(torsion + list(range(r, res.shape[0])))
    vectors = list(U.T if lattice is None else _sparse_product(U.T, lattice.T))
    return vectors[len(torsion):], [
        (diag[i], u) for i, u in zip(torsion, vectors)]


# -- real cohomology basis --------------------------------------------


@dataclass(frozen=True)
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
    """Memoized cohomology_basis_real (complexes are immutable)."""
    return complex_._memo(("basis", k),
                          lambda: cohomology_basis_real(complex_, k))


# -- exactness and primitives -----------------------------------------


def check_tol(tol, default=None):
    """A caller's tolerance, default for None; else finite and > 0."""
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise Error("BAD_PARAMETER", f"tol {tol} must be finite and > 0")
    return default if tol is None else tol


def _closedness_tol(values):
    norm = float(np.max(np.abs(np.asarray(values, dtype=float)), initial=0))
    return max(EXACT_ABS_TOL, EXACT_REL_TOL * norm)


def require_closed(complex_, cochain, code="NOT_CLOSED"):
    """Raise code unless d v = 0: exactly in Python ints for an int
    cochain, within the closedness tolerance for a real one."""
    if cochain.degree == complex_.dim:
        _check_length(complex_, cochain)
    if cochain.degree >= complex_.dim:
        return  # top degree: closed by convention
    dv = apply_d(complex_, cochain).values
    if cochain.ring == INT:
        if any(v != 0 for v in dv):
            raise Error(code, "coboundary is not zero over Z")
        return
    limit = _closedness_tol(cochain.values)
    if dv.size and not float(np.max(np.abs(dv))) <= limit:  # NaN fails
        raise Error(code,
                    f"coboundary norm {np.max(np.abs(dv)):.3e} exceeds {limit:.3e}")


def _least_squares(complex_, k, values):
    """(x, d x - values) for a least-squares x of d_{k-1} x = values.

    The library's one dense float coboundary and its one solve: d_{k-1}
    is memoized per complex, and at k = 0 it is the n_0 x 0 zero matrix.
    The solve runs on values / 2^e, with 2^e the binary exponent of
    max |values|: scaling by a power of two is exact, so x keeps its bits
    and the solver's intermediates stay far from the float limit.
    """
    _check_degree(complex_, k)
    d = complex_._memo(("d_dense", k - 1),
                       lambda: complex_._d_array(k - 1, float))
    e = math.frexp(float(np.max(np.abs(values), initial=0.0)))[1]
    x = np.ldexp(np.linalg.lstsq(d, np.ldexp(values, -e), rcond=None)[0], e)
    if not np.all(np.isfinite(x)):
        raise Error("SOLVER_FAILURE", "least squares gave a non-finite x")
    return x, d @ x - values


@dataclass(frozen=True)
class PrimitiveResult:
    primitive: Cochain | None
    class_coordinates: np.ndarray

    @property
    def exact(self):
        return self.primitive is not None


def find_primitive(complex_, cochain, tol=None):
    """Solve d(beta) = cochain when the class vanishes; else report coords.

    Least squares on the coboundary; any minimizer is acceptable since
    primitives are only defined up to the kernel of d.
    """
    limit = check_tol(tol, _closedness_tol(cochain.values))
    require_closed(complex_, cochain)
    k = cochain.degree
    vals = cochain.as_float()
    coords = basis(complex_, k).coordinates(vals)
    if coords.size and float(np.max(np.abs(coords))) > limit:
        return PrimitiveResult(None, coords)
    beta, residual = _least_squares(complex_, k, vals)
    if residual.size and float(np.max(np.abs(residual))) > limit:
        return PrimitiveResult(None, coords)
    return PrimitiveResult(Cochain(k - 1, REAL, beta), coords)
