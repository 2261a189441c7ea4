"""Integer and real cohomology: groups, bases, primitives.

Everything is read off exact Smith normal forms, one per coboundary and
one per image lattice, each made once per complex and kept in its memo
(Munkres, Elements of Algebraic Topology, Sec. 11).  Besides the
integral generators, the same reductions give an exact class map P_k,
an integer matrix that sends a closed k-cochain to its coordinates in
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

from .complex_core import Cochain, INT, REAL, apply_d
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


def _cohomology(complex_, k):
    """(free, torsion, P_k) of H^k; P_k is the exact class map, one row
    per free generator, as an object array of Python ints."""
    if k < complex_.dim:
        return _reduce(complex_, k)[0]
    if k == 0:  # 0-dimensional complex: every 0-cochain is a cocycle
        eye = np.eye(complex_.n_simplices(0), dtype=int).astype(object)
        return list(eye.T), [], eye
    return _reduce(complex_, k - 1)[1]


def _reduce(complex_, k):
    """H^k, and H^{k+1} at k = dim-1, from one SNF of d_k and one of
    the image lattice, each as (free, torsion, P).

    With d_k = U S V of rank r, the columns of v_inv[:, r:] are a basis of
    the lattice ker d_k and V[r:, :] maps a kernel vector to its
    coordinates in that basis.  The columns of d_{k-1} lie in ker d_k, so
    a second SNF, C = V[r:, :] @ d_{k-1} = U_2 S_2 V_2 of rank r_2,
    splits H^k: the generators are the kernel basis times columns of
    U_2, and P_k = (U_2^-1)[r_2:, :] @ V[r:, :] reads their free
    coordinates (at k = 0 there is no image and P_0 = V[r:, :]).  At
    k = dim-1, ker d_{k+1} is all of C^{k+1}, so the SNF of d_k itself
    splits H^{k+1}, with P_{k+1} = (U^-1)[r:, :].  Memoized per complex
    and degree.

    Both SNFs are the sparse replay of snf.py, exact on Python ints; each
    keeps only its record of operations, and this asks it for the slices
    read here and nothing more: v_inv[:, r:] and V[r:, :] of d_k, and
    the generator columns of U (_quotient_generators) and the tail rows
    of U^-1 (u_inv_tail) of the SNF that splits a group, each replayed
    from the record on sparse lines.  The products are summed over the nonzeros of their left
    factor in Python ints (_sparse_product).
    """
    def build():
        res = smith_normal_form(complex_.coboundary_matrix(k).toarray())
        r, n = res.rank, res.shape[1]
        kernel = res.v_inv_columns(range(r, n))
        coords = res.v_rows(range(r, n))
        if k == 0 or kernel.shape[1] == 0:
            here = (list(kernel.T), [], coords)
        else:
            image = smith_normal_form(_sparse_product(
                coords, complex_.coboundary_matrix(k - 1).toarray()))
            here = (*_quotient_generators(image, kernel),
                    _sparse_product(image.u_inv_tail(), coords))
        above = (*_quotient_generators(res), res.u_inv_tail()) \
            if k == complex_.dim - 1 else None
        return here, above
    return complex_._memo(("generators", k), build)


def _sparse_product(A, B):
    """A @ B in Python ints, summed over the nonzeros of A only.

    Only the rows of B that those nonzeros read are turned into Python
    ints.  A is V[r:, :], with one nonzero per row on every fixture, a
    tail of U^-1 or the transposed generator columns of U, each with a
    few, so this skips the dense product's work on zeros; being on
    Python ints it is exact and needs no overflow guard.
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
        if self.size == 0:
            return np.zeros(0)
        return self._class_map @ np.asarray([float(x) for x in values])

    def representative_cochains(self):
        return [Cochain(self.degree, REAL, w.copy())
                for w in self.representatives]


def cohomology_basis_real(complex_, k):
    """Basis of H^k over the reals, with integral representatives."""
    _check_degree(complex_, k)
    free, _, cmap = _cohomology(complex_, k)
    reps = [np.asarray([float(x) for x in w]) for w in free]
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
    norm = float(np.max(np.abs(np.asarray(
        [float(v) for v in values])))) if len(values) else 0.0
    return max(EXACT_ABS_TOL, EXACT_REL_TOL * norm)


def require_closed(complex_, cochain):
    if cochain.degree == complex_.dim and \
            len(cochain.values) != complex_.n_simplices(cochain.degree):
        raise Error("BASE_MISMATCH", "cochain length does not match complex")
    if cochain.degree >= complex_.dim:
        return  # top degree: closed by convention
    dv = apply_d(complex_, cochain).as_float()
    limit = _closedness_tol(cochain.values)
    if dv.size and not float(np.max(np.abs(dv))) <= limit:  # NaN fails
        raise Error("NOT_CLOSED",
                    f"coboundary norm {np.max(np.abs(dv)):.3e} exceeds {limit:.3e}")


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
    if k == 0:
        # no degree -1: only the zero cochain is exact
        if vals.size and float(np.max(np.abs(vals))) > limit:
            return PrimitiveResult(None, coords)
        return PrimitiveResult(Cochain(0, REAL, np.zeros(0)), coords)
    d = complex_.coboundary_dense(k - 1)
    beta, *_ = np.linalg.lstsq(d, vals, rcond=None)
    residual = d @ beta - vals
    if residual.size and float(np.max(np.abs(residual))) > limit:
        return PrimitiveResult(None, coords)
    return PrimitiveResult(Cochain(k - 1, REAL, beta), coords)
