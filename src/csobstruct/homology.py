"""Integer and real cohomology: groups, bases, primitives.

The integral side runs on exact Smith normal forms, one per coboundary
and one per image lattice, each made once per complex and kept in its
memo; integer groups are read off the integral generators.  The real
side reports class coordinates in a basis of integral generators, with
the projector built from the combinatorial harmonic space (kernel of d_k
stacked with the transpose of d_{k-1}).  Coordinates of an integral
cocycle are then integers, which keeps pairing matrices and Chern
classes exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

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
    """Cohomology group H^k.

    Over the reals the Betti number comes from float ranks of d_k and
    d_{k-1}; over the integers the group is read off integral_generators.
    """
    _check_degree(complex_, k)
    n_k = complex_.n_simplices(k)
    if coefficients == REAL:
        rank_k = _real_rank(complex_, k)
        rank_km1 = _real_rank(complex_, k - 1)
        return GroupDescriptor(n_k - rank_k - rank_km1, [])
    free, torsion = integral_generators(complex_, k)
    return GroupDescriptor(len(free), [order for order, _ in torsion])


def _real_rank(complex_, k):
    if not 0 <= k < complex_.dim:
        return 0
    d = complex_.coboundary_dense(k)
    if d.size == 0:
        return 0
    return int(np.linalg.matrix_rank(d))


# -- integral generators ----------------------------------------------


def integral_generators(complex_, k):
    """Generators of H^k(Z): (free basis cocycles, [(order, cocycle), ...]).

    Free generators are integer cocycles spanning the free part; torsion
    generators have the stated order.  All returned arrays are object-int.
    """
    _check_degree(complex_, k)
    if k < complex_.dim:
        return _reduce(complex_, k)[0]
    if k == 0:  # 0-dimensional complex: every 0-cochain is a cocycle
        eye = np.eye(complex_.n_simplices(0), dtype=int).astype(object)
        return list(eye.T), []
    return _reduce(complex_, k - 1)[1]


def _reduce(complex_, k):
    """Generators of H^k, and of H^{k+1} at k = dim-1, from one SNF of d_k.

    With d_k = U S V of rank r, the columns of v_inv[:, r:] are a basis of
    the lattice ker d_k and V[r:, :] maps a kernel vector to its
    coordinates in that basis.  The columns of d_{k-1} lie in ker d_k, so
    a second SNF, of V[r:, :] @ d_{k-1}, splits H^k.  At k = dim-1,
    ker d_{k+1} is all of C^{k+1}, so the SNF of d_k itself splits
    H^{k+1}.  Memoized per complex and degree.

    Both SNFs are the sparse replay of snf.py: S in sparse rows, pivots
    taken by the dense rule (first minimal |entry|, row-major), each
    touching only its row's and column's nonzeros, and dense transforms
    on int64 under an overflow guard, rerun on Python ints if an entry
    outgrows it, so both are exact.  The product is summed over the
    nonzeros of V[r:, :] in Python ints (_sparse_product).
    """
    def build():
        res = smith_normal_form(complex_.coboundary_matrix(k).toarray())
        r = res.rank
        kernel = res.v_inv[:, r:]
        if k == 0 or kernel.shape[1] == 0:
            here = [kernel[:, i] for i in range(kernel.shape[1])], []
        else:
            coords = _sparse_product(
                res.V[r:, :], complex_.coboundary_matrix(k - 1).toarray())
            here = _quotient_generators(smith_normal_form(coords), kernel)
        above = _quotient_generators(res) if k == complex_.dim - 1 else None
        return here, above
    return complex_._memo(("generators", k), build)


def _sparse_product(A, B):
    """A @ B in Python ints, summed over the nonzeros of A only.

    A is V[r:, :], which has one nonzero per row on every fixture, so
    this skips the dense product's work on zeros; being on Python ints
    it is exact and needs no overflow guard.
    """
    B = B.astype(object)
    out = np.zeros((A.shape[0], B.shape[1]), dtype=object)
    for i, j in zip(*np.nonzero(A)):
        out[i] += A[i, j] * B[j]
    return out


def _quotient_generators(res, lattice=None):
    """(free, torsion) generators of lattice / image.

    res is the SNF of the image written in lattice coordinates; lattice
    holds the basis vectors as columns (None: the standard basis).
    """
    def vector(i):
        u = res.U[:, i]
        return u.copy() if lattice is None else lattice @ u

    diag = res.diag
    r = res.rank
    free = [vector(i) for i in range(r, res.S.shape[0])]
    torsion = [(diag[i], vector(i)) for i in range(r) if diag[i] > 1]
    return free, torsion


# -- real cohomology basis --------------------------------------------


@dataclass(frozen=True)
class CohomologyBasis:
    """H^k basis of integral representatives plus a class projector.

    coordinates() maps any closed k-cochain to its coefficients in this
    basis; exact cochains map to zero, representative i maps to e_i.
    """

    degree: int
    representatives: list          # float arrays with integer entries
    _harmonic: np.ndarray = field(repr=False)
    _gram: np.ndarray = field(repr=False)

    @property
    def size(self):
        return len(self.representatives)

    def coordinates(self, values):
        if self.size == 0:
            return np.zeros(0)
        v = np.asarray([float(x) for x in values])
        return np.linalg.solve(self._gram, self._harmonic.T @ v)

    def representative_cochains(self):
        return [Cochain(self.degree, REAL, w.copy())
                for w in self.representatives]


def cohomology_basis_real(complex_, k):
    """Basis of H^k over the reals, with integral representatives."""
    _check_degree(complex_, k)
    n_k = complex_.n_simplices(k)
    blocks = []
    if k < complex_.dim:
        blocks.append(complex_.coboundary_dense(k))
    if k > 0:
        blocks.append(complex_.coboundary_dense(k - 1).T)
    if blocks:
        stacked = np.vstack(blocks)
        harmonic = scipy.linalg.null_space(stacked)
    else:
        harmonic = np.eye(n_k)
    b = harmonic.shape[1]

    free, _ = integral_generators(complex_, k)
    if len(free) != b:
        raise Error("VERDICT_INCONSISTENT",
                    f"integral rank {len(free)} != real betti {b} at k={k}")
    reps = [np.asarray([float(x) for x in w]) for w in free]
    if b:
        gram = harmonic.T @ np.column_stack(reps)
    else:
        gram = np.zeros((0, 0))
    return CohomologyBasis(k, reps, harmonic, gram)


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
