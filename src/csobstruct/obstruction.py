"""Obstruction classes for global critical sections and conserved currents.

The obstruction attached to a closed 1-form gamma and a bundle curvature
F is 2*<gamma u F, [X]>; it depends only on the classes of gamma and F.
Flatness of the bundle is equivalent (on closed oriented 3-manifolds) to
all such pairings vanishing, and the sharpness check verifies the
biconditional and produces a dual witness in the non-flat case.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .bundle import curvature, flatten
from .complex_core import Cochain, REAL
from .cup import cup, pair_with_fundamental
from .errors import Error, InconsistencyError
from .homology import basis, check_tol, require_closed

PAIRING_TOL = 1e-6


@dataclass(frozen=True)
class VerticalSymmetry:
    """Closed real 1-cochain standing in for a vertical symmetry field."""

    gamma: Cochain


def symmetry_from_oneform(complex_, gamma):
    """Wrap a closed 1-cochain as a symmetry; non-closed input is rejected."""
    if gamma.degree != 1:
        raise Error("DEGREE_OUT_OF_RANGE", "symmetry needs a 1-cochain")
    require_closed(complex_, gamma)
    return VerticalSymmetry(Cochain(1, REAL, gamma.as_float()))


def _gamma_cup_f(complex_, gamma, bundle, a):
    """gamma u F(A), the cochain both obstruction readings start from."""
    if bundle.base is not complex_:
        raise Error("BASE_MISMATCH", "bundle lives on a different complex")
    return cup(complex_, gamma, curvature(bundle, a))


def obstruction_pairing(complex_, symmetry, bundle, a):
    """2 * <gamma u F(A), [X]>; class-level, independent of A and of
    the representative of gamma."""
    return 2.0 * pair_with_fundamental(
        complex_, _gamma_cup_f(complex_, symmetry.gamma, bundle, a))


def obstruction_class(complex_, symmetry, bundle, a):
    """Coordinates of 2*(gamma u F) in the H^3 basis."""
    w = _gamma_cup_f(complex_, symmetry.gamma, bundle, a)
    return 2.0 * basis(complex_, complex_.dim).coordinates(w.values)


def h1_pairings(complex_, bundle, a):
    """The H^1 basis representatives and the obstruction pairing of each
    with the bundle at the connection a."""
    gammas = basis(complex_, 1).representative_cochains()
    return gammas, np.array([obstruction_pairing(
        complex_, VerticalSymmetry(g), bundle, a) for g in gammas], float)


@dataclass(frozen=True)
class SharpnessVerdict:
    bundle_id: str
    flat_exists: bool
    witness: tuple | None          # (gamma cochain, pairing value)
    all_pairings: np.ndarray
    residual: float


def sharpness_check(complex_, bundle, tol=PAIRING_TOL):
    """Theorem-2 verdict: flat connection exists iff every H^1-basis
    pairing vanishes; otherwise a witness symmetry is returned."""
    tol = check_tol(tol, PAIRING_TOL)
    if bundle.base is not complex_:
        raise Error("BASE_MISMATCH", "bundle lives on a different complex")
    flat = flatten(bundle)
    gammas, pairings = h1_pairings(complex_, bundle, flat.connection)
    max_pairing = float(np.max(np.abs(pairings))) if pairings.size else 0.0
    witness = None
    if max_pairing > tol:
        i = int(np.argmax(np.abs(pairings)))
        witness = (gammas[i], float(pairings[i]))
    if flat.flat == (witness is not None):
        raise InconsistencyError(
            "VERDICT_INCONSISTENT",
            f"flat={flat.flat} but max |pairing|={max_pairing:.3e}")
    digest = hashlib.sha256(
        ",".join(str(int(v)) for v in bundle.chern_cocycle.values)
        .encode()).hexdigest()[:12]
    return SharpnessVerdict(digest, flat.flat, witness, pairings,
                            flat.residual)
