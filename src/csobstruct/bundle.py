"""Discrete U(1) bundles, connections, curvature, flatness, CS action.

The bundle is an integer 2-cocycle c (the Chern cocycle); connections are
real 1-cochains on the same base, and curvature follows the affine model
F = dA + 2*pi*c, so the flatness equation dA = -2*pi*c is linear and the
equivalence "flat connection exists iff the real Chern class vanishes" is
exact linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complex_core import Cochain, INT, REAL, _check_length, apply_d
from .cup import _cup_faces, _fundamental_signs, cup, pair_with_fundamental
from .errors import Error
from .homology import _least_squares, basis, require_closed

FLAT_RTOL = 1e-9


@dataclass(frozen=True)
class U1Bundle:
    """Principal U(1) bundle: base complex plus integer Chern 2-cocycle.

    The bundle fixes the float forms of its cocycle once, at construction:
    two_pi_c = 2*pi*c, and real_class, the coordinates of 2*pi*[c] in the
    real H^2 basis.  Every reader (curvature, flatten, real_chern_class)
    uses them as they are.
    """

    base: object
    chern_cocycle: Cochain
    two_pi_c: np.ndarray = field(init=False, repr=False)
    real_class: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cf = self.chern_cocycle.as_float()
        with np.errstate(over="ignore"):
            object.__setattr__(self, "two_pi_c", 2.0 * np.pi * cf)
            object.__setattr__(self, "real_class", 2.0 * np.pi * basis(
                self.base, 2).coordinates(cf))


@dataclass(frozen=True)
class Connection:
    """Real 1-cochain section of the discrete bundle of connections."""

    values: np.ndarray

    def __post_init__(self):
        # float64 once, as a REAL Cochain holds it; a float64 array is kept
        object.__setattr__(self, "values", np.asarray(self.values, float))

    def as_cochain(self):
        return Cochain(1, REAL, self.values)


@dataclass(frozen=True)
class FlatResult:
    connection: Connection
    residual: float
    flat: bool
    obstruction_coords: np.ndarray
    tolerance: float


def make_bundle(complex_, c):
    """Validate the Chern cocycle: degree 2, integer, exactly closed, and
    with 2*pi*c and its real class within the float range."""
    if c.degree != 2 or c.ring != INT:
        raise Error("NOT_A_COCYCLE", "Chern cocycle must be an integer 2-cochain")
    _check_length(complex_, c)
    require_closed(complex_, c, "NOT_A_COCYCLE")
    b = U1Bundle(complex_, c)
    if not np.isfinite(np.concatenate((b.two_pi_c, b.real_class))).all():
        raise Error("PARSE_ERROR", "Chern cocycle exceeds the float range")
    return b


def curvature(bundle, a):
    """F = dA + 2*pi*c; Bianchi dF = 0 holds automatically."""
    da = apply_d(bundle.base, a.as_cochain()).values
    return Cochain(2, REAL, da + bundle.two_pi_c)


def real_chern_class(bundle):
    """Coordinates of [F] = 2*pi*[c] in the real H^2 basis (any A)."""
    return bundle.real_class.copy()


def flatten(bundle):
    """Least-squares flat connection dA = -2*pi*c with verdict.

    The residual vanishes (to solver accuracy) exactly when the real
    Chern class does; both are reported so the equivalence can be
    cross-checked.
    """
    a_star, f = _least_squares(bundle.base, 2, -bundle.two_pi_c)
    residual = float(np.max(np.abs(f))) if f.size else 0.0
    scale = float(np.max(np.abs(bundle.two_pi_c), initial=0.0))
    tol = FLAT_RTOL * (1.0 + scale)
    return FlatResult(Connection(a_star), residual, residual <= tol,
                      real_chern_class(bundle), tol)


def gauge_transform(bundle, a, f, m):
    """A' = A + df + 2*pi*m for a real 0-cochain f, integer 1-cocycle m."""
    base = bundle.base
    _check_length(base, a.as_cochain())
    if f.degree != 0:
        raise Error("DEGREE_OUT_OF_RANGE", "f must be a 0-cochain")
    if m.degree != 1 or m.ring != INT:
        raise Error("M_NOT_COCYCLE", "m must be an integer 1-cochain")
    require_closed(base, m, "M_NOT_COCYCLE")
    df = apply_d(base, f).as_float()
    return Connection(a.values + df + 2.0 * np.pi * m.as_float())


# -- Chern-Simons functional (trivialized bundle) ----------------------


def cs_action(complex_, a):
    """<A u dA, [X]> on a closed oriented 3-manifold."""
    if complex_.dim != 3:
        raise Error("DEGREE_OUT_OF_RANGE", "CS action needs a 3-complex")
    da = apply_d(complex_, a.as_cochain())
    return pair_with_fundamental(complex_, cup(complex_, a.as_cochain(), da))


def cs_gradient(complex_, a):
    """Exact gradient of cs_action in the connection entries.

    cs_action(A) = sum_tau eps_tau A[front_tau] (dA)[back_tau] over the
    top simplices tau (front: first edge, back: last triangle), so the
    gradient is the front sum of eps (dA)[back] plus d_1^T of the back
    sum of eps A[front]: two gathers through the cup product's faces.
    """
    if complex_.dim != 3:
        raise Error("DEGREE_OUT_OF_RANGE", "CS gradient needs a 3-complex")
    da = apply_d(complex_, a.as_cochain()).values
    front, back = _cup_faces(complex_, 1, 2)
    eps = _fundamental_signs(complex_)
    y = np.bincount(back, eps * a.values[front], complex_.n_simplices(2))
    d1 = complex_._d_triplets(1)
    grad = np.bincount(front, eps * da[back], complex_.n_simplices(1)) + \
        np.bincount(d1.cols, d1.vals * y[d1.rows], complex_.n_simplices(1))
    return Cochain(1, REAL, grad)
