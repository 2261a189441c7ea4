"""Cech-de Rham descent on the closed-star cover, by its closed form.

The cover is by the closed stars of the simplices.  The star of a
simplex lies in the star of each of its faces, so the nerve is the
complex itself, and a fully descended Cech cocycle with constant
coefficients is a simplicial cochain.  Each closed star is a cone on
its simplex's first vertex, so every descent level has an explicit
local primitive, the cone homotopy (the Poincare lemma, Bott-Tu §4).
With those primitives the descent of a closed cochain is the cochain
itself (Weil, Sur les theoremes de de Rham, 1952; Bott-Tu §8-9), which
connecting_delta states, proves and computes.  The level-by-level
descent is kept in the tests as the reference it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complex_core import Cochain, REAL
from .errors import Error, InconsistencyError
from .homology import (_closedness_tol, basis, find_primitive,
                       require_closed)


@dataclass(frozen=True)
class StarCover:
    """The good cover of a complex by the closed stars of its simplices.

    stars is the cover's index set, one closed star per simplex: the
    tuple of all simplices, by degree and then in canonical order.  It
    is also the nerve.
    """

    complex: object
    stars: tuple


@dataclass(frozen=True)
class CechClass:
    degree: int
    cocycle: Cochain                  # constants on the degree-k overlaps
    coordinates: np.ndarray


@dataclass(frozen=True)
class GlobalityReport:
    globalizable: bool
    cech_class: CechClass
    simplicial_coordinates: np.ndarray
    current: Cochain | None


def star_cover(complex_):
    """Closed-star cover of a complex, indexed by its simplices.

    The closed star of a simplex s is the join of s with its link, a
    cone, hence acyclic: the cover is good by construction.
    """
    return StarCover(complex_, tuple(
        s for k in range(complex_.dim + 1) for s in complex_.simplices[k]))


def connecting_delta(cover, omega):
    """Full descent of a closed k-cochain to a degree-k Cech class.

    The descended cocycle is omega itself.  The descent starts from
    mu_v = omega on the star of each vertex v.  Level p = 0..k-1 takes
    the cone primitive alpha_s = h mu_s on the star of each p-simplex s,
    with apex s[0]: (h mu)(rho) = (-1)^j mu(rho with s[0] inserted at
    position j) for rho without s[0], and 0 for rho on s[0].  Level p+1
    forms mu_s = sum_i (-1)^i alpha_(s minus its i-th vertex), and at
    level k each mu_tau is a closed 0-cochain on a connected star, a
    constant.

    Fix tau = (v_0..v_k) and put s_j = (v_j..v_k), rho_j = (v_0..v_j).
    In mu_(s_j)(rho_j), every face of s_j but s_(j+1) has apex v_j, which
    lies on rho_j, so its primitive vanishes there; s_(j+1) has apex
    v_(j+1), which rho_j lacks and which enters it at position j+1.  So
    mu_(s_j)(rho_j) = (-1)^(j+1) mu_(s_(j+1))(rho_(j+1)), and the constant
    on tau, read at v_0, is (-1)^(1+2+..+k) omega(tau).

    Nerve sign: the descent solves d(nu_p) = delta(nu_(p-1)) with no
    signs.  In the tic-tac-toe double complex with D = delta + (-1)^p d
    (Bott-Tu §9), omega and (-1)^(k(k+1)/2) times the level-k constants
    represent the same class.  That sign cancels the one above, so the
    Cech cocycle is omega on every k-simplex, exactly, and its class
    coordinates are those of omega.
    """
    complex_ = cover.complex
    require_closed(complex_, omega)
    k = omega.degree
    if not 1 <= k <= complex_.dim:
        raise Error("DEGREE_OUT_OF_RANGE", f"degree {k}, dim {complex_.dim}")
    cocycle = Cochain(k, REAL, omega.as_float())
    return CechClass(k, cocycle,
                     basis(complex_, k).coordinates(cocycle.values))


def current_globality(cover, omega):
    """Globality verdict for a closed (n-1)-current, both routes compared.

    Route one: the class coordinates P_k omega of the descent above.
    Route two: a least-squares global primitive (find_primitive), which
    exists exactly when the class vanishes.  Both test against the same
    limit, so route two can differ only by its residual: the verdicts
    must agree, and disagreement is an internal failure.
    """
    complex_ = cover.complex
    if omega.degree != complex_.dim - 1:
        raise Error("DEGREE_OUT_OF_RANGE",
                    f"current must have degree {complex_.dim - 1}")
    cech = connecting_delta(cover, omega)
    limit = _closedness_tol(omega.values)
    prim = find_primitive(complex_, omega, limit)
    cech_zero = (cech.coordinates.size == 0
                 or float(np.max(np.abs(cech.coordinates))) <= limit)
    if cech_zero != prim.exact:
        raise InconsistencyError(
            "VERDICT_INCONSISTENT",
            f"Cech verdict {cech_zero} vs simplicial verdict {prim.exact}")
    return GlobalityReport(prim.exact, cech, prim.class_coordinates,
                           prim.primitive)
