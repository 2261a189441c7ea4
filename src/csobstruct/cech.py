"""Cech-de Rham descent on the closed-vertex-star cover.

The cover's overlaps are the closed stars of simplices (the star of a
simplex is contained in the star of each of its faces), so the nerve is
the complex itself and a fully descended Cech cocycle with constant
coefficients is literally a simplicial cochain.  Each descent level
takes local primitives by the cone homotopy: the closed star of a simplex
is a cone on any vertex of it, so a closed local cochain has an explicit
primitive (the Poincare lemma, Bott-Tu §4) and no system is solved.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .complex_core import Cochain, REAL, star_of_simplex
from .errors import Error, InconsistencyError
from .homology import basis, find_primitive, require_closed

CECH_TOL = 1e-8


@dataclass(frozen=True)
class _Star:
    """Closed star of one simplex, a cone on the simplex's first vertex."""

    simplex: tuple
    sub: object                       # Subcomplex

    def solve(self, values, k):
        """Cone primitive h of a closed local k-cochain w, k >= 1.

        With apex v = simplex[0], h(tau) = (-1)^j w(tau with v inserted at
        position j) for tau not on v, and 0 for tau on v.  Every tau + v is
        in the star, and d(h) = w - h(dw): exact when w is closed.
        """
        v, index = self.simplex[0], self.sub.parent._index[k]
        taus = self.sub.simplices.get(k - 1, [])
        rows = [r for r, tau in enumerate(taus) if v not in tau]
        at = np.array([bisect.bisect(taus[r], v) for r in rows], dtype=int)
        cofaces = [index[taus[r][:j] + (v,) + taus[r][j:]]
                   for r, j in zip(rows, at.tolist())]
        out = np.zeros(len(taus))
        out[rows] = (-1.0) ** at * values[
            np.searchsorted(self.sub.indices.get(k, []), cofaces)]
        return out


@dataclass(frozen=True)
class StarCover:
    """Vertex-star good cover with the full overlap lattice."""

    complex: object
    stars: dict                       # simplex tuple -> _Star

    def star(self, simplex):
        return self.stars[tuple(simplex)]


@dataclass(frozen=True)
class LocalFamily:
    """Per-vertex local primitives nu_i on the closed stars."""

    degree: int
    members: dict                     # vertex -> local value array


@dataclass(frozen=True)
class CechClass:
    degree: int
    cocycle: Cochain                  # constants on the degree-q overlaps
    coordinates: np.ndarray


@dataclass(frozen=True)
class GlobalityReport:
    globalizable: bool
    cech_class: CechClass
    simplicial_coordinates: np.ndarray
    current: Cochain | None


def star_cover(complex_):
    """Closed stars of every simplex.

    The closed star of a simplex s is the join of s with its link, a
    cone, hence acyclic: the cover is good by construction.
    """
    stars = {}
    for k in range(complex_.dim + 1):
        for s in complex_.simplices[k]:
            stars[s] = _Star(s, star_of_simplex(complex_, s))
    return StarCover(complex_, stars)


def local_primitives(cover, omega):
    """Per-vertex nu_i with d(nu_i) = omega restricted to star(i)."""
    complex_ = cover.complex
    require_closed(complex_, omega)
    k = omega.degree
    if not 1 <= k <= complex_.dim:
        raise Error("DEGREE_OUT_OF_RANGE", f"degree {k}, dim {complex_.dim}")
    vals = omega.as_float()
    members = {}
    for (v,) in complex_.simplices[0]:
        star = cover.star((v,))
        members[v] = star.solve(star.sub.restrict(vals, k), k)
    return LocalFamily(k - 1, members)


def _cech_difference(cover, level_families, q, coeff_degree):
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
            acc += ((-1) ** i) * level_families[face][
                np.searchsorted(outer, local)]
        out[tau] = acc
    return out


def connecting_delta(cover, omega):
    """Full descent of a closed k-cochain to a degree-k Cech class."""
    complex_ = cover.complex
    k = omega.degree
    fam = local_primitives(cover, omega)
    members = {(v,): nu for v, nu in fam.members.items()}
    for q in range(1, k + 1):
        # level q holds degree k-q local cochains on the q-overlaps
        diffs = _cech_difference(cover, members, q, k - q)
        if q == k:
            break
        members = {tau: cover.star(tau).solve(mu, k - q)
                   for tau, mu in diffs.items()}

    # level k: closed 0-cochains on connected stars are constants
    values = np.zeros(complex_.n_simplices(k))
    for tau, mu in diffs.items():
        const = float(np.mean(mu))
        spread = float(np.max(np.abs(mu - const)))
        if spread > CECH_TOL * (1.0 + abs(const)):
            raise InconsistencyError(
                "VERDICT_INCONSISTENT",
                f"descent output not constant on star of {tau}")
        values[complex_.index(tau)] = const
    # Nerve sign.  The descent solves d(nu_p) = delta(nu_{p-1}) with no
    # signs: d(nu_0) = omega, c = delta(nu_{k-1}).  In the tic-tac-toe
    # double complex with D = delta + (-1)^p d (Bott-Tu, §9), alpha_p =
    # e_p nu_p with e_0 = 1, e_p = (-1)^(p+1) e_{p-1} cancels every inner
    # term of D(sum alpha_p), leaving omega + e_{k-1} c.  So omega and
    # -e_{k-1} c = (-1)^(k(k+1)/2) c represent the same class.
    cocycle = Cochain(k, REAL, (-1) ** (k * (k + 1) // 2) * values)
    coords = basis(complex_, k).coordinates(cocycle.values)
    return CechClass(k, cocycle, coords)


def current_globality(cover, omega):
    """Globality verdict for a closed (n-1)-current, both routes compared.

    Route one: the descent class above.  Route two: the simplicial class
    coordinates plus an explicit global primitive when they vanish.  The
    verdicts must agree; disagreement is an internal failure.
    """
    complex_ = cover.complex
    if omega.degree != complex_.dim - 1:
        raise Error("DEGREE_OUT_OF_RANGE",
                    f"current must have degree {complex_.dim - 1}")
    cech = connecting_delta(cover, omega)
    prim = find_primitive(complex_, omega)
    cech_zero = (cech.coordinates.size == 0
                 or float(np.max(np.abs(cech.coordinates))) <= CECH_TOL)
    if cech_zero != prim.exact:
        raise InconsistencyError(
            "VERDICT_INCONSISTENT",
            f"Cech verdict {cech_zero} vs simplicial verdict {prim.exact}")
    return GlobalityReport(prim.exact, cech, prim.class_coordinates,
                           prim.primitive)
