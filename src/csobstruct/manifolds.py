"""Generators for the standard closed oriented test manifolds.

S3 and SPHERE2 are simplex boundaries, CIRCLE(n) an n-gon, T3(n) (T3 is
T3(3)) and S1xS2 come from the staircase (shuffle) triangulation of
products of those, and
RP3 is the antipodal quotient of the barycentrically subdivided boundary
of the 4-dimensional cross-polytope.
"""

from __future__ import annotations

import itertools
import re

from .complex_core import SimplicialComplex, fundamental_cycle
from .errors import Error


def simplex_boundary(n):
    """Boundary of the n-simplex: all n-subsets of n+1 vertices."""
    verts = range(n + 1)
    return SimplicialComplex(list(itertools.combinations(verts, n)))


def circle(n):
    if n < 3:
        raise Error("BAD_PARAMETER", f"CIRCLE needs n >= 3, got {n}")
    edges = [tuple(sorted((i, (i + 1) % n))) for i in range(n)]
    return _oriented(SimplicialComplex(edges))


def _oriented(complex_):
    """Attach the propagated fundamental-cycle signs as the orientation."""
    z = fundamental_cycle(complex_)
    return SimplicialComplex(complex_.simplices[complex_.dim],
                             top_orientation=[int(e) for e in z.values])


def ordered_product(k_complex, l_complex):
    """Staircase triangulation of the product of two complexes.

    Product vertices are pairs (u, v) with label u*|V_L| + v; the
    simplices over a cell sigma x tau are the monotone staircase paths in
    the (p+1) x (q+1) vertex grid.  Vertex tuples stay strictly increasing
    because the pair order is lexicographic.
    """
    nl = l_complex.n_vertices

    def label(u, v):
        return u * nl + v

    tops = set()
    kd, ld = k_complex.dim, l_complex.dim
    for sigma in k_complex.simplices[kd]:
        for tau in l_complex.simplices[ld]:
            p, q = len(sigma) - 1, len(tau) - 1
            for k_positions in itertools.combinations(range(p + q), p):
                moves = [1] * (p + q)
                for pos in k_positions:
                    moves[pos] = 0
                i = j = 0
                path = [label(sigma[0], tau[0])]
                for m in moves:
                    if m == 0:
                        i += 1
                    else:
                        j += 1
                    path.append(label(sigma[i], tau[j]))
                tops.add(tuple(path))
    prod = SimplicialComplex(sorted(tops))
    # orient when possible; products with boundary stay unoriented
    try:
        return _oriented(prod)
    except Error:
        return prod


def _cross_polytope_boundary():
    """Boundary of the 4-cross-polytope: vertices i and i+4 are antipodal."""
    tops = []
    for choice in itertools.product(*[(i, i + 4) for i in range(4)]):
        tops.append(tuple(sorted(choice)))
    return SimplicialComplex(tops)


def rp3():
    """RP^3 as the antipodal quotient of the subdivided cross-polytope.

    The barycentric subdivision has one vertex per face and one simplex
    per flag: for each ordering of a facet's vertices, the faces spanned
    by its first 1, 2, 3 and 4.  The antipodal map permutes faces freely,
    and no subdivision simplex meets its own image, so labelling each
    face and its antipode by their orbit yields a simplicial quotient
    with 192 facets, which _oriented checks to be closed and orientable.
    """
    sphere = _cross_polytope_boundary()

    def antipode(face):
        return tuple(sorted((v + 4) % 8 for v in face))

    # orbit labels, in the order of each orbit's smaller face
    reps = sorted(f for k in range(4) for f in sphere.simplices[k]
                  if f <= antipode(f))
    orbit = {f: i for i, r in enumerate(reps) for f in (r, antipode(r))}
    tops = {tuple(sorted(orbit[tuple(sorted(flag[:j]))] for j in range(1, 5)))
            for tet in sphere.simplices[3]
            for flag in itertools.permutations(tet)}
    return _oriented(SimplicialComplex(sorted(tops)))


_CIRCLE_RE = re.compile(r"^circle\((\d+)\)$")
_T3_RE = re.compile(r"^t3\((\d+)\)$")


def _torus3(n):
    """The 3-torus C_n x C_n x C_n: n**3 vertices, 6 n**3 tetrahedra."""
    return ordered_product(ordered_product(circle(n), circle(n)), circle(n))


def generate(name):
    """Build a named fixture complex; see ManifoldName in the interface."""
    key = name.strip().lower()
    if key == "sphere2":
        return _oriented(simplex_boundary(3))
    if key == "s3":
        return _oriented(simplex_boundary(4))
    if key == "t3":
        return _torus3(3)
    if key == "s1xs2":
        return ordered_product(circle(3), _oriented(simplex_boundary(3)))
    if key == "rp3":
        return rp3()
    m = _CIRCLE_RE.match(key)
    if m:
        return circle(int(m.group(1)))
    m = _T3_RE.match(key)
    if m:
        return _torus3(int(m.group(1)))
    raise Error("UNKNOWN_NAME", f"unknown manifold name {name!r}")
