import dataclasses
import itertools

import numpy as np
import pytest

import csobstruct as cs
import oracles
from csobstruct import homology
from csobstruct.complex_core import Cochain
from csobstruct.errors import Error
from csobstruct.manifolds import simplex_boundary
from conftest import (random_closed_cochain, random_int_cocycle,
                      random_real_cochain)
from oracles import exact_rank, local_coboundary

NON_PURE = [[(0, 1, 2), (2, 3)],
            [(0, 1, 2, 3), (3, 4), (4, 5, 6)],
            [(0, 1, 2), (1, 2, 3), (0, 3), (3, 4, 5)]]


class TestStarCover:
    def test_overlap_lattice_matches_complex(self, covers):
        for name, cover in covers.items():
            K = cover.complex
            total = sum(K.n_simplices(k) for k in range(K.dim + 1))
            assert len(cover.stars) == total, name
            for k in range(K.dim + 1):
                for s in K.simplices[k]:
                    assert tuple(s) in cover.stars

    def test_vertex_star_counts(self, s3, t3):
        # boundary of the 4-simplex: star of a vertex holds all 4 tets
        # through it; in general each tet shows up in exactly 4 stars
        c3 = oracles.star_cover(s3)
        assert all(c3.star((v,)).sub.n_simplices(3) == 4
                   for (v,) in s3.simplices[0])
        ct = oracles.star_cover(t3)
        total = sum(ct.star((v,)).sub.n_simplices(3)
                    for (v,) in t3.simplices[0])
        assert total == 4 * t3.n_simplices(3)

    def test_goodness_check_passes_on_fixtures(self, fixtures3d):
        """Every star is acyclic: all reduced Betti numbers vanish."""
        for name, K in fixtures3d.items():
            for s, star in oracles.star_cover(K).stars.items():
                sub = star.sub
                ranks = [exact_rank(local_coboundary(sub, k))
                         for k in range(sub.dim())]
                for k in range(sub.dim() + 1):
                    up = ranks[k] if k < sub.dim() else 0
                    down = ranks[k - 1] if k > 0 else 1  # reduced H^0
                    assert sub.n_simplices(k) - up - down == 0, (name, s, k)

    def test_stars_match_brute_force(self, fixtures3d, sphere2):
        """Each star is the closure of every simplex containing s."""
        for name, K in {**fixtures3d, "sphere2": sphere2}.items():
            everything = [t for k in range(K.dim + 1)
                          for t in K.simplices[k]]
            for s, star in oracles.star_cover(K).stars.items():
                closure = {f for t in everything if set(s) <= set(t)
                           for r in range(1, len(t) + 1)
                           for f in itertools.combinations(t, r)}
                expect = {}
                for f in sorted(closure):
                    expect.setdefault(len(f) - 1, []).append(f)
                sub = star.sub
                assert sub.simplices == expect, (name, s)
                for k, local in expect.items():
                    assert sub.indices[k].tolist() == [K.index(f)
                                                       for f in local]
                    assert all(f is K.simplices[k][i]
                               for f, i in zip(sub.simplices[k],
                                               sub.indices[k]))

    def test_top_star_is_single_simplex(self, s3):
        cover = oracles.star_cover(s3)
        top = s3.simplices[3][0]
        assert cover.star(top).sub.n_simplices(3) == 1


class TestLocalPrimitives:
    def test_degree_zero_rejected(self, covers, s3):
        with pytest.raises(Error) as e:
            cs.connecting_delta(covers["s3"], Cochain.zeros(s3, 0))
        assert e.value.code == "DEGREE_OUT_OF_RANGE"

    def test_non_closed_rejected(self, covers, t3):
        rng = np.random.default_rng(0)
        while True:
            w = random_real_cochain(rng, t3, 1)
            if np.abs(cs.apply_d(t3, w).values).max() > 1e-3:
                break
        with pytest.raises(Error) as e:
            cs.connecting_delta(covers["t3"], w)
        assert e.value.code == "NOT_CLOSED"

    def test_primitive_property_on_every_star(self, s1xs2):
        rng = np.random.default_rng(1)
        cover = oracles.star_cover(s1xs2)
        w = random_closed_cochain(rng, s1xs2, 2)
        fam = oracles.local_primitives(cover, w)
        assert fam.degree == 1
        vals = w.as_float()
        for v, nu in fam.members.items():
            star = cover.star((v,))
            local = star.sub.restrict(vals, 2)
            resid = local_coboundary(star.sub, 1) @ nu - local
            assert np.abs(resid).max() < 1e-8

    def test_cone_primitive_is_exact(self, fixtures3d):
        """d(h w) = w with no rounding on every (star, k-simplex) pair,
        and integer cocycles descend to integer Cech cocycles."""
        rng = np.random.default_rng(9)
        pairs = 0
        for name, K in fixtures3d.items():
            cover = oracles.star_cover(K)
            for k in (1, 2, 3):
                w = random_int_cocycle(rng, K, k)
                vals = w.as_float()
                for s, star in cover.stars.items():
                    if not star.sub.n_simplices(k):
                        continue
                    local = star.sub.restrict(vals, k)
                    h = star.solve(local, k)
                    d = local_coboundary(star.sub, k - 1)
                    assert np.array_equal(d @ h, local), (name, k, s)
                    pairs += local.size
                out = oracles.cech_descent(cover, w)
                assert np.array_equal(out, np.round(out)), (name, k)
        assert pairs == 44492


class TestConnectingDelta:
    def test_matches_simplicial_class_degree_one(self, covers):
        rng = np.random.default_rng(2)
        for name, cover in covers.items():
            K = cover.complex
            b = cs.basis(K, 1)
            for _ in range(10):
                w = random_closed_cochain(rng, K, 1)
                out = cs.connecting_delta(cover, w)
                expect = b.coordinates(w.values)
                scale = 1.0 + (np.abs(expect).max() if expect.size else 0.0)
                if expect.size:
                    assert np.abs(out.coordinates - expect).max() \
                        < 1e-8 * scale, name
                # the descended cocycle itself represents the same class
                diff = b.coordinates(out.cocycle.values) - expect
                if diff.size:
                    assert np.abs(diff).max() < 1e-8 * scale, name

    def test_matches_simplicial_class_degree_two(self, covers):
        rng = np.random.default_rng(3)
        for name, cover in covers.items():
            K = cover.complex
            b = cs.basis(K, 2)
            for _ in range(10):
                w = random_closed_cochain(rng, K, 2)
                out = cs.connecting_delta(cover, w)
                expect = b.coordinates(w.values)
                if expect.size:
                    scale = 1.0 + np.abs(expect).max()
                    assert np.abs(out.coordinates - expect).max() \
                        < 1e-8 * scale, name
                dv = cs.apply_d(K, out.cocycle).values
                assert np.abs(dv).max() < 1e-7 * (
                    1.0 + np.abs(out.cocycle.values).max()), name

    def test_exact_input_gives_zero_class(self, covers, t3):
        rng = np.random.default_rng(4)
        for k in (1, 2):
            w = cs.apply_d(t3, random_real_cochain(rng, t3, k - 1))
            out = cs.connecting_delta(covers["t3"], w)
            assert np.abs(out.coordinates).max() < 1e-8

    def test_generator_gives_unit_coordinate(self, covers, s1xs2):
        g = cs.basis(s1xs2, 2).representative_cochains()[0]
        out = cs.connecting_delta(covers["s1xs2"], g)
        assert np.abs(np.abs(out.coordinates) - 1.0).max() < 1e-8

    @pytest.mark.parametrize("name,k", [
        ("s1xs2", 1), ("s1xs2", 2), ("t3", 1), ("t3", 2), ("s3", 3),
        ("t3", 3), ("s1xs2", 3), ("rp3", 3), ("sphere2", 2),
        ("s4", 4), ("s5", 5)])
    def test_generators_keep_their_sign(self, name, k, request):
        """The descended class of each generator is that generator."""
        spheres = {"s4": 5, "s5": 6}   # boundary of the n-simplex
        K = simplex_boundary(spheres[name]) if name in spheres \
            else request.getfixturevalue(name)
        cover = cs.star_cover(K)
        b = cs.basis(K, k)
        assert b.size
        for g in b.representative_cochains():
            expect = b.coordinates(g.values)
            assert np.abs(expect).max() > 0.5
            out = cs.connecting_delta(cover, g)
            assert np.abs(out.coordinates - expect).max() < 1e-8, (name, k)
            assert np.abs(b.coordinates(out.cocycle.values)
                          - expect).max() < 1e-8, (name, k)

    def test_independent_of_local_primitive_choice(self, s3, s1xs2, t3,
                                                   monkeypatch):
        """Shift the local primitive at every level by d of a random local
        cochain (a constant in degree 0): the class may not move, and the
        descended cocycle moves by an exact cochain."""
        rng = np.random.default_rng(5)
        cases = []
        for K in (s3, s1xs2, t3):
            cover = oracles.star_cover(K)
            for k in (1, 2, 3):
                w = random_closed_cochain(rng, K, k)
                cases.append((K, cover, w, oracles.cech_descent(cover, w)))
        orig = oracles.Star.solve

        def perturbed(self, values, k):
            nu = orig(self, values, k)
            if k == 1:
                return nu + rng.standard_normal()
            x = rng.standard_normal(self.sub.n_simplices(k - 2))
            return nu + local_coboundary(self.sub, k - 2) @ x

        monkeypatch.setattr(oracles.Star, "solve", perturbed)
        shift = 0.0
        for K, cover, w, base in cases:
            out = oracles.cech_descent(cover, w)
            k = w.degree
            b = cs.basis(K, k)
            if b.size:
                assert np.abs(b.coordinates(out)
                              - b.coordinates(base)).max() < 1e-8, k
            moved = Cochain(k, "real", out - base)
            assert cs.find_primitive(K, moved).exact, k
            shift = max(shift, np.abs(moved.values).max())
        assert shift > 1.0   # the perturbation does move the cocycle

    @pytest.mark.parametrize("tops", NON_PURE)
    def test_non_pure_complex(self, tops):
        """Stars that lack the degrees of a solve give empty primitives."""
        K = cs.SimplicialComplex(tops)
        cover = cs.star_cover(K)
        rng = np.random.default_rng(10)
        for k in range(1, K.dim + 1):
            w = cs.apply_d(K, random_real_cochain(rng, K, k - 1))
            out = cs.connecting_delta(cover, w)
            assert np.abs(out.coordinates).max(initial=0.0) < 1e-8, k
        b = cs.basis(K, 1)
        for g in b.representative_cochains():
            out = cs.connecting_delta(cover, g)
            assert np.abs(out.coordinates
                          - b.coordinates(g.values)).max() < 1e-8

    def test_descent_solves_no_linear_system(self, t3, monkeypatch):
        """Local primitives come from the cone homotopy alone."""
        rng = np.random.default_rng(8)
        cover = cs.star_cover(t3)
        inputs = [random_closed_cochain(rng, t3, k) for k in (1, 2, 3)]
        calls = []
        oracle_cover = oracles.star_cover(t3)
        for fn in ("pinv", "lstsq", "eigh", "solve", "inv"):
            monkeypatch.setattr(np.linalg, fn,
                                lambda *a, _fn=fn, **kw: calls.append(_fn))
        for w in inputs:
            cs.connecting_delta(cover, w)
            oracles.cech_descent(oracle_cover, w)
        assert not calls


class TestClosedForm:
    @pytest.mark.parametrize("name", [
        "s3", "s1xs2", "t3", "rp3", "sphere2", "s4", "s5",
        "non_pure0", "non_pure1", "non_pure2"])
    def test_oracle_descent_is_omega(self, name, request):
        """The level-by-level descent of a closed k-cochain is the
        cochain itself in every degree 1..dim: bit for bit for integer
        cocycles, to rounding for real ones; connecting_delta returns it."""
        spheres = {"s4": 5, "s5": 6}   # boundary of the n-simplex
        if name in spheres:
            K = simplex_boundary(spheres[name])
        elif name.startswith("non_pure"):
            K = cs.SimplicialComplex(NON_PURE[int(name[-1])])
        else:
            K = request.getfixturevalue(name)
        cover, library = oracles.star_cover(K), cs.star_cover(K)
        rng = np.random.default_rng(11)
        for k in range(1, K.dim + 1):
            w = random_int_cocycle(rng, K, k)
            assert np.array_equal(oracles.cech_descent(cover, w),
                                  w.as_float()), (name, k)
            assert np.array_equal(
                cs.connecting_delta(library, w).cocycle.values,
                w.as_float()), (name, k)
            w = random_closed_cochain(rng, K, k)
            bound = 1e-15 * (1.0 + np.abs(w.values).max())
            assert np.abs(oracles.cech_descent(cover, w)
                          - w.values).max() <= bound, (name, k)
            assert np.array_equal(
                cs.connecting_delta(library, w).cocycle.values,
                w.values), (name, k)


class TestDuality:
    @pytest.mark.parametrize("name", ["s1xs2", "t3"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_duality_matches_class_coordinates(self, name, k, covers):
        """Coordinates read by Poincare duality equal connecting_delta's:
        exactly for integer cocycles, to 1e-9 for real closed cochains."""
        cover = covers[name]
        K = cover.complex
        rng = np.random.default_rng(12)
        for _ in range(3):
            w = random_int_cocycle(rng, K, k)
            x = oracles.duality_coordinates(K, w)
            assert all(type(v) is int for v in x)
            assert np.array_equal(cs.connecting_delta(cover, w).coordinates,
                                  x.astype(float)), (name, k)
            w = random_closed_cochain(rng, K, k)
            x = oracles.duality_coordinates(K, w)
            assert np.abs(cs.connecting_delta(cover, w).coordinates
                          - x).max() < 1e-9 * (1.0 + np.abs(x).max())

    @pytest.mark.parametrize("mutation", ["swap_rows", "add_coboundary_row"])
    def test_duality_flags_corrupted_class_map(self, mutation, t3):
        """On a fresh t3 whose H^1 class map has two rows swapped, or the
        coboundary of a vertex added to a row, the duality coordinates
        disagree with connecting_delta; on the intact map they agree."""
        free, _ = cs.integral_generators(t3, 1)
        vertex = Cochain(0, "int", np.array([1] + [0] * (t3.n_vertices - 1),
                                            dtype=object))
        exact = cs.apply_d(t3, vertex)
        combo = Cochain(1, "int", free[0] + 2 * free[1] + 3 * free[2]
                        + exact.values)
        inputs = (exact, combo)

        def disagree(K):
            cover = cs.star_cover(K)
            return [not np.array_equal(
                cs.connecting_delta(cover, w).coordinates,
                oracles.duality_coordinates(K, w).astype(float))
                for w in inputs]

        assert not any(disagree(t3))
        K = cs.generate("t3")
        honest = cs.cohomology_basis_real(K, 1)
        rows = honest._class_map.copy()
        if mutation == "swap_rows":
            rows[[0, 1]] = rows[[1, 0]]
        else:
            rows[0] += exact.as_float()
        K._memo(("basis", 1),
                lambda: dataclasses.replace(honest, _class_map=rows))
        assert any(disagree(K))


class TestCurrentGlobality:
    def test_wrong_degree_rejected(self, covers, s3):
        with pytest.raises(Error) as e:
            cs.current_globality(covers["s3"], Cochain.zeros(s3, 1))
        assert e.value.code == "DEGREE_OUT_OF_RANGE"

    def test_exact_current_globalizes(self, covers, s3):
        rng = np.random.default_rng(6)
        w = cs.apply_d(s3, random_real_cochain(rng, s3, 1))
        rep = cs.current_globality(covers["s3"], w)
        assert rep.globalizable
        recon = cs.apply_d(s3, rep.current).values
        assert np.abs(recon - w.values).max() < 1e-9

    def test_fiber_generator_not_globalizable(self, covers, s1xs2):
        g = cs.basis(s1xs2, 2).representative_cochains()[0]
        rep = cs.current_globality(covers["s1xs2"], g)
        assert not rep.globalizable
        assert rep.current is None
        assert np.abs(np.abs(rep.simplicial_coordinates) - 1.0).max() < 1e-9
        assert np.abs(np.abs(rep.cech_class.coordinates) - 1.0).max() < 1e-8

    def test_verdicts_agree_randomized(self, covers):
        rng = np.random.default_rng(7)
        for cover in covers.values():
            K = cover.complex
            for _ in range(10):
                w = random_closed_cochain(rng, K, 2)
                rep = cs.current_globality(cover, w)
                size = rep.cech_class.coordinates.size
                cech_zero = (size == 0 or
                             np.abs(rep.cech_class.coordinates).max()
                             <= homology._closedness_tol(w.values))
                assert rep.globalizable == cech_zero
