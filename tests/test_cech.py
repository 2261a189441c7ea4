import collections
import itertools

import numpy as np
import pytest

import csobstruct as cs
from csobstruct import cech
from csobstruct.complex_core import Cochain, Subcomplex
from csobstruct.errors import Error, InconsistencyError
from csobstruct.manifolds import simplex_boundary
from conftest import random_closed_cochain, random_real_cochain
from oracles import exact_rank


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
        c3 = cs.star_cover(s3)
        assert all(c3.star((v,)).sub.n_simplices(3) == 4
                   for (v,) in s3.simplices[0])
        ct = cs.star_cover(t3)
        total = sum(ct.star((v,)).sub.n_simplices(3)
                    for (v,) in t3.simplices[0])
        assert total == 4 * t3.n_simplices(3)

    def test_goodness_check_passes_on_fixtures(self, fixtures3d):
        """Every star is acyclic: all reduced Betti numbers vanish."""
        for name, K in fixtures3d.items():
            for s, star in cs.star_cover(K).stars.items():
                sub = star.sub
                ranks = [exact_rank(sub.coboundary_dense(k).astype(int))
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
            for s, star in cs.star_cover(K).stars.items():
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

    def test_top_star_is_single_simplex(self, s3, covers):
        cover = covers["s3"]
        top = s3.simplices[3][0]
        assert cover.star(top).sub.n_simplices(3) == 1


class TestLocalPrimitives:
    def test_degree_zero_rejected(self, covers, s3):
        with pytest.raises(Error) as e:
            cs.local_primitives(covers["s3"], Cochain.zeros(s3, 0))
        assert e.value.code == "DEGREE_OUT_OF_RANGE"

    def test_non_closed_rejected(self, covers, t3):
        rng = np.random.default_rng(0)
        while True:
            w = random_real_cochain(rng, t3, 1)
            if np.abs(cs.apply_d(t3, w).values).max() > 1e-3:
                break
        with pytest.raises(Error) as e:
            cs.local_primitives(covers["t3"], w)
        assert e.value.code == "NOT_CLOSED"

    def test_primitive_property_on_every_star(self, covers, s1xs2):
        rng = np.random.default_rng(1)
        cover = covers["s1xs2"]
        w = random_closed_cochain(rng, s1xs2, 2)
        fam = cs.local_primitives(cover, w)
        assert fam.degree == 1
        vals = w.as_float()
        for v, nu in fam.members.items():
            star = cover.star((v,))
            local = star.sub.restrict(vals, 2)
            resid = star.sub.coboundary_dense(1) @ nu - local
            assert np.abs(resid).max() < 1e-8


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

    def test_independent_of_local_primitive_choice(self, s3, monkeypatch):
        # shift every local solve by a kernel element of the local d; the
        # descended class may not change
        rng = np.random.default_rng(5)
        w = cs.apply_d(s3, random_real_cochain(rng, s3, 1))
        base = cs.connecting_delta(cs.star_cover(s3), w)
        orig = cech._Star.solve

        def perturbed(self, local_values, k, limit):
            nu = orig(self, local_values, k, limit)
            d = self.sub.coboundary_dense(k - 1)
            if d.shape[1] and k - 1 >= 1:
                import scipy.linalg
                null = scipy.linalg.null_space(d)
                if null.shape[1]:
                    nu = nu + null @ rng.standard_normal(null.shape[1])
            return nu

        monkeypatch.setattr(cech._Star, "solve", perturbed)
        out = cs.connecting_delta(cs.star_cover(s3), w)
        assert np.abs(out.cocycle.values - base.cocycle.values).max() < 1e-7


    def test_one_local_operator_per_star_and_degree(self, t3,
                                                     monkeypatch):
        """Solves and residual checks slice each local d only once."""
        calls = collections.Counter()
        orig = Subcomplex.coboundary_dense

        def counted(self, k):
            calls[id(self), k] += 1
            return orig(self, k)

        monkeypatch.setattr(Subcomplex, "coboundary_dense", counted)
        rng = np.random.default_rng(8)
        cover = cs.star_cover(t3)
        for k in (1, 2, 3):
            cs.connecting_delta(cover, random_closed_cochain(rng, t3, k))
        cs.current_globality(cover, random_closed_cochain(rng, t3, 2))
        assert calls and max(calls.values()) == 1


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
                             <= cech.CECH_TOL)
                assert rep.globalizable == cech_zero
