import hashlib
import importlib.util
import inspect
import json
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import csobstruct as cs
from csobstruct import homology
from csobstruct.complex_core import Cochain
from csobstruct.errors import Error
from conftest import random_real_cochain
from oracles import betti as betti_oracle, coboundary_csr


def test_real_equals_integer_betti(fixtures3d, sphere2):
    for K in list(fixtures3d.values()) + [sphere2]:
        for k in range(K.dim + 1):
            assert cs.homology_groups(K, k, "real").betti == \
                cs.homology_groups(K, k, "int").betti


def test_euler_characteristic_from_betti(fixtures3d):
    for K in fixtures3d.values():
        chi = sum((-1) ** k * cs.homology_groups(K, k, "real").betti
                  for k in range(4))
        assert chi == K.euler_characteristic()


def test_betti_against_exact_rank_oracle(s3, s1xs2):
    for K in (s3, s1xs2):
        for k in range(4):
            assert cs.homology_groups(K, k, "real").betti == \
                betti_oracle(K, k)


def test_degree_out_of_range(s3):
    with pytest.raises(Error) as e:
        cs.homology_groups(s3, 7)
    assert e.value.code == "DEGREE_OUT_OF_RANGE"


def test_unknown_ring_is_bad_ring(s3):
    with pytest.raises(Error) as e:
        cs.homology_groups(s3, 1, "bogus")
    assert e.value.code == "BAD_RING"


def test_s3_connected(s3):
    g = cs.homology_groups(s3, 0, "int")
    assert g.betti == 1 and g.torsion == []


class TestIntegralGenerators:
    # sha256 of the free and torsion generator vectors, per degree
    DIGESTS = {
        ("s3", 0): "8250dc8c12578b8b1ee391fa0afab0e3"
                   "92dee00ac7519ab83727266909fbedae",
        ("s3", 1): "0d22570de4d57363af2e7db1de568ed4"
                   "06f9b63fe4443af1ceeb91aee4c7eb11",
        ("s3", 2): "0d22570de4d57363af2e7db1de568ed4"
                   "06f9b63fe4443af1ceeb91aee4c7eb11",
        ("s3", 3): "24297e86c2af30da024050e3b5c4b6f3"
                   "4f52146a35e67bbea9419d1cc10e0e74",
        ("t3", 0): "535427a1fd6908c3bb130af2c2218980"
                   "34b4de2fadcecb77d51b25a65a569104",
        ("t3", 1): "89f2f66d05ce4440de8e56517960f4bf"
                   "9288abbcb7419f2ee116a20ee6780a21",
        ("t3", 2): "9287a3d00a77188e0063c4b31f2a4e51"
                   "319208cc287c3d2f9da8ce8734692fad",
        ("t3", 3): "ef451977b71923ea69a30d030abfc1f2"
                   "35406af1d6faa4bb4188f8d259b29451",
        ("s1xs2", 0): "e4fd999554a6de816456029e2cd5b39e"
                      "14836c1e7d2263aba06025fa0fae9b87",
        ("s1xs2", 1): "c76f8504c56adac15adf9fa0d6125214"
                      "fc9e3beaccbede1c0410c4ddbda08057",
        ("s1xs2", 2): "db3cf4e4247a43f1452a03a4aaf04849"
                      "6edfb9eb0a712d74774f434495835de1",
        ("s1xs2", 3): "7143d6e968448df21710190cae190b92"
                      "36afd625a599378400410dbf7885455d",
        ("rp3", 0): "21e8ca8a42ca3822c2f60fbe2250604e"
                    "6750a74c3fc541e1305e9d49218cd359",
        ("rp3", 1): "0d22570de4d57363af2e7db1de568ed4"
                    "06f9b63fe4443af1ceeb91aee4c7eb11",
        ("rp3", 2): "770669f4bea8808dbf2a4afbdb5fbe23"
                    "ccb19d41b17715a88e50282da0a0d835",
        ("rp3", 3): "5da8e49dd92944ae00312c8a8f7befc9"
                    "b0cfc802f255f4afe94cfed7e4dedbb3",
    }

    def test_generators_do_not_move(self, s3, t3, s1xs2, rp3):
        """Every report reads these exact vectors; they stay bit-stable."""
        for name, K in (("s3", s3), ("t3", t3), ("s1xs2", s1xs2),
                        ("rp3", rp3)):
            for k in range(K.dim + 1):
                free, tors = cs.integral_generators(K, k)
                doc = {"free": [[int(x) for x in g] for g in free],
                       "torsion": [[int(o), [int(x) for x in g]]
                                   for o, g in tors]}
                digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
                assert digest == self.DIGESTS[(name, k)], (name, k)

    def test_no_matrix_reduced_twice(self, monkeypatch):
        K = cs.generate("s1xs2")
        seen = []
        snf = homology.smith_normal_form

        def counting(M):
            m = np.asarray(M, dtype=object)
            seen.append((m.shape, tuple(int(x) for x in m.ravel())))
            return snf(M)

        monkeypatch.setattr(homology, "smith_normal_form", counting)
        for k in range(K.dim + 1):
            cs.homology_groups(K, k, "int")
            cs.integral_generators(K, k)
            cs.basis(K, k)
        assert seen and len(set(seen)) == len(seen)


    def test_reduction_makes_no_whole_transform(self):
        """Integer cohomology of every degree of T^3(4) peaks under
        15 MiB of traced allocations: the reductions replay only the
        transform slices they read, never a whole n x n V or v_inv."""
        K = cs.generate("t3(4)")
        tracemalloc.start()
        try:
            for k in range(K.dim + 1):
                cs.integral_generators(K, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15 * 2**20


class TestSinglePath:
    """Each d_k is reduced once per complex, by homology._snf, and read by
    H^k and H^{k+1}; each image lattice below the top degree once more."""

    @staticmethod
    def spy(monkeypatch):
        seen = []
        snf = homology.smith_normal_form

        def counting(M):
            seen.append(np.asarray(M, dtype=object))
            return snf(M)

        monkeypatch.setattr(homology, "smith_normal_form", counting)
        return seen

    @pytest.mark.parametrize("name", ["t3", "rp3"])
    def test_top_degree_reduces_d2_alone(self, monkeypatch, name):
        K = cs.generate(name)
        seen = self.spy(monkeypatch)
        cs.integral_generators(K, 3)
        d2 = coboundary_csr(K, 2).toarray()
        assert len(seen) == 1
        assert seen[0].shape == d2.shape and (seen[0] == d2).all()

    def test_descending_degrees_make_five_reductions(self, monkeypatch):
        """d_2, d_1, d_0 and the image lattices of H^2 and H^1."""
        K = cs.generate("t3")
        seen = self.spy(monkeypatch)
        for k in (3, 2, 1, 0):
            cs.integral_generators(K, k)
        assert len(seen) == 5

    def test_tracer_sees_every_reduction(self):
        """perfbench/layertrace.py wraps homology.smith_normal_form and
        keys each call by the entries of the matrix it is handed; the
        integral cohomology of t3 gives it five spans and their entries."""
        path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" \
            / "layertrace.py"
        spec = importlib.util.spec_from_file_location("layertrace", path)
        layertrace = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layertrace)
        K = cs.generate("t3")
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            for k in range(K.dim + 1):
                cs.integral_generators(K, k)
        finally:
            tracer.uninstall()
        snf_spans = [f for f in tracer.fn
                     if tracer.names[f] == ("snf", "smith_normal_form")]
        assert len(snf_spans) == 5
        assert tracer.counts[(True, "snf.entries")] > 0


def test_class_map_of_two_points():
    """A 0-dimensional complex: H^0 is all of C^0, and its class map is
    exact, P g_i = e_i in Python ints."""
    K = cs.SimplicialComplex([(0,), (1,)])
    free, tors, P = homology._cohomology(K, 0)
    assert len(free) == 2 and tors == []
    assert P.dtype == object and all(type(x) is int for x in P.ravel())
    G = np.column_stack(free)
    assert all(type(x) is int for x in G.ravel())
    assert (P @ G == np.eye(2, dtype=int)).all()


class TestClassMap:
    """P_k, from the same two reductions as the generators, in exact
    Python ints: P g_i = e_i on the free generators, P t = 0 on the
    torsion generators and P d_{k-1} = 0."""

    @pytest.mark.parametrize("name", ["s3", "s1xs2", "t3", "rp3",
                                      "sphere2", "t3(4)"])
    def test_class_map_is_exact(self, name):
        K = cs.generate(name)
        for k in range(K.dim + 1):
            free, tors, P = homology._cohomology(K, k)
            assert P.dtype == object and all(type(x) is int
                                             for x in P.ravel())
            assert P.shape == (len(free), K.n_simplices(k))
            if free:
                G = np.column_stack(free)
                assert (P @ G == np.eye(len(free), dtype=int)).all()
            for _, t in tors:
                assert not (P @ t).any()
            if k > 0:
                d = coboundary_csr(K, k - 1).toarray().astype(object)
                assert not (P @ d).any()

    def test_coordinates_read_the_class_map(self, t3, rp3):
        rng = np.random.default_rng(11)
        for K in (t3, rp3):
            for k in range(K.dim + 1):
                b = cs.basis(K, k)
                P = homology._cohomology(K, k)[2]
                v = rng.standard_normal(K.n_simplices(k))
                if b.size:
                    assert np.array_equal(b.coordinates(v),
                                          P.astype(float) @ v)
                else:
                    assert b.coordinates(v).shape == (0,)

    def test_no_svd_and_no_float_rank(self, monkeypatch):
        """Bases, real Betti numbers and pairing nondegeneracy come from
        the exact reduction."""
        def forbidden(*args, **kwargs):
            raise AssertionError("float factorization called")

        svd_home = inspect.getmodule(scipy.linalg.null_space)
        for owner, attr in ((np.linalg, "svd"), (np.linalg, "matrix_rank"),
                            (scipy.linalg, "svd"), (svd_home, "svd")):
            monkeypatch.setattr(owner, attr, forbidden)
        K = cs.generate("s1xs2")
        for k in range(K.dim + 1):
            cs.basis(K, k)
            cs.homology_groups(K, k, "real")
            cs.poincare_pairing_matrix(K, k)
        L = cs.generate("rp3")
        for k in range(L.dim + 1):
            cs.homology_groups(L, k, "real")
            cs.poincare_pairing_matrix(L, k)


class TestBasis:
    @pytest.mark.parametrize("name", ["t3", "s3"])
    @pytest.mark.parametrize("shift", [-1, 1])
    def test_coordinates_of_wrong_length(self, request, name, shift):
        """Rejected whether the H^1 basis is empty (s3) or not (t3)."""
        K = request.getfixturevalue(name)
        with pytest.raises(Error) as e:
            cs.basis(K, 1).coordinates(np.ones(K.n_simplices(1) + shift))
        assert e.value.code == "BASE_MISMATCH"

    def test_sizes(self, s3, s1xs2, t3):
        assert cs.basis(s3, 1).size == 0
        assert cs.basis(s1xs2, 1).size == 1
        assert cs.basis(t3, 1).size == 3

    def test_representatives_are_closed_unit_coordinates(self, t3, s1xs2):
        for K in (t3, s1xs2):
            for k in range(1, 3):
                b = cs.basis(K, k)
                for i, w in enumerate(b.representative_cochains()):
                    dv = cs.apply_d(K, w).values
                    assert np.abs(dv).max() < 1e-9
                    coords = b.coordinates(w.values)
                    expect = np.zeros(b.size)
                    expect[i] = 1.0
                    assert np.abs(coords - expect).max() < 1e-9

    def test_exact_cochains_project_to_zero(self, t3):
        rng = np.random.default_rng(5)
        for k in range(1, 4):
            b = cs.basis(t3, k)
            for _ in range(5):
                w = cs.apply_d(t3, random_real_cochain(rng, t3, k - 1))
                assert np.abs(b.coordinates(w.values)).max() < 1e-9


class TestFindPrimitive:
    def test_exact_input_recovers_primitive(self, t3):
        rng = np.random.default_rng(6)
        beta0 = random_real_cochain(rng, t3, 1)
        w = cs.apply_d(t3, beta0)
        res = cs.find_primitive(t3, w)
        assert res.exact
        recon = cs.apply_d(t3, res.primitive).values
        assert np.abs(recon - w.values).max() < 1e-9

    def test_generator_is_not_exact(self, s1xs2):
        # in degree 0 the generator is a nonzero constant, with no d_{-1}
        for k in (1, 0):
            g = cs.basis(s1xs2, k).representative_cochains()[0]
            assert k or len(set(g.values)) == 1 and g.values[0] != 0
            res = cs.find_primitive(s1xs2, g)
            assert not res.exact
            assert np.abs(np.abs(res.class_coordinates) - 1.0).max() < 1e-9

    def test_zero_cochain(self, s3):
        # the zero 0-cochain is d of the one (-1)-cochain, which is empty
        for k in (2, 0):
            res = cs.find_primitive(s3, Cochain.zeros(s3, k))
            assert res.exact and res.primitive.degree == k - 1
            assert len(res.primitive.values) == s3.n_simplices(k - 1)
            assert np.abs(res.primitive.values).max(initial=0) < 1e-12

    def test_nan_not_closed(self, s3):
        w = Cochain(1, "real", np.full(s3.n_simplices(1), np.nan))
        with pytest.raises(Error) as e:
            cs.find_primitive(s3, w)
        assert e.value.code == "NOT_CLOSED"

    def test_short_top_cochain_rejected(self, s3):
        with pytest.raises(Error) as e:
            cs.find_primitive(s3, Cochain(3, "real", np.ones(1)))
        assert e.value.code == "BASE_MISMATCH"

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, 0.0])
    def test_bad_tol_is_bad_parameter(self, s1xs2, tol):
        g = cs.basis(s1xs2, 2).representative_cochains()[0]
        with pytest.raises(Error) as e:
            cs.find_primitive(s1xs2, g, tol=tol)
        assert e.value.code == "BAD_PARAMETER"

    def test_not_closed_rejected(self, s3):
        rng = np.random.default_rng(7)
        w = random_real_cochain(rng, s3, 1)
        with pytest.raises(Error) as e:
            cs.find_primitive(s3, w)
        assert e.value.code == "NOT_CLOSED"

    def test_randomized_exactness_discrimination(self, s1xs2, t3):
        # success iff class coordinates vanish, over >= 100 cochains
        rng = np.random.default_rng(8)
        for K in (s1xs2, t3):
            gens = cs.basis(K, 2).representatives
            for i in range(50):
                w = cs.apply_d(K, random_real_cochain(rng, K, 1))
                vals = w.values.copy()
                make_exact = i % 2 == 0
                if not make_exact:
                    coeffs = rng.standard_normal(len(gens))
                    while np.abs(coeffs).max() < 0.1:
                        coeffs = rng.standard_normal(len(gens))
                    for cf, g in zip(coeffs, gens):
                        vals = vals + cf * g
                res = cs.find_primitive(K, Cochain(2, "real", vals))
                assert res.exact == make_exact


def test_every_solve_is_the_one_least_squares(t3, monkeypatch):
    """flatten, find_primitive, current_globality and sharpness_check
    call np.linalg.lstsq only from homology._least_squares."""
    callers = []
    lstsq = np.linalg.lstsq

    def spy(*args, **kwargs):
        caller = sys._getframe(1)
        callers.append((caller.f_globals["__name__"], caller.f_code.co_name))
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    bundle = cs.make_bundle(t3, Cochain(2, "int",
                                        cs.integral_generators(t3, 2)[0][0]))
    w = cs.apply_d(t3, random_real_cochain(np.random.default_rng(9), t3, 1))
    cs.flatten(bundle)
    cs.find_primitive(t3, w)
    cs.current_globality(cs.star_cover(t3), w)
    cs.sharpness_check(t3, bundle)
    assert callers == [("csobstruct.homology", "_least_squares")] * 4
