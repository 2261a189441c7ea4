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
from csobstruct.manifolds import circle, ordered_product, simplex_boundary
from conftest import random_real_cochain, with_entries
import oracles
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


@pytest.mark.parametrize("k", [7, -1, 1.5, 2.5, 0.5, 1.0, 2.0, "1", True])
@pytest.mark.parametrize("fn", ["homology_groups", "integral_generators",
                                "basis", "poincare_pairing_matrix"])
def test_degree_out_of_range(t3, fn, k):
    """Degrees follow the integer rule: a non-integral, float, string or
    bool degree is out of range, even after the integral degree it
    equals has been built (2.0 and True hash like 2 and 1)."""
    getattr(cs, fn)(t3, 1)
    getattr(cs, fn)(t3, 2)
    with pytest.raises(Error) as e:
        getattr(cs, fn)(t3, k)
    assert e.value.code == "DEGREE_OUT_OF_RANGE"


def test_numpy_integer_degree(t3):
    assert cs.homology_groups(t3, np.int64(1), "int") == \
        cs.homology_groups(t3, 1, "int")
    assert cs.basis(t3, np.int64(2)) is cs.basis(t3, 2)


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
        15 MiB of traced allocations, and of T^3(5) under 9 MiB: the
        reductions walk only the transform lines they read, never a whole
        n x n V or v_inv, and no reduction input is made dense."""
        for name, mib in (("t3(4)", 15), ("t3(5)", 9)):
            K = cs.generate(name)
            tracemalloc.start()
            try:
                for k in range(K.dim + 1):
                    cs.integral_generators(K, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < mib * 2**20, name


class TestSinglePath:
    """Each d_k is reduced once per complex, by homology._snf, and read by
    H^k and H^{k+1}; each image lattice once more.  d_dim (0 x n_dim) and
    the H^0 lattice ((n_0 - r_0) x 0) have no entries, and their
    reductions leave empty records."""

    @staticmethod
    def spy(monkeypatch):
        seen = []
        snf = homology.smith_normal_form

        def counting(M):
            res = snf(M)
            seen.append((np.asarray(M, dtype=object), res))
            return res

        monkeypatch.setattr(homology, "smith_normal_form", counting)
        return seen

    @pytest.mark.parametrize("name", ["t3", "rp3"])
    def test_top_degree_reduces_d2_alone(self, monkeypatch, name):
        K = cs.generate(name)
        seen = self.spy(monkeypatch)
        cs.integral_generators(K, 3)
        d2 = coboundary_csr(K, 2).toarray()
        assert len(seen) == 2
        full = with_entries(seen, [(0, K.n_simplices(3))])
        assert len(full) == 1
        A, _ = full[0]
        assert A.shape == d2.shape and (A == d2).all()

    def test_descending_degrees_make_five_reductions(self, monkeypatch):
        """d_2, d_1, d_0 and the image lattices of H^2 and H^1, besides
        the empty d_3 and H^0 lattice."""
        K = cs.generate("t3")
        seen = self.spy(monkeypatch)
        for k in (3, 2, 1, 0):
            cs.integral_generators(K, k)
        assert len(seen) == 7
        assert len(with_entries(seen, [(0, K.n_simplices(3)),
                                       (1, 0)])) == 5

    def test_tracer_sees_every_reduction(self, monkeypatch):
        """perfbench/layertrace.py wraps homology.smith_normal_form and
        keys each call by the entries of the matrix it is handed; the
        integral cohomology of t3 gives it seven spans, five with entries
        and the empty d_3 and H^0 lattice, and their entries."""
        path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" \
            / "layertrace.py"
        spec = importlib.util.spec_from_file_location("layertrace", path)
        layertrace = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layertrace)
        K = cs.generate("t3")
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            seen = self.spy(monkeypatch)    # wraps the traced function
            for k in range(K.dim + 1):
                cs.integral_generators(K, k)
        finally:
            monkeypatch.undo()
            tracer.uninstall()
        snf_spans = [f for f in tracer.fn
                     if tracer.names[f] == ("snf", "smith_normal_form")]
        assert len(snf_spans) == 7
        full = with_entries(seen, [(1, 0), (0, K.n_simplices(3))])
        assert len(full) == 5
        assert tracer.counts[(True, "snf.entries")] > 0
        assert tracer.counts[(True, "snf.entries")] == sum(
            A.size for A, _ in full)


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

    def test_nan_two_cochain_not_closed(self, t3):
        w = Cochain(2, "real", np.full(t3.n_simplices(2), np.nan))
        for call in (lambda: cs.find_primitive(t3, w),
                     lambda: cs.current_globality(cs.star_cover(t3), w)):
            with pytest.raises(Error) as e:
                call()
            assert e.value.code == "NOT_CLOSED"

    def test_a_given_tol_skips_the_default(self, t3, monkeypatch):
        """The default limit is computed only when tol is None; an INT
        cochain's closedness test is exact and reads no limit either."""
        y = Cochain(1, "int", np.random.default_rng(3).integers(
            -3, 4, t3.n_simplices(1)))
        w = cs.apply_d(t3, y)
        real, calls = homology._closedness_tol, []
        monkeypatch.setattr(homology, "_closedness_tol", lambda v: (
            calls.append(1) or real(v)))
        assert cs.find_primitive(t3, w, tol=1e-6).exact
        assert calls == []
        assert cs.find_primitive(t3, w).exact
        assert calls == [1]

    def test_empty_coordinates_and_pairings(self, s3, rp3):
        """No real class in degree 2 on s3 or rp3: an empty coordinate
        array is no obstruction, and an empty pairing list none either.
        rp3's torsion generator is exact over the reals."""
        assert homology._sup(np.zeros(0)) == 0.0
        for K in (s3, rp3):
            free, torsion = cs.integral_generators(K, 2)
            w = Cochain(2, "int", torsion[0][1] if torsion else
                        np.zeros(K.n_simplices(2), dtype=int))
            res = cs.find_primitive(K, w)
            assert res.exact and res.class_coordinates.size == 0
            rep = cs.current_globality(cs.star_cover(K), w)
            assert rep.globalizable and rep.simplicial_coordinates.size == 0
            verdict = cs.sharpness_check(K, cs.make_bundle(K, w))
            assert verdict.flat_exists and verdict.witness is None
            assert verdict.all_pairings.size == 0

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


def test_every_solve_is_the_one_least_squares(monkeypatch):
    """flatten, find_primitive, current_globality and sharpness_check on
    t3 each solve through homology._least_squares, the bundle's through
    U1Bundle._flat_solve, once per bundle, and the two primitives'
    through homology._primitive, the step both routes share.  The four share degree 2 of
    one complex, so np.linalg.eigh runs once for all of them, and
    np.linalg.lstsq never runs."""
    t3 = cs.generate("t3")                 # fresh: nothing factored yet
    linalg = []
    for fn in ("eigh", "lstsq"):
        real = getattr(np.linalg, fn)

        def spy(*args, _fn=fn, _real=real, **kwargs):
            caller = sys._getframe(1)
            linalg.append((_fn, caller.f_globals["__name__"],
                           caller.f_code.co_qualname))
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, fn, spy)
    solve, callers = homology._least_squares.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is solve:
            callers.append((frame.f_back.f_globals["__name__"],
                            frame.f_back.f_code.co_name))
    bundle = cs.make_bundle(t3, Cochain(2, "int",
                                        cs.integral_generators(t3, 2)[0][0]))
    w = cs.apply_d(t3, random_real_cochain(np.random.default_rng(9), t3, 1))
    sys.setprofile(profile)
    try:
        cs.flatten(bundle)
        cs.find_primitive(t3, w)
        cs.current_globality(cs.star_cover(t3), w)
        cs.sharpness_check(t3, bundle)
    finally:
        sys.setprofile(None)
    flat_solve = ("csobstruct.bundle", "_flat_solve")
    primitive = ("csobstruct.homology", "_primitive")
    assert callers == [flat_solve, primitive, primitive]
    assert linalg == [("eigh", "csobstruct.homology",
                       "_factor.<locals>.build")]


@pytest.mark.parametrize("name", ["s3", "s1xs2", "t3", "rp3", "sphere2",
                                  "circle(7)", "t3(4)", "s1xs4"])
def test_factor_keeps_the_exact_rank(name):
    """The float factor of d_{k-1} keeps n_k - r_k - b_k eigenpairs in
    every degree k: the rank of d_{k-1} from the integer reduction of d_k
    (r_k = 0 at the top degree, where d_k is 0 x n_k) and the Betti
    number."""
    K = ordered_product(circle(3), simplex_boundary(5)) if name == "s1xs4" \
        else cs.generate(name)
    for k in range(K.dim + 1):
        r = homology._snf(K, k).rank
        b = cs.homology_groups(K, k).betti
        V, w = homology._factor(K, k)
        assert V.shape == (K.n_simplices(k - 1), len(w)), k
        assert len(w) == K.n_simplices(k) - r - b, k


class TestMinimumNorm:
    """_least_squares returns the minimum-norm least-squares solution,
    on exact right-hand sides (b = d y) and on non-exact ones."""

    @staticmethod
    def _cases(K, seed):
        rng = np.random.default_rng(seed)
        for k in range(1, K.dim + 1):
            d = np.asarray(K._d_triplets(k - 1))
            yield k, d, d @ rng.integers(-3, 4, d.shape[1])
            yield k, d, rng.integers(-3, 4, d.shape[0])

    @pytest.mark.parametrize("name", ["s1xs2", "s3", "sphere2", "circle(7)"])
    def test_within_64_ulp_of_the_exact_solution(self, name):
        K = cs.generate(name)
        for k, d, b in self._cases(K, 11):
            exact = oracles.min_norm_solution(d, b)
            exact_residual = [sum(int(a) * v for a, v in zip(row, exact)) - e
                              for row, e in zip(d.tolist(), b.tolist())]
            exact, exact_residual = (np.array([float(v) for v in vs])
                                     for vs in (exact, exact_residual))
            x, residual = homology._least_squares(K, k, b.astype(float))
            assert np.abs(x - exact).max() <= \
                64 * np.spacing(np.abs(exact).max()), k
            assert np.abs(residual - exact_residual).max() <= \
                64 * np.spacing(float(np.abs(b).max())), k

    @pytest.mark.parametrize("name", ["t3", "rp3"])
    def test_agrees_with_lstsq(self, name):
        K = cs.generate(name)
        for k, d, b in self._cases(K, 12):
            ref = np.linalg.lstsq(d.astype(float), b.astype(float),
                                  rcond=None)[0]
            x, _ = homology._least_squares(K, k, b.astype(float))
            assert np.abs(x - ref).max() <= 1e-12, k
