import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import csobstruct as cs
from csobstruct.complex_core import (Cochain, SimplicialComplex, apply_d,
                                     dump_complex, fundamental_cycle,
                                     load_cochain, load_complex)
from csobstruct.cup import _cup_faces, _fundamental_signs
from csobstruct.errors import Error
from oracles import coboundary_csr, local_coboundary, star_cover


def star_of_simplex(K, s):
    """Closed star of s, from the reference star cover of the tests."""
    return star_cover(K).star(s).sub

TETRA_BOUNDARY = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]


def doc(tops, **extra):
    return json.dumps({"top_simplices": tops, **extra})


class TestLoad:
    def test_tetra_boundary_f_vector(self):
        K = load_complex(doc(TETRA_BOUNDARY))
        assert K.f_vector() == (4, 6, 4)

    def test_pentachoron_boundary_f_vector(self, s3):
        assert s3.f_vector() == (5, 10, 10, 5)

    def test_non_increasing_tuple(self):
        with pytest.raises(Error) as e:
            load_complex(doc([[2, 1, 3]]))
        assert e.value.code == "NON_INCREASING_TUPLE"

    def test_duplicate_simplex(self):
        with pytest.raises(Error) as e:
            load_complex(doc([[0, 1, 2], [0, 1, 2]]))
        assert e.value.code == "DUPLICATE_SIMPLEX"

    def test_dangling_vertex(self):
        with pytest.raises(Error) as e:
            load_complex(doc([[0, 2, 3]]))
        assert e.value.code == "DANGLING_VERTEX"

    def test_parse_error(self):
        with pytest.raises(Error) as e:
            load_complex("{not json")
        assert e.value.code == "PARSE_ERROR"

    def test_integral_floats_are_integers(self):
        """The integer rule of cochain values: 1.0 is the vertex 1 and
        the sign 1; the malformed cases are in test_cli.py."""
        tops = [[0, 1.0, 2]] + TETRA_BOUNDARY[1:]
        K = load_complex(doc(tops, orientation=[1.0, -1, 1, -1]))
        assert dump_complex(K) == dump_complex(load_complex(doc(
            TETRA_BOUNDARY, orientation=[1, -1, 1, -1])))

    def test_integral_float_degree_is_an_integer(self):
        c = load_cochain(json.dumps(
            {"degree": 2.0, "ring": "int", "values": [1, 2]}))
        assert c.degree == 2 and type(c.degree) is int
        for bad in (True, 2.5, "2"):
            with pytest.raises(Error) as e:
                load_cochain(json.dumps(
                    {"degree": bad, "ring": "int", "values": [1, 2]}))
            assert e.value.code == "PARSE_ERROR"

    def test_roundtrip_matrices_identical(self, t3):
        K2 = load_complex(dump_complex(t3))
        for k in range(3):
            a = coboundary_csr(t3, k).toarray()
            b = coboundary_csr(K2, k).toarray()
            assert (a == b).all()
        assert dump_complex(K2) == dump_complex(t3)


class TestCoboundary:
    def test_edge_matrix_shape_and_rows(self):
        K = SimplicialComplex(TETRA_BOUNDARY)
        d0 = coboundary_csr(K, 0).toarray()
        assert d0.shape == (6, 4)
        for row in d0:
            assert sorted(row) == [-1, 0, 0, 1]

    def test_dd_zero_all_fixtures(self, fixtures3d, sphere2):
        for K in list(fixtures3d.values()) + [sphere2]:
            for k in range(K.dim - 1):
                prod = coboundary_csr(K, k + 1) @ coboundary_csr(K, k)
                assert prod.nnz == 0 or not prod.toarray().any()

    def test_rank_d2_pentachoron(self, s3):
        # consistent with b2(S^3) = 0, b3 = 1: rank = #tets - b3 = 4
        d2 = coboundary_csr(s3, 2).toarray()
        from oracles import exact_rank
        assert exact_rank(d2.tolist()) == 4

    def test_degree_out_of_range(self, sphere2):
        with pytest.raises(Error) as e:
            cs.homology._least_squares(sphere2, 3, np.zeros(0))
        assert e.value.code == "DEGREE_OUT_OF_RANGE"


class TestApplyD:
    def test_zero(self, sphere2):
        out = apply_d(sphere2, Cochain.zeros(sphere2, 0))
        assert not out.values.any()

    def test_dd_zero_on_cochain(self, sphere2):
        f = Cochain(0, "real", np.arange(4.0))
        assert np.abs(apply_d(sphere2, apply_d(sphere2, f)).values).max() == 0

    def test_vertex_indicator_hits_incident_edges(self, sphere2):
        f = Cochain.make(0, "int", [1, 0, 0, 0])
        out = apply_d(sphere2, f)
        incident = [i for i, e in enumerate(sphere2.simplices[1])
                    if 0 in e]
        for i, v in enumerate(out.values):
            assert abs(int(v)) == (1 if i in incident else 0)


class TestSummationOrder:
    """Real products sum each row in ascending column order, as the CSR
    products that the library used before did, so printed digits stay."""

    def test_apply_d_matches_csr(self, fixtures3d):
        rng = np.random.default_rng(16)
        for K in fixtures3d.values():
            for k in range(K.dim):
                v = rng.standard_normal(K.n_simplices(k))
                got = apply_d(K, Cochain(k, "real", v)).values
                assert (got == coboundary_csr(K, k) @ v).all()

    def test_cs_gradient_matches_csr(self, fixtures3d):
        rng = np.random.default_rng(17)
        for K in fixtures3d.values():
            a = rng.standard_normal(K.n_simplices(1))
            d1 = coboundary_csr(K, 1)
            front, back = _cup_faces(K, 1, 2)
            eps = _fundamental_signs(K)
            want = np.bincount(front, eps * (d1 @ a)[back],
                               K.n_simplices(1)) + d1.T @ np.bincount(
                back, eps * a[front], K.n_simplices(2))
            assert (cs.cs_gradient(K, cs.Connection(a)).values == want).all()


def test_cli_import_loads_no_scipy():
    src = pathlib.Path(cs.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, csobstruct, csobstruct.cli; "
         "print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert "csobstruct.cli" in out
    assert [m for m in out if m == "scipy" or m.startswith("scipy.")] == []


class TestFundamentalCycle:
    def test_sphere2(self, sphere2):
        z = fundamental_cycle(sphere2)
        d = coboundary_csr(sphere2, 1).toarray()
        assert not (d.T @ np.array([int(v) for v in z.values])).any()

    def test_s3_and_reversal(self, s3):
        z = fundamental_cycle(s3)
        signs = np.array([int(v) for v in z.values])
        d = coboundary_csr(s3, 2).toarray()
        assert not (d.T @ signs).any()
        assert not (d.T @ (-signs)).any()

    def test_matches_stored_orientation(self, t3):
        z = fundamental_cycle(t3)
        assert [int(v) for v in z.values] == t3.top_orientation

    def test_moebius_non_orientable(self):
        moebius = SimplicialComplex(
            [[0, 1, 2], [1, 2, 3], [2, 3, 4], [0, 3, 4], [0, 1, 4]])
        with pytest.raises(Error) as e:
            fundamental_cycle(moebius)
        assert e.value.code == "NON_ORIENTABLE"

    def test_disk_not_closed(self):
        disk = SimplicialComplex([[0, 1, 2], [0, 2, 3]])
        with pytest.raises(Error) as e:
            fundamental_cycle(disk)
        assert e.value.code == "NOT_CLOSED"

    def test_face_of_three_cofaces_not_closed(self):
        # edge (0, 1) has three cofaces: propagation skips it
        fan = SimplicialComplex([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
        with pytest.raises(Error) as e:
            fundamental_cycle(fan)
        assert e.value.code == "NOT_CLOSED"

    def test_two_components_seeded_separately(self):
        # two tetrahedron boundaries sharing only vertex 0: each component
        # of the dual graph starts at +1 on its first triangle
        wedge = SimplicialComplex([
            [0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3],
            [0, 4, 5], [0, 4, 6], [0, 5, 6], [4, 5, 6]])
        z = fundamental_cycle(wedge)
        assert [int(v) for v in z.values] == [1, -1, 1, 1, -1, 1, -1, -1]


class TestStars:
    """The reference closed stars that the Cech descent oracle uses."""

    def test_star_in_tetra_boundary(self, sphere2):
        st = star_of_simplex(sphere2, (0,))
        assert st.n_simplices(0) == 4
        assert st.n_simplices(2) == 3

    def test_star_in_pentachoron_boundary(self, s3):
        st = star_of_simplex(s3, (2,))
        assert st.n_simplices(0) == 5
        assert st.n_simplices(3) == 4

    def test_index_maps_consistent(self, t3):
        st = star_of_simplex(t3, t3.simplices[1][0])
        for k, idx in st.indices.items():
            for local, s in enumerate(st.simplices[k]):
                assert t3.simplices[k][idx[local]] == s

    def test_local_coboundary_matches_relabeled(self, s1xs2):
        st = star_of_simplex(s1xs2, (3,))
        relabel = {s[0]: i for i, s in enumerate(st.simplices[0])}
        local = SimplicialComplex([tuple(relabel[v] for v in s)
                                   for k in st.simplices
                                   for s in st.simplices[k]])
        # relabeling preserves vertex order, hence incidence signs
        a = local_coboundary(st, 1)
        b = coboundary_csr(local, 1).toarray()
        assert a.shape == b.shape
        assert np.abs(a - b).max() == 0
