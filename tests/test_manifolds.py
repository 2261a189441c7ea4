import numpy as np
import pytest

import csobstruct as cs
from csobstruct.complex_core import fundamental_cycle
from csobstruct.errors import Error
from csobstruct.manifolds import circle, ordered_product, simplex_boundary
from oracles import coboundary_csr


EXPECTED_BETTI = {
    "s3": (1, 0, 0, 1),
    "t3": (1, 3, 3, 1),
    "s1xs2": (1, 1, 1, 1),
    "rp3": (1, 0, 0, 1),
}


def test_named_f_vectors(s3, t3, s1xs2):
    assert s3.f_vector() == (5, 10, 10, 5)
    assert t3.n_vertices == 27 and t3.n_simplices(3) == 162
    assert s1xs2.n_vertices == 12 and s1xs2.n_simplices(3) == 36
    assert cs.generate("circle(3)").f_vector() == (3, 3)


def test_unknown_name_and_bad_parameter():
    with pytest.raises(Error) as e:
        cs.generate("klein")
    assert e.value.code == "UNKNOWN_NAME"
    for name in ("circle(2)", "t3(2)"):
        with pytest.raises(Error) as e:
            cs.generate(name)
        assert e.value.code == "BAD_PARAMETER"


def test_t3_family():
    assert cs.dump_complex(cs.generate("t3")) == \
        cs.dump_complex(cs.generate("t3(3)"))
    K = cs.generate("t3(4)")
    assert K.n_vertices == 64 and K.n_simplices(3) == 384
    groups = [cs.homology_groups(K, k, "int") for k in range(4)]
    assert [(g.betti, g.torsion) for g in groups] == \
        [(1, []), (3, []), (3, []), (1, [])]


def test_all_3d_fixtures_closed_orientable(fixtures3d):
    for K in fixtures3d.values():
        z = fundamental_cycle(K)
        assert set(int(v) for v in z.values) <= {-1, 1}


def test_real_betti_numbers(fixtures3d):
    for name, K in fixtures3d.items():
        betti = tuple(cs.homology_groups(K, k, "real").betti
                      for k in range(4))
        assert betti == EXPECTED_BETTI[name], name


def test_rp3_torsion(rp3):
    assert cs.homology_groups(rp3, 2, "int").torsion == [2]
    assert cs.homology_groups(rp3, 1, "int").torsion == []
    # homology H_1 torsion comes from the same elementary divisors
    from oracles import torsion
    assert torsion(rp3, 2) == [2]


def test_staircase_torus_counts():
    t2 = ordered_product(circle(3), circle(3))
    assert t2.f_vector() == (9, 27, 18)
    assert cs.homology_groups(t2, 1, "real").betti == 2


def test_product_with_point_is_isomorphic():
    point = cs.SimplicialComplex([[0]])
    k = simplex_boundary(3)
    prod = ordered_product(k, point)
    assert prod.f_vector() == k.f_vector()
    assert (coboundary_csr(prod, 1).toarray()
            == coboundary_csr(k, 1).toarray()).all()


def test_product_with_boundary_stays_unoriented():
    """circle(3) times an edge is an annulus: it has no fundamental cycle,
    so ordered_product leaves it unoriented."""
    K = ordered_product(circle(3), cs.SimplicialComplex([(0, 1)]))
    assert K.f_vector() == (6, 12, 6) and K.top_orientation is None
    with pytest.raises(Error) as err:
        fundamental_cycle(K)
    assert err.value.code == "NOT_CLOSED"
    assert [cs.homology_groups(K, k, "int") for k in range(3)] == [
        cs.GroupDescriptor(1, []), cs.GroupDescriptor(1, []),
        cs.GroupDescriptor(0, [])]


def test_s1xs2_prism_counts():
    prod = ordered_product(circle(3), simplex_boundary(3))
    assert prod.n_vertices == 12 and prod.n_simplices(3) == 36


def test_kunneth_for_products():
    t2 = ordered_product(circle(3), circle(3))
    s1s1 = ordered_product(circle(4), circle(5))
    assert [cs.homology_groups(s1s1, k, "real").betti
            for k in range(3)] == [1, 2, 1]
    assert [cs.homology_groups(t2, k, "real").betti
            for k in range(3)] == [1, 2, 1]


def test_rp3_is_deterministic():
    a = cs.dump_complex(cs.generate("rp3"))
    b = cs.dump_complex(cs.generate("rp3"))
    assert a == b
