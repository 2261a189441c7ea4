import numpy as np
import pytest

import csobstruct as cs
from csobstruct.complex_core import Cochain


@pytest.fixture(scope="session")
def sphere2():
    return cs.generate("sphere2")


@pytest.fixture(scope="session")
def s3():
    return cs.generate("s3")


@pytest.fixture(scope="session")
def t3():
    return cs.generate("t3")


@pytest.fixture(scope="session")
def s1xs2():
    return cs.generate("s1xs2")


@pytest.fixture(scope="session")
def rp3():
    return cs.generate("rp3")


@pytest.fixture(scope="session")
def fixtures3d(s3, t3, s1xs2, rp3):
    return {"s3": s3, "t3": t3, "s1xs2": s1xs2, "rp3": rp3}


@pytest.fixture(scope="session")
def covers(s3, t3, s1xs2):
    return {"s3": cs.star_cover(s3), "t3": cs.star_cover(t3),
            "s1xs2": cs.star_cover(s1xs2)}


def random_real_cochain(rng, complex_, k):
    return Cochain(k, "real", rng.standard_normal(complex_.n_simplices(k)))


def random_int_cochain(rng, complex_, k, lo=-3, hi=4):
    """The int64 draw goes to Cochain as it is, whose constructor makes
    the values Python ints."""
    return Cochain(k, "int",
                   rng.integers(lo, hi, size=complex_.n_simplices(k)))


def random_closed_cochain(rng, complex_, k):
    """d(random) plus a random combination of the integral generators."""
    w = cs.apply_d(complex_, random_real_cochain(rng, complex_, k - 1)) \
        if k > 0 else Cochain(0, "real",
                              np.zeros(complex_.n_simplices(0)))
    vals = w.values.astype(float)
    for g in cs.basis(complex_, k).representatives:
        vals = vals + float(rng.standard_normal()) * g
    return Cochain(k, "real", vals)


def random_int_cocycle(rng, complex_, k=2):
    """Integer k-cocycle: d(integer cochain) + integer class combination."""
    vals = cs.apply_d(complex_, random_int_cochain(rng, complex_,
                                                   k - 1)).values
    free, tors = cs.integral_generators(complex_, k)
    for g in free:
        vals = vals + int(rng.integers(-2, 3)) * g
    for _, g in tors:
        vals = vals + int(rng.integers(0, 2)) * g
    return Cochain(k, "int", vals)


def with_entries(runs, empty_shapes):
    """The (input, result) runs of a Smith reduction whose input has
    entries, in call order, once the others are checked to have exactly
    the given shapes, in order, and to have left empty records."""
    empty = [(A, res) for A, res in runs if not A.size]
    assert [A.shape for A, _ in empty] == empty_shapes
    for _, res in empty:
        assert res.diag == res._row_ops == res._col_ops == []
    return [(A, res) for A, res in runs if A.size]
