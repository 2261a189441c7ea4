import numpy as np

from csobstruct.snf import smith_normal_form
from oracles import exact_det, invariant_factors


def as_int(M):
    return np.array([[int(x) for x in row] for row in M], dtype=object)


def check_decomposition(M):
    M = as_int(M)
    res = smith_normal_form(M)
    assert (res.U @ res.S @ res.V == M).all()
    assert abs(exact_det(res.U.tolist())) == 1
    n = M.shape[1]
    assert (res.V @ res.v_inv == np.eye(n, dtype=object)).all()
    diag = res.diag
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d]
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    # zeros trail the nonzero factors
    assert diag == nz + [0] * (len(diag) - len(nz))
    return res


def test_two_by_three_lattice():
    res = check_decomposition([[2, 0], [0, 3]])
    assert res.diag == [1, 6]


def test_zero_matrix():
    res = check_decomposition([[0, 0], [0, 0]])
    assert res.diag == [0, 0]
    assert (res.U == np.eye(2, dtype=object)).all()
    assert (res.V == np.eye(2, dtype=object)).all()


def test_identity_one():
    assert check_decomposition([[1]]).diag == [1]


def test_rectangular_and_oracle_agreement():
    rng = np.random.default_rng(0)
    for _ in range(30):
        m, n = rng.integers(1, 7, size=2)
        M = rng.integers(-6, 7, size=(m, n))
        res = check_decomposition(M)
        assert res.invariant_factors == invariant_factors(M.tolist())


def test_invariance_under_unimodular_multiplication():
    rng = np.random.default_rng(1)
    M = as_int(rng.integers(-5, 6, size=(4, 5)))
    base = smith_normal_form(M).invariant_factors
    for _ in range(10):
        L = _random_unimodular(rng, 4)
        R = _random_unimodular(rng, 5)
        assert smith_normal_form(L @ M @ R).invariant_factors == base


def _random_unimodular(rng, n):
    U = np.eye(n, dtype=object)
    for _ in range(3 * n):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            U[i, :] = U[i, :] + int(rng.integers(-2, 3)) * U[j, :]
    return U


def test_kernel_basis_spans_kernel():
    rng = np.random.default_rng(2)
    for _ in range(10):
        M = as_int(rng.integers(-4, 5, size=(4, 6)))
        res = smith_normal_form(M)
        kb = res.v_inv[:, res.rank:]
        assert not (M @ kb).any()
        flo = np.array(kb.tolist(), dtype=float)
        if flo.size:
            assert np.linalg.matrix_rank(flo) == kb.shape[1]


def test_kernel_coordinates_roundtrip():
    """V[r:, :] gives the coordinates of a kernel vector in v_inv[:, r:]."""
    rng = np.random.default_rng(3)
    for _ in range(10):
        M = as_int(rng.integers(-3, 4, size=(3, 6)))
        res = smith_normal_form(M)
        kb = res.v_inv[:, res.rank:]
        C = as_int(rng.integers(-4, 5, size=(kb.shape[1], 2)))
        Y = kb @ C
        assert (res.V[res.rank:, :] @ Y == C).all()
