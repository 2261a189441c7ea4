import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

import csobstruct as cs
from csobstruct import homology, snf
from csobstruct.complex_core import SparseMatrix
from csobstruct.snf import smith_normal_form
from conftest import with_entries
from oracles import (dense_smith, densify, exact_det, invariant_factors,
                     sparse, unit_lines, whole)


def as_int(M):
    return np.array([[int(x) for x in row] for row in M], dtype=object)


def assert_same(a, b):
    for f in ("U", "S", "V", "v_inv"):
        x, y = whole(a, f), whole(b, f)
        assert x.dtype == y.dtype == object and x.shape == y.shape, f
        assert all(type(v) is int for v in x.ravel()), f
        assert (x == y).all(), f


def python_int_run(M):
    """The reduction body on Python-int input, in the sparse form."""
    return snf._smith(sparse(as_int(M)))


def spy_on_body(monkeypatch):
    """Record (input, result) of every run of the reduction body."""
    runs = []
    body = snf._smith

    def spy(A):
        res = body(A)
        runs.append((np.asarray(A), res))
        return res

    monkeypatch.setattr(snf, "_smith", spy)
    return runs


def fixture_reductions(monkeypatch):
    """The inputs of the 20 reductions with entries behind the integral
    cohomology of s3, s1xs2, t3 and rp3 in every degree; the 8 others,
    of d_3 (0 x n_3) and of the H^0 lattice (1 x 0), have none."""
    runs = spy_on_body(monkeypatch)
    empty = []
    for name in ("s3", "s1xs2", "t3", "rp3"):
        K = cs.generate(name)
        for k in range(K.dim + 1):
            cs.integral_generators(K, k)
        empty += [(1, 0), (0, K.n_simplices(3))]
    monkeypatch.undo()
    runs = with_entries(runs, empty)
    assert len(runs) == 12 + 8
    return [A for A, _ in runs]


def factors(res):
    """The nonzero invariant factors of an SNFResult."""
    return [d for d in res.diag if d]


def check_decomposition(M):
    M = as_int(M)
    res = smith_normal_form(sparse(M))
    assert_same(res, python_int_run(M))
    U, S, V, v_inv = (whole(res, f) for f in ("U", "S", "V", "v_inv"))
    assert (U @ S @ V == M).all()
    assert abs(exact_det(U.tolist())) == 1
    n = M.shape[1]
    assert (V @ v_inv == np.eye(n, dtype=object)).all()
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
    assert (whole(res, "U") == np.eye(2, dtype=object)).all()
    assert (whole(res, "V") == np.eye(2, dtype=object)).all()


def test_identity_one():
    assert check_decomposition([[1]]).diag == [1]


def test_rectangular_and_oracle_agreement():
    rng = np.random.default_rng(0)
    for _ in range(30):
        m, n = rng.integers(1, 7, size=2)
        M = rng.integers(-6, 7, size=(m, n))
        res = check_decomposition(M)
        assert factors(res) == invariant_factors(M.tolist())


def test_invariance_under_unimodular_multiplication():
    rng = np.random.default_rng(1)
    M = as_int(rng.integers(-5, 6, size=(4, 5)))
    base = factors(smith_normal_form(sparse(M)))
    for _ in range(10):
        L = _random_unimodular(rng, 4)
        R = _random_unimodular(rng, 5)
        assert factors(smith_normal_form(sparse(L @ M @ R))) == base


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
        res = smith_normal_form(sparse(M))
        kb = whole(res, "v_inv")[:, res.rank:]
        assert not (M @ kb).any()
        flo = np.array(kb.tolist(), dtype=float)
        if flo.size:
            assert np.linalg.matrix_rank(flo) == kb.shape[1]


def test_kernel_coordinates_roundtrip():
    """V[r:, :] gives the coordinates of a kernel vector in v_inv[:, r:]."""
    rng = np.random.default_rng(3)
    for _ in range(10):
        M = as_int(rng.integers(-3, 4, size=(3, 6)))
        res = smith_normal_form(sparse(M))
        kb = whole(res, "v_inv")[:, res.rank:]
        C = as_int(rng.integers(-4, 5, size=(kb.shape[1], 2)))
        Y = kb @ C
        assert (whole(res, "V")[res.rank:, :] @ Y == C).all()


@pytest.mark.parametrize("M", [
    # entries past 2**31, and at the ends of int64
    [[2**40, 3], [5, 2**41 + 1]],
    np.array([[-2**63, 1], [3, 2**62]], dtype=np.int64),
    # entries under 2**31 whose reduction grows past int64:
    # diag [1, 1, (2**31 - 1)(2**31 - 3)(2**31 - 5)]
    [[2**31 - 1, 0, 0], [0, 2**31 - 3, 0], [0, 0, 2**31 - 5]],
    # an integral rational beyond the float range, decided exactly
    [[Fraction(10**400)]],
])
def test_large_entries_are_exact(monkeypatch, M):
    runs = spy_on_body(monkeypatch)
    res = smith_normal_form(sparse(M))
    monkeypatch.undo()
    assert len(runs) == 1
    assert_same(res, python_int_run(M))
    check_decomposition(M)


@pytest.mark.parametrize("M", [
    [[1.5]], np.array([[0.5, 2.0]]), [[float("nan")]], [[float("inf")]],
    [[1, 2], [3]], [1, 2, 3], [[[1, 2]]], 5,
    [[True, 1]], np.array([[True, False]]), [[1, "2"]], [[None, 1]],
    [[1, [2]]], [[1j]], [[Fraction(10**400 + 1, 10**400)]],
    [[1]], np.array([[1, 2]])])
def test_malformed_input_is_bad_parameter(M):
    """Anything but a SparseMatrix is BAD_PARAMETER: nested lists and
    arrays, well-formed or not, and scalars."""
    with pytest.raises(cs.Error) as err:
        smith_normal_form(M)
    assert err.value.code == "BAD_PARAMETER"


@pytest.mark.parametrize("x", [
    1.5, float("nan"), float("inf"), True, "2", None, [2], 1j,
    Fraction(10**400 + 1, 10**400)])
def test_bad_entry_is_bad_parameter(x):
    """A SparseMatrix entry that is not an integer is BAD_PARAMETER; the
    entry is put into vals by hand, after a good one, as np.nonzero would
    drop a None."""
    vals = np.array([1, 0], dtype=object)
    vals[1] = x
    assert vals[1] is x
    M = SparseMatrix((1, 2), np.array([0, 0]), np.array([0, 1]), vals)
    with pytest.raises(cs.Error) as err:
        smith_normal_form(M)
    assert err.value.code == "BAD_PARAMETER"


@pytest.mark.parametrize("M", [[[2.0, 4.0]], np.array([[2.0, 4.0]]),
                               np.array([[2, 4]], dtype=np.uint8),
                               [[Fraction(2), Fraction(8, 2)]]])
def test_integral_floats_are_integers(M):
    res = check_decomposition(M)
    assert res.diag == [2]
    assert_same(res, smith_normal_form(sparse([[2, 4]])))
    assert_same(smith_normal_form(sparse(M)), res)


def test_sparse_replay_matches_dense_reference(monkeypatch):
    """The sparse body repeats the dense elimination's every operation:
    U, S, V and v_inv equal the dense reference's, entry for entry."""
    cases = fixture_reductions(monkeypatch)
    rng = np.random.default_rng(8)
    for _ in range(300):
        m, n = rng.integers(1, 9, size=2)
        cases.append(rng.integers(-6, 7, size=(m, n))
                     * (rng.random((m, n)) < 0.5))
    # sparse blocks of 20-60 rows, about three entries a row and a fifth
    # of the rows empty, with units and non-units mixed: rows drop out of
    # the pivot search, unit pivots clear their rows in bulk and others
    # entry by entry, and remainders and the divisibility fold recur
    rng = np.random.default_rng(20)
    for _ in range(40):
        m, n = rng.integers(20, 61, size=2)
        M = rng.choice([-3, -2, -1, 1, 2, 3], size=(m, n)) \
            * (rng.random((m, n)) < 3 / n)
        M[rng.random(m) < 0.2] = 0
        cases.append(M)
    cases += [
        # the pivot does not divide the rest: the divisibility fix runs
        [[2, 0], [0, 3]], [[6, 0], [0, 4]], [[0, 4, 0], [6, 0, 0]],
        [[2, 0, 0], [0, 3, 0], [0, 0, 5]], [[4, 2], [2, 7]],
        # the inputs of test_fallback_is_exact
        [[2**40, 3], [5, 2**41 + 1]],
        np.array([[-2**63, 1], [3, 2**62]], dtype=np.int64),
        [[2**31 - 1, 0, 0], [0, 2**31 - 3, 0], [0, 0, 2**31 - 5]],
    ]
    for M in cases:
        res = smith_normal_form(sparse(M))
        for f, ref in zip(("U", "S", "V", "v_inv"), dense_smith(M)):
            x = whole(res, f)
            assert x.shape == ref.shape and (x == ref).all(), f


# sha256 of the records of the five reductions behind integral cohomology
# in every degree, in call order: a change to the pivot rule, the order of
# the operations or the record format moves them
RECORD_DIGESTS = {
    "s3": "c86e80cee817389e10e41a8465a9805689c060fad14ee4850be5e7e755214125",
    "s1xs2":
        "476583cfa2837ef667e4792bee7e6d4acf8ec6d9ac8135085ac0c604a3ebc51b",
    "t3": "b1f0ff3aa2e32b8c57a48be9326140907ba48f835c5f81fec822589b2cefa783",
    "rp3": "f3ad5978f877fc43a4677bd7d1f88ffc4d483a276408f1963d0d856967398f71",
    "t3(4)":
        "6daea358e1e5536c883f982b727c0accb17c307104f5817b483d3a1ceb54d30a",
}


@pytest.mark.parametrize("name", RECORD_DIGESTS)
def test_records_are_pinned(monkeypatch, name):
    runs = spy_on_body(monkeypatch)
    K = cs.generate(name)
    for k in range(K.dim + 1):
        cs.integral_generators(K, k)
    monkeypatch.undo()
    runs = with_entries(runs, [(1, 0), (0, K.n_simplices(3))])
    assert len(runs) == 5
    h = hashlib.sha256()
    for _, res in runs:
        h.update(json.dumps([list(map(int, res.shape)), res.diag,
                             res._row_ops, res._col_ops, res._rlab,
                             res._clab]).encode())
    assert h.hexdigest() == RECORD_DIGESTS[name]


def test_u_inv_tail(monkeypatch):
    """Rows rank: of U^-1, replayed from the operation record, times U
    give [0 | I]: they are exactly the last rows of the inverse."""
    cases = fixture_reductions(monkeypatch)
    rng = np.random.default_rng(10)
    for _ in range(300):
        m, n = rng.integers(1, 9, size=2)
        cases.append(rng.integers(-6, 7, size=(m, n))
                     * (rng.random((m, n)) < 0.5))
    cases += [[[2, 0], [0, 3]], [[4, 2], [2, 7]], [[0, 4, 0], [6, 0, 0]],
              [[2**40, 3], [5, 2**41 + 1]],
              np.zeros((3, 0), dtype=np.int64),
              np.zeros((0, 3), dtype=np.int64)]
    for M in cases:
        res = smith_normal_form(sparse(M))
        m, r = res.shape[0], res.rank
        tail = unit_lines(res, "U_inv", range(r, m))
        assert tail.shape == (m - r, m) and tail.dtype == object
        assert all(type(x) is int for x in tail.ravel())
        expect = np.zeros((m - r, m), dtype=object)
        expect[:, r:] = np.eye(m - r, dtype=int)
        assert (tail @ whole(res, "U") == expect).all()


def test_slice_accessors_match_dense_reference(monkeypatch):
    """Each slice read through SNFResult.lines equals the same slice of
    the dense reference, entry for entry and in Python ints, on partial,
    unordered position lists that hold every torsion position."""
    cases = fixture_reductions(monkeypatch)
    rng = np.random.default_rng(12)
    for _ in range(100):
        m, n = rng.integers(1, 9, size=2)
        cases.append(rng.integers(-6, 7, size=(m, n))
                     * (rng.random((m, n)) < 0.5))
    cases += [[[2, 0], [0, 3]], [[6, 0], [0, 4]], [[0, 4, 0], [6, 0, 0]],
              [[2, 0, 0], [0, 3, 0], [0, 0, 5]], [[4, 2], [2, 7]],
              [[6, 0], [0, 4], [0, 0]], [[12, 0, 0], [0, 18, 0]],
              np.zeros((3, 0), dtype=np.int64),
              np.zeros((0, 3), dtype=np.int64)]
    torsion_seen = 0

    def positions(size, torsion):
        rest = [p for p in rng.permutation(size).tolist()
                if p not in torsion]
        picked = torsion + rest[:rng.integers(0, len(rest) + 1)]
        return [picked[i] for i in rng.permutation(len(picked))]

    def check(x, ref):
        assert x.dtype == object and x.shape == ref.shape
        assert all(type(v) is int for v in x.ravel())
        assert (x == ref).all()

    for M in cases:
        U, S, V, v_inv = dense_smith(M)
        res = smith_normal_form(sparse(M))
        m, n = S.shape
        torsion = [i for i, d in enumerate(res.diag) if d > 1]
        torsion_seen += len(torsion)
        rows, cols = positions(m, torsion), positions(n, torsion)
        check(unit_lines(res, "U", rows).T, U[:, rows])
        check(unit_lines(res, "V", cols), V[cols, :])
        check(unit_lines(res, "v_inv", cols).T, v_inv[:, cols])
    assert torsion_seen > 0


def test_lines_walk_combined_starts(monkeypatch):
    """A start spanning several positions walks to the same combination
    of the dense reference's lines, entry for entry and in Python ints;
    combined rows of U^-1 times U give back their coefficients."""
    cases = fixture_reductions(monkeypatch)
    rng = np.random.default_rng(14)
    for _ in range(100):
        m, n = rng.integers(1, 9, size=2)
        cases.append(rng.integers(-6, 7, size=(m, n))
                     * (rng.random((m, n)) < 0.5))
    cases += [np.zeros((3, 0), dtype=np.int64),
              np.zeros((0, 3), dtype=np.int64)]
    for M in cases:
        U, _, V, v_inv = (X.astype(object) for X in dense_smith(M))
        res = smith_normal_form(sparse(M))
        for which, size, expect in (
                ("U", U.shape[0], lambda X: X @ U.T),
                ("U_inv", U.shape[0], None),
                ("V", V.shape[0], lambda X: X @ V),
                ("v_inv", V.shape[0], lambda X: X @ v_inv.T)):
            count = int(rng.integers(1, 5))
            X = (rng.integers(-3, 4, size=(count, size))
                 * (rng.random((count, size)) < 0.4)).astype(object)
            start = {p: {t: int(X[t, p]) for t in range(count) if X[t, p]}
                     for p in range(size)}
            got = res.lines(which, start)
            assert len(got) == size
            assert all(type(x) is int for line in got for x in line.values())
            Y = densify(got, count)
            if expect is None:
                assert (Y @ U == X).all(), which
            else:
                assert (Y == expect(X)).all(), which


@pytest.mark.parametrize("M", [
    [], [[]], np.zeros((0, 3), dtype=np.int64),
    np.zeros((3, 0), dtype=np.int64)])
def test_empty_matrix(M):
    m, n = np.shape(M) if np.ndim(M) == 2 else (0, 0)
    res = smith_normal_form(sparse(M))
    assert whole(res, "S").shape == (m, n) and res.diag == [] and \
        res.rank == 0
    U = whole(res, "U")
    assert (U == np.eye(m, dtype=object)).all()
    assert U.shape == (m, m)
    for X in (whole(res, "V"), whole(res, "v_inv")):
        assert X.shape == (n, n) and (X == np.eye(n, dtype=object)).all()


def test_walk_consumes_its_start_lines(t3):
    """A walk takes ownership of its start dicts: through an empty record,
    that of t3's d_3 (0 x n_3), each start line comes back as the very
    dict it was given, in both directions."""
    res = homology._snf(t3, 3)
    n = t3.n_simplices(3)
    assert res.shape == (0, n) and not res._col_ops
    for which in ("V", "v_inv"):
        start = {p: {t: 1} for t, p in enumerate(range(0, n, 7))}
        got = res.lines(which, start)
        assert len(got) == n
        assert all(got[p] is line for p, line in start.items())
        assert all(not got[p] for p in range(n) if p not in start)
