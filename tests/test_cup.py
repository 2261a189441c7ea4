import importlib

import numpy as np
import pytest

import csobstruct as cs
from csobstruct.complex_core import Cochain, SparseMatrix
from csobstruct.errors import Error
from conftest import random_int_cochain, random_real_cochain
from oracles import cup_reference

cup_mod = importlib.import_module("csobstruct.cup")   # cs.cup is the function


def test_constant_unit_is_identity(t3):
    one = Cochain.make(0, "int", [1] * t3.n_vertices)
    rng = np.random.default_rng(0)
    beta = random_real_cochain(rng, t3, 2)
    out = cs.cup(t3, one, beta)
    assert np.abs(out.values - beta.values).max() == 0


def test_cup_matches_loop_reference(fixtures3d, sphere2):
    """The gathered product equals the per-simplex loop exactly, for
    INT x INT, REAL x REAL and mixed factors, at every (k, l)."""
    rng = np.random.default_rng(9)
    for K in list(fixtures3d.values()) + [sphere2]:
        for k in range(K.dim + 1):
            for l in range(K.dim + 1 - k):
                ints = (random_int_cochain(rng, K, k, -50, 51),
                        random_int_cochain(rng, K, l, -50, 51))
                reals = (random_real_cochain(rng, K, k),
                         random_real_cochain(rng, K, l))
                for a, b in ((ints[0], ints[1]), (reals[0], reals[1]),
                             (ints[0], reals[1]), (reals[0], ints[1])):
                    out = cs.cup(K, a, b)
                    ref = cup_reference(K, a, b)
                    assert out.degree == k + l
                    assert out.ring == ("int" if a.ring == b.ring == "int"
                                        else "real")
                    assert out.values.dtype == ref.dtype
                    assert out.values.shape == ref.shape
                    if out.ring == "int":
                        assert all(type(x) is int for x in out.values)
                    assert (out.values == ref).all(), (k, l, a.ring, b.ring)


def test_degree_overflow(t3):
    a = Cochain.zeros(t3, 2)
    with pytest.raises(Error) as e:
        cs.cup(t3, a, a)
    assert e.value.code == "DEGREE_OVERFLOW"


@pytest.mark.parametrize("front", [True, False])
def test_negative_degree_is_out_of_range(s3, front):
    """A degree -1 cochain has no values, so it passes the length check;
    either factor is rejected before the face lookup."""
    empty, two = Cochain(-1, "real", np.zeros(0)), Cochain.zeros(s3, 2)
    with pytest.raises(Error) as e:
        cs.cup(s3, *((empty, two) if front else (two, empty)))
    assert e.value.code == "DEGREE_OUT_OF_RANGE"


def _ones(degree, length, ring="real"):
    return Cochain.make(degree, ring, [1] * length)


def _on_symmetry(obstruction):
    """obstruction of a symmetry of n values, zero bundle and connection."""
    return lambda K, n: obstruction(
        K, cs.VerticalSymmetry(_ones(1, n)),
        cs.make_bundle(K, Cochain.zeros(K, 2, "int")),
        cs.Connection(np.zeros(K.n_simplices(1))))


WRONG_LENGTH = {
    "cup_front": lambda K, n: cs.cup(K, _ones(1, n), Cochain.zeros(K, 2)),
    "cup_back": lambda K, n: cs.cup(K, Cochain.zeros(K, 2), _ones(1, n)),
    "pair_int": lambda K, n: cs.pair_with_fundamental(K, _ones(3, n, "int")),
    "pair_real": lambda K, n: cs.pair_with_fundamental(K, _ones(3, n)),
    "obstruction_pairing": _on_symmetry(cs.obstruction_pairing),
    "obstruction_class": _on_symmetry(cs.obstruction_class),
}


@pytest.mark.parametrize("shift", [-1, 5])
@pytest.mark.parametrize("op", sorted(WRONG_LENGTH))
def test_wrong_length_is_base_mismatch(t3, op, shift):
    """A cochain with more or fewer values than simplices of its degree
    (t3: 189 edges, 162 tetrahedra) is rejected, not read in part."""
    degree = 3 if op.startswith("pair") else 1
    with pytest.raises(Error) as e:
        WRONG_LENGTH[op](t3, t3.n_simplices(degree) + shift)
    assert e.value.code == "BASE_MISMATCH"


def test_leibniz_exact_integer(fixtures3d):
    rng = np.random.default_rng(1)
    for K in fixtures3d.values():
        for _ in range(25):
            k, l = 1, 1
            a = random_int_cochain(rng, K, k)
            b = random_int_cochain(rng, K, l)
            left = cs.apply_d(K, cs.cup(K, a, b)).values
            right = (cs.cup(K, cs.apply_d(K, a), b).values
                     + (-1) ** k * cs.cup(K, a, cs.apply_d(K, b)).values)
            assert all(int(x) == int(y) for x, y in zip(left, right))


def test_leibniz_real(t3):
    rng = np.random.default_rng(2)
    for k, l in [(0, 1), (0, 2), (1, 1)]:
        for _ in range(5):
            a = random_real_cochain(rng, t3, k)
            b = random_real_cochain(rng, t3, l)
            left = cs.apply_d(t3, cs.cup(t3, a, b)).values
            right = (cs.cup(t3, cs.apply_d(t3, a), b).values
                     + (-1) ** k * cs.cup(t3, a, cs.apply_d(t3, b)).values)
            scale = max(1.0, np.abs(left).max())
            assert np.abs(left - right).max() / scale < 1e-12


def test_stokes_pairing_of_exact_is_zero(fixtures3d):
    rng = np.random.default_rng(3)
    for K in fixtures3d.values():
        beta = random_real_cochain(rng, K, 2)
        val = cs.pair_with_fundamental(K, cs.apply_d(K, beta))
        assert abs(val) < 1e-12 * max(1.0, np.abs(beta.values).max())


def test_pairing_indicator(t3):
    z = cs.fundamental_cycle(t3)
    i = next(j for j, e in enumerate(z.values) if int(e) == 1)
    vals = np.zeros(t3.n_simplices(3))
    vals[i] = 1.0
    assert cs.pair_with_fundamental(t3, Cochain(3, "real", vals)) == 1.0


def test_h3_generator_pairs_to_unit(s3):
    w = cs.basis(s3, 3).representative_cochains()[0]
    assert abs(abs(cs.pair_with_fundamental(s3, w)) - 1.0) < 1e-12


def test_representative_independence(t3):
    rng = np.random.default_rng(4)
    g1, g2, _ = cs.basis(t3, 1).representative_cochains()
    eta = cs.basis(t3, 2).representative_cochains()[0]
    base = cs.pair_with_fundamental(t3, cs.cup(t3, g1, eta))
    for _ in range(10):
        rho = random_real_cochain(rng, t3, 0)
        shifted = Cochain(1, "real", g1.values + cs.apply_d(t3, rho).values)
        val = cs.pair_with_fundamental(t3, cs.cup(t3, shifted, eta))
        assert abs(val - base) < 1e-9


def test_graded_commutativity_at_class_level(t3, s1xs2):
    rng = np.random.default_rng(5)
    for K in (t3, s1xs2):
        b1 = cs.basis(K, 1)
        b2 = cs.basis(K, 2)
        b3 = cs.basis(K, 3)
        for _ in range(5):
            a_vals = np.zeros(K.n_simplices(1))
            for g in b1.representatives:
                a_vals += rng.standard_normal() * g
            w_vals = np.zeros(K.n_simplices(2))
            for g in b2.representatives:
                w_vals += rng.standard_normal() * g
            a = Cochain(1, "real", a_vals)
            w = Cochain(2, "real", w_vals)
            ab = b3.coordinates(cs.cup(K, a, w).values)
            ba = b3.coordinates(cs.cup(K, w, a).values)
            assert np.abs(ab - (-1) ** (1 * 2) * ba).max() < 1e-9


def test_pairing_matrices_nondegenerate(fixtures3d):
    expected_sizes = {"s3": 0, "t3": 3, "s1xs2": 1, "rp3": 0}
    for name, K in fixtures3d.items():
        for k in range(4):
            p = cs.poincare_pairing_matrix(K, k)
            assert p.nondegenerate, (name, k)
        p1 = cs.poincare_pairing_matrix(K, 1)
        assert p1.matrix.shape == (expected_sizes[name],) * 2


@pytest.mark.parametrize("k, shape, nondegenerate", [
    (0, (1, 1), True), (1, (0, 2), False), (2, (2, 0), False),
    (3, (1, 1), True)])
def test_pairing_matrix_of_suspended_torus(k, shape, nondegenerate):
    """The suspension of T^2 (C_3 x C_3 coned to 9 and to 10) has H^1 = 0
    and H^2 = R^2: no duality between degrees 1 and 2."""
    t2 = cs.ordered_product(cs.generate("circle(3)"),
                            cs.generate("circle(3)"))
    K = cs.SimplicialComplex([s + (v,) for s in t2.simplices[2]
                              for v in (9, 10)])
    p = cs.poincare_pairing_matrix(K, k)
    assert p.matrix.shape == shape
    assert p.nondegenerate is nondegenerate


def test_pinched_torus_pairing_is_square_and_degenerate():
    """A 3-layer cylinder over C_3 with both ends coned to vertex 0 is a
    pinched torus: H^0 = H^1 = H^2 = Z, and the 1 x 1 degree-1 pairing is
    zero, so a square matrix is degenerate."""
    def v(j, i):
        return 1 + 3 * j + i % 3
    top = [sorted(t) for j in range(3) for i in range(3) for t in (
        (v(j, i), v(j, i + 1), v(j + 1, i + 1)),
        (v(j, i), v(j + 1, i), v(j + 1, i + 1)))]
    top += [sorted((0, v(j, i), v(j, i + 1))) for j in (0, 3)
            for i in range(3)]
    K = cs.SimplicialComplex(top)
    assert [str(cs.homology_groups(K, k, "int")) for k in range(3)] == \
        ["Z^1", "Z^1", "Z^1"]
    p = cs.poincare_pairing_matrix(K, 1)
    assert p.matrix.tolist() == [[0.0]]
    assert p.nondegenerate is False


RP2 = [(0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 2, 5), (0, 3, 4), (1, 2, 3),
       (1, 2, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5)]


@pytest.mark.parametrize("top, k, code", [
    *(([(0, 1, 2)], k, "NOT_CLOSED") for k in range(3)),
    *(([(0, 1, 2, 3)], k, "NOT_CLOSED") for k in range(4)),
    *((RP2, k, "NON_ORIENTABLE") for k in range(3))])
def test_pairing_needs_fundamental_cycle(top, k, code):
    """The disk, the solid tetrahedron and the 6-vertex RP^2 have no
    fundamental cycle, so no degree has a pairing matrix, even where one
    of the two bases is empty."""
    K = cs.SimplicialComplex(top)
    with pytest.raises(cs.Error) as err:
        cs.poincare_pairing_matrix(K, k)
    assert err.value.code == code


def test_pairing_matrix_is_exact(monkeypatch, fixtures3d):
    """poincare_pairing_matrix pairs only INT cochains, each to a Python
    int, and hands the reduction a SparseMatrix of those ints (its
    nonzeros); .matrix holds the same values as floats, and each equals
    the loop-reference pairing of two integral generators.  On all four
    fixtures and every degree."""
    pair, snf = cup_mod.pair_with_fundamental, cup_mod.smith_normal_form
    paired, reduced = [], []

    def pair_spy(K, omega):
        value = pair(K, omega)
        paired.append((omega, value))
        return value

    def snf_spy(M):
        reduced.append(M)
        return snf(M)

    monkeypatch.setattr(cup_mod, "pair_with_fundamental", pair_spy)
    monkeypatch.setattr(cup_mod, "smith_normal_form", snf_spy)
    for name, K in fixtures3d.items():
        n = K.dim
        eps = [int(e) for e in cs.fundamental_cycle(K).values]
        for k in range(n + 1):
            paired.clear()
            reduced.clear()
            p = cs.poincare_pairing_matrix(K, k)
            g, h = (cs.integral_generators(K, d)[0] for d in (k, n - k))
            assert len(paired) == len(g) * len(h), (name, k)
            assert all(w.ring == "int" and type(v) is int
                       for w, v in paired), (name, k)
            (M,) = reduced
            assert isinstance(M, SparseMatrix), (name, k)
            assert M.shape == p.matrix.shape == (len(g), len(h))
            assert all(type(x) is int and x != 0 for x in M.vals), (name, k)
            assert p.matrix.dtype == float
            assert (np.asarray(M, dtype=float) == p.matrix).all(), (name, k)
            expect = np.array([[float(sum(e * v for e, v in zip(
                eps, cup_reference(K, Cochain(k, "int", a),
                                   Cochain(n - k, "int", b)))))
                for b in h] for a in g]).reshape(p.matrix.shape)
            assert (p.matrix == expect).all(), (name, k)


def test_t3_pairing_rank_three(t3):
    p = cs.poincare_pairing_matrix(t3, 1)
    assert np.linalg.matrix_rank(p.matrix) == 3


def test_s1xs2_pairing_unit(s1xs2):
    p = cs.poincare_pairing_matrix(s1xs2, 1)
    assert abs(abs(p.matrix[0, 0]) - 1.0) < 1e-12


def test_triple_cup_on_t3(t3):
    g1, g2, g3 = cs.basis(t3, 1).representative_cochains()
    val = cs.pair_with_fundamental(t3, cs.cup(t3, g1, cs.cup(t3, g2, g3)))
    assert abs(abs(val) - 1.0) < 1e-12


def test_triple_cup_on_t3_is_exact_in_ints(t3):
    """On INT cochains the pairing sums in Python ints: the integral H^1
    generators a, b, c of t3 give <a u b u c, [X]> = -1 exactly."""
    a, b, c = (Cochain(1, "int", g) for g in cs.integral_generators(t3, 1)[0])
    val = cs.pair_with_fundamental(t3, cs.cup(t3, a, cs.cup(t3, b, c)))
    assert type(val) is int and val == -1


@pytest.mark.parametrize("dtype", [np.int64, object],
                         ids=["int64", "object-of-int64"])
def test_int64_pairing_past_the_int64_range_is_exact(t3, dtype):
    """An INT top cochain given as an int64 array, or as an object array
    of numpy int64 scalars: entry i is 2^62 - i times the fundamental
    cycle's sign, so each product is 2^62 - i and their sum, about
    162 * 2^62, is far past the int64 range.  The pairing is that sum
    exactly, as a Python int."""
    eps = [int(e) for e in cs.fundamental_cycle(t3).values]
    vals = np.array([np.int64(e * (2 ** 62 - i)) for i, e in enumerate(eps)],
                    dtype=dtype)
    val = cs.pair_with_fundamental(t3, Cochain(3, "int", vals))
    assert type(val) is int
    assert val == sum(2 ** 62 - i for i in range(len(eps))) > 2 ** 63


def test_int_cup_of_int64_scalars_is_exact(t3):
    """INT factors given as object arrays of numpy int64 scalars, t3's
    integral H^1 generators times 2^40: the cup is Python ints equal to
    the exact products, 2^80 in size, where int64 products wrap to 0."""
    a, b = (Cochain(1, "int", np.array([np.int64(v * 2 ** 40) for v in g],
                                        dtype=object))
            for g in cs.integral_generators(t3, 1)[0][:2])
    out = cs.cup(t3, a, b)
    assert all(type(x) is int for x in out.values)
    assert (out.values == cup_reference(t3, a, b)).all()
    assert max(abs(x) for x in out.values) == 2 ** 80


def test_int_pairing_equals_real_pairing(t3, s1xs2):
    """Every pairing of an integral H^1 and H^2 generator is a Python int
    on the INT path and the same value on the REAL path."""
    for K in (t3, s1xs2):
        ones, twos = (cs.integral_generators(K, k)[0] for k in (1, 2))
        for g in ones:
            for h in twos:
                exact = cs.pair_with_fundamental(K, cs.cup(
                    K, Cochain(1, "int", g), Cochain(2, "int", h)))
                real = cs.pair_with_fundamental(K, cs.cup(
                    K, Cochain(1, "real", g.astype(float)),
                    Cochain(2, "real", h.astype(float))))
                assert type(exact) is int and exact == real
