import sys

import numpy as np
import pytest

import csobstruct as cs
from csobstruct import homology
from csobstruct.complex_core import Cochain
from csobstruct.errors import Error
from conftest import (random_int_cochain, random_int_cocycle,
                      random_real_cochain)
from oracles import cs_gradient_fd, cs_quadratic_matrix


@pytest.fixture(scope="module")
def monopole(s1xs2):
    free, _ = cs.integral_generators(s1xs2, 2)
    return cs.make_bundle(s1xs2, Cochain(2, "int", free[0]))


@pytest.fixture(scope="module")
def torsion_bundle(rp3):
    _, tors = cs.integral_generators(rp3, 2)
    order, gen = tors[0]
    assert order == 2
    return cs.make_bundle(rp3, Cochain(2, "int", gen))


def trivial(K):
    return cs.make_bundle(K, Cochain.zeros(K, 2, "int"))


def zero_conn(K):
    return cs.Connection(np.zeros(K.n_simplices(1)))


class TestMakeBundle:
    def test_trivial(self, t3):
        b = trivial(t3)
        assert not any(int(v) for v in b.chern_cocycle.values)

    def test_monopole_is_integral_cocycle(self, monopole, s1xs2):
        dc = cs.apply_d(s1xs2, monopole.chern_cocycle)
        assert all(int(v) == 0 for v in dc.values)

    def test_non_cocycle_rejected(self, t3):
        rng = np.random.default_rng(0)
        while True:
            c = random_int_cochain(rng, t3, 2)
            dc = cs.apply_d(t3, c)
            if any(int(v) for v in dc.values):
                break
        with pytest.raises(Error) as e:
            cs.make_bundle(t3, c)
        assert e.value.code == "NOT_A_COCYCLE"

    def test_float_forms_are_fixed_at_construction(self, fixtures3d):
        """two_pi_c and real_class are 2*pi*c and 2*pi times c's
        coordinates in the real H^2 basis, bit for bit, and flatten's
        tolerance scale is 2*pi*max|c|."""
        rng = np.random.default_rng(12)
        for K in fixtures3d.values():
            c = random_int_cocycle(rng, K)
            b = cs.make_bundle(K, c)
            cf = c.as_float()
            assert b.two_pi_c.tobytes() == (2.0 * np.pi * cf).tobytes()
            assert b.real_class.tobytes() == (2.0 * np.pi * cs.basis(
                K, 2).coordinates(cf)).tobytes()
            assert cs.flatten(b).tolerance == cs.bundle.FLAT_RTOL * (
                1.0 + 2.0 * np.pi * float(np.max(np.abs(cf))))

    def test_chern_cocycle_converted_once(self, monkeypatch, t3):
        """One warm-bundles op (make_bundle, flatten, real_chern_class,
        sharpness_check, obstruction_class) reads the Chern cocycle's
        float form once, at construction."""
        c = random_int_cocycle(np.random.default_rng(13), t3)
        calls = []
        as_float = Cochain.as_float

        def spy(self):
            calls.append(self is c)
            return as_float(self)

        monkeypatch.setattr(Cochain, "as_float", spy)
        b = cs.make_bundle(t3, c)
        flat = cs.flatten(b)
        cs.real_chern_class(b)
        verdict = cs.sharpness_check(t3, b)
        gamma = cs.basis(t3, 1).representative_cochains()[0] \
            if verdict.witness is None else verdict.witness[0]
        cs.obstruction_class(t3, cs.VerticalSymmetry(gamma), b,
                             flat.connection)
        assert calls.count(True) == 1

    def test_real_chern_class_is_a_copy(self, t3):
        b = cs.make_bundle(t3, random_int_cocycle(np.random.default_rng(14),
                                                  t3))
        coords = cs.real_chern_class(b)
        coords[:] = 0.0
        assert cs.real_chern_class(b).tobytes() == b.real_class.tobytes()


class TestCurvature:
    def test_trivial_flat(self, t3):
        f = cs.curvature(trivial(t3), zero_conn(t3))
        assert np.abs(f.values).max() == 0

    def test_gauge_trivial(self, t3):
        rng = np.random.default_rng(1)
        df = cs.apply_d(t3, random_real_cochain(rng, t3, 0))
        f = cs.curvature(trivial(t3), cs.Connection(df.values))
        assert np.abs(f.values).max() < 1e-12

    def test_monopole_curvature(self, monopole, s1xs2):
        f = cs.curvature(monopole, zero_conn(s1xs2))
        c = np.asarray([float(v) for v in monopole.chern_cocycle.values])
        assert np.abs(f.values - 2 * np.pi * c).max() == 0
        gamma = cs.basis(s1xs2, 1).representative_cochains()[0]
        val = cs.pair_with_fundamental(s1xs2, cs.cup(s1xs2, gamma, f))
        assert abs(abs(val) - 2 * np.pi) < 1e-9

    def test_bianchi(self, fixtures3d):
        rng = np.random.default_rng(2)
        for K in fixtures3d.values():
            b = cs.make_bundle(K, random_int_cocycle(rng, K))
            a = cs.Connection(rng.standard_normal(K.n_simplices(1)))
            df = cs.apply_d(K, cs.curvature(b, a))
            assert np.abs(df.values).max() < 1e-10


class TestChernClass:
    def test_trivial_zero(self, t3):
        assert np.abs(cs.real_chern_class(trivial(t3))).max() == 0

    def test_monopole_two_pi(self, monopole):
        coords = cs.real_chern_class(monopole)
        assert coords.shape == (1,)
        assert abs(abs(coords[0]) - 2 * np.pi) < 1e-9

    def test_torsion_bundle_zero_real_class(self, torsion_bundle):
        assert cs.real_chern_class(torsion_bundle).size == 0

    def test_class_independent_of_connection(self, t3, s1xs2):
        rng = np.random.default_rng(3)
        for K in (t3, s1xs2):
            b2 = cs.basis(K, 2)
            bundle = cs.make_bundle(K, random_int_cocycle(rng, K))
            expected = cs.real_chern_class(bundle)
            for _ in range(20):
                a = cs.Connection(rng.standard_normal(K.n_simplices(1)))
                coords = b2.coordinates(cs.curvature(bundle, a).values)
                assert np.abs(coords - expected).max() < 1e-8


class TestFlatten:
    def test_trivial_bundle_flat(self, fixtures3d):
        for K in fixtures3d.values():
            res = cs.flatten(trivial(K))
            assert res.flat and res.residual <= 1e-9

    def test_monopole_not_flat(self, monopole):
        res = cs.flatten(monopole)
        assert not res.flat
        assert res.residual > 0.1
        assert abs(abs(res.obstruction_coords[0]) - 2 * np.pi) < 1e-9

    def test_torsion_bundle_flat(self, torsion_bundle):
        res = cs.flatten(torsion_bundle)
        assert res.flat
        assert res.residual <= 1e-9

    def test_flat_iff_real_class_vanishes(self, t3, s1xs2):
        rng = np.random.default_rng(4)
        for K in (t3, s1xs2):
            for _ in range(50):
                bundle = cs.make_bundle(K, random_int_cocycle(rng, K))
                res = cs.flatten(bundle)
                class_zero = (res.obstruction_coords.size == 0 or
                              np.abs(res.obstruction_coords).max() < 1e-8)
                assert res.flat == class_zero


class TestFlatSolve:
    def test_one_solve_per_bundle(self, t3):
        """One warm-bundles op (make_bundle, flatten, real_chern_class,
        sharpness_check, obstruction_class) runs the least-squares solve
        once, at the first flatten, not at construction, and so does
        sharpness_check on a fresh bundle."""
        solve, calls = homology._least_squares.__code__, []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is solve:
                calls.append(frame.f_back.f_code.co_name)

        c = random_int_cocycle(np.random.default_rng(15), t3)
        sys.setprofile(profile)
        try:
            b = cs.make_bundle(t3, c)
            built = list(calls)
            flat = cs.flatten(b)
            cs.real_chern_class(b)
            verdict = cs.sharpness_check(t3, b)
            gamma = cs.basis(t3, 1).representative_cochains()[0] \
                if verdict.witness is None else verdict.witness[0]
            cs.obstruction_class(t3, cs.VerticalSymmetry(gamma), b,
                                 flat.connection)
            op = list(calls)
            cs.sharpness_check(t3, cs.make_bundle(t3, c))
        finally:
            sys.setprofile(None)
        assert built == [] and op == ["_flat_solve"]
        assert calls == ["_flat_solve", "_flat_solve"]

    def test_mutated_connection_leaves_the_solve(self, t3, rp3):
        """Zeroing the connection one flatten returned changes neither a
        later flatten nor a later sharpness_check of the same bundle."""
        rng = np.random.default_rng(16)
        for K in (t3, rp3):
            b = cs.make_bundle(K, random_int_cocycle(rng, K))
            first, verdict = cs.flatten(b), cs.sharpness_check(K, b)
            connection = first.connection.values.tobytes()
            first.connection.values[:] = 0.0
            again, verdict2 = cs.flatten(b), cs.sharpness_check(K, b)
            assert again.connection.values.tobytes() == connection
            assert again.residual == first.residual == verdict2.residual
            assert verdict2.all_pairings.tobytes() == \
                verdict.all_pairings.tobytes()

    def test_cached_flatten_is_the_direct_solve(self, s1xs2, t3, rp3):
        """A second flatten of a bundle gives the bytes of the solve
        dA = -2*pi*c called directly."""
        rng = np.random.default_rng(17)
        for K in (s1xs2, t3, rp3):
            c = random_int_cocycle(rng, K)
            b = cs.make_bundle(K, c)
            cs.flatten(b)
            res = cs.flatten(b)
            a_star, f = homology._least_squares(
                K, 2, -(2.0 * np.pi * c.as_float()))
            residual = float(np.max(np.abs(f))) if f.size else 0.0
            assert res.connection.values.tobytes() == a_star.tobytes()
            assert res.residual == residual
            assert res.flat == (residual <= res.tolerance)


class TestGauge:
    def test_small_gauge_preserves_curvature(self, t3):
        rng = np.random.default_rng(5)
        bundle = cs.make_bundle(t3, random_int_cocycle(rng, t3))
        a = cs.Connection(rng.standard_normal(t3.n_simplices(1)))
        f0 = cs.curvature(bundle, a).values
        f = random_real_cochain(rng, t3, 0)
        m0 = Cochain.zeros(t3, 1, "int")
        a2 = cs.gauge_transform(bundle, a, f, m0)
        f1 = cs.curvature(bundle, a2).values
        assert np.abs(f1 - f0).max() < 1e-12 * max(1.0, np.abs(f0).max())

    def test_large_gauge_shifts_holonomy(self, t3):
        free, _ = cs.integral_generators(t3, 1)
        m = Cochain(1, "int", free[0])
        bundle = trivial(t3)
        a = zero_conn(t3)
        a2 = cs.gauge_transform(bundle, a, Cochain.zeros(t3, 0), m)
        f1 = cs.curvature(bundle, a2).values
        assert np.abs(f1).max() < 1e-9
        shift = cs.basis(t3, 1).coordinates(a2.values - a.values)
        expect = np.zeros(3)
        expect[0] = 2 * np.pi
        assert np.abs(shift - expect).max() < 1e-9

    def test_int_gauge_equals_real_gauge(self, t3):
        """An INT gauge 0-cochain f and the same f as REAL give the same
        float64 connection, and cs_action runs on both."""
        rng = np.random.default_rng(11)
        a = cs.Connection(rng.standard_normal(t3.n_simplices(1)))
        m = Cochain(1, "int", cs.integral_generators(t3, 1)[0][0])
        f = random_int_cochain(rng, t3, 0)
        a_int, a_real = (cs.gauge_transform(trivial(t3), a, g, m) for g in
                         (f, Cochain(0, "real", f.as_float())))
        assert a_int.values.dtype == a_real.values.dtype == np.float64
        assert (a_int.values == a_real.values).all()
        assert cs.cs_action(t3, a_int) == cs.cs_action(t3, a_real)

    def test_non_cocycle_m_rejected(self, t3):
        rng = np.random.default_rng(6)
        while True:
            m = random_int_cochain(rng, t3, 1)
            if any(int(v) for v in cs.apply_d(t3, m).values):
                break
        with pytest.raises(Error) as e:
            cs.gauge_transform(trivial(t3), zero_conn(t3),
                               Cochain.zeros(t3, 0), m)
        assert e.value.code == "M_NOT_COCYCLE"

    def test_f_of_degree_one_rejected(self, t3):
        with pytest.raises(Error) as e:
            cs.gauge_transform(trivial(t3), zero_conn(t3),
                               Cochain.zeros(t3, 1),
                               Cochain.zeros(t3, 1, "int"))
        assert e.value.code == "DEGREE_OUT_OF_RANGE"


class TestChernSimons:
    def test_zero_connection(self, s3):
        assert cs.cs_action(s3, zero_conn(s3)) == 0.0

    def test_closed_connection(self, t3):
        rng = np.random.default_rng(7)
        vals = np.zeros(t3.n_simplices(1))
        for g in cs.basis(t3, 1).representatives:
            vals += rng.standard_normal() * g
        vals += cs.apply_d(t3, random_real_cochain(rng, t3, 0)).values
        assert abs(cs.cs_action(t3, cs.Connection(vals))) < 1e-10

    def test_small_gauge_invariance(self, s3, t3):
        rng = np.random.default_rng(8)
        for K in (s3, t3):
            a = cs.Connection(rng.standard_normal(K.n_simplices(1)))
            base = cs.cs_action(K, a)
            df = cs.apply_d(K, random_real_cochain(rng, K, 0)).values
            shifted = cs.cs_action(K, cs.Connection(a.values + df))
            assert abs(shifted - base) < 1e-10 * max(1.0, abs(base))

    def test_gradient_matches_finite_differences(self, s3):
        rng = np.random.default_rng(9)
        for _ in range(5):
            a = cs.Connection(rng.standard_normal(s3.n_simplices(1)))
            grad = cs.cs_gradient(s3, a).values
            fd = cs_gradient_fd(s3, a).values
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(grad - fd).max() / scale < 1e-6

    def test_gradient_matches_quadratic_form(self, s3, t3, rp3):
        """The gather gradient equals (C + C^T) A with the dense C."""
        rng = np.random.default_rng(11)
        for K in (s3, t3, rp3):
            C = cs_quadratic_matrix(K)
            for _ in range(3):
                a = rng.standard_normal(K.n_simplices(1))
                grad = cs.cs_gradient(K, cs.Connection(a)).values
                assert np.abs(grad - (C + C.T) @ a).max() <= 1e-12
                assert abs(a @ C @ a - cs.cs_action(K, cs.Connection(a))) \
                    <= 1e-12 * max(1.0, abs(a @ C @ a))

    def test_list_connection_equals_array(self, s3, t3):
        """A Connection holds float64 values, so a list and an array of
        the same numbers give equal gradients and actions."""
        rng = np.random.default_rng(15)
        for K in (s3, t3):
            a = rng.standard_normal(K.n_simplices(1))
            listed, array = cs.Connection(a.tolist()), cs.Connection(a)
            assert listed.values.dtype == np.float64
            assert cs.Connection(a).values is a
            assert (cs.cs_gradient(K, listed).values ==
                    cs.cs_gradient(K, array).values).all()
            assert cs.cs_action(K, listed) == cs.cs_action(K, array)

    @pytest.mark.parametrize("n", [0, 3, 11])
    def test_gradient_wrong_length_is_base_mismatch(self, s3, n):
        with pytest.raises(Error) as err:
            cs.cs_gradient(s3, cs.Connection(np.zeros(n)))
        assert err.value.code == "BASE_MISMATCH"

    def test_gradient_vanishes_for_flat(self, t3):
        rng = np.random.default_rng(10)
        vals = cs.apply_d(t3, random_real_cochain(rng, t3, 0)).values
        for g in cs.basis(t3, 1).representatives:
            vals = vals + rng.standard_normal() * g
        grad = cs.cs_gradient(t3, cs.Connection(vals)).values
        assert np.abs(grad).max() < 1e-10
