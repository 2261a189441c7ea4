import numpy as np
import pytest

import csobstruct as cs
from csobstruct import obstruction
from csobstruct.complex_core import Cochain
from csobstruct.errors import Error
from conftest import random_int_cocycle, random_real_cochain
from oracles import cup_reference


def trivial(K):
    return cs.make_bundle(K, Cochain.zeros(K, 2, "int"))


def zero_conn(K):
    return cs.Connection(np.zeros(K.n_simplices(1)))


@pytest.fixture(scope="module")
def monopole(s1xs2):
    free, _ = cs.integral_generators(s1xs2, 2)
    return cs.make_bundle(s1xs2, Cochain(2, "int", free[0]))


class TestSymmetry:
    def test_generator_accepted(self, t3):
        g = cs.basis(t3, 1).representative_cochains()[0]
        sym = cs.symmetry_from_oneform(t3, g)
        assert np.abs(sym.gamma.values - g.values).max() == 0

    def test_exact_oneform_accepted(self, t3):
        rng = np.random.default_rng(0)
        df = cs.apply_d(t3, random_real_cochain(rng, t3, 0))
        cs.symmetry_from_oneform(t3, df)

    def test_non_closed_rejected(self, t3):
        rng = np.random.default_rng(1)
        while True:
            g = random_real_cochain(rng, t3, 1)
            if np.abs(cs.apply_d(t3, g).values).max() > 1e-3:
                break
        with pytest.raises(Error) as e:
            cs.symmetry_from_oneform(t3, g)
        assert e.value.code == "NOT_CLOSED"


class TestPairing:
    def test_flat_trivial_gives_zero(self, t3):
        bundle = trivial(t3)
        a = cs.flatten(bundle).connection
        for g in cs.basis(t3, 1).representative_cochains():
            sym = cs.VerticalSymmetry(g)
            assert abs(cs.obstruction_pairing(t3, sym, bundle, a)) < 1e-9

    def test_monopole_four_pi(self, s1xs2, monopole):
        g = cs.basis(s1xs2, 1).representative_cochains()[0]
        val = cs.obstruction_pairing(s1xs2, cs.VerticalSymmetry(g),
                                     monopole, zero_conn(s1xs2))
        assert abs(abs(val) - 4 * np.pi) < 1e-6 * 4 * np.pi

    def test_exact_gamma_gives_zero(self, s1xs2, monopole):
        rng = np.random.default_rng(2)
        df = cs.apply_d(s1xs2, random_real_cochain(rng, s1xs2, 0))
        sym = cs.symmetry_from_oneform(s1xs2, df)
        val = cs.obstruction_pairing(s1xs2, sym, monopole,
                                     zero_conn(s1xs2))
        assert abs(val) < 1e-9

    def test_invariance_under_representative_changes(self, s1xs2,
                                                     monopole):
        rng = np.random.default_rng(3)
        g = cs.basis(s1xs2, 1).representative_cochains()[0]
        base = cs.obstruction_pairing(s1xs2, cs.VerticalSymmetry(g),
                                      monopole, zero_conn(s1xs2))
        for _ in range(10):
            # gamma + dh
            dh = cs.apply_d(s1xs2, random_real_cochain(rng, s1xs2, 0))
            g2 = Cochain(1, "real", g.values + dh.values)
            v1 = cs.obstruction_pairing(s1xs2, cs.VerticalSymmetry(g2),
                                        monopole, zero_conn(s1xs2))
            # arbitrary shift of A
            a2 = cs.Connection(rng.standard_normal(
                s1xs2.n_simplices(1)))
            v2 = cs.obstruction_pairing(s1xs2, cs.VerticalSymmetry(g),
                                        monopole, a2)
            assert abs(v1 - base) < 1e-8 * max(1.0, abs(base))
            assert abs(v2 - base) < 1e-8 * max(1.0, abs(base))

    def test_invariance_under_gauge(self, t3):
        rng = np.random.default_rng(4)
        bundle = cs.make_bundle(t3, random_int_cocycle(rng, t3))
        a = cs.Connection(rng.standard_normal(t3.n_simplices(1)))
        g = cs.basis(t3, 1).representative_cochains()[1]
        base = cs.obstruction_pairing(t3, cs.VerticalSymmetry(g), bundle, a)
        free, _ = cs.integral_generators(t3, 1)
        m = Cochain(1, "int", free[2])
        f = random_real_cochain(rng, t3, 0)
        a2 = cs.gauge_transform(bundle, a, f, m)
        val = cs.obstruction_pairing(t3, cs.VerticalSymmetry(g), bundle, a2)
        assert abs(val - base) < 1e-8 * max(1.0, abs(base))

    def test_scaling_linearity(self, s1xs2, monopole):
        g = cs.basis(s1xs2, 1).representative_cochains()[0]
        base = cs.obstruction_pairing(s1xs2, cs.VerticalSymmetry(g),
                                      monopole, zero_conn(s1xs2))
        g3 = Cochain(1, "real", 3.0 * g.values)
        val = cs.obstruction_pairing(s1xs2, cs.VerticalSymmetry(g3),
                                     monopole, zero_conn(s1xs2))
        assert abs(val - 3.0 * base) < 1e-9 * max(1.0, abs(base))


class TestObstructionClass:
    def test_flat_zero(self, t3):
        bundle = trivial(t3)
        a = cs.flatten(bundle).connection
        g = cs.basis(t3, 1).representative_cochains()[0]
        coords = cs.obstruction_class(t3, cs.VerticalSymmetry(g), bundle, a)
        assert np.abs(coords).max() < 1e-9

    def test_monopole_nonzero_consistent_with_pairing(self, s1xs2,
                                                      monopole):
        g = cs.basis(s1xs2, 1).representative_cochains()[0]
        sym = cs.VerticalSymmetry(g)
        coords = cs.obstruction_class(s1xs2, sym, monopole,
                                      zero_conn(s1xs2))
        pairing = cs.obstruction_pairing(s1xs2, sym, monopole,
                                         zero_conn(s1xs2))
        # H^3 generator pairs to +-1, so coordinates match up to that sign
        assert abs(abs(coords[0]) - abs(pairing)) < 1e-8


class TestSharpness:
    def test_trivial_bundle_on_t3(self, t3):
        v = cs.sharpness_check(t3, trivial(t3))
        assert v.flat_exists and v.witness is None
        assert v.all_pairings.shape == (3,)
        assert np.abs(v.all_pairings).max() < 1e-9

    def test_monopole_witness(self, s1xs2, monopole):
        v = cs.sharpness_check(s1xs2, monopole)
        assert not v.flat_exists
        gamma, val = v.witness
        assert abs(abs(val) - 4 * np.pi) < 1e-6 * 4 * np.pi

    def test_torsion_bundle_on_rp3(self, rp3):
        _, tors = cs.integral_generators(rp3, 2)
        bundle = cs.make_bundle(rp3, Cochain(2, "int", tors[0][1]))
        v = cs.sharpness_check(rp3, bundle)
        assert v.flat_exists
        assert v.all_pairings.size == 0

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, 0.0])
    def test_bad_tol_is_bad_parameter(self, s3, s1xs2, tol):
        for K in (s3, s1xs2):
            with pytest.raises(Error) as e:
                cs.sharpness_check(K, trivial(K), tol=tol)
            assert e.value.code == "BAD_PARAMETER"

    def test_each_pairing_belongs_to_its_gamma(self, t3):
        """On t3 with c = g_0 + 2 g_1 + 3 g_2 over the free generators of
        H^2, pairing i is 4 pi <gamma_i u c, [X]> for the i-th H^1
        representative, and the witness is one gamma with its own value;
        the three expected values differ, so a permuted list fails."""
        free, _ = cs.integral_generators(t3, 2)
        c = Cochain(2, "int", sum(m * g for m, g in zip((1, 2, 3), free)))
        bundle = cs.make_bundle(t3, c)
        eps = cs.fundamental_cycle(t3).values
        gammas = cs.basis(t3, 1).representative_cochains()
        want = [4 * np.pi * int(eps @ cup_reference(t3, Cochain(
            1, "int", [int(x) for x in g.values]), c)) for g in gammas]
        assert len(set(want)) == len(want) and 0 not in want
        got_gammas, got = cs.h1_pairings(t3, bundle,
                                         cs.flatten(bundle).connection)
        assert [g.values.tolist() for g in got_gammas] == \
            [g.values.tolist() for g in gammas]
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
        v = cs.sharpness_check(t3, bundle)
        assert not v.flat_exists
        gamma, value = v.witness
        i = [g.values.tolist() for g in gammas].index(gamma.values.tolist())
        assert abs(value - want[i]) <= 1e-9 * abs(want[i])
        assert abs(want[i]) == max(map(abs, want))

    def test_manifolds_build_no_pairing_matrix(self, fixtures3d,
                                               monkeypatch):
        """The duality check runs only when the two verdicts disagree,
        which they never do on the manifold fixtures."""
        built = []
        monkeypatch.setattr(obstruction, "poincare_pairing_matrix",
                            lambda *args: built.append(args))
        rng = np.random.default_rng(18)
        for K in fixtures3d.values():
            for _ in range(5):
                cs.sharpness_check(K, cs.make_bundle(
                    K, random_int_cocycle(rng, K)))
            cs.sharpness_check(K, trivial(K))
        assert built == []

    def test_biconditional_randomized(self, t3, s1xs2):
        rng = np.random.default_rng(5)
        for K in (t3, s1xs2):
            for _ in range(20):
                bundle = cs.make_bundle(K, random_int_cocycle(rng, K))
                v = cs.sharpness_check(K, bundle)
                assert v.flat_exists == (v.witness is None)
                if not v.flat_exists:
                    assert abs(v.witness[1]) > 1e-3

    def test_corollary_no_global_current_when_witness(self, s1xs2,
                                                      monopole):
        v = cs.sharpness_check(s1xs2, monopole)
        gamma, _ = v.witness
        f = cs.curvature(monopole, cs.flatten(monopole).connection)
        w = cs.cup(s1xs2, gamma, f)
        res = cs.find_primitive(s1xs2, w)
        assert not res.exact
