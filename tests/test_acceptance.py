"""Acceptance suite: one test per shipped criterion.

Each test exercises the stated tolerances and prints a single
"PASS: criterion N ..." line on success (a failing assertion leaves the
usual pytest FAILED line instead).
"""

import sys
import time

import numpy as np
import pytest

import csobstruct as cs
from csobstruct.complex_core import Cochain
from conftest import (random_closed_cochain, random_int_cochain,
                      random_int_cocycle, random_real_cochain)
from oracles import betti as betti_oracle, coboundary_csr, \
    cs_gradient_fd, duality_coordinates, torsion as torsion_oracle


def _pass(msg):
    print(f"PASS: {msg}", file=sys.__stdout__, flush=True)


def test_criterion_1_topology_baseline(fixtures3d):
    """Betti tables and RP^3 torsion vs independent exact oracles, < 30 s."""
    t0 = time.perf_counter()
    expected = {"s3": (1, 0, 0, 1), "t3": (1, 3, 3, 1),
                "s1xs2": (1, 1, 1, 1), "rp3": (1, 0, 0, 1)}
    for name, K in fixtures3d.items():
        got = tuple(cs.homology_groups(K, k, "real").betti
                    for k in range(4))
        assert got == expected[name], (name, got)
        for k in range(4):
            assert got[k] == betti_oracle(K, k), (name, k)
    # RP^3: Z/2 torsion (H_1 in homology, equivalently H^2 in cohomology;
    # both read off the invariant factors of d_1)
    rp3 = fixtures3d["rp3"]
    assert cs.homology_groups(rp3, 2, "int").torsion == [2]
    assert cs.homology_groups(rp3, 1, "int").torsion == []
    assert torsion_oracle(rp3, 2) == [2]
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"{elapsed:.1f}s"
    _pass(f"criterion 1 (topology baseline vs oracles, {elapsed:.1f}s)")


def test_criterion_2_structural_identities(fixtures3d):
    """d.d = 0 exactly; Leibniz to 1e-12 on 100 random integer pairs per
    fixture; Poincare pairing nondegenerate on every fixture."""
    rng = np.random.default_rng(100)
    for name, K in fixtures3d.items():
        for k in range(K.dim):
            d_k = coboundary_csr(K, k)
            if k + 1 < K.dim:
                dd = coboundary_csr(K, k + 1) @ d_k
                assert dd.nnz == 0 or np.abs(dd.toarray()).max() == 0
        for i in range(100):
            k, l = [(0, 1), (0, 2), (1, 1), (1, 2), (0, 0)][i % 5]
            a = random_int_cochain(rng, K, k)
            b = random_int_cochain(rng, K, l)
            if k + l + 1 > K.dim:
                continue
            left = cs.apply_d(K, cs.cup(K, a, b)).values
            right = (cs.cup(K, cs.apply_d(K, a), b).values
                     + (-1) ** k * cs.cup(K, a, cs.apply_d(K, b)).values)
            diff = np.abs(np.asarray([float(x - y) for x, y
                                      in zip(left, right)]))
            assert (diff.max() if diff.size else 0.0) <= 1e-12, (name, k, l)
        for k in range(4):
            assert cs.poincare_pairing_matrix(K, k).nondegenerate, (name, k)
    _pass("criterion 2 (d.d=0 exact, Leibniz 1e-12 x100/fixture, "
          "pairings nondegenerate)")


def test_criterion_3_theorem_2_biconditional(t3, s1xs2):
    """flat <=> no witness over >= 50 random integer 2-cocycles per
    fixture; witness pairings >= 1e3*tol; monopole witness = +-4pi
    within 1e-6 relative.  Runtime < 2 min."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    tol = 1e-6
    for K in (t3, s1xs2):
        for _ in range(50):
            bundle = cs.make_bundle(K, random_int_cocycle(rng, K))
            v = cs.sharpness_check(K, bundle, tol=tol)
            assert v.flat_exists == (v.witness is None)
            if v.witness is not None:
                assert abs(v.witness[1]) >= 1e3 * tol
    free, _ = cs.integral_generators(s1xs2, 2)
    monopole = cs.make_bundle(s1xs2, Cochain(2, "int", free[0]))
    v = cs.sharpness_check(s1xs2, monopole, tol=tol)
    assert not v.flat_exists
    assert abs(abs(v.witness[1]) - 4 * np.pi) <= 1e-6 * 4 * np.pi
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"{elapsed:.1f}s"
    _pass(f"criterion 3 (Theorem 2 biconditional, 50+50 cocycles, "
          f"monopole witness 4pi, {elapsed:.1f}s)")


def test_criterion_4_theorem_1_direction(t3, s1xs2, covers):
    """Whenever flatten succeeds: all obstruction pairings vanish, the
    curvature current globalizes, and cup(gamma, F) has a global
    primitive at top degree."""
    rng = np.random.default_rng(102)
    flat_runs = 0
    for name in ("t3", "s1xs2"):
        K = covers[name].complex
        # random cocycles plus guaranteed-exact ones so several flat
        # bundles always show up
        cocycles = [random_int_cocycle(rng, K) for _ in range(10)]
        cocycles += [cs.apply_d(K, random_int_cochain(rng, K, 1))
                     for _ in range(5)]
        for c in cocycles:
            bundle = cs.make_bundle(K, c)
            flat = cs.flatten(bundle)
            if not flat.flat:
                continue
            flat_runs += 1
            a = cs.Connection(rng.standard_normal(K.n_simplices(1)))
            f = cs.curvature(bundle, a)
            # the would-be conserved current: F globalizes to a potential
            rep = cs.current_globality(covers[name], f)
            assert rep.globalizable
            for g in cs.basis(K, 1).representative_cochains():
                sym = cs.VerticalSymmetry(g)
                val = cs.obstruction_pairing(K, sym, bundle,
                                             flat.connection)
                assert abs(val) <= 1e-6
                w = cs.cup(K, g, f)
                assert cs.find_primitive(K, w).exact
    assert flat_runs >= 5
    _pass(f"criterion 4 (Theorem 1 direction on {flat_runs} flat runs: "
          "pairings zero, currents globalize, cup(gamma,F) exact)")


def test_criterion_5_torsion_discrimination(rp3):
    """The RP^3 torsion bundle is flat (residual <= 1e-9) despite a
    nonzero integral Chern class."""
    _, tors = cs.integral_generators(rp3, 2)
    order, gen = tors[0]
    assert order == 2
    bundle = cs.make_bundle(rp3, Cochain(2, "int", gen))
    res = cs.flatten(bundle)
    assert res.flat and res.residual <= 1e-9
    # the class really is nonzero over Z: the cocycle has no integer
    # primitive (it is the order-2 generator), while its real class is 0
    assert cs.real_chern_class(bundle).size == 0
    _pass(f"criterion 5 (RP^3 torsion bundle flat, residual "
          f"{res.residual:.2e} <= 1e-9, integral class of order 2)")


def test_criterion_6_cech_de_rham_agreement(covers):
    """>= 200 randomized closed 1-/2-cochains across fixtures: descent
    class matches the simplicial class, and the coordinates read by
    Poincare duality, to 1e-8; globality verdicts never disagree."""
    rng = np.random.default_rng(103)
    plan = [("s3", 120), ("s1xs2", 50), ("t3", 30)]
    checked = 0
    for name, n in plan:
        cover = covers[name]
        K = cover.complex
        for i in range(n):
            k = 1 + i % 2
            w = random_closed_cochain(rng, K, k)
            out = cs.connecting_delta(cover, w)
            expect = cs.basis(K, k).coordinates(w.values)
            if expect.size:
                scale = 1.0 + float(np.abs(expect).max())
                assert np.abs(out.coordinates - expect).max() \
                    <= 1e-8 * scale, (name, k)
                assert np.abs(out.coordinates - duality_coordinates(K, w)
                              ).max() <= 1e-8 * scale, (name, k)
            if k == 2:
                cs.current_globality(cover, w)  # raises on disagreement
            checked += 1
    assert checked >= 200
    _pass(f"criterion 6 (Cech-de Rham agreement on {checked} cochains, "
          "Poincare duality agrees, verdicts consistent)")


def test_criterion_7_variational_check(s3, t3):
    """cs_gradient vs central finite differences, relative 1e-6, on 20
    random connections on S^3 and T^3; gradient <= 1e-10 when dA = 0."""
    rng = np.random.default_rng(104)
    for K in (s3, t3):
        for _ in range(10):
            a = cs.Connection(rng.standard_normal(K.n_simplices(1)))
            grad = cs.cs_gradient(K, a).values
            fd = cs_gradient_fd(K, a).values
            scale = max(1.0, float(np.abs(fd).max()))
            assert np.abs(grad - fd).max() / scale <= 1e-6
        # closed connections: exact shifts plus harmonic representatives
        vals = cs.apply_d(K, random_real_cochain(rng, K, 0)).values
        for g in cs.basis(K, 1).representatives:
            vals = vals + rng.standard_normal() * g
        a = cs.Connection(vals)
        assert np.abs(cs.apply_d(K, a.as_cochain()).values).max() < 1e-12
        assert np.abs(cs.cs_gradient(K, a).values).max() <= 1e-10
    _pass("criterion 7 (CS gradient vs finite differences 1e-6 x20, "
          "flat gradient <= 1e-10)")


def test_criterion_8_gauge_invariance(t3, s1xs2):
    """Curvature invariant under gauge transforms (2pi*m shift exact,
    df to 1e-12); obstruction pairings representative-invariant to 1e-8
    relative."""
    rng = np.random.default_rng(105)
    for K in (t3, s1xs2):
        bundle = cs.make_bundle(K, random_int_cocycle(rng, K))
        a = cs.Connection(rng.standard_normal(K.n_simplices(1)))
        f0 = cs.curvature(bundle, a).values
        scale = max(1.0, float(np.abs(f0).max()))

        free, _ = cs.integral_generators(K, 1)
        m = Cochain(1, "int", free[0])
        # the 2*pi*m shift is exactly closed over Z ...
        assert all(int(v) == 0 for v in cs.apply_d(K, m).values)
        # ... so the float curvature can only move by cancellation noise
        a_large = cs.gauge_transform(bundle, a, Cochain.zeros(K, 0), m)
        assert np.abs(cs.curvature(bundle, a_large).values
                      - f0).max() <= 1e-12 * scale

        f = random_real_cochain(rng, K, 0)
        a_small = cs.gauge_transform(bundle, a, f, Cochain.zeros(K, 1,
                                                                 "int"))
        assert np.abs(cs.curvature(bundle, a_small).values
                      - f0).max() <= 1e-12 * scale

        g = cs.basis(K, 1).representative_cochains()[0]
        base = cs.obstruction_pairing(K, cs.VerticalSymmetry(g), bundle, a)
        rel = 1e-8 * max(1.0, abs(base))
        dh = cs.apply_d(K, random_real_cochain(rng, K, 0))
        g2 = Cochain(1, "real", g.values + dh.values)
        assert abs(cs.obstruction_pairing(K, cs.VerticalSymmetry(g2),
                                          bundle, a) - base) <= rel
        a2 = cs.gauge_transform(bundle, a, random_real_cochain(rng, K, 0),
                                Cochain(1, "int", free[0]))
        assert abs(cs.obstruction_pairing(K, cs.VerticalSymmetry(g),
                                          bundle, a2) - base) <= rel
    _pass("criterion 8 (gauge invariance of curvature and pairings)")
