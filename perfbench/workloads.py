"""The three workloads: how each sets up, what one op does, how it is checked.

Every workload uses the fixtures t3 (27 vertices, 162 tets) and rp3
(40 vertices, 192 tets, H^2 = Z/2).  A pass is a fixed list of ops; a run
repeats whole passes.  The inputs of pass p come from the generator seeded
with (seed, p), so the same seed gives the same inputs.  ``call`` is the
timed part of an op and touches only the program; inputs are made before
it and ``check`` runs after it, both untimed.

A check compares an output with something computed apart from the program
(``oracle``) or with a property the method must have; it returns an error
string, or None when the output is right.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from csobstruct import bundle, cech, cli, complex_core, homology, manifolds
from csobstruct import obstruction

import oracle
from oracle import FOUR_PI, TWO_PI, close, integer_gcd, near_multiples

FIXTURES = ("t3", "rp3")


class OpFailed(Exception):
    """The program reported an error for an op."""


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def pass_rng(seed, p):
    return np.random.default_rng([seed, p])


def _nonzero_ints(rng, size):
    """Random integers in [-2, 2], not all zero (empty when size is 0)."""
    while True:
        m = rng.integers(-2, 3, size=size)
        if size == 0 or np.any(m):
            return m


def _int_cochain(degree, values):
    return complex_core.Cochain(
        degree, "int", np.array([int(v) for v in values], dtype=object))


def _real_cochain(degree, values):
    return complex_core.Cochain(degree, "real",
                                np.asarray(values, dtype=float))


def _as_int64(values):
    return np.asarray([int(v) for v in values], dtype=np.int64)


def _first_error(*pairs):
    """First message whose condition is false, else None."""
    for ok, message in pairs:
        if not ok:
            return message
    return None


# -- cold-reports ------------------------------------------------------


class ColdReports:
    """Every report command on both fixtures, through in-process cli.run.

    Inputs are written in setup from generators the benchmark builds itself
    (oracle), so the checks hold in any integral basis the program picks:
    class coordinates must be integral, with the gcd of the multiples used.
    """

    name = "cold-reports"
    setup_repeats = 3

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.seed = seed
        self.refs = {}

    def setup(self):
        t0 = perf_counter()
        texts = {n: complex_core.dump_complex(manifolds.generate(n))
                 for n in FIXTURES}
        seconds = perf_counter() - t0
        for n in FIXTURES:
            if n not in self.refs:
                self.refs[n] = _ColdFixture(n, texts[n])
        t0 = perf_counter()
        rng = pass_rng(self.seed, 0)
        self.inputs = {n: self.refs[n].write_inputs(self.workdir, texts[n],
                                                    rng)
                       for n in FIXTURES}
        return seconds + perf_counter() - t0

    def pass_ops(self, p):
        ops = []
        for n in FIXTURES:
            ops.extend(self.refs[n].ops(self.inputs[n], self.workdir))
        return ops


class _Fixture:
    """A fixture's oracle and integral generators: free ones of H^1 and
    H^2, and the torsion generator of H^2 (None on t3)."""

    def cocycle(self, rng, m, with_torsion, real):
        """A 2-cocycle: a random coboundary (real or integer) plus m times
        the H^2 generators, plus the torsion generator if asked."""
        ref = self.ref
        if real:
            vals = ref.cobound(1, rng.standard_normal(ref.n(1)))
        else:
            vals = ref.cobound(1, rng.integers(-2, 3, size=ref.n(1)))
        for mi, g in zip(m, self.h2):
            vals = vals + mi * g
        if with_torsion and self.torsion is not None:
            vals = vals + self.torsion
        return vals


class _ColdFixture(_Fixture):
    """Generators built by the oracle, apart from the program."""

    def __init__(self, name, text):
        self.name = name
        self.ref = oracle.RefComplex(text)
        if name == "t3":
            self.h1, self.h2 = oracle.t3_generators(self.ref)
            self.torsion = None
        else:
            self.h1, self.h2 = [], []
            self.torsion = oracle.rp3_torsion_generator(self.ref)

    def write_inputs(self, workdir, text, rng):
        ref = self.ref
        b2 = len(self.h2)
        m_chern = _nonzero_ints(rng, b2)
        m_class = _nonzero_ints(rng, b2)
        chern = self.cocycle(rng, m_chern, True, real=False)
        omega_exact = self.cocycle(rng, np.zeros(b2, dtype=int), True,
                                   real=True)
        omega_class = self.cocycle(rng, m_class, True, real=True)
        gamma = ref.cobound(0, rng.standard_normal(ref.n(0)))
        if self.h1:
            gamma = gamma + self.h1[0]
            # <df u c, [X]> = 0 for a cocycle c on a closed manifold
            k = int(ref.evaluate(ref.cup(1, self.h1[0], 2, chern)))
        else:
            k = 0
        self.expect = {"chern": chern, "m_chern": m_chern,
                       "omega_exact": omega_exact, "omega_class": omega_class,
                       "m_class": m_class, "gamma_pairing": FOUR_PI * k}
        files = {"complex": text,
                 "chern": _cochain_json(2, "int", chern),
                 "omega_exact": _cochain_json(2, "real", omega_exact),
                 "omega_class": _cochain_json(2, "real", omega_class),
                 "gamma": _cochain_json(1, "real", gamma)}
        paths = {}
        for key, body in files.items():
            paths[key] = os.path.join(workdir, f"{self.name}-{key}.json")
            with open(paths[key], "w") as fh:
                fh.write(body)
        return paths

    def ops(self, paths, workdir):
        out = os.path.join(workdir, f"{self.name}-report.json")
        k = paths["complex"]
        table = [
            ("homology-real", ["homology", k, "--degree", "1"],
             self._check_homology_real),
            ("homology-int", ["homology", k, "--degree", "2", "--ring", "int"],
             self._check_homology_int),
            ("primitive", ["primitive", k, paths["omega_exact"]],
             self._check_primitive),
            ("pairing", ["pairing", k, "--degree", "1"],
             self._check_pairing),
            ("chern", ["chern", k, paths["chern"]], self._check_chern),
            ("flatten", ["flatten", k, paths["chern"]], self._check_flatten),
            ("sharpness", ["sharpness", k, paths["chern"]],
             self._check_sharpness),
            ("obstruction", ["obstruction", k, paths["chern"], "--gamma",
                             paths["gamma"]], self._check_obstruction),
            ("cech-delta", ["cech-delta", k, paths["omega_class"]],
             self._check_cech_delta),
            ("current", ["current", k, paths["omega_class"]],
             self._check_current),
            ("cs-grad-check", ["cs-grad-check", k], self._check_cs_grad),
        ]
        return [Op(f"{self.name}:{label}", _cli_call(argv, out),
                   _report_check(out, check))
                for label, argv, check in table]

    # -- checks, one per command --

    def _check_homology_int(self, r):
        return _first_error(
            (r["betti"] == oracle.BETTI[self.name][2], f"betti {r['betti']}"),
            (r["torsion"] == oracle.TORSION[self.name].get(2, []),
             f"torsion {r['torsion']}"))

    def _check_homology_real(self, r):
        return _first_error(
            (r["betti"] == oracle.BETTI[self.name][1], f"betti {r['betti']}"),
            (r["torsion"] == [], f"torsion {r['torsion']}"))

    def _check_primitive(self, r):
        omega = self.expect["omega_exact"]
        return _first_error(
            (r["exact"] is True, "exact cochain reported inexact"),
            (close(r["class_coordinates"], np.zeros(len(self.h2))),
             "nonzero class coordinates"),
            (close(self.ref.cobound(1, r["primitive"]), omega),
             "d(primitive) != omega"))

    def _check_pairing(self, r):
        mat = np.asarray(r["matrix"], dtype=float).reshape(
            oracle.BETTI[self.name][1], oracle.BETTI[self.name][2])
        unimodular = mat.size == 0 or round(abs(np.linalg.det(mat))) == 1
        return _first_error(
            (r["nondegenerate"] is True, "pairing reported degenerate"),
            (near_multiples(mat, 1.0), "non-integral pairing entries"),
            (unimodular, "integral pairing is not unimodular"))

    def _class_error(self, coords, unit, m):
        """coords are unit times an integer vector with the gcd of m."""
        return _first_error(
            (len(coords) == len(m), f"{len(coords)} class coordinates"),
            (near_multiples(coords, unit), "non-integral class"),
            (integer_gcd(np.asarray(coords) / unit) == integer_gcd(m),
             "class gcd differs from the multiples used"))

    def _check_chern(self, r):
        group = "Z^3" if self.name == "t3" else "Z/2"
        return _first_error(
            (r["integral_h2"] == group, f"integral H^2 {r['integral_h2']}"),
            (self._class_error(r["real_class"], TWO_PI,
                               self.expect["m_chern"]) is None,
             "real Chern class"))

    def _flat(self):
        return not np.any(self.expect["m_chern"])

    def _check_flatten(self, r):
        flat = self._flat()
        err = self._class_error(r["obstruction_coords"], TWO_PI,
                                self.expect["m_chern"])
        if err:
            return f"obstruction coordinates: {err}"
        if r["flat"] != flat:
            return f"flat={r['flat']}, expected {flat}"
        if flat:
            da = self.ref.cobound(1, r["connection"])
            if not close(da, -TWO_PI * self.expect["chern"]):
                return "flat connection violates dA = -2 pi c"
        elif not r["residual"] > r["tolerance"]:
            return "non-flat bundle with residual under tolerance"
        return None

    def _check_sharpness(self, r):
        flat = self._flat()
        pairings = r["all_pairings"]
        err = _first_error(
            (r["flat_exists"] == flat, f"flat_exists={r['flat_exists']}"),
            (near_multiples(pairings, FOUR_PI),
             "pairing off the 4 pi lattice"),
            (integer_gcd(np.asarray(pairings) / FOUR_PI)
             == integer_gcd(self.expect["m_chern"]),
             "pairing gcd differs from the Chern multiples"),
            (("witness" in r) != flat, "witness presence"))
        if err or flat:
            return err
        w = r["witness"]
        return _first_error(
            (near_multiples([w["pairing"]], FOUR_PI) and
             abs(w["pairing"]) > 1.0, "witness pairing"),
            (close(self.ref.cobound(1, w["gamma"]), np.zeros(self.ref.n(2))),
             "witness gamma is not closed"))

    def _check_obstruction(self, r):
        want = self.expect["gamma_pairing"]
        return _first_error(
            (r["flat"] == self._flat(), f"flat={r['flat']}"),
            (close([r["pairing"]], [want]),
             f"pairing {r['pairing']} != {want}"),
            (len(r["class"]) == 1 and close([abs(r["class"][0])],
                                            [abs(want)]),
             f"obstruction class {r['class']}"))

    def _check_cech_delta(self, r):
        return _first_error(
            (r["cech_degree"] == 2, f"cech degree {r['cech_degree']}"),
            (close(r["cech_coordinates"], r["simplicial_coordinates"]),
             "Cech and simplicial classes disagree"),
            (self._class_error(r["cech_coordinates"], 1.0,
                               self.expect["m_class"]) is None,
             "Cech class"))

    def _check_current(self, r):
        m = self.expect["m_class"]
        glob = not np.any(m)
        err = _first_error(
            (r["globalizable"] == glob, f"globalizable={r['globalizable']}"),
            (self._class_error(r["cech_coordinates"], 1.0, m) is None,
             "Cech class"),
            (close(r["cech_coordinates"], r["simplicial_coordinates"]),
             "Cech and simplicial classes disagree"),
            (("current" in r) == glob, "current presence"))
        if err or not glob:
            return err
        if not close(self.ref.cobound(1, r["current"]),
                     self.expect["omega_class"]):
            return "d(current) != omega"
        return None

    def _check_cs_grad(self, r):
        return _first_error(
            (r["samples"] == 5, f"samples {r['samples']}"),
            (r["max_relative_error"] <= 1e-6,
             f"gradient error {r['max_relative_error']}"))


def _cochain_json(degree, ring, values):
    vals = [int(v) for v in values] if ring == "int" \
        else [float(v) for v in values]
    return json.dumps({"degree": degree, "ring": ring, "values": vals})


def _cli_call(argv, out):
    def call():
        code = cli.run(argv + ["--out", out])
        if code != 0:
            raise OpFailed(f"exit code {code}")
        return out
    return call


def _report_check(out, check):
    def run(_):
        with open(out) as fh:
            return check(json.load(fh))
    return run


# -- warm workloads ----------------------------------------------------


class _WarmFixture(_Fixture):
    """A built complex with filled caches; generators from the program,
    checked to be cocycles by the oracle."""

    def __init__(self, name, complex_):
        self.name = name
        self.K = complex_
        self.ref = oracle.RefComplex(complex_core.dump_complex(complex_))
        free, torsion = homology.integral_generators(complex_, 2)
        self.h1 = [_as_int64(w) for w in homology.basis(complex_, 1)
                   .representatives]
        self.h2 = [_as_int64(w) for w in free]
        self.torsion = _as_int64(torsion[0][1]) if torsion else None
        for k, gens in ((1, self.h1), (2, self.h2)):
            if not all(self.ref.is_cocycle(k, g) for g in gens):
                raise ValueError(f"{name}: a degree-{k} generator is "
                                 f"not closed")


class _Warm:
    """Setup builds both complexes and fills the caches the ops read."""

    setup_repeats = 2
    degrees = ()

    def __init__(self, workdir, seed):
        self.seed = seed

    def setup(self):
        t0 = perf_counter()
        built = {}
        for n in FIXTURES:
            built[n] = manifolds.generate(n)
            for k in self.degrees:
                homology.basis(built[n], k)
        seconds = perf_counter() - t0
        self.fixtures = {n: _WarmFixture(n, K) for n, K in built.items()}
        return seconds


class WarmBundles(_Warm):
    """One op analyses one fresh random integer Chern cocycle."""

    name = "warm-bundles"
    degrees = (1, 2, 3)
    # (fixture, free part, torsion part) of the cocycle of each op in a
    # pass.  t3 ops are cheaper than rp3 ops; with twice as many of them
    # the median falls inside the t3 group, not in the gap between groups.
    kinds = (("t3", True, False), ("t3", True, False), ("t3", False, False),
             ("t3", False, False), ("rp3", False, True), ("rp3", False, False))

    def pass_ops(self, p):
        rng = pass_rng(self.seed, p)
        return [self._op(rng, *kind) for kind in self.kinds]

    def _op(self, rng, name, free, torsion):
        fx = self.fixtures[name]
        ref = fx.ref
        b2 = len(fx.h2)
        m = _nonzero_ints(rng, b2) if free else np.zeros(b2, dtype=int)
        c = fx.cocycle(rng, m, torsion, real=False)
        c_prog = _int_cochain(2, c)
        gamma_exact = _real_cochain(1, ref.cobound(
            0, rng.standard_normal(ref.n(0))))
        pairings = [FOUR_PI * int(ref.evaluate(ref.cup(1, g, 2, c)))
                    for g in fx.h1]
        K = fx.K

        def call():
            b = bundle.make_bundle(K, c_prog)
            flat = bundle.flatten(b)
            chern = bundle.real_chern_class(b)
            verdict = obstruction.sharpness_check(K, b)
            gamma = verdict.witness[0] if verdict.witness is not None \
                else gamma_exact
            cls = obstruction.obstruction_class(
                K, obstruction.VerticalSymmetry(gamma), b, flat.connection)
            return flat, chern, verdict, cls

        def check(result):
            flat, chern, verdict, cls = result
            is_flat = not np.any(m)
            err = _first_error(
                (flat.flat == is_flat, f"flatten flat={flat.flat}"),
                (verdict.flat_exists == is_flat,
                 f"flat_exists={verdict.flat_exists}"),
                (close(chern, TWO_PI * m), f"real Chern class {chern}"),
                (close(flat.obstruction_coords, TWO_PI * m),
                 "flatten obstruction coordinates"),
                (close(verdict.all_pairings, pairings),
                 "pairings differ from 4 pi <g u c, [X]>"),
                (near_multiples(verdict.all_pairings, FOUR_PI),
                 "pairing off the 4 pi lattice"),
                ((verdict.witness is None) == is_flat, "witness presence"))
            if err:
                return err
            if is_flat:
                da = ref.cobound(1, flat.connection.values)
                return _first_error(
                    (close(da, -TWO_PI * c), "dA != -2 pi c"),
                    (close(cls, [0.0]), f"obstruction class {cls}"))
            value = verdict.witness[1]
            return _first_error(
                (near_multiples([value], FOUR_PI) and abs(value) > 1.0,
                 f"witness pairing {value}"),
                (len(cls) == 1 and close([abs(cls[0])], [abs(value)]),
                 f"obstruction class {cls} vs witness {value}"))

        return Op(f"{self.name}:{name}", call, check)


class CechDescent(_Warm):
    """One op builds a star cover and runs a fixed descent batch on it."""

    name = "cech-descent"
    degrees = (1, 2)

    # t3 ops are cheaper than rp3 ops; with twice as many of them the
    # median falls inside the t3 group, not in the gap between groups.
    kinds = ("t3", "t3", "rp3")

    def pass_ops(self, p):
        rng = pass_rng(self.seed, p)
        return [self._op(rng, n) for n in self.kinds]

    def _op(self, rng, name):
        fx = self.fixtures[name]
        ref = fx.ref
        b2 = len(fx.h2)
        m1 = _nonzero_ints(rng, len(fx.h1))
        omega1 = ref.cobound(0, rng.standard_normal(ref.n(0)))
        for mi, g in zip(m1, fx.h1):
            omega1 = omega1 + mi * g
        m2 = _nonzero_ints(rng, b2)
        omega2 = fx.cocycle(rng, m2, True, real=True)
        zero = np.zeros(b2, dtype=int)
        omega_zero = fx.cocycle(rng, zero, True, real=True)
        m3 = _nonzero_ints(rng, b2)
        omega_class = fx.cocycle(rng, m3, True, real=True)
        inputs = [_real_cochain(1, omega1), _real_cochain(2, omega2),
                  _real_cochain(2, omega_zero), _real_cochain(2, omega_class)]
        K = fx.K

        def call():
            cover = cech.star_cover(K)
            return (cech.connecting_delta(cover, inputs[0]),
                    cech.connecting_delta(cover, inputs[1]),
                    cech.current_globality(cover, inputs[2]),
                    cech.current_globality(cover, inputs[3]))

        def check(result):
            d1, d2, g_zero, g_class = result
            err = _first_error(
                (d1.degree == 1 and close(d1.coordinates, m1),
                 f"degree-1 Cech coordinates {d1.coordinates} != {m1}"),
                (d2.degree == 2 and close(d2.coordinates, m2),
                 f"degree-2 Cech coordinates {d2.coordinates} != {m2}"))
            if err:
                return err
            for report, m, omega in ((g_zero, zero, omega_zero),
                                     (g_class, m3, omega_class)):
                glob = not np.any(m)
                err = _first_error(
                    (report.globalizable == glob,
                     f"globalizable={report.globalizable} for class {m}"),
                    (close(report.cech_class.coordinates, m),
                     "current Cech coordinates"),
                    (close(report.simplicial_coordinates, m),
                     "current simplicial coordinates"),
                    ((report.current is not None) == glob,
                     "current presence"))
                if err:
                    return err
                if glob and not close(
                        ref.cobound(1, report.current.values), omega):
                    return "d(current) != omega"
            return None

        return Op(f"{self.name}:{name}", call, check)


WORKLOADS = {w.name: w for w in (ColdReports, WarmBundles, CechDescent)}
