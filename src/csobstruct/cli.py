"""Command-line front end emitting deterministic JSON reports.

Every report subcommand is one row of ``_COMMANDS``: its name, its
handler, its help text and the arguments it takes beyond the complex file
and ``--out``.  A handler maps (parsed args, loaded complex, cochain
loader) to its report fields and does nothing else.  ``_report`` reads,
parses and hashes the complex once for all of them, hashes each cochain
the handler loads, and adds ``command`` with ``input`` (the complex's
digest) or ``inputs`` (the complex's, then each cochain's in load order).
``run`` writes the text, a report or ``generate``'s complex, to stdout or
``--out``.

Exit codes: 0 success, 1 validation error (bad input), 2 internal
inconsistency (cross-checking verdicts disagreed).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

import numpy as np

from . import bundle as bundle_mod
from . import cech as cech_mod
from . import homology as homology_mod
from . import manifolds
from . import obstruction as obstruction_mod
from .complex_core import INT, REAL, dump_complex, load_cochain, load_complex
from .cup import poincare_pairing_matrix
from .errors import Error, InconsistencyError


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        raise Error("FILE_NOT_FOUND", path)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _write(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _round(x, nd=12):
    return round(float(x), nd) + 0.0  # normalize -0.0


def _vec(values):
    return [_round(v) for v in values]


def _report(handler, args):
    """The handler's fields plus ``command`` and the input digests, as
    JSON text."""
    text = _read(args.complex)
    digests = [_digest(text)]

    def cochain(path):
        text = _read(path)
        digests.append(_digest(text))
        return load_cochain(text)

    report = handler(args, load_complex(text), cochain)
    report["command"] = args.cmd
    if len(digests) == 1:
        report["input"] = digests[0]
    else:
        report["inputs"] = digests
    try:
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise Error("PARSE_ERROR", "a report value exceeds the float range")


def _generate(args):
    return dump_complex(manifolds.generate(args.name))


# -- report handlers: (args, complex, cochain loader) -> fields --------


def _homology(args, complex_, cochain):
    g = homology_mod.homology_groups(complex_, args.degree, args.ring)
    return {"degree": args.degree, "ring": args.ring, "betti": g.betti,
            "torsion": [int(t) for t in g.torsion], "group": str(g)}


def _primitive(args, complex_, cochain):
    res = homology_mod.find_primitive(complex_, cochain(args.cochain),
                                      tol=args.tol)
    report = {"exact": res.exact,
              "class_coordinates": _vec(res.class_coordinates)}
    if res.exact:
        report["primitive"] = _vec(res.primitive.values)
    return report


def _pairing(args, complex_, cochain):
    p = poincare_pairing_matrix(complex_, args.degree)
    return {"degree": p.degree, "codegree": p.codegree,
            "matrix": [_vec(row) for row in p.matrix],
            "nondegenerate": p.nondegenerate}


def _bundle(args, complex_, cochain):
    return bundle_mod.make_bundle(complex_, cochain(args.cocycle))


def _chern(args, complex_, cochain):
    b = _bundle(args, complex_, cochain)
    h2 = homology_mod.homology_groups(complex_, 2, INT)
    return {"real_class": _vec(bundle_mod.real_chern_class(b)),
            "integral_h2": str(h2)}


def _flatten(args, complex_, cochain):
    res = bundle_mod.flatten(_bundle(args, complex_, cochain))
    return {"flat": res.flat, "residual": _round(res.residual),
            "tolerance": res.tolerance,
            "obstruction_coords": _vec(res.obstruction_coords),
            "connection": _vec(res.connection.values)}


def _cs_grad_check(args, complex_, cochain):
    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(5):
        a = bundle_mod.Connection(rng.standard_normal(
            complex_.n_simplices(1)))
        grad = bundle_mod.cs_gradient(complex_, a).values
        fd = bundle_mod.cs_gradient_fd(complex_, a).values
        scale = max(1.0, float(np.max(np.abs(fd))))
        worst = max(worst, float(np.max(np.abs(grad - fd))) / scale)
    return {"max_relative_error": _round(worst), "samples": 5}


def _obstruction(args, complex_, cochain):
    b = _bundle(args, complex_, cochain)
    flat = bundle_mod.flatten(b)
    report = {"flat": flat.flat}
    if args.gamma:
        sym = obstruction_mod.symmetry_from_oneform(complex_,
                                                    cochain(args.gamma))
        report["pairing"] = _round(obstruction_mod.obstruction_pairing(
            complex_, sym, b, flat.connection))
        report["class"] = _vec(obstruction_mod.obstruction_class(
            complex_, sym, b, flat.connection))
    else:
        report["pairings"] = _vec(obstruction_mod.h1_pairings(
            complex_, b, flat.connection)[1])
    return report


def _sharpness(args, complex_, cochain):
    verdict = obstruction_mod.sharpness_check(
        complex_, _bundle(args, complex_, cochain), tol=args.tol)
    report = {"bundle_id": verdict.bundle_id,
              "flat_exists": verdict.flat_exists,
              "residual": _round(verdict.residual),
              "all_pairings": _vec(verdict.all_pairings)}
    if verdict.witness is not None:
        gamma, value = verdict.witness
        report["witness"] = {"gamma": _vec(gamma.values),
                             "pairing": _round(value)}
    return report


def _cech_delta(args, complex_, cochain):
    omega = cochain(args.cochain)
    cls = cech_mod.connecting_delta(cech_mod.star_cover(complex_), omega)
    simplicial = homology_mod.basis(
        complex_, omega.degree).coordinates(omega.as_float())
    return {"cech_degree": cls.degree,
            "cech_coordinates": _vec(cls.coordinates),
            "simplicial_coordinates": _vec(simplicial),
            "max_disagreement": _round(np.max(
                np.abs(cls.coordinates - simplicial), initial=0.0))}


def _current(args, complex_, cochain):
    omega = cochain(args.cochain)
    res = cech_mod.current_globality(cech_mod.star_cover(complex_), omega)
    report = {"globalizable": res.globalizable,
              "cech_coordinates": _vec(res.cech_class.coordinates),
              "simplicial_coordinates": _vec(res.simplicial_coordinates)}
    if res.current is not None:
        report["current"] = _vec(res.current.values)
    return report


# -- the command table -------------------------------------------------


def _arg(*flags, **kwargs):
    return flags, kwargs


_DEGREE = _arg("--degree", type=int, required=True)
_TOL = _arg("--tol", type=float, default=None)
_COCHAIN = _arg("cochain")
_COCYCLE = _arg("cocycle")

# name, handler, help, arguments after the complex file and --out
_COMMANDS = (
    ("homology", _homology, "Betti numbers and torsion",
     [_DEGREE, _arg("--ring", choices=[INT, REAL], default=REAL)]),
    ("primitive", _primitive,
     "solve d(beta) = omega or report the obstruction", [_TOL, _COCHAIN]),
    ("pairing", _pairing, "Poincare duality pairing matrix", [_DEGREE]),
    ("chern", _chern, "real and integral Chern class data", [_COCYCLE]),
    ("flatten", _flatten, "least-squares flat connection", [_COCYCLE]),
    ("cs-grad-check", _cs_grad_check,
     "finite-difference gradient check of the CS action", []),
    ("obstruction", _obstruction, "obstruction pairings",
     [_COCYCLE, _arg("--gamma", help="closed 1-cochain file")]),
    ("sharpness", _sharpness, "Theorem-2 style biconditional verdict",
     [_TOL, _COCYCLE]),
    ("cech-delta", _cech_delta, "Cech connecting homomorphism", [_COCHAIN]),
    ("current", _current, "globality report for a conserved current",
     [_COCHAIN]),
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="csobstruct",
        description="Cohomological obstructions to flatness and global "
                    "conserved currents on simplicial 3-manifolds.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("generate", help="emit a named fixture complex")
    p.add_argument("name")
    p.add_argument("--out")
    p.set_defaults(func=_generate)

    for name, handler, help_, arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_)
        p.add_argument("complex", help="complex interchange file")
        p.add_argument("--out", help="write the report to a file")
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=functools.partial(_report, handler))
    return parser


def run(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        homology_mod.check_tol(getattr(args, "tol", None))
        _write(args.func(args), args.out)
        return 0
    except SystemExit as e:
        return int(e.code or 0)
    except InconsistencyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Error as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
