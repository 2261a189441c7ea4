"""Command-line front end emitting deterministic JSON reports.

Exit codes: 0 success, 1 validation error (bad input), 2 internal
inconsistency (cross-checking verdicts disagreed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import bundle as bundle_mod
from . import cech as cech_mod
from . import homology as homology_mod
from . import manifolds
from . import obstruction as obstruction_mod
from .complex_core import (Cochain, INT, REAL, dump_cochain, dump_complex,
                           load_cochain, load_complex)
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


def _emit(report, out=None):
    text = json.dumps(report, sort_keys=True, indent=2, default=_jsonable)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [float(x) for x in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj)}")


def _load_complex_arg(path):
    text = _read(path)
    return load_complex(text), _digest(text)


def _load_cochain_arg(path):
    text = _read(path)
    return load_cochain(text), _digest(text)


def _round(x, nd=12):
    return round(float(x), nd) + 0.0  # normalize -0.0


def _vec(values):
    return [_round(v) for v in values]


# -- subcommand implementations ---------------------------------------


def _cmd_generate(args):
    complex_ = manifolds.generate(args.name)
    text = dump_complex(complex_)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_homology(args):
    complex_, digest = _load_complex_arg(args.complex)
    g = homology_mod.homology_groups(complex_, args.degree, args.ring)
    _emit({"command": "homology", "input": digest, "degree": args.degree,
           "ring": args.ring, "betti": g.betti,
           "torsion": [int(t) for t in g.torsion], "group": str(g)},
          args.out)
    return 0


def _cmd_primitive(args):
    complex_, cdig = _load_complex_arg(args.complex)
    omega, odig = _load_cochain_arg(args.cochain)
    res = homology_mod.find_primitive(complex_, omega, tol=args.tol)
    report = {"command": "primitive", "inputs": [cdig, odig],
              "exact": res.exact,
              "class_coordinates": _vec(res.class_coordinates)}
    if res.exact:
        report["primitive"] = _vec(res.primitive.values)
    _emit(report, args.out)
    return 0


def _cmd_pairing(args):
    complex_, digest = _load_complex_arg(args.complex)
    p = poincare_pairing_matrix(complex_, args.degree)
    _emit({"command": "pairing", "input": digest, "degree": p.degree,
           "codegree": p.codegree,
           "matrix": [_vec(row) for row in p.matrix],
           "nondegenerate": p.nondegenerate}, args.out)
    return 0


def _cmd_chern(args):
    complex_, cdig = _load_complex_arg(args.complex)
    c, odig = _load_cochain_arg(args.cocycle)
    b = bundle_mod.make_bundle(complex_, c)
    h2 = homology_mod.homology_groups(complex_, 2, INT)
    _emit({"command": "chern", "inputs": [cdig, odig],
           "real_class": _vec(bundle_mod.real_chern_class(b)),
           "integral_h2": str(h2)}, args.out)
    return 0


def _cmd_flatten(args):
    complex_, cdig = _load_complex_arg(args.complex)
    c, odig = _load_cochain_arg(args.cocycle)
    b = bundle_mod.make_bundle(complex_, c)
    res = bundle_mod.flatten(b)
    _emit({"command": "flatten", "inputs": [cdig, odig],
           "flat": res.flat, "residual": _round(res.residual),
           "tolerance": res.tolerance,
           "obstruction_coords": _vec(res.obstruction_coords),
           "connection": _vec(res.connection.values)}, args.out)
    return 0


def _cmd_cs_grad_check(args):
    complex_, digest = _load_complex_arg(args.complex)
    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(5):
        a = bundle_mod.Connection(rng.standard_normal(
            complex_.n_simplices(1)))
        grad = bundle_mod.cs_gradient(complex_, a).values
        fd = bundle_mod.cs_gradient_fd(complex_, a).values
        scale = max(1.0, float(np.max(np.abs(fd))))
        worst = max(worst, float(np.max(np.abs(grad - fd))) / scale)
    _emit({"command": "cs-grad-check", "input": digest,
           "max_relative_error": _round(worst), "samples": 5}, args.out)
    return 0


def _cmd_obstruction(args):
    complex_, cdig = _load_complex_arg(args.complex)
    c, odig = _load_cochain_arg(args.cocycle)
    b = bundle_mod.make_bundle(complex_, c)
    flat = bundle_mod.flatten(b)
    report = {"command": "obstruction", "inputs": [cdig, odig],
              "flat": flat.flat}
    if args.gamma:
        gamma, gdig = _load_cochain_arg(args.gamma)
        sym = obstruction_mod.symmetry_from_oneform(complex_, gamma)
        report["inputs"].append(gdig)
        report["pairing"] = _round(obstruction_mod.obstruction_pairing(
            complex_, sym, b, flat.connection))
        report["class"] = _vec(obstruction_mod.obstruction_class(
            complex_, sym, b, flat.connection))
    else:
        h1 = homology_mod.basis(complex_, 1)
        pairings = [
            _round(obstruction_mod.obstruction_pairing(
                complex_, obstruction_mod.VerticalSymmetry(g), b,
                flat.connection))
            for g in h1.representative_cochains()]
        report["pairings"] = pairings
    _emit(report, args.out)
    return 0


def _cmd_sharpness(args):
    complex_, cdig = _load_complex_arg(args.complex)
    c, odig = _load_cochain_arg(args.cocycle)
    b = bundle_mod.make_bundle(complex_, c)
    verdict = obstruction_mod.sharpness_check(complex_, b, tol=args.tol)
    report = {"command": "sharpness", "inputs": [cdig, odig],
              "bundle_id": verdict.bundle_id,
              "flat_exists": verdict.flat_exists,
              "residual": _round(verdict.residual),
              "all_pairings": _vec(verdict.all_pairings)}
    if verdict.witness is not None:
        gamma, value = verdict.witness
        report["witness"] = {"gamma": _vec(gamma.values),
                             "pairing": _round(value)}
    _emit(report, args.out)
    return 0


def _cmd_cech_delta(args):
    complex_, cdig = _load_complex_arg(args.complex)
    omega, odig = _load_cochain_arg(args.cochain)
    cover = cech_mod.star_cover(complex_)
    cls = cech_mod.connecting_delta(cover, omega)
    simplicial = homology_mod.basis(
        complex_, omega.degree).coordinates(omega.as_float())
    _emit({"command": "cech-delta", "inputs": [cdig, odig],
           "cech_degree": cls.degree,
           "cech_coordinates": _vec(cls.coordinates),
           "simplicial_coordinates": _vec(simplicial),
           "max_disagreement": _round(float(np.max(np.abs(
               cls.coordinates - simplicial))) if cls.coordinates.size
               else 0.0)}, args.out)
    return 0


def _cmd_current(args):
    complex_, cdig = _load_complex_arg(args.complex)
    omega, odig = _load_cochain_arg(args.cochain)
    cover = cech_mod.star_cover(complex_)
    report_obj = cech_mod.current_globality(cover, omega)
    report = {"command": "current", "inputs": [cdig, odig],
              "globalizable": report_obj.globalizable,
              "cech_coordinates": _vec(report_obj.cech_class.coordinates),
              "simplicial_coordinates": _vec(
                  report_obj.simplicial_coordinates)}
    if report_obj.current is not None:
        report["current"] = _vec(report_obj.current.values)
    _emit(report, args.out)
    return 0


# -- argument parsing --------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="csobstruct",
        description="Cohomological obstructions to flatness and global "
                    "conserved currents on simplicial 3-manifolds.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, complex_=True, out=True, tol=False):
        if complex_:
            p.add_argument("complex", help="complex interchange file")
        if out:
            p.add_argument("--out", help="write the report to a file")
        if tol:
            p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("generate", help="emit a named fixture complex")
    p.add_argument("name")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("homology", help="Betti numbers and torsion")
    common(p, tol=False)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--ring", choices=[INT, REAL], default=REAL)
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("primitive", help="solve d(beta) = omega or report "
                                         "the obstruction")
    common(p, tol=True)
    p.add_argument("cochain")
    p.set_defaults(func=_cmd_primitive)

    p = sub.add_parser("pairing", help="Poincare duality pairing matrix")
    common(p)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=_cmd_pairing)

    p = sub.add_parser("chern", help="real and integral Chern class data")
    common(p)
    p.add_argument("cocycle")
    p.set_defaults(func=_cmd_chern)

    p = sub.add_parser("flatten", help="least-squares flat connection")
    common(p)
    p.add_argument("cocycle")
    p.set_defaults(func=_cmd_flatten)

    p = sub.add_parser("cs-grad-check", help="finite-difference gradient "
                                             "check of the CS action")
    common(p)
    p.set_defaults(func=_cmd_cs_grad_check)

    p = sub.add_parser("obstruction", help="obstruction pairings")
    common(p)
    p.add_argument("cocycle")
    p.add_argument("--gamma", help="closed 1-cochain file")
    p.set_defaults(func=_cmd_obstruction)

    p = sub.add_parser("sharpness", help="Theorem-2 style biconditional "
                                         "verdict")
    common(p, tol=True)
    p.add_argument("cocycle")
    p.set_defaults(func=_cmd_sharpness)

    p = sub.add_parser("cech-delta", help="Cech connecting homomorphism")
    common(p)
    p.add_argument("cochain")
    p.set_defaults(func=_cmd_cech_delta)

    p = sub.add_parser("current", help="globality report for a conserved "
                                       "current")
    common(p)
    p.add_argument("cochain")
    p.set_defaults(func=_cmd_current)

    return parser


def run(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        homology_mod.check_tol(getattr(args, "tol", None))
        return args.func(args)
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
