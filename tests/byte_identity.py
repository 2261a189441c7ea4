"""Byte-identity harness for the CLI reports.

    python3 tests/byte_identity.py --write DIR   # fixtures and inputs
    python3 tests/byte_identity.py --run DIR     # one line per command

--write generates s3, s1xs2, t3 and rp3 into DIR and, per fixture, a
seeded set of cochain inputs built from this tree's generators: integer
1-, 2- and 3-cocycles with free and torsion parts, the zero 2-cocycle,
closed real 1- and 2-cochains with random real class coefficients, an
exact 2-cochain, a non-closed 2-cochain, the degree-3 generator, a
random 3-cochain, cochains of degree 0 and 4, and a closed 1-cochain
for --gamma.

--run sends 48 commands per fixture (192 in all), then 27 help and
usage cases (the top level with no arguments and with --help, every
subcommand with --help and with no arguments, an unknown subcommand, a
non-integer --degree and an unknown --ring), through cli.run in this
process, with COLUMNS=80 so that help text wraps the same on every
terminal.  For each it prints the sha256 of its stdout and stderr, its
exit code and the command.  Write the inputs once, run this file
from each of two checkouts on the same DIR (copy it into one that lacks
it), and diff the outputs.  The package is imported from the checkout
this file sits in.

The file name does not match test_*.py, so pytest does not collect it.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import csobstruct as cs                                     # noqa: E402
from csobstruct import cli                                  # noqa: E402

FIXTURES = ("s3", "s1xs2", "t3", "rp3")
TOLS = ("nan", "inf", "-1", "0")
SUBCOMMANDS = ("generate", "homology", "primitive", "pairing", "chern",
               "flatten", "cs-grad-check", "obstruction", "sharpness",
               "cech-delta", "current")


def _int_cocycle(rng, K, k):
    free, torsion = cs.integral_generators(K, k)
    b = cs.Cochain(k - 1, "int", np.array(
        [int(v) for v in rng.integers(-3, 4, K.n_simplices(k - 1))],
        dtype=object))
    vals = cs.apply_d(K, b).values
    for g in free:
        vals = vals + int(rng.integers(1, 3)) * g
    for _, g in torsion:
        vals = vals + g
    return {"degree": k, "ring": "int", "values": [int(v) for v in vals]}


def _real_closed(rng, K, k):
    vals = cs.apply_d(K, cs.Cochain(
        k - 1, "real", rng.standard_normal(K.n_simplices(k - 1)))).values
    for g in cs.integral_generators(K, k)[0]:
        vals = vals + float(rng.standard_normal()) * \
            np.array([float(x) for x in g])
    return {"degree": k, "ring": "real", "values": [float(v) for v in vals]}


def _inputs(K, seed):
    rng = np.random.default_rng(seed)
    n = K.n_simplices
    free3 = cs.integral_generators(K, 3)[0]
    exact2 = cs.apply_d(K, cs.Cochain(1, "real", rng.standard_normal(n(1))))
    return {
        "int1": _int_cocycle(rng, K, 1),
        "int2": _int_cocycle(rng, K, 2),
        "int3": _int_cocycle(rng, K, 3),
        "zero2": {"degree": 2, "ring": "int", "values": [0] * n(2)},
        "real1": _real_closed(rng, K, 1),
        "real2": _real_closed(rng, K, 2),
        "exact2": {"degree": 2, "ring": "real",
                   "values": [float(v) for v in exact2.values]},
        "open2": {"degree": 2, "ring": "real",
                  "values": [float(v) for v in rng.standard_normal(n(2))]},
        "gen3": {"degree": 3, "ring": "int",
                 "values": [int(v) for v in free3[0]]},
        "rand3": {"degree": 3, "ring": "real",
                  "values": [float(v) for v in rng.standard_normal(n(3))]},
        "deg0": {"degree": 0, "ring": "real", "values": [1.0] * n(0)},
        "deg4": {"degree": 4, "ring": "real", "values": [1.0] * 5},
        "gamma": _real_closed(rng, K, 1),
    }


def write(root):
    root.mkdir(parents=True, exist_ok=True)
    for seed, name in enumerate(FIXTURES):
        K = cs.generate(name)
        (root / f"{name}.json").write_text(cs.dump_complex(K))
        for key, doc in _inputs(K, 1000 + seed).items():
            (root / f"{name}.{key}.json").write_text(json.dumps(doc))


def commands(name):
    """The 48 argument lists for one fixture, input names as placeholders."""
    cmds = []
    for d in range(4):
        cmds += [["homology", name, "--degree", str(d), "--ring", ring]
                 for ring in ("int", "real")]
    cmds += [["pairing", name, "--degree", str(d)] for d in range(4)]
    cmds += [["primitive", name, w] for w in ("exact2", "real2", "open2")]
    cmds += [["chern", name, "int2"], ["chern", name, "zero2"],
             ["flatten", name, "int2"], ["sharpness", name, "int2"],
             ["obstruction", name, "int2"],
             ["obstruction", name, "int2", "--gamma", "gamma"]]
    cmds += [["cech-delta", name, w]
             for w in ("real1", "real2", "exact2", "open2")]
    cmds += [["current", name, w] for w in ("real2", "exact2")]
    cmds += [["cs-grad-check", name],
             ["primitive", name, "real2", "--tol", "1e-3"],
             ["sharpness", name, "int2", "--tol", "1e-3"]]
    cmds += [["primitive", name, "exact2", "--tol", t] for t in TOLS]
    cmds += [["sharpness", name, "int2", "--tol", t] for t in TOLS]
    cmds += [["cech-delta", name, w] for w in
             ("int1", "int2", "int3", "gen3", "rand3", "deg0", "deg4")]
    cmds += [["current", name, w] for w in ("int2", "zero2", "open2")]
    return cmds


def parser_cases():
    """The 27 help and usage argument lists; s3 stands for its file."""
    return ([[], ["--help"]] + [[c, "--help"] for c in SUBCOMMANDS] +
            [[c] for c in SUBCOMMANDS] +
            [["nope"], ["homology", "s3", "--degree", "a"],
             ["homology", "s3", "--degree", "1", "--ring", "q"]])


def _path(root, name, arg):
    if arg == name:
        return str(root / f"{name}.json")
    if (root / f"{name}.{arg}.json").exists():
        return str(root / f"{name}.{arg}.json")
    return arg


def case(root, name, cmd):
    """One output line: the sha256 of [stdout, stderr], the exit code and
    the command, run through cli.run on the inputs in root."""
    argv = [_path(root, name, a) for a in cmd]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    digest = hashlib.sha256(
        json.dumps([out.getvalue(), err.getvalue()]).encode())
    return f"{digest.hexdigest()} {code} {' '.join(cmd)}"


def run(root):
    os.environ["COLUMNS"] = "80"
    cases = [(name, cmd) for name in FIXTURES for cmd in commands(name)]
    cases += [("s3", cmd) for cmd in parser_cases()]
    for name, cmd in cases:
        print(case(root, name, cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", metavar="DIR", type=pathlib.Path)
    group.add_argument("--run", metavar="DIR", type=pathlib.Path)
    args = parser.parse_args()
    if args.write:
        write(args.write)
    else:
        run(args.run)


if __name__ == "__main__":
    main()
