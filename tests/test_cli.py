import dataclasses
import json

import numpy as np
import pytest

import csobstruct as cs
from csobstruct import cech, obstruction
from csobstruct.cli import run
from csobstruct.complex_core import Cochain, dump_cochain, dump_complex
from conftest import random_int_cochain


@pytest.fixture(scope="module")
def paths(tmp_path_factory, s3, t3, s1xs2, rp3):
    """Fixture complexes and a few cochains written to disk once."""
    root = tmp_path_factory.mktemp("cli")
    out = {}
    for name, K in (("s3", s3), ("t3", t3), ("s1xs2", s1xs2),
                    ("rp3", rp3)):
        p = root / f"{name}.json"
        p.write_text(dump_complex(K) + "\n")
        out[name] = str(p)

    free, _ = cs.integral_generators(s1xs2, 2)
    p = root / "monopole.json"
    p.write_text(dump_cochain(Cochain(2, "int", free[0])) + "\n")
    out["monopole"] = str(p)

    p = root / "trivial_t3.json"
    p.write_text(dump_cochain(Cochain.zeros(t3, 2, "int")) + "\n")
    out["trivial_t3"] = str(p)

    _, tors = cs.integral_generators(rp3, 2)
    p = root / "torsion_rp3.json"
    p.write_text(dump_cochain(Cochain(2, "int", tors[0][1])) + "\n")
    out["torsion_rp3"] = str(p)

    rng = np.random.default_rng(0)
    w = cs.apply_d(s3, Cochain(1, "real",
                               rng.standard_normal(s3.n_simplices(1))))
    p = root / "exact2_s3.json"
    p.write_text(dump_cochain(w) + "\n")
    out["exact2_s3"] = str(p)

    g = cs.basis(s1xs2, 2).representative_cochains()[0]
    p = root / "fiber_s1xs2.json"
    p.write_text(dump_cochain(g) + "\n")
    out["fiber_s1xs2"] = str(p)

    g = cs.basis(s1xs2, 1).representative_cochains()[0]
    p = root / "gamma_s1xs2.json"
    p.write_text(dump_cochain(g) + "\n")
    out["gamma_s1xs2"] = str(p)

    out["root"] = root
    return out


def report(capsys, argv, expect=0):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == expect, captured.err
    return json.loads(captured.out) if expect == 0 else captured.err


class TestGenerate:
    def test_roundtrip(self, tmp_path, t3):
        out = tmp_path / "t3.json"
        assert run(["generate", "t3", "--out", str(out)]) == 0
        K = cs.load_complex(out.read_text())
        assert K.n_simplices(3) == t3.n_simplices(3)
        assert K.simplices[3] == t3.simplices[3]

    def test_deterministic(self, capsys):
        a = report(capsys, ["generate", "rp3"])
        b = report(capsys, ["generate", "rp3"])
        assert a == b

    def test_unknown_name(self, capsys):
        err = report(capsys, ["generate", "nope"], expect=1)
        assert "UNKNOWN_NAME" in err


class TestHomology:
    def test_t3_betti(self, capsys, paths):
        r = report(capsys, ["homology", paths["t3"], "--degree", "1"])
        assert r["betti"] == 3 and r["torsion"] == []

    def test_rp3_torsion(self, capsys, paths):
        r = report(capsys, ["homology", paths["rp3"], "--degree", "2",
                            "--ring", "int"])
        assert r["betti"] == 0 and r["torsion"] == [2]
        assert r["group"] == "Z/2"

    def test_degree_out_of_range(self, capsys, paths):
        err = report(capsys, ["homology", paths["s3"], "--degree", "9"],
                     expect=1)
        assert "DEGREE_OUT_OF_RANGE" in err

    def test_missing_file(self, capsys):
        err = report(capsys, ["homology", "/no/such/file", "--degree", "1"],
                     expect=1)
        assert "FILE_NOT_FOUND" in err


TETRA = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]


class TestMalformedComplex:
    @pytest.mark.parametrize("doc, code", [
        ({"top_simplices": 5}, "PARSE_ERROR"),
        ({"top_simplices": [5]}, "PARSE_ERROR"),
        ({"top_simplices": [[0, "a"]]}, "PARSE_ERROR"),
        ({"top_simplices": [[]]}, "PARSE_ERROR"),
        ({"top_simplices": [[0.5, 1, 2]] + TETRA[1:]}, "PARSE_ERROR"),
        ({"top_simplices": TETRA[:3] + [[True, 2, 3]]}, "PARSE_ERROR"),
        ({"top_simplices": TETRA, "orientation": "x"}, "BAD_ORIENTATION"),
        ({"top_simplices": TETRA, "orientation": 5}, "BAD_ORIENTATION"),
        ({"top_simplices": TETRA, "orientation": [1.5, -1, 1, -1]},
         "BAD_ORIENTATION"),
        ({"top_simplices": TETRA, "orientation": [True, -1, 1, -1]},
         "BAD_ORIENTATION"),
        ({"top_simplices": [[0, 1]], "dim": True}, "PARSE_ERROR"),
    ])
    def test_exits_one_with_code(self, capsys, tmp_path, doc, code):
        """Bad shapes and vertices are parse errors and any bad orientation
        is BAD_ORIENTATION; nothing is coerced (0.5 to 0, true to 1)."""
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        err = report(capsys, ["homology", str(p), "--degree", "0"],
                     expect=1)
        assert code in err


def _cochain_doc(value, degree="2", ring='"real"'):
    """Cochain document for s3's 10 triangles, every value the same."""
    return '{"degree": %s, "ring": %s, "values": [%s]}' % (
        degree, ring, ", ".join([value] * 10))


class TestPrimitive:
    def test_exact(self, capsys, paths):
        r = report(capsys, ["primitive", paths["s3"], paths["exact2_s3"]])
        assert r["exact"] and "primitive" in r

    def test_obstructed(self, capsys, paths):
        r = report(capsys, ["primitive", paths["s1xs2"],
                            paths["fiber_s1xs2"]])
        assert not r["exact"]
        assert abs(abs(r["class_coordinates"][0]) - 1.0) < 1e-9

    @pytest.mark.parametrize("doc", [
        "5",
        _cochain_doc("0.7", ring='"int"'),
        _cochain_doc("NaN"),
        _cochain_doc('"a"'),
        _cochain_doc("0.0", degree='"x"'),
        _cochain_doc("null"),
    ])
    def test_malformed_cochain_is_parse_error(self, capsys, paths,
                                              tmp_path, doc):
        p = tmp_path / "bad.json"
        p.write_text(doc)
        err = report(capsys, ["primitive", paths["s3"], str(p)], expect=1)
        assert "PARSE_ERROR" in err


@pytest.mark.parametrize("cmd, degree, ring", [
    ("primitive", 1, "real"), ("current", 1, "real"), ("chern", 2, "int"),
    ("flatten", 2, "int"), ("sharpness", 2, "int")])
def test_value_beyond_float_range_is_parse_error(capsys, paths, t3, cmd,
                                                 degree, ring):
    """A real 1-cochain holding a 401-digit integer, or an int 2-cocycle
    scaled by 10^400: no float can hold them."""
    if ring == "real":
        values = [10 ** 400] + [0] * (t3.n_simplices(1) - 1)
    else:
        g = cs.integral_generators(t3, 2)[0][0]
        values = [int(v) * 10 ** 400 for v in g]
    p = paths["root"] / f"huge_{cmd}.json"
    p.write_text(json.dumps({"degree": degree, "ring": ring,
                             "values": values}))
    err = report(capsys, [cmd, paths["t3"], str(p)], expect=1)
    assert "PARSE_ERROR" in err


@pytest.mark.parametrize("cmd", ["primitive", "cech-delta", "current",
                                 "obstruction"])
def test_int_non_cocycle_is_not_closed(capsys, paths, t3, cmd):
    """10^13 times a free generator, one entry raised by 1 (a 1-cochain,
    as --gamma, for obstruction): its coboundary is far inside the real
    tolerance, but an int cochain is closed only when d v = 0 exactly."""
    k = 1 if cmd == "obstruction" else 2
    values = [10 ** 13 * int(v) for v in cs.integral_generators(t3, k)[0][0]]
    values[0] += 1
    p = paths["root"] / f"near_cocycle_{cmd}.json"
    p.write_text(json.dumps({"degree": k, "ring": "int", "values": values}))
    argv = [cmd, paths["t3"], str(p)]
    if cmd == "obstruction":
        argv = [cmd, paths["t3"], paths["trivial_t3"], "--gamma", str(p)]
    err = report(capsys, argv, expect=1)
    assert "NOT_CLOSED" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["t3", "s3"])
@pytest.mark.parametrize("cmd", ["chern", "flatten", "sharpness",
                                 "obstruction"])
def test_cocycle_at_float_limit_is_parse_error(capsys, paths, request, cmd,
                                               name):
    """10^308 times a free generator of t3, and the constant 10^308 on s3:
    int 2-cocycles whose values are floats but 2*pi*c is not.  The error
    is the only output, with no numpy warning."""
    K = request.getfixturevalue(name)
    if name == "t3":
        g = cs.integral_generators(K, 2)[0][0]
        values = [10 ** 308 * int(v) for v in g]
    else:
        values = [10 ** 308] * K.n_simplices(2)
    p = paths["root"] / f"limit_{name}.json"
    p.write_text(json.dumps({"degree": 2, "ring": "int", "values": values}))
    err = report(capsys, [cmd, paths[name], str(p)], expect=1)
    assert err.startswith("error: PARSE_ERROR") and err.count("\n") == 1


def _no_constant(name):
    raise ValueError(f"report holds {name}")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale, cmd, expect", [
    pytest.param(10 ** 300, cmd, 0, id=f"1e300-{cmd}")
    for cmd in ("flatten", "sharpness", "obstruction")] + [
    pytest.param(2 * 10 ** 307, cmd, expect, id=f"2e307-{cmd}")
    for cmd, expect in (("flatten", 0), ("sharpness", 1),
                        ("obstruction", 1))])
def test_huge_cocycle_is_solved(capsys, paths, t3, scale, cmd, expect):
    """scale times a free generator of t3: 2*pi*c is a float, so the
    least-squares connection is found and the bundle is not flat.  At
    2*10^307 the pairings, about 4*pi*scale, exceed the float range, and
    the reports that hold them are PARSE_ERROR, never Infinity."""
    g = cs.integral_generators(t3, 2)[0][0]
    p = paths["root"] / f"huge_{cmd}_{len(str(scale))}.json"
    p.write_text(json.dumps({"degree": 2, "ring": "int",
                             "values": [scale * int(v) for v in g]}))
    code = run([cmd, paths["t3"], str(p)])
    captured = capsys.readouterr()
    assert code == expect, captured.err
    if expect:
        assert captured.err == \
            "error: PARSE_ERROR: a report value exceeds the float range\n"
        return
    doc = json.loads(captured.out, parse_constant=_no_constant)
    assert doc.get("flat", doc.get("flat_exists")) is False


class TestCrossChecks:
    """When a verdict's two routes disagree, cli.run exits 2."""

    def test_current_routes_disagree(self, capsys, paths, monkeypatch):
        solve = cech.find_primitive
        monkeypatch.setattr(cech, "find_primitive", lambda *args: (
            dataclasses.replace(solve(*args), primitive=None)))
        err = report(capsys, ["current", paths["s3"], paths["exact2_s3"]],
                     expect=2)
        assert "VERDICT_INCONSISTENT" in err

    def test_sharpness_routes_disagree(self, capsys, paths, monkeypatch):
        def flipped(bundle):
            res = flatten(bundle)
            return dataclasses.replace(res, flat=not res.flat)

        flatten = obstruction.flatten
        monkeypatch.setattr(obstruction, "flatten", flipped)
        for cocycle in ("monopole", "trivial_t3"):
            name = "s1xs2" if cocycle == "monopole" else "t3"
            err = report(capsys, ["sharpness", paths[name], paths[cocycle]],
                         expect=2)
            assert "VERDICT_INCONSISTENT" in err


class TestTolerance:
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_bad_tol_is_bad_parameter(self, capsys, paths, tol):
        for argv in (["primitive", paths["s1xs2"], paths["fiber_s1xs2"]],
                     ["sharpness", paths["t3"], paths["trivial_t3"]]):
            err = report(capsys, argv + ["--tol", tol], expect=1)
            assert "BAD_PARAMETER" in err, argv

    def test_good_tol_accepted(self, capsys, paths):
        r = report(capsys, ["primitive", paths["s1xs2"],
                            paths["fiber_s1xs2"], "--tol", "1e-6"])
        assert not r["exact"]
        r = report(capsys, ["sharpness", paths["t3"], paths["trivial_t3"],
                            "--tol", "1e-6"])
        assert r["flat_exists"]


class TestPairingChern:
    def test_pairing_t3(self, capsys, paths):
        r = report(capsys, ["pairing", paths["t3"], "--degree", "1"])
        assert r["nondegenerate"]
        m = np.array(r["matrix"])
        assert m.shape == (3, 3)
        assert abs(abs(np.linalg.det(m)) - 1.0) < 1e-9

    def test_chern_monopole(self, capsys, paths):
        r = report(capsys, ["chern", paths["s1xs2"], paths["monopole"]])
        assert abs(abs(r["real_class"][0]) - 2 * np.pi) < 1e-9


class TestFlattenSharpness:
    def test_flatten_trivial(self, capsys, paths):
        r = report(capsys, ["flatten", paths["t3"], paths["trivial_t3"]])
        assert r["flat"] and r["residual"] <= 1e-9

    def test_flatten_monopole(self, capsys, paths):
        r = report(capsys, ["flatten", paths["s1xs2"], paths["monopole"]])
        assert not r["flat"]

    def test_flatten_torsion(self, capsys, paths):
        r = report(capsys, ["flatten", paths["rp3"], paths["torsion_rp3"]])
        assert r["flat"]

    def test_sharpness_monopole(self, capsys, paths):
        r = report(capsys, ["sharpness", paths["s1xs2"], paths["monopole"]])
        assert not r["flat_exists"]
        assert abs(abs(r["witness"]["pairing"]) - 4 * np.pi) < 1e-5

    def test_sharpness_trivial(self, capsys, paths):
        r = report(capsys, ["sharpness", paths["t3"], paths["trivial_t3"]])
        assert r["flat_exists"] and "witness" not in r

    def test_sharpness_non_cocycle_exits_one(self, capsys, paths, t3):
        rng = np.random.default_rng(1)
        while True:
            c = random_int_cochain(rng, t3, 2)
            if any(int(v) for v in cs.apply_d(t3, c).values):
                break
        p = paths["root"] / "bad_cocycle.json"
        p.write_text(dump_cochain(c) + "\n")
        err = report(capsys, ["sharpness", paths["t3"], str(p)], expect=1)
        assert "NOT_A_COCYCLE" in err


class TestObstruction:
    def test_pairings_listed(self, capsys, paths):
        r = report(capsys, ["obstruction", paths["s1xs2"],
                            paths["monopole"]])
        assert not r["flat"]
        assert len(r["pairings"]) == 1
        assert abs(abs(r["pairings"][0]) - 4 * np.pi) < 1e-5

    def test_explicit_gamma(self, capsys, paths, s1xs2):
        g = cs.basis(s1xs2, 1).representative_cochains()[0]
        p = paths["root"] / "gamma.json"
        p.write_text(dump_cochain(g) + "\n")
        r = report(capsys, ["obstruction", paths["s1xs2"],
                            paths["monopole"], "--gamma", str(p)])
        assert abs(abs(r["pairing"]) - 4 * np.pi) < 1e-5
        assert abs(abs(r["class"][0]) - 4 * np.pi) < 1e-5


class TestCech:
    def test_delta_agreement(self, capsys, paths):
        r = report(capsys, ["cech-delta", paths["s1xs2"],
                            paths["fiber_s1xs2"]])
        assert r["max_disagreement"] < 1e-8

    def test_delta_degree_three_sign(self, capsys, paths, s3):
        g = cs.basis(s3, 3).representative_cochains()[0]
        p = paths["root"] / "top_s3.json"
        p.write_text(dump_cochain(g) + "\n")
        r = report(capsys, ["cech-delta", paths["s3"], str(p)])
        assert r["cech_degree"] == 3
        assert r["max_disagreement"] == 0
        assert r["cech_coordinates"] == r["simplicial_coordinates"]

    @pytest.mark.parametrize("degree", [0, 4])
    def test_delta_degree_out_of_range(self, capsys, paths, s3, degree):
        p = paths["root"] / f"deg{degree}_s3.json"
        p.write_text(dump_cochain(Cochain.zeros(s3, degree, "int")) + "\n")
        err = report(capsys, ["cech-delta", paths["s3"], str(p)], expect=1)
        assert "DEGREE_OUT_OF_RANGE" in err

    def test_current_globalizable(self, capsys, paths):
        r = report(capsys, ["current", paths["s3"], paths["exact2_s3"]])
        assert r["globalizable"] and "current" in r

    def test_current_obstructed(self, capsys, paths):
        r = report(capsys, ["current", paths["s1xs2"],
                            paths["fiber_s1xs2"]])
        assert not r["globalizable"] and "current" not in r

    @pytest.mark.parametrize("scale, exact_part, globalizable", [
        (5e-9, 0.0, False), (1e-7, 1e3, True)])
    def test_current_near_the_limit(self, capsys, paths, t3, scale,
                                    exact_part, globalizable):
        """scale * g + exact_part * d(beta), g the first free generator:
        both routes test P_k omega against one limit, so a class just
        above it, or below it beside a large exact part, gets a verdict."""
        rng = np.random.default_rng(12)
        beta = Cochain(1, "real", rng.standard_normal(t3.n_simplices(1)))
        g = cs.basis(t3, 2).representatives[0]
        w = exact_part * cs.apply_d(t3, beta).values + scale * g
        p = paths["root"] / f"near_limit_{scale}.json"
        p.write_text(dump_cochain(Cochain(2, "real", w)) + "\n")
        r = report(capsys, ["current", paths["t3"], str(p)])
        assert r["globalizable"] is globalizable


class TestDeterminism:
    def test_byte_identical_reports(self, paths, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argvs = [
            ["homology", paths["rp3"], "--degree", "2", "--ring", "int"],
            ["pairing", paths["t3"], "--degree", "1"],
            ["sharpness", paths["s1xs2"], paths["monopole"]],
            ["cs-grad-check", paths["s3"]],
        ]
        for argv in argvs:
            assert run(argv + ["--out", str(a)]) == 0
            assert run(argv + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), argv

    def test_cs_grad_check_small_error(self, capsys, paths):
        r = report(capsys, ["cs-grad-check", paths["s3"]])
        assert r["max_relative_error"] < 1e-6


@pytest.mark.parametrize("argv", [
    ["generate", "circle(4)"],
    ["homology", "rp3", "--degree", "2", "--ring", "int"],
    ["primitive", "s3", "exact2_s3"],
    ["pairing", "t3", "--degree", "1"],
    ["chern", "s1xs2", "monopole"],
    ["flatten", "s1xs2", "monopole"],
    ["cs-grad-check", "s3"],
    ["obstruction", "s1xs2", "monopole"],
    ["obstruction", "s1xs2", "monopole", "--gamma", "gamma_s1xs2"],
    ["sharpness", "s1xs2", "monopole"],
    ["cech-delta", "s1xs2", "fiber_s1xs2"],
    ["current", "s3", "exact2_s3"],
], ids=" ".join)
def test_out_file_matches_stdout(capsys, paths, tmp_path, argv):
    """Every subcommand writes the same bytes to --out as to stdout."""
    argv = [paths.get(a, a) for a in argv]
    assert run(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert run(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode()
