"""Report bytes that no BLAS can move.

homology and pairing on every degree, chern on int2 and zero2, and
cech-delta on the integer, degree-0 and degree-4 inputs print counts,
exact Python ints or sums of small integers in floats, so no summation
order can change them.  These 80 commands run through cli.run on the
byte-identity inputs (tests/byte_identity.py), written into a temporary
directory, and each output line must match tests/exact_reports.txt.
The commands that go through least squares stay with that harness.

An intended byte change regenerates the file,

    python3 tests/test_exact_reports.py > tests/exact_reports.txt

and says why in CHANGES.md.
"""

import pathlib
import sys
import tempfile

import pytest

import byte_identity

DIGESTS = pathlib.Path(__file__).with_name("exact_reports.txt")
EXACT_CECH = ("int1", "int2", "int3", "gen3", "deg0", "deg4")


def exact_cases():
    return [(name, cmd) for name in byte_identity.FIXTURES
            for cmd in byte_identity.commands(name)
            if cmd[0] in ("homology", "pairing", "chern") or
            cmd[0] == "cech-delta" and cmd[2] in EXACT_CECH]


def _expected():
    """Output line per command text, from the digest file."""
    lines = DIGESTS.read_text().splitlines()
    return {line.split(" ", 2)[2]: line for line in lines}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("exact")
    byte_identity.write(root)
    return root


def test_digest_file_lists_every_case():
    assert len(exact_cases()) == 80
    assert sorted(_expected()) == sorted(
        " ".join(cmd) for _, cmd in exact_cases())


@pytest.mark.parametrize("name, cmd", exact_cases(),
                         ids=[" ".join(c) for _, c in exact_cases()])
def test_report_bytes(inputs, name, cmd):
    assert byte_identity.case(inputs, name, cmd) == \
        _expected()[" ".join(cmd)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        byte_identity.write(pathlib.Path(tmp))
        for name, cmd in exact_cases():
            sys.stdout.write(byte_identity.case(pathlib.Path(tmp), name, cmd)
                             + "\n")
