"""End-to-end command-line tests (subprocess, golden outputs, exit codes)."""

import hashlib
import json
import math
import re
import subprocess
import sys
from fractions import Fraction

import pytest

CLI = [sys.executable, "-m", "schemealg.cli"]


def run_cli(*args, stdin=None):
    return subprocess.run(
        CLI + list(args), input=stdin, capture_output=True, text=True, timeout=120
    )


@pytest.fixture(scope="module")
def ex1_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("specs") / "ex1.json"
    p.write_text('{"type": "orbit", "m": 9, "r": 2}')
    return str(p)


@pytest.fixture(scope="module")
def ex2_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("specs") / "ex2.json"
    p.write_text('{"type": "orbit", "m": 8, "r": 3}')
    return str(p)


def test_validate_text(ex1_file):
    r = run_cli("validate", ex1_file)
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "valid: yes",
        "order: 9",
        "classes: 2",
        "valencies: 1 6 2",
        "origin: orbit(m=9, r=2)",
    ]


def test_validate_relations_stdin():
    doc = '{"type": "relations", "labels": [[0,1,1],[1,0,1],[1,1,0]]}'
    r = run_cli("validate", "-", "--format", "json", stdin=doc)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out == {
        "valid": True,
        "order": 3,
        "classes": 1,
        "valencies": [1, 2],
        "origin": "relations",
    }


def test_validate_tensor_input():
    doc = json.dumps(
        {"type": "tensor", "p": [[[1, 0], [0, 1]], [[0, 1], [2, 1]]]}
    )
    r = run_cli("validate", "-", stdin=doc)
    assert r.returncode == 0
    assert "valid: yes" in r.stdout


def test_chartab_text_golden(ex1_file):
    r = run_cli("chartab", ex1_file)
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "order: 9",
        "valencies: 1 6 2",
        "P:",
        "  1 6 2",
        "  1 0 -1",
        "  1 -3 2",
        "Q:",
        "  1 6 2",
        "  1 0 -1",
        "  1 -3 2",
    ]


def test_chartab_irrational_json():
    doc = '{"type": "orbit", "m": 5, "r": 4}'
    r = run_cli("chartab", "-", "--format", "json", stdin=doc)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["order"] == 5
    assert out["P"][0] == ["1", "2", "2"]
    entry = out["P"][1][1]
    assert entry["minpoly"] == ["-1", "1", "1"]  # x^2 + x - 1, ascending
    lo, hi = entry["interval"]
    assert Fraction(lo) < Fraction(hi)


def test_chartab_digits_control():
    doc = '{"type": "orbit", "m": 5, "r": 4}'
    r = run_cli("chartab", "-", "--digits", "4", stdin=doc)
    assert r.returncode == 0
    assert "~0.6180" in r.stdout
    assert "~-1.6180" in r.stdout


@pytest.mark.parametrize("m, r, digits", [(13, 12, 36), (27, 8, 30)])
def test_chartab_digits_are_correctly_rounded(m, r, digits, tmp_path, capsys):
    # Each P row is the Gauss periods of a character of Z_m, rounded half up
    # by mpmath.  The midpoint of an interval that straddled a rounding
    # boundary once printed ...578455 for the last entry of the second P row
    # of (13, 12), and ...903332 for every 4.59626665871386821121435590333250...
    # of (27, 8).
    mpmath = pytest.importorskip("mpmath")
    from schemealg import cli
    from schemealg.exactmath import format_decimal
    from schemealg.scheme import orbit_classes

    path = tmp_path / "orbit.json"
    path.write_text(json.dumps({"type": "orbit", "m": m, "r": r}))
    assert cli.main(["chartab", str(path), "--digits", str(digits)]) == 0
    lines = capsys.readouterr().out.splitlines()
    printed = {
        tuple(format_decimal(Fraction(t), digits) if t[0] != "~" else t[1:] for t in line.split())
        for line in lines[lines.index("P:") + 1 : lines.index("Q:")]
    }
    orbit_of, reps = orbit_classes(m, r)
    classes = [[x for x in range(m) if orbit_of[x] == i] for i in range(len(reps))]
    with mpmath.workdps(digits + 30):

        def rounded(a, c):
            period = mpmath.fsum(mpmath.cos(2 * mpmath.pi * a * x / m) for x in c)
            return format_decimal(Fraction(int(mpmath.floor(period * 10**digits + 0.5)), 10**digits), digits)

        expected = {tuple(rounded(a, c) for c in classes) for a in range(m)}
    assert len(printed) == len(reps)
    assert printed == expected


def test_ppoly_json(ex1_file):
    r = run_cli("ppoly", ex1_file, "--format", "json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out == {
        "p_polynomial": True,
        "generator_class": 1,
        "distance_relabeling": [0, 1, 2],
        "eliminant": ["0", "-18", "-3", "1"],
    }


def test_ppoly_negative(ex2_file):
    r = run_cli("ppoly", ex2_file)
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "p-polynomial: no"
    assert len(lines) == 4  # one diagnostic per class


def test_express_text(ex2_file):
    r = run_cli("express", ex2_file, "--classes", "1,2")
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "subset: 1 2",
        "x0 = 1",
        "x3 = 1/2*x2^2 - 1",
    ]


def test_mingen(ex2_file):
    r = run_cli("mingen", ex2_file, "--format", "json")
    assert r.returncode == 0
    assert json.loads(r.stdout) == {
        "minimal_size": 2,
        "generating_sets": [[1, 2], [1, 3]],
    }


def test_generator(ex2_file):
    r = run_cli("generator", ex2_file, "--format", "json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["coefficients"] == [0, 7, 0, 1]
    assert out["changes"] == [[1, 7]]
    assert out["eliminant"] == ["783", "2", "-784", "-2", "1"]
    assert len(out["expressions"]) == 4


def test_gb_degree(ex1_file):
    r = run_cli("gb", ex1_file)
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "order: degree",
        "generators:",
        "  x0 - 1",
        "  x2^2 - x2 - 2",
        "  x1*x2 - 2*x1",
        "  x1^2 - 3*x1 - 6*x2 - 6",
        "normal set: 1 x1 x2",
    ]


def test_gb_lex(ex2_file):
    r = run_cli("gb", ex2_file, "--order", "lex", "--smallest", "2")
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "order: lex",
        "smallest: x2",
        "generators:",
        "  x2^3 - 4*x2",
        "  x3 - 1/2*x2^2 + 1",
        "  x1*x2 - 2*x1",
        "  x1^2 - 2*x2^2 - 4*x2",
        "  x0 - 1",
        "normal set: 1 x2 x2^2 x1",
    ]


def test_reruns_are_byte_identical(ex1_file, ex2_file):
    for args in (
        ("chartab", ex1_file, "--format", "json"),
        ("gb", ex2_file, "--order", "lex", "--smallest", "1"),
        ("generator", ex2_file),
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------


def test_exit_2_bad_json():
    r = run_cli("validate", "-", stdin="this is not json")
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_exit_2_unknown_type():
    r = run_cli("validate", "-", stdin='{"type": "mystery"}')
    assert r.returncode == 2


def test_exit_2_unknown_keys():
    r = run_cli("validate", "-", stdin='{"type": "orbit", "m": 9, "r": 2, "x": 1}')
    assert r.returncode == 2


def test_exit_2_missing_file():
    r = run_cli("validate", "/nonexistent/path.json")
    assert r.returncode == 2


def test_exit_2_file_not_utf8(tmp_path):
    path = tmp_path / "bom16.json"
    path.write_bytes(b"\xff\xfe" + b'{"type": "orbit", "m": 9, "r": 2}')
    r = run_cli("validate", str(path))
    assert r.returncode == 2
    assert r.stderr.startswith("error: cannot read") and r.stderr.count("\n") == 1


def test_exit_2_integer_over_the_digit_limit(tmp_path):
    path = tmp_path / "digits.json"
    path.write_text('{"type": "orbit", "m": ' + "9" * 5000 + ', "r": 2}')
    r = run_cli("validate", str(path))
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1


def test_exit_2_json_nested_past_the_recursion_limit(tmp_path, capsys):
    from schemealg import cli

    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1


def test_exit_2_usage_error(ex1_file):
    r = run_cli("no-such-command", ex1_file)
    assert r.returncode == 2


def test_exit_2_gb_flag_misuse(ex1_file):
    r = run_cli("gb", ex1_file, "--order", "lex")
    assert r.returncode == 2
    r = run_cli("gb", ex1_file, "--smallest", "1")
    assert r.returncode == 2


@pytest.mark.parametrize("m", [2049, 10**9])
def test_exit_2_orbit_modulus_over_the_limit(m, tmp_path, monkeypatch):
    from schemealg import cli
    from schemealg.errors import ParseError

    assert cli.MAX_ORBIT_M == 2048
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"type": "orbit", "m": m, "r": 3}))

    def must_not_build(m, r):
        raise AssertionError("orbit_scheme ran")

    monkeypatch.setattr(cli, "orbit_scheme", must_not_build)
    with pytest.raises(ParseError, match=f"orbit m={m} exceeds the limit m <= 2048"):
        cli.load_scheme(str(path))
    r = run_cli("validate", str(path))
    assert r.returncode == 2
    assert "m <= 2048" in r.stderr


def test_orbit_modulus_at_the_limit_is_built(tmp_path, monkeypatch):
    from schemealg import cli

    path = tmp_path / "limit.json"
    path.write_text(json.dumps({"type": "orbit", "m": cli.MAX_ORBIT_M, "r": 3}))
    monkeypatch.setattr(cli, "orbit_scheme", lambda m, r: ("built", m, r))
    assert cli.load_scheme(str(path)) == ("built", 2048, 3)


def test_exit_2_relations_over_the_limit(tmp_path, monkeypatch):
    from schemealg import cli
    from schemealg.errors import ParseError

    assert cli.MAX_RELATIONS_V == 256
    path = tmp_path / "big.json"
    # rows that would fail to convert, so the limit must be checked first
    path.write_text(json.dumps({"type": "relations", "labels": [["x"]] * 257}))

    def must_not_build(labels):
        raise AssertionError("scheme_from_relations ran")

    monkeypatch.setattr(cli, "scheme_from_relations", must_not_build)
    with pytest.raises(ParseError, match="v=257 points exceed the limit v <= 256"):
        cli.load_scheme(str(path))
    r = run_cli("validate", str(path))
    assert r.returncode == 2
    assert "v <= 256" in r.stderr


def test_relations_at_the_limit_are_built(tmp_path, monkeypatch):
    from schemealg import cli

    path = tmp_path / "limit.json"
    path.write_text(json.dumps({"type": "relations", "labels": [[0]] * cli.MAX_RELATIONS_V}))
    monkeypatch.setattr(cli, "scheme_from_relations", lambda labels: ("built", len(labels)))
    assert cli.load_scheme(str(path)) == ("built", 256)


def test_exit_2_orbit_over_the_class_limit(tmp_path, monkeypatch):
    from schemealg import cli
    from schemealg.errors import ParseError

    assert cli.MAX_CLASSES == 64
    path = tmp_path / "d65.json"
    path.write_text(json.dumps({"type": "orbit", "m": 131, "r": 130}))  # d = 65

    def must_not_build(m, r):
        raise AssertionError("orbit_scheme ran")

    monkeypatch.setattr(cli, "orbit_scheme", must_not_build)
    with pytest.raises(ParseError, match="orbit m=131, r=130: d=65 classes exceed the limit d <= 64"):
        cli.load_scheme(str(path))
    r = run_cli("validate", str(path))
    assert r.returncode == 2
    assert "d <= 64" in r.stderr


def test_orbit_at_the_class_limit_is_built(tmp_path, monkeypatch):
    from schemealg import cli

    path = tmp_path / "d64.json"
    path.write_text(json.dumps({"type": "orbit", "m": 129, "r": 128}))  # d = 64
    monkeypatch.setattr(cli, "orbit_scheme", lambda m, r: ("built", m, r))
    assert cli.load_scheme(str(path)) == ("built", 129, 128)


def test_exit_2_relations_over_the_class_limit(tmp_path, monkeypatch):
    from schemealg import cli
    from schemealg.errors import ParseError

    path = tmp_path / "labels.json"
    path.write_text(json.dumps({"type": "relations", "labels": [[0, 65], [65, 0]]}))

    def must_not_build(labels):
        raise AssertionError("scheme_from_relations ran")

    monkeypatch.setattr(cli, "scheme_from_relations", must_not_build)
    with pytest.raises(ParseError, match="relations: d=65 classes exceed the limit d <= 64"):
        cli.load_scheme(str(path))
    path.write_text(json.dumps({"type": "relations", "labels": [[0, 64], [64, 0]]}))
    monkeypatch.setattr(cli, "scheme_from_relations", lambda labels: ("built", labels))
    assert cli.load_scheme(str(path)) == ("built", [[0, 64], [64, 0]])


def test_exit_2_tensor_over_the_class_limit(tmp_path):
    from schemealg import cli
    from schemealg.errors import ParseError

    path = tmp_path / "tensor.json"
    # entries that would fail to convert, so the limit must be checked first
    path.write_text(json.dumps({"type": "tensor", "p": [[["x"]]] * 66}))
    with pytest.raises(ParseError, match="tensor: d=65 classes exceed the limit d <= 64"):
        cli.load_scheme(str(path))


# sha256 of `chartab --format json` stdout on the ten rungs of the benchmark's
# chartab-irrational ladder, and on four lex paths no rung takes: (20, 9) and
# (52, 3) mix rational and irrational coordinates, and (8, 3) and (12, 5) are
# all-rational without a shape basis.  (40, 39), the cycle at d = 20, and
# (61, 3) are solved through a lex basis in shape position.  The JSON report
# prints the isolating interval of every irrational entry, so these pin the
# endpoints that root isolation and certification produce, not only the
# values.
CHARTAB_JSON_SHA256 = {
    (8, 3): "656c72d4dcfdc87883ac9e7ad213345fc777e3a5369f48c3953e615a6b5a7e04",
    (10, 9): "258d8a5e3cb49bde0d1304b0cff4ab836ce4aad0b9bacdfabd1022cd9fd9feec",
    (12, 5): "29c8b628425afe583976467a78162d25bc32ae33abf74cf127adf2109a205d2c",
    (13, 5): "6040971b204400c9e6d9644985a55a53cd18442194365fd4098afd678adc5a99",
    (16, 15): "b12a3797e4ace73b7b5ca986944e2d3304be1f253323b4c2730ec37d8f3337cf",
    (20, 9): "6e6be06a2e0dad140472d87058ce8b5b0fd3164869c76d461f5b703e8c292d7a",
    (24, 23): "b525af08b55d7f9ece1204b1131dac17c2b4fc73a9718c36a9a03308e13606fe",
    (25, 4): "1ebb3dae1ef0a115aaa7b132275d093040e01f363a33a6cbc64e9c1c06dd3cf5",
    (27, 8): "b901c9025acc3ae991c8cb77c9dcafe6805be22cdf620d2b944a49b0afccbbb1",
    (31, 5): "02ee670f42c283fc56f869cfd16c56690b00c3a86fa2b3e533ef378c1128ace3",
    (32, 7): "03b725bd149d9c36bbd9a0b98b71757f5b8e5d4a42799f3c12437c2cf579a098",
    (37, 10): "326ebf98ed642f493243752c1d44854845497c71c3c39edf815f198ae7f9694b",
    (40, 39): "5ddabb4642716d098d72d695bd99a2cb38f01a052bf347196d4be98953aa91a8",
    (52, 3): "6cf55c7a92ac106754e42d255c949c6e2bd095b1f630052b20c1b8eb56cccf5a",
    (61, 3): "e518aadff69230440f171feb09b859a5f4e6eecff86fbbe977f42f63558e999d",
}


# sha256 of `chartab --digits 100` text stdout, which refines every
# irrational entry to 10^-102: (24, 23) refines its entries the furthest past
# certification, and (32, 7) takes the generic path.
CHARTAB_DIGITS_SHA256 = {
    (24, 23): "ed8a0a08dce8d8468d374f89dbb2a92aac12f9449ac2d2e0e85b6cd2ecc178b0",
    (32, 7): "4eb7c27a1e8d437324dae53890929f7cd3994a93e72ae70dd971dbe75fde59ae",
}


# sha256 of `ppoly` and `generator` stdout in both formats: the verdicts and
# diagnostics read off each lex basis, and the generic element's eliminant and
# expressions.  (13, 5) fails on the degree sequence, (25, 4) on the eliminant
# degree and needs a coordinate change, (31, 5) fails on the degree sequence
# with d = 5, the pentagon (5, 4) is P-polynomial, and the generic element of
# (32, 7) takes four coordinate changes, the longest search pinned.  The cycle
# (40, 39) is P-polynomial with a degree-21 eliminant, and (21, 13), at d = 7,
# fails on the eliminant degree for 4 classes and on the degree sequence for 3.
REPORT_SHA256 = {
    ("generator", 5, 4, "json"): "b88cdb1504d3e13ab1ee1eedda70fae4522df19a13b24c6fe892ee1ccafbd533",
    ("generator", 5, 4, "text"): "9f440046f951ca1ee271756cbec26595c74aa9ce7a74719f2685efa9edd3882b",
    ("generator", 13, 5, "json"): "cd1a43d8e5b0cbaa6b9274d07082a6f18507b75dd2f811040f335878b991614f",
    ("generator", 13, 5, "text"): "46ec4b91e9f4f9190089d1029b55a24fad7fbcb09da2029f5cf81d25bc8cfe30",
    ("generator", 25, 4, "json"): "09744d7d72f16f77e098bd8357906a15aa3c16096b7639ecc691f75ded45f2d5",
    ("generator", 25, 4, "text"): "dadde9e44efd195bcea3d35209cd5c319ef7ac7536c5d7de5e3ab557faa2033b",
    ("generator", 31, 5, "json"): "44c525f8d5cd26a9f02175878d8610552d95ff037db3dc7b0acead1166bb870d",
    ("generator", 31, 5, "text"): "bb11816affc48b563992931a4dee06261a678d1b79d4e30b03acdbcd7ac81850",
    ("generator", 32, 7, "json"): "148f46f4484eefb1a6fc9195fccc56af157dbb6276d5a73decfda2ec2a261fb7",
    ("generator", 32, 7, "text"): "cea0f11f6ddfdf11042eda451ab9621d9ab756e232309f48b462718c91f85a4b",
    ("ppoly", 5, 4, "json"): "59ee3d8877407d61f51e06332a800e96889b6c4c3b6a8ac64da4345829c700ab",
    ("ppoly", 5, 4, "text"): "6d8d13b67107023dcd6ec28ebb81907c515b1819610964c88339844e1709f418",
    ("ppoly", 13, 5, "json"): "9f7c77cda9cf24aa4394821491edbb25e61ad3f7dd009e8568f924e6c93518c5",
    ("ppoly", 13, 5, "text"): "927a1467181bbf4142bfdb50078dbd876560365c95436856c362f672239b69f6",
    ("ppoly", 25, 4, "json"): "9f87c4eb08bcd8ca628e8f6e7eac72abae9703ade3381726d022d46190d2f267",
    ("ppoly", 25, 4, "text"): "bc6f02d6cf71b8967c6b02ac08d2d4ff29cfa77bdbba2841159b1f884c53a3a9",
    ("ppoly", 31, 5, "json"): "d31e44c70919027c67efe6af5c29f6e7a1b372124d9525a0af5a69f8be118f78",
    ("ppoly", 31, 5, "text"): "7c3d76f5a0a7ee298a40cf0604acf9393791d45f2356ef696a75bc64b55d30fa",
    ("ppoly", 21, 13, "json"): "e96257a0dbd6e68e2d19be90031816c7a08dbb6a1afd9e8972b46e1e4ad066b8",
    ("ppoly", 21, 13, "text"): "fa482be9dcede256994dcba9669370de1352f0aff0cb4fb1fd1b8d28e76ac090",
    ("ppoly", 40, 39, "json"): "ce61ce8cc4ffcd2923e2b95a09166f84d7560295307f99c94d9405a35568108d",
    ("ppoly", 40, 39, "text"): "527a42676570fd6e72c5b4443bfe47fc507d7dc1e4c6ade1f416aafd3c13a935",
}


# sha256 of `gb` text stdout: the degree basis (smallest None) and the lex
# basis for every smallest class, the FGLM conversions that `ppoly`, `express`
# and the lex ladder of `chartab` read, captured while FGLM still scanned its
# leading terms for the border test.  Every class of (31, 5) gives a shape
# basis, some classes of the cycles (24, 23) and (40, 39) do, and no class of
# (25, 4) or (32, 7) does.
GB_SHA256 = {
    (24, 23, None): "1b47b331af2fcd0a6e564c8ae0cfd7b658d194ab5f6a601ff25552078933cc88",
    (24, 23, 0): "b81889f9a0cba436d43c77eb2e907d23d53d1e6fa5dc5579e784ebd940bb0ca6",
    (24, 23, 1): "eac7ae38be1a202cde662d2f4a30bf21d8ad7358c762531866c9c9cfa498ebc1",
    (24, 23, 2): "9cfed5661cf5e3b8cfc8ab814cd216799dcc86ccf38956a51ee40d5506538888",
    (24, 23, 3): "469ea53d10da6704a83631bdf4a2d12adf5077ba2a383b85ea8b5bf82202dbc4",
    (24, 23, 4): "4b8bffa212b2f379364dddc5f5b060136f8550d7b4efdd04c46f23b254da0dcc",
    (24, 23, 5): "1081a6277211b32a51ba6013b61c0e0ec079f600768283b4a6c3b8bbfc6be358",
    (24, 23, 6): "f082a3f35f27eed0e0c14ceb788c1ec71dc7caafe12953e8e95ddf37758bb45f",
    (24, 23, 7): "41c4df47a83a50df57d45b50c3adacff5d5ac08ac506a0241693ff535bd320a4",
    (24, 23, 8): "a48a941ac0e9bd7ab1803384a5d52e00922944ee7d4b6808391220dcec4c2512",
    (24, 23, 9): "7351500c0e6909264cd1374d5c91fb046e9ae3ddc4eaa2e49bd9238d471c8065",
    (24, 23, 10): "89a6030a89927d69d7a3fbd3d7dc2f93ae80f371aee1b68b5b5e21290d81d747",
    (24, 23, 11): "ae4cd2eae6d65bbe82518071a8754d6a48d046f3873cfa3becffbf06b12bc15c",
    (24, 23, 12): "0291b6ef3e4fc5b956a72c147ae07144d712bd860fbe49a91ddb366d1bc9bfbb",
    (25, 4, None): "56974bff0394be14b0d4c11deb30fe4818d5a3dacdae64117bf1e2699bbbc4b4",
    (25, 4, 0): "4166081370b527c1e993cdfdc68288947eb0c857977a9cf28fdf1a396b9af175",
    (25, 4, 1): "cefa25ae83c7f31edcf83409afdbc330fcadfbd5edc511265049a141176a5616",
    (25, 4, 2): "ae3831435261b13996212cc90f820ab2f578874e1cc526d0556b739c26914a92",
    (25, 4, 3): "27f502e3129276fcdf4bd302eb159f883d83a88f9da70b5d93dd22796540b4bf",
    (25, 4, 4): "4e9ba6f7b263a83ee806d74e8c2cfac89854c2c1110d4f74732c6931d50d39db",
    (31, 5, None): "6d8c68fb22521ab609d805a01e0d431b54eec5ecea78e161770680a9518a0b02",
    (31, 5, 0): "270188c55e5e55419d78986d37e60efd2d0508e384c2639acc928ed954d24706",
    (31, 5, 1): "a8fb21c32a5123be675113758be5519f518939f86b842bdb2af98db7df9d4308",
    (31, 5, 2): "a1127604a2145b19afa98af3fbb474c9d2e318d57ab46e2e00894067a4fa1968",
    (31, 5, 3): "faeff311eec0df18cb97ba00e656193052fd389663dfe84b2fd5fc2ba5a9bd63",
    (31, 5, 4): "be7c7dade71281e472aa674c7f0b1bb3982ed1e2b815017d336c8cd6014707da",
    (31, 5, 5): "422144c006356281dff45a67c0927c04eb523867b95c49801f8f48ec839658e2",
    (32, 7, None): "95c96c078e221ecdb2e3585e76fd1c9910d74c320e1cf6927573cafcc8a7b85a",
    (32, 7, 0): "94cc3769b170f303ed202388cb8bd220eea873fdb7389653e02112e822d977a7",
    (32, 7, 1): "2a936b7ee2479f9d1a2ef8a339f5f8f93ff5b662e9c1f0f448dfee5e326c1425",
    (32, 7, 2): "bd946e6309b8d803cf1300a982235c2b3106166592dad472815500809142dcca",
    (32, 7, 3): "a0c8a01a20941a60782b51f22d164a3c8357b61b0711afe41aa9d9be346045e8",
    (32, 7, 4): "bdf63be70f03b3fb37d1d8d718a9bd70092c3adafbadca48e362d7f4b7acf968",
    (32, 7, 5): "f02898ce55169b2dee106e576d9a387ed570dab620d0573e5aa66f8fe0219ac9",
    (32, 7, 6): "734902c88c13cb23c42d9f7986fcb0d99d4bd69dddf5dabb0e285eab7a9a7768",
    (32, 7, 7): "f6dd76fa090bf157ad7cc1b609d167f1319bd2629c005ae5cd1d2a268f802fdc",
    (32, 7, 8): "aa8b456de12802ff045b9cba8576a11e2609a8a9d6076f68a38d9cb7d65120f7",
    (40, 39, None): "f62bae226e6499aab49b3b04519a2d1fa188243b799abf8463b8c6b174c4edfb",
    (40, 39, 0): "6bb1d21168744bc9164c22d72d80c7a1d6af971b42ee1255bf455fbad804f556",
    (40, 39, 1): "78243a4668b7db38dfc889ec4d51620eb278483ddf062b7d275cdac2a71469eb",
    (40, 39, 2): "fbab23d77ed0427b6c92c0ca6c3aeee9208cdf5d25dedafd8c7af36b1f8b6920",
    (40, 39, 3): "8f0ef635820211a5720d6a40f9a9558704acddafdb8eb6f0d49e83d935ab6bd8",
    (40, 39, 4): "b11b2a130242e731fc2f7ecbce1b802a6aef9e560d4041f3c1f4a471a70a2078",
    (40, 39, 5): "4cc15c509da918dd3f8fb60f9b9b7cc06c916e03c231bb80c76475eb43efc2db",
    (40, 39, 6): "af0b535f0044434ec5dbe3d9cabb22fd21ac5c4d768c91173041ebe8900b1a17",
    (40, 39, 7): "71281ac6657b8402f739c6d32578f706263ee228b5a4320cf89edd4c603db74e",
    (40, 39, 8): "63b03a9f5ebfb2e47f49965fe4a124a535f35ac3bde334c6aa89cc95eac790d9",
    (40, 39, 9): "cda11a8a1b2144e56a1bb166a7a17958baa414227191ae31d79307e451078d75",
    (40, 39, 10): "2ff8ce5c39c579b499d81542719d5ed3db2e9ca530d65992f4fb85fd4275ecb5",
    (40, 39, 11): "19f39f16de3fc345ee132185178a16b6754b5867e7a24298eb9a25ec78b98f84",
    (40, 39, 12): "af1ecfce7595fe2c72806be10bad2e7fe350aa6905b2ce9d12c1fd7a9f30c53a",
    (40, 39, 13): "fa0841a4c143f2c5b68a2cfa39a8b7806e8360f39e05f7f741bdf77a8237a901",
    (40, 39, 14): "4f537375fd491faecd1cd5f0c07c3a98335e320a9081c0272f1af8f56c0ea5d3",
    (40, 39, 15): "3b505628e9ee8391c74158833e3d8be084ec93ceb3996c37e4151e4a0ca84390",
    (40, 39, 16): "669ab907bfb952536b71de10eddbe131c94a97b08d93ba6a1d29c4b91063ee1a",
    (40, 39, 17): "12e18a1d7835bcbb3e92a6258f7b208022743a0c2942509dfb20df2a8ebfedf1",
    (40, 39, 18): "746672f6169f5fdbe72e1f37b01602f193a2571b1f31c418a6d75f94caa9eaee",
    (40, 39, 19): "6bb87431ed8913aa6d3b294a82bb3b2ee34af15f14570a49a1e43181ac4e7e78",
    (40, 39, 20): "6db2abeaf2960e6f911d21ec2802d4e46fe5d991bb0cccc9302c44901778991a",
}


# sha256 of `mingen` stdout in both formats, captured when every candidate
# still ran a block-lex FGLM conversion: (8, 3) needs two classes, (32, 7)
# three, and the cycles (20, 19) and (40, 39) are generated by each class
# coprime to m.
MINGEN_SHA256 = {
    ("mingen", 8, 3, "json"): "6c13410dec42b52342862812b79421bb6f36ab040cc0930a42b0b526e6e38346",
    ("mingen", 8, 3, "text"): "2eb55aba9cfa67e7a255c43354b81373a3e8bf89902b872dde9953bf33db4b3b",
    ("mingen", 20, 19, "json"): "a1fd0d0a49e6fb626453cdb9feceb58894ce883e6a87bbdb536a4df3e79cfb75",
    ("mingen", 20, 19, "text"): "6b821d91ff63cd416f77dbd70c0b262f4ad8bb5b9d544c8c401fb32a496b305f",
    ("mingen", 32, 7, "json"): "dab19f7bafab9eab2a76ac0fdd0c9f7ceadff8a61ce999ec848d8cde0e0a285e",
    ("mingen", 32, 7, "text"): "78c93dad06ef26e8304f42ae7859fb3232fe5e638d48693e1e350c8c4fb8b659",
    ("mingen", 40, 39, "json"): "c61c80d4503226f583a211a440d22b9c6ce781348540a93c3b3ec12b8b7d08d0",
    ("mingen", 40, 39, "text"): "618b8ecedda898009d645cd0d80ddd74095d0b44e45889cd1999fd35b3bbf092",
}


def _orbit_stdout_sha256(cmd, m, r, fmt, tmp_path, capsys, *args):
    from schemealg import cli

    path = tmp_path / "scheme.json"
    path.write_text(json.dumps({"type": "orbit", "m": m, "r": r}))
    assert cli.main([cmd, str(path), "--format", fmt, *args]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("m, r", sorted(CHARTAB_JSON_SHA256))
def test_chartab_json_intervals_are_pinned(m, r, tmp_path, capsys):
    digest = _orbit_stdout_sha256("chartab", m, r, "json", tmp_path, capsys)
    assert digest == CHARTAB_JSON_SHA256[(m, r)]


# sha256 of the `chartab --format json` stdouts, concatenated, of the 122
# distinct orbit tensors with m <= 40, each from its smallest coprime (m, r),
# in ascending (m, r): every value, interval endpoint and witness that the
# solve, the certificates and the printing give across the lex paths, the
# shape-position reads and the generic fallback.
CHARTAB_CORPUS_SHA256 = "f948d294e667b9c28f7f18e404f5821bc8471fe8486a6b32b14ddbd0736dca15"


def test_chartab_json_reports_of_the_orbit_corpus_are_pinned(tmp_path, capsys):
    from schemealg import cli
    from schemealg.scheme import orbit_scheme

    firsts = {}
    for m in range(3, 41):
        for r in range(2, m):
            if math.gcd(m, r) == 1:
                firsts.setdefault(orbit_scheme(m, r).tensor.p, (m, r))
    assert len(firsts) == 122
    path = tmp_path / "scheme.json"
    for m, r in firsts.values():
        path.write_text(json.dumps({"type": "orbit", "m": m, "r": r}))
        assert cli.main(["chartab", str(path), "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CHARTAB_CORPUS_SHA256


@pytest.mark.parametrize("m, r", sorted(CHARTAB_DIGITS_SHA256))
def test_chartab_digits_100_reports_are_pinned(m, r, tmp_path, capsys):
    digest = _orbit_stdout_sha256("chartab", m, r, "text", tmp_path, capsys, "--digits", "100")
    assert digest == CHARTAB_DIGITS_SHA256[(m, r)]


@pytest.mark.parametrize("cmd, m, r, fmt", sorted(REPORT_SHA256))
def test_ppoly_and_generator_reports_are_pinned(cmd, m, r, fmt, tmp_path, capsys):
    digest = _orbit_stdout_sha256(cmd, m, r, fmt, tmp_path, capsys)
    assert digest == REPORT_SHA256[(cmd, m, r, fmt)]


@pytest.mark.parametrize("m, r, smallest", list(GB_SHA256))
def test_gb_reports_are_pinned(m, r, smallest, tmp_path, capsys):
    order = [] if smallest is None else ["--order", "lex", "--smallest", str(smallest)]
    digest = _orbit_stdout_sha256("gb", m, r, "text", tmp_path, capsys, *order)
    assert digest == GB_SHA256[(m, r, smallest)]


@pytest.mark.parametrize("cmd, m, r, fmt", sorted(MINGEN_SHA256))
def test_mingen_reports_are_pinned(cmd, m, r, fmt, tmp_path, capsys):
    digest = _orbit_stdout_sha256(cmd, m, r, fmt, tmp_path, capsys)
    assert digest == MINGEN_SHA256[(cmd, m, r, fmt)]


def _forbid_analysis(monkeypatch):
    from schemealg import cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("the scheme was loaded or analysed")

    for name in ("load_scheme", "character_table", "find_generic_element"):
        monkeypatch.setattr(cli, name, must_not_run)
    return cli


@pytest.mark.parametrize("digits", ["-1", "101"])
def test_exit_2_digits_out_of_bounds(digits, monkeypatch, capsys):
    cli = _forbid_analysis(monkeypatch)
    assert cli.MAX_DIGITS == 100
    assert cli.main(["chartab", "-", "--digits", digits]) == 2
    assert "--digits must be between 0 and 100" in capsys.readouterr().err


def test_exit_2_max_coeff_below_one(monkeypatch, capsys):
    cli = _forbid_analysis(monkeypatch)
    assert cli.main(["generator", "-", "--max-coeff", "0"]) == 2
    assert "--max-coeff must be at least 1" in capsys.readouterr().err


def test_exit_2_max_coeff_over_the_limit(monkeypatch, capsys):
    cli = _forbid_analysis(monkeypatch)
    assert cli.MAX_COEFF == 10**6
    assert cli.main(["generator", "-", "--max-coeff", str(10**6 + 1)]) == 2
    err = capsys.readouterr().err
    assert err == "error: --max-coeff must be at most 1000000\n"


def test_exit_2_negative_max_attempts(monkeypatch, capsys):
    cli = _forbid_analysis(monkeypatch)
    assert cli.main(["generator", "-", "--max-attempts", "-1"]) == 2
    assert "--max-attempts must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["chartab", "--digits", "0"],
        ["chartab", "--digits", "100"],
        ["generator", "--max-coeff", "1", "--max-attempts", "0"],
        ["generator", "--max-coeff", "1000000"],
    ],
)
def test_arguments_at_their_bounds_are_accepted(argv, tmp_path, capsys):
    from schemealg import cli

    path = tmp_path / "pentagon.json"
    path.write_text('{"type": "orbit", "m": 5, "r": 4}')
    assert cli.main([argv[0], str(path), *argv[1:]]) == 0
    assert capsys.readouterr().err == ""


def test_exit_4_when_the_attempt_budget_runs_out(tmp_path, capsys):
    # orbit (25, 4) needs one coordinate change with the default seed
    from schemealg import cli

    path = tmp_path / "orbit.json"
    path.write_text('{"type": "orbit", "m": 25, "r": 4}')
    assert cli.main(["generator", str(path), "--max-attempts", "0"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "analysis failed: no separating combination found after 0 coordinate changes\n"


def test_exit_4_non_integral_multiplicities():
    doc = json.dumps(
        {
            "type": "tensor",
            "p": [
                [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                [[0, 1, 0], [3, 1, 3], [0, 1, 0]],
                [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
            ],
        }
    )
    r = run_cli("chartab", "-", stdin=doc)
    assert r.returncode == 4
    assert r.stdout == ""
    assert "multiplicity" in r.stderr


# Tensors from strongly-regular-graph parameters that pass the linear axioms
# and associate, but have no scheme: their multiplicities are 5/2 and an
# irrational number.
SRG_TENSORS = {
    "srg(5,3,1,3)": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [3, 1, 3], [0, 1, 0]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]]],
    "srg(7,3,0,2)": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [3, 0, 2], [0, 2, 1]], [[0, 0, 1], [0, 2, 1], [3, 1, 1]]],
}


@pytest.mark.parametrize("name", sorted(SRG_TENSORS))
def test_validate_passes_what_chartab_rejects_for_its_multiplicities(name, tmp_path, capsys):
    # validate certifies the axioms and associativity, not that the
    # multiplicities are integers
    from schemealg import cli

    path = tmp_path / "srg.json"
    path.write_text(json.dumps({"type": "tensor", "p": SRG_TENSORS[name]}))
    for cmd in ("validate", "ppoly", "mingen"):
        assert cli.main([cmd, str(path)]) == 0
        assert capsys.readouterr().err == ""
    assert cli.main(["chartab", str(path)]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert re.fullmatch(r"analysis failed: multiplicity in \[\S+, \S+\] is not an integer\n", out.err)


def test_exit_4_mingen_over_the_candidate_limit(tmp_path, monkeypatch, capsys):
    # the regular scheme of (Z_2)^6 fits inside MAX_RELATIONS_V and
    # MAX_CLASSES; no set of fewer than 6 of its 63 classes can generate,
    # and C(63, 6) = 67945521 candidates are over the limit, so it exits
    # before any candidate is tried
    from schemealg import analysis, cli

    def must_not_run(columns, subset):
        raise AssertionError("a candidate was tried")

    monkeypatch.setattr(analysis, "_generates", must_not_run)
    path = tmp_path / "z2_6.json"
    path.write_text(json.dumps({"type": "relations", "labels": [[x ^ y for y in range(64)] for x in range(64)]}))
    assert cli.main(["mingen", str(path)]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "analysis failed: mingen would try C(63, 6) = 67945521 class sets of size 6; the limit is 10000\n"
    )


def test_exit_3_asymmetric_labels():
    r = run_cli("validate", "-", stdin='{"type": "relations", "labels": [[0,1],[2,0]]}')
    assert r.returncode == 3
    assert "not a scheme:" in r.stderr


def test_exit_3_empty_tensor():
    for cmd in ("validate", "ppoly"):
        r = run_cli(cmd, "-", stdin='{"type": "tensor", "p": []}')
        assert r.returncode == 3
        assert r.stderr == "not a scheme: invalid valencies ()\n"


def test_exit_3_bad_radix():
    r = run_cli("validate", "-", stdin='{"type": "orbit", "m": 9, "r": 3}')
    assert r.returncode == 3


def test_exit_3_nonassociative_tensor():
    doc = json.dumps(
        {
            "type": "tensor",
            "p": [
                [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                [[0, 1, 0], [6, 4, 5], [0, 1, 1]],
                [[0, 0, 1], [0, 1, 1], [2, 1, 0]],
            ],
        }
    )
    r = run_cli("validate", "-", stdin=doc)
    assert r.returncode == 3
    assert "not a scheme:" in r.stderr


def test_exit_4_inexpressible(ex2_file):
    r = run_cli("express", ex2_file, "--classes", "2,3")
    assert r.returncode == 4
    assert "analysis failed:" in r.stderr


def test_main_builds_its_parser_once(monkeypatch, capsys, ex1_file):
    from schemealg import cli

    real_build_parser = cli.build_parser
    built = []

    def counting_build_parser():
        built.append(True)
        return real_build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    monkeypatch.setattr(cli, "_parser", None)
    assert cli.main(["validate", ex1_file]) == 0
    assert cli.main(["validate", ex1_file, "--format", "json"]) == 0
    assert len(built) == 1
    out = capsys.readouterr().out
    assert out.startswith("valid: yes\n") and json.loads(out[out.index("{") :])["valid"] is True
