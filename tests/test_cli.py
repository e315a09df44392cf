"""End-to-end command-line tests (subprocess, golden outputs, exit codes)."""

import hashlib
import json
import subprocess
import sys

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
    from fractions import Fraction

    assert Fraction(lo) < Fraction(hi)


def test_chartab_digits_control():
    doc = '{"type": "orbit", "m": 5, "r": 4}'
    r = run_cli("chartab", "-", "--digits", "4", stdin=doc)
    assert r.returncode == 0
    assert "~0.6180" in r.stdout
    assert "~-1.6180" in r.stdout


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


# sha256 of `chartab --format json` stdout.  The JSON report prints the
# isolating interval of every irrational entry, so these pin the endpoints
# that root isolation and certification produce, not only the values.
CHARTAB_JSON_SHA256 = {
    (10, 9): "258d8a5e3cb49bde0d1304b0cff4ab836ce4aad0b9bacdfabd1022cd9fd9feec",
    (13, 5): "6040971b204400c9e6d9644985a55a53cd18442194365fd4098afd678adc5a99",
    (25, 4): "1ebb3dae1ef0a115aaa7b132275d093040e01f363a33a6cbc64e9c1c06dd3cf5",
}


# sha256 of `ppoly` and `generator` stdout in both formats: the verdicts and
# diagnostics read off each lex basis, and the generic element's eliminant and
# expressions.  (13, 5) fails on the degree sequence, (25, 4) on the eliminant
# degree and needs a coordinate change, (31, 5) fails on the degree sequence
# with d = 5, and the pentagon (5, 4) is P-polynomial.
REPORT_SHA256 = {
    ("generator", 5, 4, "json"): "b88cdb1504d3e13ab1ee1eedda70fae4522df19a13b24c6fe892ee1ccafbd533",
    ("generator", 5, 4, "text"): "9f440046f951ca1ee271756cbec26595c74aa9ce7a74719f2685efa9edd3882b",
    ("generator", 13, 5, "json"): "cd1a43d8e5b0cbaa6b9274d07082a6f18507b75dd2f811040f335878b991614f",
    ("generator", 13, 5, "text"): "46ec4b91e9f4f9190089d1029b55a24fad7fbcb09da2029f5cf81d25bc8cfe30",
    ("generator", 25, 4, "json"): "09744d7d72f16f77e098bd8357906a15aa3c16096b7639ecc691f75ded45f2d5",
    ("generator", 25, 4, "text"): "dadde9e44efd195bcea3d35209cd5c319ef7ac7536c5d7de5e3ab557faa2033b",
    ("generator", 31, 5, "json"): "44c525f8d5cd26a9f02175878d8610552d95ff037db3dc7b0acead1166bb870d",
    ("generator", 31, 5, "text"): "bb11816affc48b563992931a4dee06261a678d1b79d4e30b03acdbcd7ac81850",
    ("ppoly", 5, 4, "json"): "59ee3d8877407d61f51e06332a800e96889b6c4c3b6a8ac64da4345829c700ab",
    ("ppoly", 5, 4, "text"): "6d8d13b67107023dcd6ec28ebb81907c515b1819610964c88339844e1709f418",
    ("ppoly", 13, 5, "json"): "9f7c77cda9cf24aa4394821491edbb25e61ad3f7dd009e8568f924e6c93518c5",
    ("ppoly", 13, 5, "text"): "927a1467181bbf4142bfdb50078dbd876560365c95436856c362f672239b69f6",
    ("ppoly", 25, 4, "json"): "9f87c4eb08bcd8ca628e8f6e7eac72abae9703ade3381726d022d46190d2f267",
    ("ppoly", 25, 4, "text"): "bc6f02d6cf71b8967c6b02ac08d2d4ff29cfa77bdbba2841159b1f884c53a3a9",
    ("ppoly", 31, 5, "json"): "d31e44c70919027c67efe6af5c29f6e7a1b372124d9525a0af5a69f8be118f78",
    ("ppoly", 31, 5, "text"): "7c3d76f5a0a7ee298a40cf0604acf9393791d45f2356ef696a75bc64b55d30fa",
}


def _orbit_stdout_sha256(cmd, m, r, fmt, tmp_path, capsys):
    from schemealg import cli

    path = tmp_path / "scheme.json"
    path.write_text(json.dumps({"type": "orbit", "m": m, "r": r}))
    assert cli.main([cmd, str(path), "--format", fmt]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("m, r", sorted(CHARTAB_JSON_SHA256))
def test_chartab_json_intervals_are_pinned(m, r, tmp_path, capsys):
    digest = _orbit_stdout_sha256("chartab", m, r, "json", tmp_path, capsys)
    assert digest == CHARTAB_JSON_SHA256[(m, r)]


@pytest.mark.parametrize("cmd, m, r, fmt", sorted(REPORT_SHA256))
def test_ppoly_and_generator_reports_are_pinned(cmd, m, r, fmt, tmp_path, capsys):
    digest = _orbit_stdout_sha256(cmd, m, r, fmt, tmp_path, capsys)
    assert digest == REPORT_SHA256[(cmd, m, r, fmt)]


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
    ],
)
def test_arguments_at_their_bounds_are_accepted(argv, tmp_path, capsys):
    from schemealg import cli

    path = tmp_path / "pentagon.json"
    path.write_text('{"type": "orbit", "m": 5, "r": 4}')
    assert cli.main([argv[0], str(path), *argv[1:]]) == 0
    assert capsys.readouterr().err == ""


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
