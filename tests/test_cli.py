import json
import subprocess
import sys

import pytest

from heckesym import cli
from heckesym.cli import MAX_PARAM_DIGITS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_verify_builtin_dj3(capsys):
    code, doc = run_cli(capsys, "verify", "--builtin", "dj", "--dim", "3")
    assert code == 0
    assert doc["ok"] is True
    assert {c["name"] for c in doc["checks"]} == {"hecke-relation", "braid-relation"}
    assert doc["version"]


def test_verify_builtin_flip(capsys):
    code, doc = run_cli(capsys, "verify", "--builtin", "flip", "--dim", "2")
    assert code == 0 and doc["ok"]


def test_verify_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2,')
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "line" in captured.err and "column" in captured.err


def test_verify_missing_input(capsys):
    code = main(["verify"])
    assert code == 2


def test_verify_perturbed_matrix(tmp_path, capsys):
    code, doc = run_cli(capsys, "builtin", "--builtin", "dj", "--dim", "2")
    doc["matrix"][0][3] = "1"
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(doc))
    code, rep = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert not rep["ok"]
    braid = next(c for c in rep["checks"] if c["name"] == "braid-relation")
    assert braid["status"] == "fail" and "entry" in braid["detail"]


def test_analyze_dj2(capsys):
    code, doc = run_cli(capsys, "analyze", "--builtin", "dj", "--dim", "2")
    assert code == 0 and doc["ok"]
    assert doc["n"] == 2
    assert doc["theta"] == [["q^2", "0"], ["0", "q"]]
    assert doc["dims"] == [1, 2, 1, 0]
    assert doc["lambda_dims"] == [1, 2, 1, 0]
    assert doc["trace_table"][0]["match"] is True


def test_analyze_at_root_of_unity(capsys):
    code, doc = run_cli(
        capsys, "analyze", "--builtin", "dj", "--dim", "2", "--field", "cyclotomic", "--order", "3", "--q", "e"
    )
    assert code == 0 and doc["ok"]
    assert doc["f"] is not None
    assert doc["field"] == {"kind": "cyclotomic", "order": 3}


def test_analyze_dim1(capsys):
    code, doc = run_cli(capsys, "analyze", "--builtin", "dj", "--dim", "1")
    assert code == 0 and doc["n"] == 1


def test_analyze_no_top_component(capsys):
    code, doc = run_cli(capsys, "analyze", "--builtin", "dj", "--dim", "2", "--max-degree", "1")
    assert code == 0
    assert any(c["status"] == "skip" and c["name"] == "profile" for c in doc["checks"])


def test_analyze_over_cap_exits_2(capsys):
    # dj(4) has its top component in degree 4; upsilon(5) exceeds the tensor cap
    code = main(["analyze", "--builtin", "dj", "--dim", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--builtin", "dj", "--dim", "0"],
        ["verify", "--builtin", "dj", "--field", "cyclotomic", "--order", "0"],
        ["analyze", "--builtin", "dj", "--dim", "2", "--max-degree", "0"],
    ],
)
def test_zero_counts_are_rejected(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: %s must be at least 1" % argv[-2])


def test_builtin_roundtrip(tmp_path, capsys):
    code, doc = run_cli(capsys, "builtin", "--builtin", "dj", "--dim", "2")
    assert code == 0
    path = tmp_path / "dj2.json"
    path.write_text(json.dumps(doc))
    code, rep = run_cli(capsys, "verify", str(path))
    assert code == 0 and rep["ok"]


def test_identities(capsys):
    code, doc = run_cli(capsys, "identities", "--n", "3")
    assert code == 0 and doc["ok"]
    assert doc["n_max"] == 3


def test_hessian_report(capsys):
    code, doc = run_cli(capsys, "hessian", "--report")
    assert code == 0 and doc["ok"]
    assert doc["group_order"] == 216
    assert doc["order_census"]["4"] == 54
    assert any(cls["size"] == 8 and cls["element_order"] == 3 for cls in doc["classes"])


def test_resultant(capsys):
    code, doc = run_cli(capsys, "resultant", "--case1")
    assert code == 0 and doc["status"] == "PASS"
    assert "27*a^3*b^3*c^3" in doc["identity"]


def test_obstruct_cases(capsys):
    for case in (1, 2, 3, 4):
        code, doc = run_cli(capsys, "obstruct", "--case", str(case))
        assert code == 0, case
        assert doc["ok"] and doc["case"] == case
        assert "contradiction reproduced" in doc["verdict"]


def test_obstruct_with_params(capsys):
    code, doc = run_cli(capsys, "obstruct", "--case", "1", "--params", "1,2,3")
    assert code == 0
    assert doc["sample"]["type_A"] is True
    assert doc["sample"]["resultant"] != "0"
    code = main(["obstruct", "--case", "3", "--params", "1,2,3"])
    assert code == 2  # cases 3 and 4 need a = b
    capsys.readouterr()


def test_case1_sample_evaluates_the_computed_resultant(capsys, monkeypatch):
    from heckesym import obstruction

    calls = []
    resultant = obstruction.sylvester_resultant
    monkeypatch.setattr(obstruction, "sylvester_resultant", lambda *fs: calls.append(fs) or resultant(*fs))
    code, doc = run_cli(capsys, "obstruct", "--case", "1", "--params", "1,2,3")
    assert code == 0
    assert len(calls) == 1
    assert "resultant" not in doc and "resultant" in doc["sample"]


@pytest.mark.parametrize(
    "argv",
    [["verify", "--builtin", "dj", "--dim", "2"], ["analyze", "--builtin", "dj", "--dim", "2"], ["hessian"]],
)
def test_timings_leave_stdout_unchanged(capsys, argv):
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--timings"]) == 0
    timed = capsys.readouterr()
    assert timed.out == plain.out
    assert plain.err == ""
    lines = timed.err.splitlines()
    assert lines and all(line.startswith("wall: ") for line in lines)
    if argv[0] == "verify":
        assert [line.split()[1] for line in lines[:-1]] == ["hecke-relation", "braid-relation"]


def test_skl3(capsys):
    code, doc = run_cli(capsys, "skl3", "--a", "1", "--b", "1", "--c", "2", "--check", "typeA")
    assert code == 0 and doc["result"] is True
    code, doc = run_cli(capsys, "skl3", "--a", "1", "--b", "1", "--c", "1", "--check", "regular")
    assert code == 0 and doc["result"] is False
    code, doc = run_cli(capsys, "skl3", "--a", "1", "--b", "1", "--c", "0", "--check", "tensors")
    assert code == 0 and "symmetric_cubic" in doc


def test_reports_are_byte_identical(capsys):
    outs = []
    for _ in range(2):
        code = main(["analyze", "--builtin", "dj", "--dim", "2"])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    for _ in range(2):
        code = main(["hessian", "--report"])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[2] == outs[3]


def test_module_entry_point():
    r = subprocess.run(
        [sys.executable, "-m", "heckesym", "skl3", "--a", "1", "--b", "1", "--c", "2"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)["result"] is True


def test_pretty_flag(capsys):
    code = main(["verify", "--builtin", "dj", "--dim", "2", "--pretty"])
    out = capsys.readouterr().out
    assert code == 0 and out.startswith("{\n")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--builtin", "flip", "--dim", "2", "--order", "0"], "--order"),
        (["verify", "--builtin", "flip", "--field", "rational"], "--field"),
        (["analyze", "--builtin", "flip", "--q", "2"], "--q"),
        (["verify", "--builtin", "dj", "--field", "rational", "--order", "3"], "--order"),
    ],
)
def test_flags_that_do_not_apply_are_rejected(capsys, argv, flag):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: %s does not apply" % flag)
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("extra, flag", [(["--dim", "3"], "--dim"), (["--field", "rational"], "--field"), (["--order", "1"], "--order")])
def test_input_file_rejects_builtin_flags(tmp_path, capsys, extra, flag):
    code, doc = run_cli(capsys, "builtin", "--builtin", "dj", "--dim", "2")
    assert code == 0
    path = tmp_path / "dj2.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", str(path)] + extra)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: %s does not apply to an input file" % flag)


def test_nested_power_in_q_exits_2(capsys):
    code = main(["verify", "--builtin", "dj", "--field", "rational", "--q", "(2^1000)^1000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: bad --q expression: power with about")


@pytest.mark.parametrize("entry", ["*".join(["(2^1000)^65"] * 20), "*".join(["q^1000"] * 30)])
def test_oversize_product_in_document_exits_2(tmp_path, capsys, entry):
    code, doc = run_cli(capsys, "builtin", "--builtin", "dj", "--dim", "2")
    assert code == 0
    doc["matrix"][0][1] = entry
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: bad operator document: product ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["skl3", "--a", "foo", "--b", "1", "--c", "2"], "bad --a: "),
        (["skl3", "--a", "1", "--b", "1/0", "--c", "2"], "bad --b: "),
        (["skl3", "--a", "0", "--b", "0", "--c", "0"], "(a, b, c) must not be identically zero"),
        (["skl3", "--a", "1", "--b", "1", "--c", "1e2000"], "--c has more than %d digits" % MAX_PARAM_DIGITS),
        (["obstruct", "--case", "1", "--params", "0,0,0"], "(a, b, c) must not be identically zero"),
        (["obstruct", "--case", "1", "--params", "1e2000,1,2"], "--params has more than %d digits" % MAX_PARAM_DIGITS),
        (["obstruct", "--case", "1", "--params", "1,2,3" + "0" * MAX_PARAM_DIGITS], "--params has more than"),
        (["obstruct", "--case", "1", "--params", "1,2"], "--params expects three comma-separated rationals"),
    ],
)
def test_bad_triples_exit_2(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: " + message)
    assert captured.err.count("\n") == 1


def test_largest_admitted_triple_prints(capsys):
    # the resultant of the largest admitted components still fits str()
    big = "9" * MAX_PARAM_DIGITS
    small = "1/" + "7" * (MAX_PARAM_DIGITS - 1)
    code, doc = run_cli(capsys, "obstruct", "--case", "1", "--params", ",".join((big, small, small)))
    assert code == 0 and doc["ok"]
    assert doc["sample"]["resultant"] != "0"


@pytest.mark.parametrize("case", ["3", "4"])
def test_a_equals_b_is_checked_before_the_case_runs(capsys, monkeypatch, case):
    def not_called():
        raise AssertionError("the case ran before its parameters were checked")

    monkeypatch.setattr(cli, "verify_case" + case, not_called)
    code = main(["obstruct", "--case", case, "--params", "1,2,3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: cases 3 and 4 assume a = b\n"


@pytest.mark.parametrize(
    "head, flags, values",
    [
        (["obstruct", "--case", "1"], ["--params"], ["-3,5,2"]),
        (["obstruct", "--case", "3"], ["--params"], ["-1,-1,3"]),
        (["skl3", "--check", "tensors"], ["--a", "--b", "--c"], ["-1/2", "1", "1"]),
        (["verify", "--builtin", "dj", "--dim", "2", "--field", "rational"], ["--q"], ["-1/2"]),
    ],
    ids=["case1", "case3", "skl3", "q"],
)
def test_values_with_a_leading_minus(capsys, head, flags, values):
    # "--flag value" and "--flag=value" give the same report
    outputs = []
    for argv in (
        [tok for flag, value in zip(flags, values) for tok in (flag, value)],
        ["%s=%s" % pair for pair in zip(flags, values)],
    ):
        assert main(head + argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] != ""
