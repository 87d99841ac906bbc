import json

import pytest

from qtrace.bundled import fixture_path, fixture_text
from qtrace.cli import main

ROBOT = fixture_path("robot-mc.json")
MONITOR = fixture_path("safe-recharge-dfa.json")
TRAVEL_NFA = fixture_path("train-arrival-nfa.json")
TRAVEL_WTS = fixture_path("travel-wts.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_infer_exact_fixture(capsys):
    code, out, _ = run(capsys, "infer", ROBOT, MONITOR, "--pairing", "mc-dfa", "--mode", "exact")
    assert code == 0
    assert "= 4/25" in out


def test_infer_json_format(capsys):
    code, out, _ = run(capsys, "infer", ROBOT, MONITOR, "--pairing", "mc-dfa", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["values"][doc["initial"]] == "4/25"
    assert doc["method"] == "exact-linear"


def test_infer_decimal_rendering(capsys):
    code, out, _ = run(
        capsys, "infer", ROBOT, MONITOR, "--pairing", "mc-dfa", "--decimal", "4"
    )
    assert code == 0
    assert "0.1600" in out


def test_infer_weighted(capsys):
    code, out, _ = run(capsys, "infer", TRAVEL_WTS, TRAVEL_NFA, "--pairing", "wts-nfa")
    assert code == 0
    assert "= 7" in out


def test_oracle_distribution(capsys):
    code, out, _ = run(capsys, "oracle", ROBOT, "--pairing", "mc-dfa", "--depth", "3")
    assert code == 0
    assert "sand·lake·recharge -> 4/5" in out
    assert "sand·sand·recharge -> 4/25" in out


def test_oracle_query_value(capsys):
    code, out, _ = run(
        capsys, "oracle", ROBOT, MONITOR, "--pairing", "mc-dfa", "--depth", "4"
    )
    assert code == 0
    assert "4/25" in out


def test_oracle_depth_zero_is_bottom(capsys):
    code, out, _ = run(
        capsys, "oracle", ROBOT, MONITOR, "--pairing", "mc-dfa", "--depth", "0"
    )
    assert code == 0
    assert "0" in out


def test_infer_and_oracle_agree_on_fixtures(capsys):
    code, infer_out, _ = run(capsys, "infer", ROBOT, MONITOR, "--pairing", "mc-dfa")
    code2, oracle_out, _ = run(
        capsys, "oracle", ROBOT, MONITOR, "--pairing", "mc-dfa", "--depth", "6"
    )
    assert code == code2 == 0
    assert "4/25" in infer_out and "4/25" in oracle_out
    code3, infer_wts, _ = run(capsys, "infer", TRAVEL_WTS, TRAVEL_NFA, "--pairing", "wts-nfa")
    code4, oracle_wts, _ = run(
        capsys, "oracle", TRAVEL_WTS, TRAVEL_NFA, "--pairing", "wts-nfa", "--depth", "8"
    )
    assert code3 == code4 == 0
    assert "= 7" in infer_wts and ": 7" in oracle_wts


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "infer", "missing.json", MONITOR, "--pairing", "mc-dfa")
    assert code == 2
    assert "cannot read" in err


def test_invalid_model_reports_violations(tmp_path, capsys):
    doc = json.loads(fixture_text("robot-mc.json"))
    doc["trans"]["x0"] = {"x1": "4/5", "x2": "1/10"}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "infer", str(bad), MONITOR, "--pairing", "mc-dfa")
    assert code == 2
    assert "row sum" in err


def test_validate_commands(tmp_path, capsys):
    code, out, _ = run(capsys, "validate", ROBOT)
    assert code == 0 and "ok" in out
    doc = json.loads(fixture_text("robot-mc.json"))
    del doc["label"]["x4"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 2
    assert "label missing" in out


def test_compile_gridworld(tmp_path, capsys):
    out_file = tmp_path / "grid.json"
    code, _, err = run(
        capsys,
        "compile",
        fixture_path("gridworld.qtp"),
        "--mode",
        "terminating",
        "-o",
        str(out_file),
    )
    assert code == 0
    from qtrace.modeljson import parse_model

    model = parse_model(out_file.read_text())
    assert len(model.states) == 14
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary["valuations"] == 15
    assert summary["reachable"] == 14


def test_compile_syntax_error_exit_code(tmp_path, capsys):
    src = tmp_path / "broken.qtp"
    src.write_text("var i : 1..2 init 1;\nwhile (i < ) { i <- 1 }")
    code, _, err = run(capsys, "compile", str(src), "--mode", "terminating")
    assert code == 2
    assert "line 2" in err


def test_product_json(capsys):
    code, out, _ = run(capsys, "product", ROBOT, MONITOR, "--pairing", "mc-dfa")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "product-mc"
    assert doc["trans"]["x3|y0"] == {"!accept": "1/1"}


def test_lawcheck_pass_and_exit_codes(capsys):
    code, out, _ = run(
        capsys, "lawcheck", "mc-dfa", "--instances", "3", "--kmax", "5",
        "--samples", "20", "--seed", "1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["seed"] == 1


def test_lawcheck_mutation_fails(capsys):
    code, out, _ = run(
        capsys, "lawcheck", "mc-dfa", "--mutate", "flag-swapped", "--kmax", "4"
    )
    assert code == 1
    assert "FAIL" in out


def test_complete_dfa_flag(tmp_path, capsys):
    doc = json.loads(fixture_text("safe-recharge-dfa.json"))
    del doc["delta"]["y2"]["arid"]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(doc))
    code, _, err = run(capsys, "infer", ROBOT, str(partial), "--pairing", "mc-dfa")
    assert code == 2 and "not total" in err
    code, out, _ = run(
        capsys, "infer", ROBOT, str(partial), "--pairing", "mc-dfa", "--complete-dfa"
    )
    assert code == 0 and "= 4/25" in out


def test_lawcheck_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("QTRACE_SEED", "31")
    code, out, _ = run(
        capsys, "lawcheck", "wts-nfa", "--instances", "2", "--kmax", "4",
        "--samples", "10", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["seed"] == 31


def test_oracle_conditional_query(tmp_path, capsys):
    cond = {
        "kind": "dfa",
        "alphabet": ["sand", "recharge", "lake", "arid", "volcano"],
        "states": ["c0", "c1", "c2"],
        "initial": "c0",
        "delta": {
            "c0": {a: (["c1", False] if a == "sand" else ["c0", False])
                   for a in ["sand", "recharge", "lake", "arid", "volcano"]},
            "c1": {a: (["c2", True] if a == "sand" else ["c0", False])
                   for a in ["sand", "recharge", "lake", "arid", "volcano"]},
            "c2": {a: ["c2", True] for a in ["sand", "recharge", "lake", "arid", "volcano"]},
        },
    }
    path = tmp_path / "cond.json"
    path.write_text(json.dumps(cond))
    code, out, _ = run(
        capsys, "oracle", ROBOT, MONITOR, "--pairing", "mc-dfa", "--depth", "4",
        "--condition", str(path),
    )
    assert code == 0
    assert "4/5" in out


def test_epsilon_mode_on_weighted_pairing_is_usage_error(capsys):
    code, _, err = run(
        capsys, "infer", TRAVEL_WTS, TRAVEL_NFA, "--pairing", "wts-nfa", "--mode", "epsilon"
    )
    assert code == 2
    assert err.startswith("error: --mode epsilon")


@pytest.mark.parametrize(
    "argv",
    [
        ["infer", ROBOT, MONITOR, "--pairing", "mc-dfa", "--mode", "iterate", "--steps", "-3"],
        ["oracle", ROBOT, MONITOR, "--pairing", "mc-dfa", "--depth", "-1"],
        ["lawcheck", "mc-dfa", "--kmax", "-1"],
        ["lawcheck", "mc-dfa", "--instances", "-1"],
        ["lawcheck", "mc-dfa", "--samples", "-1"],
    ],
    ids=["steps", "depth", "kmax", "instances", "samples"],
)
def test_negative_counts_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "non-negative integer" in capsys.readouterr().err


def test_validate_reports_missing_weighted_product_row(tmp_path, capsys):
    code, out, _ = run(capsys, "product", TRAVEL_WTS, TRAVEL_NFA, "--pairing", "wts-nfa")
    assert code == 0
    doc = json.loads(out)
    del doc["trans"][doc["initial"]]
    bad = tmp_path / "product.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 2
    assert f"no transition row at product state {doc['initial']!r}" in out
