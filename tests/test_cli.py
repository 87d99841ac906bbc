import ast
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import qtrace
from qtrace.bundled import fixture_path, fixture_text
from qtrace.cli import main
from qtrace.domains import value_str
from qtrace.lawcheck import MUTATIONS, PAIRINGS, random_dfa, random_instance, random_mc, random_mrm, random_ntmc, random_wts
from qtrace.modeljson import emit_model, parse_model
from qtrace.models import LabeledMc, validate
from qtrace.products import ProductMc
from qtrace.programs import MAX_BLOCK_NESTING, MAX_NESTING

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


def test_decimal_zero_rounds_to_an_integer(capsys):
    code, out, _ = run(capsys, "infer", ROBOT, MONITOR, "--pairing", "mc-dfa", "--decimal", "0")
    assert (code, out) == (0, "value(x0|y0) = 0\n")
    code, out, _ = run(
        capsys, "oracle", ROBOT, MONITOR, "--pairing", "mc-dfa", "--depth", "4", "--decimal", "0"
    )
    assert (code, out) == (0, "oracle value at depth 4: 0\n")


def test_decimal_rounds_the_exact_value(capsys):
    # digits past float precision are the exact value's, ties go to even
    code, out, _ = run(capsys, "infer", ROBOT, MONITOR, "--pairing", "mc-dfa", "--decimal", "25")
    assert (code, out) == (0, "value(x0|y0) = 0." + "16".ljust(25, "0") + "\n")
    assert value_str(Fraction(3, 20), 1) == "0.2"
    assert value_str(Fraction(-1, 1000), 2) == "-0.00"


def test_decimal_renders_values_past_float_range(tmp_path, capsys):
    # float(10**400) overflows; the rounding must not go through float
    chain, dfa = _two_state_chain(tmp_path)
    doc = json.loads((tmp_path / "chain.json").read_text())
    doc.update(kind="mrm", reward={"s": 10**400, "t": 1})
    mrm = tmp_path / "mrm.json"
    mrm.write_text(json.dumps(doc))
    code, out, err = run(capsys, "infer", str(mrm), dfa, "--pairing", "mrm-dfa", "--decimal", "2")
    assert code == 0, err
    assert out == f"value(s|q) = (1.00, {256 * 10**400 + 1}.00)\n"


def test_infer_weighted(capsys):
    code, out, _ = run(capsys, "infer", TRAVEL_WTS, TRAVEL_NFA, "--pairing", "wts-nfa")
    assert code == 0
    assert "= 7" in out


def test_oracle_distribution(capsys):
    code, out, _ = run(capsys, "oracle", ROBOT, "--pairing", "mc-dfa", "--depth", "3")
    assert code == 0
    assert "sand·lake·recharge -> 4/5" in out
    assert "sand·sand·recharge -> 4/25" in out


def test_oracle_prints_the_least_cost_of_each_weighted_trace(tmp_path, capsys):
    # a·a costs 2 (s -a,1-> t -a,1-> *) or 4 (s -a,3-> t -a,1-> *); every
    # tropical query uses 2, so the semantics must print 2
    doc = {
        "kind": "wts", "alphabet": ["a"], "states": ["s", "t"], "initial": "s",
        "trans": {"s": [["*", "a", 1], ["t", "a", 1], ["t", "a", 3]], "t": [["*", "a", 1]]},
    }
    path = tmp_path / "wts.json"
    path.write_text(json.dumps(doc))
    base = ["oracle", str(path), "--pairing", "wts-nfa", "--depth", "3"]
    assert run(capsys, *base) == (0, "a -> 1\na·a -> 2\n", "")
    assert run(capsys, *base, "--format", "json") == (0, '{\n  "a": 1,\n  "a\\u00b7a": 2\n}\n', "")


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


#: A product-mc document whose first row is replaced by each fault below.
_PRODUCT_DOC = {
    "kind": "product-mc",
    "initial": "x0|y0",
    "states": ["x0|y0", "x1|y0", "x2|y0", "x3|y0", "!accept", "!reject"],
    "trans": {
        "x0|y0": {"x1|y0": "1"},
        "x1|y0": {"!accept": "1"},
        "x2|y0": {"x3|y0": "1/3", "!reject": "2/3"},
        "x3|y0": {"!accept": "1"},
    },
}

#: Per fault: the two entries of the faulty row, and the messages at a
#: chain's state 'x0' and a product's state 'x0|y0'.  The full outputs
#: were captured while row sums were still summed in ``Fraction``s.
_ROW_FAULTS = {
    "sum-3/2": (("4/5", "7/10"), ["row sum != 1 at {} (got 3/2)"]),
    "sum-1-2^-60": (
        ("1/2", f"{2**59 - 1}/{2**60}"),
        ["row sum != 1 at {} (got 1152921504606846975/1152921504606846976)"],
    ),
    "zero": (("0", "1"), ["probability Fraction(0, 1) at {} not in (0, 1]"]),
    "negative": (("-1/5", "1"), ["probability Fraction(-1, 5) at {} not in (0, 1]"]),
    "above-one": (
        ("3/2", "1/2"),
        ["probability Fraction(3, 2) at {} not in (0, 1]", "row sum != 1 at {} (got 1/2)"],
    ),
}


@pytest.mark.parametrize("fault", list(_ROW_FAULTS))
@pytest.mark.parametrize("kind", ["mc", "product-mc"])
def test_validate_prints_row_faults_exactly(kind, fault, tmp_path, capsys):
    (pa, pb), messages = _ROW_FAULTS[fault]
    if kind == "mc":
        doc, state, a, b = json.loads(fixture_text("robot-mc.json")), "x0", "x1", "x2"
        where = "state 'x0'"
    else:
        doc, state, a, b = json.loads(json.dumps(_PRODUCT_DOC)), "x0|y0", "x1|y0", "x2|y0"
        where = "product state 'x0|y0'"
    doc["trans"][state] = {a: pa, b: pb}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 2
    assert out == "".join(f"violation: {m.format(where)}\n" for m in messages)


def test_validate_reports_entries_that_are_not_fractions():
    m = parse_model(fixture_text("robot-mc.json"))
    p = parse_model(_PRODUCT_DOC)

    def chain(row):
        return validate(LabeledMc(m.states, m.alphabet, m.label, dict(m.trans, x0=row), m.initial))

    def product(row):
        return validate(ProductMc(p.states, dict(p.trans, **{"x0|y0": row}), p.initial))

    assert chain({"x1": 1}) == [
        "probability 1 at state 'x0' not in (0, 1]",
        "row sum != 1 at state 'x0' (got 0)",
    ]
    assert chain({"x1": "4/5", "x2": Fraction(1, 5)}) == [
        "probability '4/5' at state 'x0' not in (0, 1]",
        "row sum != 1 at state 'x0' (got 1/5)",
    ]
    assert product({"x1|y0": 1}) == [
        "probability 1 at product state 'x0|y0' not in (0, 1]",
        "row sum != 1 at product state 'x0|y0' (got 0)",
    ]
    assert product({"x1|y0": "4/5", "x2|y0": Fraction(1, 5)}) == [
        "probability '4/5' at product state 'x0|y0' not in (0, 1]",
        "row sum != 1 at product state 'x0|y0' (got 1/5)",
    ]


@pytest.mark.parametrize("kind", ["product-mc", "product-mrm"])
def test_validate_lists_product_faults_in_state_order(kind, tmp_path):
    # the faults were once listed in set order, which moved with the hash seed
    states = ["b|y", "d|y", "a|y", "c|y"]
    doc = {
        "kind": kind,
        "initial": "b|y",
        "states": [*states, "!accept", "!reject"],
        "trans": {s: {"!accept": "1/2"} for s in states},
    }
    want = [f"row sum != 1 at product state {s!r} (got 1/2)" for s in states]
    if kind == "product-mrm":
        doc["stepreward"] = {s: -1 for s in states}
        want += [f"step reward at {s!r} is not a natural number" for s in states]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(qtrace.__file__))
    for seed in ("1", "2", "3"):
        proc = subprocess.run(
            [sys.executable, "-m", "qtrace", "validate", str(path), "--format", "json"],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stdout)["violations"] == want, seed


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


#: Small programs whose guard admits valuations the initial one never reaches.
UNREACHED_PROGRAMS = {
    "drop.qtp": (
        "var i : 0..4 init 2;\n"
        "label { (3): b; default: a; }\n"
        "while (i > 0) { { i <- i - 1 } [1/3] { i <- i } }\n"
    ),
    "wdrop.qtp": (
        "var i : 0..4 init 2;\n"
        "while (i > 0) {\n"
        "  choice {\n"
        "    emit a add 1 { i <- i - 1; }\n"
        "    when (i > 3) emit b add 2 { i <- i; }\n"
        "  }\n"
        "}\n"
    ),
}

#: sha256 of ``compile`` stdout followed by its stderr summary, keyed by
#: (program, mode, --no-restrict).
COMPILE_GOLDEN = {
    ("patrol.qtp", "reactive", False): "3f080582174383df30dec5def6645381201675f47d9728cad4bcd49cbfc7ef94",
    ("patrol.qtp", "reactive", True): "2c267260a8c3d2c81112da685d7fd083c98db3da5fa8e71b3e0e4633c3199c6b",
    ("gridworld.qtp", "terminating", False): "28a0eebc85362eab35cd46600543802cc7cef4dfc064ddf828f270446e021664",
    ("gridworld.qtp", "terminating", True): "827c3eee9ff029d488cab0a176c7b636ace368702634c44625a44c440887cbed",
    ("travel.qtp", "weighted", False): "f2992ab64d7f10b714d01d544eb69ffedcc9a2db9d8de1f98f81d029eb418453",
    ("travel.qtp", "weighted", True): "f2992ab64d7f10b714d01d544eb69ffedcc9a2db9d8de1f98f81d029eb418453",
    ("drop.qtp", "terminating", False): "fc136378756d8ec64a431d69a632df091613e50ca904b4cf9cac98b7cc11fac7",
    ("drop.qtp", "terminating", True): "c30cc796bd3c14073cfdaaafa8a9044787044c96f9ebd87828e3ef84193d957a",
    ("wdrop.qtp", "weighted", False): "f677204eb6b527aadb7015050b02e6abe0f116ababfc1aca7bea669712c141c9",
    ("wdrop.qtp", "weighted", True): "d80dec35b09bce4da30272f6c635a135fd3b47a93afb5daee653d2fd0a1ae00a",
}


@pytest.mark.parametrize("program, mode, no_restrict", COMPILE_GOLDEN)
def test_compile_output_matches_golden_digests(program, mode, no_restrict, tmp_path, capsys):
    path = fixture_path(program)
    if program in UNREACHED_PROGRAMS:
        path = tmp_path / program
        path.write_text(UNREACHED_PROGRAMS[program])
    argv = ["compile", "--mode", mode, str(path)] + ["--no-restrict"] * no_restrict
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256((out + err).encode()).hexdigest() == COMPILE_GOLDEN[program, mode, no_restrict]


def test_string_flag_is_a_usage_error(tmp_path, capsys):
    # a "false" flag used to count as accepting, giving value 1 instead of 0
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({
        "kind": "mc", "alphabet": ["a"], "states": ["s"], "initial": "s",
        "label": {"s": "a"}, "trans": {"s": {"*": "1/2", "s": "1/2"}},
    }))
    dfa = tmp_path / "dfa.json"
    dfa.write_text(
        '{"kind":"dfa","alphabet":["a"],"states":["q"],"initial":"q","delta":{"q":{"a":["q","false"]}}}'
    )
    code, out, err = run(capsys, "infer", str(chain), str(dfa), "--pairing", "mc-dfa")
    assert (code, out) == (2, "")
    assert "expected a boolean" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "dfa", "alphabet": ["a"], "states": [["q"]], "initial": "q", "delta": {}},
        {"kind": "mc", "alphabet": ["a"], "states": ["s"], "initial": "s",
         "label": {"s": ["a"]}, "trans": {"s": {"*": "1/1"}}},
    ],
    ids=["list-state", "list-label"],
)
def test_unhashable_names_are_usage_errors(doc, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "expected a string" in err


def test_compile_syntax_error_exit_code(tmp_path, capsys):
    src = tmp_path / "broken.qtp"
    src.write_text("var i : 1..2 init 1;\nwhile (i < ) { i <- 1 }")
    code, _, err = run(capsys, "compile", str(src), "--mode", "terminating")
    assert code == 2
    assert "line 2" in err


def _loop_program(guard: str, value: str) -> str:
    """A weighted loop over x in 0..3 with the given guard and update."""
    return (
        "var x : 0..3 init 0;\nalphabet a;\n"
        f"while ({guard}) {{ choice {{ emit a add 1 {{ x <- {value}; }} }} }}\n"
    )


@pytest.mark.parametrize(
    "guard, value",
    [
        (" + ".join(["x"] * 990) + " < 1980", "x" + " + 0" * 988 + " + 1"),
        ("(" * 320 + "x" + ")" * 320 + " < 2", "(" * 320 + "x + 1" + ")" * 320),
        (" + ".join(["x"] * 5000) + " < 10000", "x" + " + 1 - 1" * 2499 + " + 1"),
        (
            "(" * MAX_NESTING + "x" + ")" * MAX_NESTING + " < 2",
            "max(" * MAX_NESTING + "x + 1" + ", 0)" * MAX_NESTING,
        ),
    ],
    ids=["chain-990", "parens-320", "chain-5000", "nesting-at-the-limit"],
)
def test_long_chains_and_deep_nesting_compile(guard, value, tmp_path, capsys):
    # each guard equals x < 2 and each update x + 1 on 0..3; chains of 992
    # terms or more used to crash with a RecursionError
    path = tmp_path / "loop.qtp"
    outputs = []
    for text in (_loop_program("x < 2", "x + 1"), _loop_program(guard, value)):
        path.write_text(text)
        outputs.append(run(capsys, "compile", str(path), "--mode", "weighted"))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("opener, closer", [("(", ")"), ("min(", ", 3)")])
def test_nesting_past_the_limit_is_a_parse_error(opener, closer, tmp_path, capsys):
    path = tmp_path / "deep.qtp"
    path.write_text(_loop_program(opener * 2000 + "x" + closer * 2000 + " < 2", "x + 1"))
    code, out, err = run(capsys, "compile", str(path), "--mode", "weighted")
    column = len("while (") + 1 + len(opener) * MAX_NESTING  # the first opener past the limit
    assert (code, out) == (2, "")
    assert err == f"error: expression nested deeper than {MAX_NESTING} levels (line 3, column {column})\n"


def _nested_blocks_program(depth: int, value: str) -> str:
    """A probabilistic loop whose one assignment sits in ``depth`` nested
    blocks, all opened on line 7."""
    return (
        "var x : 0..3 init 0;\nalphabet a;\nlabel {\n  default: a;\n}\n"
        "while (x < 2) {\n" + "{ " * depth + f"x <- {value}" + " }" * depth + "\n}\n"
    )


def test_blocks_nested_to_the_limit_compile(tmp_path, capsys):
    # the deepest blocks around the deepest expression fit the frame budget
    deep = "max(" * MAX_NESTING + "x + 1" + ", 0)" * MAX_NESTING
    path = tmp_path / "blocks.qtp"
    outputs = []
    for text in (_nested_blocks_program(1, "x + 1"), _nested_blocks_program(MAX_BLOCK_NESTING, deep)):
        path.write_text(text)
        outputs.append(run(capsys, "compile", str(path), "--mode", "terminating"))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("depth", [MAX_BLOCK_NESTING + 1, 330])
def test_blocks_nested_past_the_limit_are_a_parse_error(depth, tmp_path, capsys):
    # 330 levels used to exit 1 with a RecursionError traceback
    path = tmp_path / "blocks.qtp"
    path.write_text(_nested_blocks_program(depth, "x + 1"))
    code, out, err = run(capsys, "compile", str(path), "--mode", "terminating")
    column = 2 * MAX_BLOCK_NESTING + 1  # the first brace past the limit
    assert (code, out) == (2, "")
    assert err == f"error: statement blocks nested deeper than {MAX_BLOCK_NESTING} levels (line 7, column {column})\n"


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


#: sha256 of the stderr then stdout of ``lawcheck mc-dfa --mutate <name>
#: --kmax 10 --format json``, taken before the oracle moved to integer
#: masses: the first mismatch each mutant reports must not change.
MUTANT_GOLDEN = {
    "flag-swapped": "4541fbe13e9a9b52993dbdeda48425fb7e81d863a1f9ea81f662754eccae6032",
    "halt-mass-dropped": "2ab07db9b51a7e8d5a3ea79219440962a08920f10c6f05d2081e9f01f37c2d0c",
    "pair-broadcast": "38a8a6fdfb2f3ac1b96dd9a6ed440926fb35e9ffea2f4cc05b1e3b8ba1fd0e96",
    "requirement-frozen": "52acbdeeae5408c5b9ff3fb4187e580bb9cf1de34e1c217611a53e0253d559a1",
    "symbol-ignored": "b33ebaa547f13fea469073d6066f370825d2ca5b9edc698d0b9672a9e341a32e",
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutant_counterexamples_match_golden_digests(name, capsys):
    code, out, err = run(
        capsys, "lawcheck", "mc-dfa", "--mutate", name, "--kmax", "10", "--format", "json"
    )
    assert code == 1
    assert hashlib.sha256((err + out).encode()).hexdigest() == MUTANT_GOLDEN[name]


@pytest.mark.parametrize("pairing", ["wts-nfa", "mrm-dfa", "all"])
def test_lawcheck_mutate_needs_the_mc_dfa_pairing(pairing, capsys):
    # the catalogue edits the mc-dfa inputs only; it must not run them under
    # another pairing's name
    code, out, err = run(capsys, "lawcheck", pairing, "--mutate", "flag-swapped", "--kmax", "3")
    assert (code, out) == (2, "")
    assert "--mutate" in err and "mc-dfa" in err


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


#: sha256 of ``oracle SYS REQ --pairing mc-dfa --depth k --condition COND``,
#: text then ``--format json``, over 120 seeded (chain, requirement,
#: condition) triples at depths 1..6.  About a third of the triples have a
#: defined value; the rest print "undefined", and since the JSON format
#: prints it as a document too, this digest was taken again then.
CONDITION_GOLDEN = "814a699aa12267117d9b8728a166d5b667308cffcecdfe3e3f27e4aed729906a"

#: sha256 of the text-format outputs alone, the first of each pair above,
#: taken while the conditional query still ran each word through both
#: automata from their start, and unchanged since.
CONDITION_TEXT_GOLDEN = "c4b3482e5eae326d5afcca28d49ef99b87d32da46235ae1814ffd168bbba22f3"


def test_oracle_condition_matches_golden_digest(tmp_path, capsys):
    paths = [str(tmp_path / f"{name}.json") for name in ("system", "requirement", "condition")]
    outputs = []
    for i in range(120):
        rng = random.Random(f"condition:{i}")
        for path, model in zip(paths, (random_mc(rng), random_dfa(rng), random_dfa(rng))):
            with open(path, "w") as handle:
                handle.write(emit_model(model))
        base = ["oracle", paths[0], paths[1], "--pairing", "mc-dfa", "--depth", str(1 + i % 6)]
        for fmt in ([], ["--format", "json"]):
            code, out, err = run(capsys, *base, "--condition", paths[2], *fmt)
            outputs.append(f"{code}:{out}{err}")
    assert 0 < sum("undefined" in out for out in outputs) < len(outputs)
    texts = outputs[::2]
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == CONDITION_TEXT_GOLDEN
    assert hashlib.sha256("".join(outputs).encode()).hexdigest() == CONDITION_GOLDEN


#: sha256 of ``oracle SYS --pairing P --depth k`` with no requirement, text
#: then ``--format json``, over 10 seeded systems of each kind at depths
#: 0..5; the non-terminating chains' depth-0 runs are the usage error.
SEMANTICS_CLI_GOLDEN = "ec5347a0a399874a9704387e3cf93959776b916ca9cb1ea935979bde9f34baa2"


def test_oracle_semantics_matches_golden_digest(tmp_path, capsys):
    path = str(tmp_path / "system.json")
    kinds = (("mc-dfa", random_mc), ("mrm-dfa", random_mrm), ("ntmc-dfa", random_ntmc), ("wts-nfa", random_wts))
    outputs = []
    for pairing, draw in kinds:
        for i in range(10):
            with open(path, "w") as handle:
                handle.write(emit_model(draw(random.Random(f"semantics:{pairing}:{i}"))))
            for depth in range(6):
                base = ["oracle", path, "--pairing", pairing, "--depth", str(depth)]
                for fmt in ([], ["--format", "json"]):
                    code, out, err = run(capsys, *base, *fmt)
                    outputs.append(f"{code}:{out}{err}")
    assert outputs.count("2:error: marginal depth must be at least 1\n") == 20
    assert hashlib.sha256("".join(outputs).encode()).hexdigest() == SEMANTICS_CLI_GOLDEN


def test_undefined_conditional_value_is_a_json_document(tmp_path, capsys):
    # a condition that accepts no word has probability 0 at every depth
    doc = json.loads(fixture_text("safe-recharge-dfa.json"))
    doc["delta"] = {y: {a: [y, False] for a in row} for y, row in doc["delta"].items()}
    path = tmp_path / "never.json"
    path.write_text(json.dumps(doc))
    base = ["oracle", ROBOT, MONITOR, "--pairing", "mc-dfa", "--depth", "4", "--condition", str(path)]
    code, out, err = run(capsys, *base, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "depth": 4, "value": None, "reason": "undefined (condition has probability 0)"
    }
    assert run(capsys, *base) == (0, "undefined (condition has probability 0)\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        [TRAVEL_WTS, TRAVEL_NFA, "--pairing", "wts-nfa"],
        [ROBOT, "--pairing", "mc-dfa"],
    ],
    ids=["non-mc-pairing", "no-requirement"],
)
def test_oracle_condition_needs_an_mc_query(argv, capsys):
    code, out, err = run(capsys, "oracle", *argv, "--depth", "4", "--condition", MONITOR)
    assert (code, out) == (2, "")
    assert err.startswith("error: --condition needs a requirement")


def test_oracle_condition_alphabet_mismatch_is_usage_error(tmp_path, capsys):
    doc = {
        "kind": "dfa", "alphabet": ["a"], "states": ["c0"], "initial": "c0",
        "delta": {"c0": {"a": ["c0", True]}},
    }
    path = tmp_path / "cond.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(
        capsys, "oracle", ROBOT, MONITOR, "--pairing", "mc-dfa", "--depth", "4",
        "--condition", str(path),
    )
    assert code == 2
    assert err.startswith("error: alphabet mismatch")


def test_oracle_condition_refuses_state_names_that_collide_when_joined(tmp_path, capsys):
    # ("s|t", "s") and ("u", "t|u") both give "s|t|u" when joined, as product refuses too
    alphabet = json.loads(fixture_text("robot-mc.json"))["alphabet"]
    paths = []
    for name, states in (("requirement", ["s|t", "s"]), ("condition", ["u", "t|u"])):
        doc = {
            "kind": "dfa", "alphabet": alphabet, "states": states, "initial": states[0],
            "delta": {y: {a: [y, True] for a in alphabet} for y in states},
        }
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    code, out, err = run(
        capsys, "oracle", ROBOT, str(paths[0]), "--pairing", "mc-dfa", "--depth", "4",
        "--condition", str(paths[1]),
    )
    assert (code, out) == (2, "")
    assert err == "error: state identifiers collide when joined; rename the inputs\n"


@pytest.mark.parametrize("pairing", PAIRINGS)
def test_requirement_alphabet_mismatch_is_usage_error_in_every_command(pairing, tmp_path, capsys):
    # one requirement symbol renamed consistently: a valid machine over
    # another alphabet, which product, infer and oracle all refuse alike
    system, requirement = random_instance(pairing, random.Random(f"mismatch:{pairing}"))
    doc = json.loads(emit_model(requirement))
    old = doc["alphabet"][0]
    doc["alphabet"][0] = "renamed"
    doc["delta"] = {
        y: {"renamed" if a == old else a: e for a, e in row.items()} for y, row in doc["delta"].items()
    }
    assert validate(parse_model(doc)) == []
    paths = [tmp_path / "system.json", tmp_path / "requirement.json"]
    paths[0].write_text(emit_model(system))
    paths[1].write_text(json.dumps(doc))
    base = [str(paths[0]), str(paths[1]), "--pairing", pairing]
    errors = set()
    for argv in (["product", *base], ["infer", *base], ["oracle", *base, "--depth", "3"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: alphabet mismatch: "), argv
        errors.add(err)
    assert len(errors) == 1


@pytest.mark.parametrize("epsilon", ["0", "-1"])
def test_nonpositive_epsilon_is_usage_error(epsilon, capsys):
    code, out, err = run(
        capsys, "infer", ROBOT, MONITOR, "--pairing", "mc-dfa", "--mode", "epsilon",
        f"--epsilon={epsilon}",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: epsilon must be positive")


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
        ["infer", ROBOT, MONITOR, "--pairing", "mc-dfa", "--decimal", "-1"],
    ],
    ids=["steps", "depth", "kmax", "instances", "samples", "decimal"],
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


#: Seeded ``random_instance`` inputs for the pairings without a bundled pair.
ORACLE_SEEDS = {"mrm-dfa": 0, "mc-costdfa": 3, "ntmc-dfa": 1, "wts-wmm": 1}
ORACLE_FIXTURES = {"mc-dfa": (ROBOT, MONITOR), "wts-nfa": (TRAVEL_WTS, TRAVEL_NFA)}

#: pairing -> (depth-4 query text, depth-4 query json, depth-3 semantics text)
ORACLE_OUTPUTS = {
    "mc-dfa": (
        "oracle value at depth 4: 4/25\n",
        '{\n  "depth": 4,\n  "value": "4/25"\n}\n',
        "sand·lake·recharge -> 4/5\nsand·sand·recharge -> 4/25\nsand·sand·volcano -> 1/25\n",
    ),
    "mrm-dfa": (
        "oracle value at depth 4: (83/144, 131/24)\n",
        '{\n  "depth": 4,\n  "value": "(83/144, 131/24)"\n}\n',
        "b#5 -> 1/3\nb·b#10 -> 1/24\nb·b·b#15 -> 1/24\nb·c#10 -> 1/12\n"
        "b·c·b#15 -> 1/18\nb·c·c#15 -> 1/48\n",
    ),
    "mc-costdfa": (
        "oracle value at depth 4: 11/24\n",
        '{\n  "depth": 4,\n  "value": "11/24"\n}\n',
        "1 -> 7/16\n1·1 -> 1/48\n1·1·1 -> 1/144\n",
    ),
    "ntmc-dfa": (
        "oracle value at depth 4: 13/15\n",
        '{\n  "depth": 4,\n  "value": "13/15"\n}\n',
        "c·a·a -> 1/3\nc·a·b -> 2/3\n",
    ),
    "wts-nfa": (
        "oracle value at depth 4: 7\n",
        '{\n  "depth": 4,\n  "value": "7"\n}\n',
        "B·B·P -> 5\nB·B·T -> 8\nB·T -> 7\nT·P -> 5\nT·T -> 8\n",
    ),
    "wts-wmm": (
        "oracle value at depth 4: 9\n",
        '{\n  "depth": 4,\n  "value": "9"\n}\n',
        "b -> 4\n",
    ),
}


def _oracle_inputs(pairing, tmp_path):
    if pairing in ORACLE_FIXTURES:
        return ORACLE_FIXTURES[pairing]
    system, requirement = random_instance(pairing, random.Random(ORACLE_SEEDS[pairing]))
    paths = tmp_path / "system.json", tmp_path / "requirement.json"
    for path, model in zip(paths, (system, requirement)):
        path.write_text(emit_model(model))
    return tuple(map(str, paths))


@pytest.mark.parametrize("pairing", sorted(ORACLE_OUTPUTS))
def test_oracle_on_every_pairing(pairing, tmp_path, capsys):
    system, requirement = _oracle_inputs(pairing, tmp_path)
    text, doc, semantics = ORACLE_OUTPUTS[pairing]
    base = ["oracle", system, requirement, "--pairing", pairing, "--depth", "4"]
    assert run(capsys, *base) == (0, text, "")
    assert run(capsys, *base, "--format", "json") == (0, doc, "")
    assert run(capsys, "oracle", system, "--pairing", pairing, "--depth", "3") == (0, semantics, "")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["mc-dfa", "--instances", "3", "--kmax", "6"], 0),
        (["mc-dfa", "--mutate", "flag-swapped"], 1),
    ],
    ids=["passes", "mutant-fails"],
)
def test_lawcheck_verdicts_do_not_depend_on_assert(argv, expected):
    # python -O strips every assert; the checks must give the same verdict
    src = os.path.dirname(os.path.dirname(qtrace.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "qtrace", "lawcheck", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == expected, proc.stderr


def test_infer_output_does_not_depend_on_assert(tmp_path, capsys):
    # the exact answers of a cyclic ntmc-dfa and a cyclic mrm-dfa product,
    # and the certified least costs of the travel wts-nfa product, with
    # every assert stripped by python -O and without
    patrol = tmp_path / "patrol.json"
    assert run(capsys, "compile", fixture_path("patrol.qtp"), "--mode", "reactive", "-o", str(patrol))[0] == 0
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({
        "kind": "mrm", "alphabet": ["sand", "recharge", "lake", "arid", "volcano"],
        "states": ["a", "b", "c"], "initial": "a",
        "label": {"a": "sand", "b": "lake", "c": "recharge"},
        "reward": {"a": 2, "b": 5, "c": 1},
        "trans": {"a": {"b": "1/2", "c": "1/3", "*": "1/6"},
                  "b": {"a": "2/3", "*": "1/3"},
                  "c": {"c": "1/4", "a": "1/2", "*": "1/4"}},
    }))
    src = os.path.dirname(os.path.dirname(qtrace.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for system, requirement, pairing, method in (
        (patrol, MONITOR, "ntmc-dfa", "exact-linear"),
        (chain, fixture_path("reach-recharge-dfa.json"), "mrm-dfa", "exact-linear"),
        (fixture_path("travel-wts.json"), fixture_path("train-arrival-nfa.json"), "wts-nfa", "dijkstra"),
    ):
        argv = ["-m", "qtrace", "infer", str(system), requirement, "--pairing", pairing, "--format", "json"]
        outputs = []
        for flags in ([], ["-O"]):
            proc = subprocess.run(
                [sys.executable, *flags, *argv], env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["method"] == method


def _two_state_chain(tmp_path):
    """Paths of a chain ``s -> s`` 255/256, ``s -> t`` 1/256 and a DFA that
    accepts on reaching ``t``: the answer from ``s`` is exactly 1."""
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({
        "kind": "mc", "alphabet": ["a", "b"], "states": ["s", "t"], "initial": "s",
        "label": {"s": "a", "t": "b"},
        "trans": {"s": {"s": "255/256", "t": "1/256"}, "t": {"*": "1/1"}},
    }))
    dfa = tmp_path / "dfa.json"
    dfa.write_text(json.dumps({
        "kind": "dfa", "alphabet": ["a", "b"], "states": ["q", "r"], "initial": "q",
        "delta": {"q": {"a": ["q", False], "b": ["r", True]},
                  "r": {"a": ["r", True], "b": ["r", True]}},
    }))
    return str(chain), str(dfa)


def test_epsilon_mode_gives_the_exact_answer(tmp_path, capsys):
    # stopping once a round changed by less than epsilon printed 0.999746,
    # 254 epsilon below the answer, and reported it converged
    chain, dfa = _two_state_chain(tmp_path)
    argv = ["infer", chain, dfa, "--pairing", "mc-dfa", "--mode", "epsilon", "--epsilon", "1/1000000"]
    report = "method=exact-linear iterations=0 converged=True\n"
    assert run(capsys, *argv) == (0, "value(s|q) = 1\n", report)
    assert run(capsys, *argv, "--decimal", "6") == (0, "value(s|q) = 1.000000\n", report)
    code, out, _ = run(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert (doc["method"], doc["iterations"], doc["converged"]) == ("exact-linear", 0, True)
    assert doc["values"]["s|q"] == "1/1"


def test_values_past_the_int_str_limit_are_printed(tmp_path, capsys):
    # the iterates' denominators grow by 8 bits a round, so after 2,116
    # rounds the answer has over 5,000 digits
    chain, dfa = _two_state_chain(tmp_path)
    argv = ["infer", chain, dfa, "--pairing", "mc-dfa", "--mode", "iterate", "--steps", "2116"]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.md5(out.encode()).hexdigest() == "899f206470631444cd28a7fd11d2957f"
    num, den = out.removeprefix("value(s|q) = ").strip().split("/")
    assert num.isdigit() and den.isdigit() and len(den) > 4300
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    assert json.loads(out)["values"]["s|q"] == f"{num}/{den}"


def test_lawcheck_all_output_is_byte_identical():
    # digests of the output before the oracle, lawcheck and compiler loops
    # were merged; the second covers the ntmc-dfa skip note on stderr
    # followed by the JSON document on stdout
    src = os.path.dirname(os.path.dirname(qtrace.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    runs = {}
    for argv in (["--seed", "7"], ["--seed", "3", "--format", "json"]):
        proc = subprocess.run(
            [sys.executable, "-m", "qtrace", "lawcheck", "all", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs[argv[1]] = proc
    assert hashlib.md5(runs["7"].stdout.encode()).hexdigest() == "8464cd3e79245f062019f22bd681962f"
    text = runs["3"].stderr + runs["3"].stdout
    assert hashlib.md5(text.encode()).hexdigest() == "0cbf6aba790d54faec90b6bb2ced9702"


def _loaded_after(module: str, names: list[str]) -> list[str]:
    """The ``names`` that ``import module`` leaves in a fresh interpreter's ``sys.modules``."""
    src = os.path.dirname(os.path.dirname(qtrace.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print([m for m in {names!r} if m in sys.modules])"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_import_qtrace_stays_lean():
    # each of these once slowed every start-up when it was imported eagerly;
    # dataclasses (which imports inspect) cost about half of the import
    heavy = [
        "qtrace.oracle", "qtrace.lawcheck", "qtrace.cli", "qtrace.programs", "qtrace.solvers",
        "qtrace.products", "heapq", "dataclasses", "inspect",
    ]
    assert _loaded_after("qtrace", heavy) == []


def test_deferred_names_come_from_their_modules():
    import qtrace.products
    import qtrace.solvers

    modules = {"products": qtrace.products, "solvers": qtrace.solvers}
    for name, module in qtrace._DEFERRED.items():
        assert getattr(qtrace, name) is getattr(modules[module], name)
    assert qtrace.ProductMc is qtrace.products.ProductMc
    with pytest.raises(AttributeError, match="has no attribute 'product_mc_nfa'"):
        qtrace.product_mc_nfa


def test_the_cli_loads_no_dataclasses_or_inspect():
    assert _loaded_after("qtrace.cli", ["dataclasses", "inspect", "qtrace.cli"]) == ["qtrace.cli"]


def test_the_oracle_imports_no_product_or_solver():
    # the oracle is the ground truth the products are checked against, so
    # it must not reach them, not even through a deferred import
    src = os.path.dirname(qtrace.__file__)
    with open(os.path.join(src, "oracle.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), "oracle.py")
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported |= {base} if node.module else {base + alias.name for alias in node.names}
    assert ".domains" in imported
    assert not {name for name in imported if name.split(".")[-1] in ("products", "solvers")}


def test_the_package_has_no_assert():
    # python -O strips asserts, so no check of the package may rest on one
    src = os.path.dirname(qtrace.__file__)
    modules = sorted(name for name in os.listdir(src) if name.endswith(".py"))
    found = []
    for name in modules:
        with open(os.path.join(src, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), name)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert "solvers.py" in modules and found == []
