import hashlib
import itertools
import json
import random
import string
from fractions import Fraction

import pytest

import qtrace.oracle as oracle
from qtrace.bundled import fixture_text, load_model
from qtrace.cli import main
from qtrace.modeljson import SchemaError, emit_model, parse_model
from qtrace.models import TARGET, validate
from qtrace import programs
from qtrace.products import product_mc_dfa
from qtrace.programs import (
    CompileError,
    ParseError,
    ProbChoice,
    compile_probabilistic,
    compile_weighted,
    parse_program,
)
from qtrace.solvers import solve_reach_prob
import fraction_blocks
from random_programs import random_program

F = Fraction


# ---------------------------------------------------------------------------
# program parsing

def test_parse_gridworld_program():
    prog = parse_program(fixture_text("gridworld.qtp"))
    assert [v.name for v in prog.variables] == ["i", "j"]
    assert prog.variables[0].lo == 1 and prog.variables[0].hi == 5
    assert prog.mode == "probabilistic"
    assert prog.labels.entries[(2, 1)] == "recharge"
    assert prog.labels.default == "sand"


def test_parse_error_probability_out_of_range():
    text = "var i : 0..1 init 0;\nlabel { default: a; }\nwhile (i < 1) { { i <- 1 } [5/4] { i <- 0 } }"
    with pytest.raises(ParseError, match="probability out of range") as err:
        parse_program(text)
    assert err.value.line == 3


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_program("var i : 0..2 init 0;\nwhile (i < 2) { i <- ; }")
    assert err.value.line == 2


def test_mode_conflict_rejected():
    # the error points at the first statement of the form that came second,
    # in either order; a syntax error anywhere in the program comes first
    branches = "{ t <- t + 1 } [1/2] { t <- t + 2 }"
    choice = "choice { emit a add 1 { t <- 3; } }"
    for first, second in ((branches, choice), (choice, branches)):
        text = f"var t : 0..3 init 0;\nwhile (t < 3) {{\n  {first}\n   {second}\n  {second}\n}}"
        with pytest.raises(ParseError, match="mode conflict") as err:
            parse_program(text)
        assert (err.value.line, err.value.column) == (4, 4)
        with pytest.raises(ParseError, match="expected an expression"):
            parse_program(text.replace("t <- 3;", "t <- ;"))


def test_label_key_outside_range_rejected(tmp_path, capsys):
    # such a key used to compile, adding its symbol to the alphabet
    # without labelling any state
    text = (
        "var x : 0..2 init 0;\n"
        "var y : 1..3 init 1;\n"
        "label { (0, 1): a; (2, 0): b; default: a; }\n"
        "while (x < 2) { x <- x + 1 }"
    )
    with pytest.raises(ParseError, match=r"label key 0 outside range 1\.\.3 of 'y'") as err:
        parse_program(text)
    assert (err.value.line, err.value.column) == (3, 24)
    src = tmp_path / "label.qtp"
    src.write_text(text.replace("(0, 1)", "(9, 1)"))
    assert main(["compile", str(src), "--mode", "terminating"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: label key 9 outside range 0..2 of 'x' (line 3, column 10)\n"
    assert captured.out == ""


def test_duplicate_variable_rejected(tmp_path, capsys):
    text = (
        "var x : 0..1 init 0;\n"
        "var x : 0..2 init 0;\n"
        "alphabet a;\n"
        "while (x < 1) { choice { when (x == 0) emit a add 1 { x <- 1; } } }"
    )
    with pytest.raises(ParseError, match="variable 'x' is declared twice") as err:
        parse_program(text)
    assert err.value.line == 2
    src = tmp_path / "twice.qtp"
    src.write_text(text)
    assert main(["compile", str(src), "--mode", "weighted", "--no-restrict"]) == 2
    captured = capsys.readouterr()
    assert "variable 'x' is declared twice" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "body, mode, column",
    [
        ("z <- 1; x <- x + 1;", "terminating", 3),
        ("choice { emit a add 1 { z <- 1; x <- x + 1; } }", "weighted", 27),
        ("{ x <- z } [0] { x <- 1 }", "terminating", 10),
    ],
    ids=["probabilistic", "weighted", "branch-never-runs"],
)
def test_undeclared_variable_rejected(body, mode, column, tmp_path, capsys):
    # the first two used to crash compile with a KeyError traceback, the
    # last one compiled because its branch never runs
    text = f"var x : 0..2 init 0;\nlabel {{ default : a; }}\nwhile (x < 2) {{\n  {body}\n}}"
    with pytest.raises(ParseError, match="undeclared variable 'z'") as err:
        parse_program(text)
    assert (err.value.line, err.value.column) == (4, column)
    src = tmp_path / "stray.qtp"
    src.write_text(text)
    assert main(["compile", str(src), "--mode", mode]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: undeclared variable 'z' (line 4, column {column})\n"
    assert captured.out == ""


def test_fuzz_inputs_never_crash():
    rng = random.Random(1)
    corpus = [
        "",
        "while",
        "var i : 5..1 init 2;",
        "var i : 1..2 init 9;",
        "var i : 1..2 init 1; while (i < 2) { }",
        "label { }",
    ]
    alphabet = string.printable
    for _ in range(200):
        corpus.append("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 60))))
    for text in corpus:
        with pytest.raises(ParseError):
            parse_program(text)


# ---------------------------------------------------------------------------
# probabilistic compilation

def test_gridworld_compiles_to_14_states():
    prog = parse_program(fixture_text("gridworld.qtp"))
    report = compile_probabilistic(prog, "terminating")
    assert report.state_count == 15
    assert report.reachable_count == 14
    assert len(report.model.states) == 14
    assert validate(report.model) == []
    assert report.model.initial == "i=5,j=3"
    assert report.model.label["i=5,j=3"] == "sand"


def test_gridworld_rows_follow_the_drift():
    prog = parse_program(fixture_text("gridworld.qtp"))
    mc = compile_probabilistic(prog, "terminating").model
    assert mc.trans["i=5,j=3"] == {"i=4,j=3": F(4, 5), "i=5,j=2": F(1, 5)}
    # at the left border the two branches collapse into a self loop
    assert mc.trans["i=1,j=3"] == {"i=1,j=3": F(4, 5), "i=1,j=2": F(1, 5)}
    # next to the halting corner, stepping down terminates
    assert mc.trans["i=1,j=2"] == {"i=1,j=2": F(4, 5), TARGET: F(1, 5)}


def test_restriction_does_not_change_the_initial_value():
    prog = parse_program(fixture_text("gridworld.qtp"))
    dfa = load_model("safe-recharge-dfa.json")
    values = []
    for restrict in (True, False):
        mc = compile_probabilistic(prog, "terminating", restrict_reachable=restrict).model
        prod = product_mc_dfa(mc, dfa)
        values.append(solve_reach_prob(prod).value_at(prod.initial))
    assert values[0] == values[1]


def test_reactive_compilation():
    prog = parse_program(fixture_text("patrol.qtp"))
    report = compile_probabilistic(prog, "reactive")
    model = report.model
    assert report.state_count == 24
    assert len(model.states) == 24
    assert validate(model) == []
    assert all(TARGET not in row for row in model.trans.values())


def test_reactive_mode_rejects_halting_program():
    text = (
        "var i : 0..3 init 3;\n"
        "label { default: a; }\n"
        "while (i > 0) { { i <- max(i - 1, 0) } [1/2] { i <- i } }"
    )
    prog = parse_program(text)
    with pytest.raises(CompileError, match="can halt"):
        compile_probabilistic(prog, "reactive")
    # the same program is fine as a terminating one
    assert compile_probabilistic(prog, "terminating").model.states == ("i=3", "i=2", "i=1")


def test_terminating_mode_needs_a_guard():
    text = "var i : 0..1 init 0;\nlabel { default: a; }\nwhile (true) { { i <- 0 } [1] { i <- 1 } }"
    prog = parse_program(text)
    with pytest.raises(CompileError, match="guard"):
        compile_probabilistic(prog, "terminating")


def test_unclamped_arithmetic_is_a_compile_error():
    text = "var i : 0..2 init 2;\nlabel { default: a; }\nwhile (i > 0) { i <- i - 1 }"
    # i - 1 can reach -1 only from i=0, which violates the guard anyway:
    # from the guard-satisfying states this program is fine
    prog = parse_program(text)
    assert compile_probabilistic(prog, "terminating").model.states == ("i=2", "i=1")
    bad = "var i : 0..2 init 2;\nlabel { default: a; }\nwhile (i >= 0) { i <- i - 1 }"
    with pytest.raises(CompileError, match="outside"):
        compile_probabilistic(parse_program(bad), "terminating")


@pytest.mark.parametrize("restrict", [True, False])
@pytest.mark.parametrize(
    "text, mode",
    [
        (fixture_text("gridworld.qtp"), "terminating"),
        (fixture_text("patrol.qtp"), "reactive"),
        (
            "var i : 0..4 init 2;\nlabel { (3): b; default: a; }\n"
            "while (i > 0) { { i <- i - 1 } [1/3] { i <- i } }",
            "terminating",
        ),
    ],
    ids=["gridworld", "patrol", "unreached"],
)
def test_loop_body_runs_once_per_state(text, mode, restrict, monkeypatch):
    program = parse_program(text)
    run_block = programs._run_block
    ran = []
    depth = [0]  # nested calls run the branches of a choice

    def counting(steps, env):
        if depth[0] == 0:
            ran.append(env)
        depth[0] += 1
        try:
            return run_block(steps, env)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(programs, "_run_block", counting)
    report = compile_probabilistic(program, mode, restrict_reachable=restrict)
    assert len(ran) == len(set(ran)) == len(report.model.states)


ROW_ORDER = "var x : 0..3 init 3;\nlabel { default: a; }\nwhile (x >= 1) { x <- x + x - 4 }"

#: (program, compile mode, restrict, the error it reports first)
FIRST_ERRORS = [
    # x=3 -> x=2 -> x=0 halts; the unreachable x=1 leaves the range, and
    # only the unrestricted compilation builds its row, before x=2's
    (ROW_ORDER, "reactive", True, "reactive program can halt: guard fails at x=0"),
    (ROW_ORDER, "reactive", False, "assignment drives 'x' to -2, outside 0..3; clamp explicitly with max/min"),
    # the initial guard is checked before the label block and the alphabet
    ("var x : 0..3 init 3;\nwhile (x < 3) { x <- x + 1 }", "terminating", True,
     "initial valuation violates the loop guard"),
    ("var x : 0..3 init 3;\nalphabet a;\nwhile (x < 3) { choice { emit b add 1 { x <- x + 1; } } }",
     "weighted", False, "initial valuation violates the loop guard"),
]


@pytest.mark.parametrize(
    "text, mode, restrict, message", FIRST_ERRORS, ids=[f"{r}-{m}" for _, _, r, m in FIRST_ERRORS]
)
def test_first_error_follows_the_row_order(text, mode, restrict, message):
    program = parse_program(text)
    with pytest.raises(CompileError) as info:
        if mode == "weighted":
            compile_weighted(program, restrict_reachable=restrict)
        else:
            compile_probabilistic(program, mode, restrict_reachable=restrict)
    assert str(info.value) == message


@pytest.mark.parametrize("alphabet", ["", "alphabet a;\n"], ids=["bare", "alphabet"])
def test_missing_label_block_is_a_compile_error(alphabet):
    # without an alphabet this used to fail with an AttributeError
    text = f"var x : 0..3 init 0;\n{alphabet}while (x < 3) {{ {{ x <- x + 1 }} [1/2] {{ x <- x }} }}"
    with pytest.raises(CompileError, match="needs a label block"):
        compile_probabilistic(parse_program(text), "terminating")


# ---------------------------------------------------------------------------
# weighted compilation

def test_travel_program_matches_frozen_fixture():
    prog = parse_program(fixture_text("travel.qtp"))
    report = compile_weighted(prog)
    assert report.model == load_model("travel-wts.json")
    assert validate(report.model) == []


def test_weighted_state_without_options_is_dead():
    text = (
        "var t : 0..2 init 0;\n"
        "alphabet a;\n"
        "while (t < 2) { choice { when (t == 0) emit a add 1 { t <- 1; } } }\n"
    )
    model = compile_weighted(parse_program(text)).model
    assert model.trans["t=1"] == ()
    from qtrace.products import product_wts_nfa
    from qtrace.solvers import solve_tropical
    from qtrace.models import Nfa

    nfa = Nfa(("q",), ("a",), {"q": {"a": (("q", True),)}}, "q")
    prod = product_wts_nfa(model, nfa, restrict=False)
    assert solve_tropical(prod).value_at("t=1|q") == float("inf")


def test_single_move_program():
    text = (
        "var t : 0..1 init 0;\n"
        "while (t != 1) { choice { emit T add 3 { t <- 1; } } }\n"
    )
    model = compile_weighted(parse_program(text)).model
    assert model.states == ("t=0",)
    assert model.trans["t=0"] == ((TARGET, "T", 3),)


def test_weighted_compile_rejects_probabilistic_program():
    prog = parse_program(fixture_text("gridworld.qtp"))
    with pytest.raises(CompileError):
        compile_weighted(prog)


# ---------------------------------------------------------------------------
# seeded random programs

def _compile_outcome(text: str, mode: str, restrict: bool) -> str:
    """The emitted model and counts of one compilation, or its error."""
    try:
        program = parse_program(text)
        if mode == "weighted":
            report = compile_weighted(program, restrict_reachable=restrict)
        else:
            report = compile_probabilistic(program, mode, restrict_reachable=restrict)
    except (ParseError, CompileError) as exc:
        return f"{type(exc).__name__}: {exc}"
    counts = [report.state_count, report.reachable_count, list(report.warnings)]
    return emit_model(report.model) + json.dumps(counts)


def _nests_branches(stmts) -> bool:
    return any(
        isinstance(s, ProbChoice) and any(isinstance(t, ProbChoice) for br in s.branches for t in br)
        for s in stmts
    )


def test_random_programs_match_golden_digest():
    # 400 programs, each compiled in all three modes with and without the
    # reachability restriction; the digest was computed with the compiler
    # that still evaluated syntax trees over dict valuations
    rng = random.Random(9)
    texts = [random_program(rng) for _ in range(400)]
    outcomes = [
        _compile_outcome(text, mode, restrict)
        for text in texts
        for mode in ("terminating", "reactive", "weighted")
        for restrict in (True, False)
    ]
    corpus = "".join(texts)
    for feature in (" and ", " or ", "max(", "min(", " + ", " - ", "when (", "[0]", "(true)"):
        assert feature in corpus
    assert sum(_nests_branches(parse_program(t).body) for t in texts) >= 20
    for outcome in (
        "assignment drives",
        "reactive program can halt",
        "initial valuation violates",
        "unreachable from init",
        '"kind": "mc"',
        '"kind": "ntmc"',
        '"kind": "wts"',
    ):
        assert sum(outcome in o for o in outcomes) >= 10, outcome
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "528b08de6e6053a1401328daed369130c063695fa0e2b845ebc812753af984c5"


def _body_runs(program):
    """One body run from each valuation of the declared space, by the
    ``Fraction`` reference and by the integer weights over the program's
    denominator: pairs of (successor, mass) lists in order, or the error."""
    space = programs._Space(program)
    den, body = programs._weights(program.body, space)

    def outcome(run):
        try:
            return list(run().items())
        except CompileError as exc:
            return str(exc)

    for vals in itertools.product(*(range(v.lo, v.hi + 1) for v in program.variables)):
        reference = outcome(lambda: fraction_blocks._run_block(program.body, vals, space))
        weights = outcome(lambda: programs._run_block(body, vals))
        if not isinstance(weights, str):
            assert all(type(w) is int for _, w in weights)
            weights = [(succ, Fraction(w, den)) for succ, w in weights]
        yield reference, weights


#: Nested coprime denominators, [0] and [1] branches, sequential choices.
_HAND_PROGRAMS = [
    "var x : 0..9 init 0;\nlabel { default: a; }\nwhile (x < 9) {\n"
    "  { { { x <- min(x + 1, 9) } [1/3] { x <- min(x + 2, 9) } } [2/5] { x <- min(x + 3, 9) } }"
    " [1/7] { x <- max(x - 1, 0) }\n}",
    "var x : 0..3 init 0;\nvar y : 0..3 init 0;\nlabel { default: a; }\nwhile (x < 3) {\n"
    "  { x <- min(x + 1, 3) } [0] { x <- 0 }\n  { y <- min(y + 1, 3) } [1] { y <- 0 } [0] { y <- 1 }\n"
    "  { x <- min(x + 1, 3) } [1] { }\n}",
    "var x : 0..4 init 0;\nvar y : 0..4 init 0;\nlabel { default: a; }\nwhile (x + y < 8) {\n"
    "  { x <- min(x + 1, 4) } [1/2] { x <- x }\n"
    "  { y <- min(y + 1, 4) } [1/3] { y <- 0 } [1/5] { { y <- max(y - 1, 0) } [3/11] { x <- 0 } }\n"
    "  { x <- min(x + y, 4) } [5/13] { y <- min(x + y, 4) }\n}",
]


def test_integer_weights_match_the_fraction_reference():
    rng = random.Random(9)
    texts = [random_program(rng) for _ in range(400)] + _HAND_PROGRAMS
    compared = nested = 0
    for text in texts:
        try:
            program = parse_program(text)
        except ParseError:
            continue
        if program.mode != "probabilistic":
            continue
        nested += _nests_branches(program.body)
        for reference, weights in _body_runs(program):
            assert weights == reference, text
            compared += 1
    assert nested >= 20 and compared >= 1000
    # masses whose denominators take every nesting level and every
    # statement of a sequence
    denominators = {
        p.denominator
        for text in _HAND_PROGRAMS
        for reference, _ in _body_runs(parse_program(text))
        for _, p in reference
    }
    assert {3 * 5 * 7, 2 * 3 * 5 * 11 * 13} <= denominators


# ---------------------------------------------------------------------------
# JSON round trips

FIXTURES = [
    "robot-mc.json",
    "safe-recharge-dfa.json",
    "reach-recharge-dfa.json",
    "train-arrival-nfa.json",
    "travel-wts.json",
]


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_round_trip(name):
    model = load_model(name)
    assert parse_model(emit_model(model)) == model


def test_product_round_trip():
    prod = product_mc_dfa(load_model("robot-mc.json"), load_model("safe-recharge-dfa.json"))
    assert parse_model(emit_model(prod)) == prod


def test_all_product_kinds_round_trip():
    from qtrace.lawcheck import random_instance
    from qtrace.products import (
        product_mrm_dfa,
        product_ntmc_dfa,
        product_wts_nfa,
        product_wts_wmm,
    )

    rng = random.Random(6)
    builders = {
        "mrm-dfa": product_mrm_dfa,
        "ntmc-dfa": product_ntmc_dfa,
        "wts-nfa": product_wts_nfa,
        "wts-wmm": product_wts_wmm,
    }
    for pairing, build in builders.items():
        system, requirement = random_instance(pairing, rng)
        prod = build(system, requirement, restrict=False)
        assert parse_model(emit_model(prod)) == prod


def test_round_trip_all_kinds():
    from qtrace.lawcheck import (
        random_mc,
        random_mrm,
        random_ntmc,
        random_wts,
        random_dfa,
        random_nfa,
        random_wmm,
        random_rm,
    )

    rng = random.Random(2)
    for gen in (random_mc, random_mrm, random_ntmc, random_wts, random_dfa, random_nfa, random_wmm, random_rm):
        model = gen(rng)
        assert parse_model(emit_model(model)) == model


def test_unknown_kind_rejected():
    with pytest.raises(SchemaError, match="unknown kind"):
        parse_model('{"kind": "petri-net"}')


def test_rationals_survive_round_trip():
    doc = json.loads(fixture_text("robot-mc.json"))
    doc["trans"]["x0"] = {"x1": "1/3", "x2": "2/3"}
    model = parse_model(json.dumps(doc))
    assert model.trans["x0"]["x1"] == F(1, 3)
    again = parse_model(emit_model(model))
    assert again.trans["x0"]["x1"] == F(1, 3)


#: One small valid document per kind with typed fields.
VALID_DOCS = {
    "mc": {"kind": "mc", "alphabet": ["a"], "states": ["s"], "initial": "s",
           "label": {"s": "a"}, "trans": {"s": {TARGET: "1/2", "s": "1/2"}}},
    "mrm": {"kind": "mrm", "alphabet": ["a"], "states": ["s"], "initial": "s",
            "label": {"s": "a"}, "trans": {"s": {TARGET: "1/1"}}, "reward": {"s": 2}},
    "wts": {"kind": "wts", "alphabet": ["a"], "states": ["s"], "initial": "s",
            "trans": {"s": [[TARGET, "a", 2]]}},
    "dfa": {"kind": "dfa", "alphabet": ["a"], "states": ["q"], "initial": "q",
            "delta": {"q": {"a": ["q", False]}}},
    "nfa": {"kind": "nfa", "alphabet": ["a"], "states": ["q"], "initial": "q",
            "delta": {"q": {"a": [["q", True]]}}},
    "rm": {"kind": "rm", "alphabet": ["a"], "states": ["r"], "initial": "r", "bound": 2,
           "delta": {"r": {"a": ["r", 1]}}},
    "wmm": {"kind": "wmm", "alphabet": ["a"], "states": ["q"], "initial": "q",
            "delta": {"q": {"a": [["q", True, 1]]}}},
    "product-mrm": {"kind": "product-mrm", "states": ["s"], "initial": "s",
                    "trans": {"s": {"s": "1/1"}}, "stepreward": {"s": 1}},
    "product-wts": {"kind": "product-wts", "states": ["s"], "initial": "s",
                    "trans": {"s": [["s", 1]]}},
}


#: (kind, path into its VALID_DOCS document, mistyped value for that field)
MISTYPED = [
    ("dfa", ("delta", "q", "a", 1), "false"),
    ("nfa", ("delta", "q", "a", 0, 1), 1),
    ("wmm", ("delta", "q", "a", 0, 1), "true"),
    ("wts", ("trans", "s", 0, 2), 2.7),
    ("wts", ("trans", "s", 0, 2), "2"),
    ("wts", ("trans", "s", 0, 2), True),
    ("mrm", ("reward", "s"), 2.7),
    ("rm", ("bound",), "2"),
    ("rm", ("delta", "r", "a", 1), True),
    ("wmm", ("delta", "q", "a", 0, 2), 2.7),
    ("product-mrm", ("stepreward", "s"), 2.7),
    ("product-wts", ("trans", "s", 0, 1), "2"),
    ("mc", ("trans", "s", "s"), True),
    ("mc", ("alphabet",), "ab"),
    ("dfa", ("states",), "q"),
    ("mc", ("states",), [["s"]]),
    ("dfa", ("states",), [["q"]]),
    ("mc", ("label", "s"), ["a"]),
    ("wts", ("trans", "s", 0), f"{TARGET}a2"),
    ("dfa", ("delta", "q"), ["a"]),
]


@pytest.mark.parametrize(
    "kind, path, value",
    MISTYPED,
    ids=[f"{k}:{'/'.join(map(str, p))}={v!r}" for k, p, v in MISTYPED],
)
def test_mistyped_fields_are_rejected(kind, path, value):
    # values are checked, not coerced: "false" is no flag, 2.7 or "2" no
    # integer, a string no array of names, and a list no state name
    doc = json.loads(json.dumps(VALID_DOCS[kind]))
    assert validate(parse_model(json.dumps(doc))) == []
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    with pytest.raises(SchemaError):
        parse_model(json.dumps(doc))


def test_malformed_document_rejected():
    with pytest.raises(SchemaError):
        parse_model('{"kind": "mc", "states": ["a"]}')
    with pytest.raises(SchemaError):
        parse_model('{"kind": "dfa", "alphabet": ["a"], "states": ["q"], "initial": "q", "delta": {"q": {"a": "oops"}}}')
