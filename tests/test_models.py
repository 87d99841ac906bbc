import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from qtrace.bundled import load_model
from qtrace.lawcheck import random_dfa, random_nfa, random_rm, random_wmm
from qtrace.models import (
    Dfa,
    HALT_SYMBOL,
    LabeledMc,
    ModelError,
    RewardMachine,
    complete_dfa,
    dfa_intersect,
    make_cost_bound_dfa,
    product_rm_costdfa,
    translate_to_nonterminating,
    validate,
)
from qtrace.oracle import dfa_language
from qtrace.models import TARGET


@pytest.fixture(scope="module")
def robot():
    return load_model("robot-mc.json")


@pytest.fixture(scope="module")
def monitor():
    return load_model("safe-recharge-dfa.json")


def test_fixture_models_validate(robot, monitor):
    assert validate(robot) == []
    assert validate(monitor) == []


def test_row_sum_violation_is_reported(robot):
    trans = {x: dict(row) for x, row in robot.trans.items()}
    trans["x0"] = {"x1": Fraction(4, 5), "x2": Fraction(1, 10)}
    broken = LabeledMc(robot.states, robot.alphabet, robot.label, trans, robot.initial)
    problems = validate(broken)
    assert any("row sum" in p and "x0" in p for p in problems)


def test_partial_dfa_is_reported(monitor):
    delta = {y: dict(row) for y, row in monitor.delta.items()}
    del delta["y2"]["arid"]
    broken = Dfa(monitor.states, monitor.alphabet, delta, monitor.initial)
    problems = validate(broken)
    assert any("not total" in p for p in problems)


def test_complete_dfa_fills_missing_rows(monitor):
    delta = {y: dict(row) for y, row in monitor.delta.items()}
    del delta["y2"]["arid"]
    partial = Dfa(monitor.states, monitor.alphabet, delta, monitor.initial)
    fixed = complete_dfa(partial)
    assert validate(fixed) == []
    # the completion must not accept anything new
    assert dfa_language(fixed, "y0", 4) <= dfa_language(monitor, "y0", 4)


def test_cost_bound_dfa_formula():
    d = make_cost_bound_dfa(5, 3)
    assert d.delta["5"]["3"] == ("2", True)
    assert d.delta["2"]["3"] == ("bot", False)
    assert d.delta["bot"]["2"] == ("bot", False)
    assert d.initial == "5"
    assert make_cost_bound_dfa(1, 1).delta["1"]["1"] == ("bot", False)
    assert validate(d) == []


def test_cost_bound_dfa_rejects_bad_parameters():
    with pytest.raises(ModelError):
        make_cost_bound_dfa(0, 2)
    with pytest.raises(ModelError):
        make_cost_bound_dfa(2, 0)


@pytest.mark.parametrize("budget", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("weight_bound", [1, 2, 3])
def test_cost_bound_dfa_language(budget, weight_bound):
    # the accepted words are exactly those with running sum below the budget
    d = make_cost_bound_dfa(budget, weight_bound)
    got = dfa_language(d, str(budget), 4)
    symbols = [str(j) for j in range(1, weight_bound + 1)]
    expected = {
        w
        for n in range(1, 5)
        for w in itertools.product(symbols, repeat=n)
        if sum(map(int, w)) < budget
    }
    assert got == expected


def test_intersect_identity_and_idempotence(monitor):
    same = dfa_intersect(monitor, monitor)
    assert validate(same) == []
    assert dfa_language(same, same.initial, 5) == dfa_language(monitor, "y0", 5)
    everything = Dfa(
        states=("t",),
        alphabet=monitor.alphabet,
        delta={"t": {a: ("t", True) for a in monitor.alphabet}},
        initial="t",
    )
    neutral = dfa_intersect(monitor, everything)
    assert dfa_language(neutral, neutral.initial, 5) == dfa_language(monitor, "y0", 5)


def test_intersect_matches_set_intersection():
    rng = random.Random(99)
    for _ in range(8):
        d1 = random_dfa(rng)
        d2 = random_dfa(rng)
        both = dfa_intersect(d1, d2)
        for k in (1, 3, 6):
            lhs = dfa_language(both, both.initial, k)
            rhs = dfa_language(d1, d1.initial, k) & dfa_language(d2, d2.initial, k)
            assert lhs == rhs


def test_intersect_requires_same_alphabet(monitor):
    other = Dfa(("z",), ("ping",), {"z": {"ping": ("z", False)}}, "z")
    with pytest.raises(ModelError):
        dfa_intersect(monitor, other)


def test_rm_costdfa_composition_bounds_length():
    # a constant-weight-1 transducer with budget 3 accepts words of
    # length 1 and 2 and nothing longer
    rm = RewardMachine(
        states=("r0",),
        alphabet=("a", "b"),
        bound=1,
        delta={"r0": {"a": ("r0", 1), "b": ("r0", 1)}},
        initial="r0",
    )
    d3 = product_rm_costdfa(rm, make_cost_bound_dfa(3, 1))
    assert validate(d3) == []
    lang = dfa_language(d3, d3.initial, 4)
    assert sorted({len(w) for w in lang}) == [1, 2]
    assert len(lang) == 2 + 4


def test_rm_costdfa_overspending_goes_dead():
    rm = RewardMachine(
        states=("r0",),
        alphabet=("a",),
        bound=3,
        delta={"r0": {"a": ("r0", 3)}},
        initial="r0",
    )
    d3 = product_rm_costdfa(rm, make_cost_bound_dfa(2, 3))
    tgt, flag = d3.delta[d3.initial]["a"]
    assert flag is False and tgt.endswith("bot")


def test_rm_costdfa_alphabet_mismatch():
    rm = RewardMachine(
        states=("r0",), alphabet=("a",), bound=2, delta={"r0": {"a": ("r0", 1)}}, initial="r0"
    )
    with pytest.raises(ModelError):
        product_rm_costdfa(rm, make_cost_bound_dfa(3, 3))


def test_translation_shapes(robot, monitor):
    chain, mon = translate_to_nonterminating(robot, monitor)
    assert validate(chain) == []
    assert validate(mon) == []
    assert HALT_SYMBOL in chain.alphabet
    assert len(mon.states) == 2 * len(monitor.states)
    halt_state = [s for s in chain.states if s not in robot.states][0]
    assert chain.trans[halt_state] == {halt_state: 1}
    assert all(TARGET not in row for row in chain.trans.values())


def test_translation_rejects_reserved_symbol(robot, monitor):
    taken = LabeledMc(
        robot.states,
        robot.alphabet + (HALT_SYMBOL,),
        robot.label,
        robot.trans,
        robot.initial,
    )
    with pytest.raises(ModelError):
        translate_to_nonterminating(taken, monitor)


# ---------------------------------------------------------------------------
# golden violation lists

#: How each requirement kind can be broken; the weight edits apply to the
#: entry's last field (weighted Mealy weight, reward-machine weight).
BREAKS = {
    "dfa": ("drop-row", "drop-symbol", "unknown-symbol", "unknown-target", "bad-flag", "bad-initial"),
    "nfa": ("drop-row", "drop-symbol", "unknown-symbol", "unknown-target", "bad-flag", "bad-initial"),
    "wmm": (
        "drop-row", "drop-symbol", "unknown-symbol", "unknown-target", "bad-flag",
        "negative-weight", "bad-initial",
    ),
    "rm": (
        "drop-row", "drop-symbol", "unknown-symbol", "unknown-target", "weight-out-of-bound",
        "zero-bound", "bad-initial",
    ),
}

REQUIREMENTS = {"dfa": random_dfa, "nfa": random_nfa, "wmm": random_wmm, "rm": random_rm}


def _edit_edge(kind, entry, field, value, template):
    """``entry`` with ``field`` of its (first) edge replaced by ``value``."""
    if kind in ("dfa", "rm"):
        return entry[:field] + (value,) + entry[field + 1:]
    edges = list(entry) or [template]
    edges[0] = edges[0][:field] + (value,) + edges[0][field + 1:]
    return tuple(edges)


def broken_requirement(kind: str, i: int):
    """A seeded random requirement of ``kind`` with one to three breakages."""
    rng = random.Random(f"violations:{kind}:{i}")
    model = REQUIREMENTS[kind](rng)
    delta = {y: dict(row) for y, row in model.delta.items()}
    initial, bound = model.initial, getattr(model, "bound", None)
    template = {"dfa": None, "rm": None, "nfa": (model.states[0], True),
                "wmm": (model.states[0], True, 0)}[kind]
    for _ in range(rng.randint(1, 3)):
        how = rng.choice(BREAKS[kind])
        y, a = rng.choice(model.states), rng.choice(model.alphabet)
        row = delta.get(y)
        if how == "drop-row":
            delta.pop(y, None)
        elif how == "drop-symbol" and row is not None:
            row.pop(a, None)
        elif how == "unknown-symbol" and row is not None:
            row["z"] = model.delta[y][a] if kind in ("dfa", "rm") else (template,)
        elif how == "bad-initial":
            initial = "nowhere"
        elif how == "zero-bound":
            bound = 0
        elif row is not None and (a in row or kind in ("nfa", "wmm")):
            entry = row.get(a, ())
            if how == "unknown-target":
                row[a] = _edit_edge(kind, entry, 0, "nowhere", template)
            elif how == "bad-flag":
                row[a] = _edit_edge(kind, entry, 1, rng.choice(["yes", 1, None]), template)
            elif how == "negative-weight":
                row[a] = _edit_edge(kind, entry, 2, -rng.randint(1, 3), template)
            elif how == "weight-out-of-bound":
                row[a] = _edit_edge(kind, entry, 1, rng.choice([0, bound + 1, "2"]), template)
    if kind == "rm":
        return type(model)(model.states, model.alphabet, bound, delta, initial)
    return type(model)(model.states, model.alphabet, delta, initial)


def violations_digest(kind: str, keep=lambda line: True) -> str:
    digest = hashlib.sha256()
    for i in range(300):
        lines = [line for line in validate(broken_requirement(kind, i)) if keep(line)]
        digest.update(f"{i}:{lines!r}\n".encode())
    return digest.hexdigest()


#: sha256 of ``validate`` on 300 broken requirements per kind, computed
#: before the delta checks of the four requirement kinds were merged.  The
#: reward-machine digest was taken when those ignored unknown symbols, so
#: it is compared with their output less its unknown-symbol lines.
VIOLATIONS_GOLDEN = {
    "dfa": "d6f6b726317d13bcb280cc2310d7cb09fdbc5ddc23735645f96d414d751faa21",
    "nfa": "fa124311a02bff36cc5469e99a0fce870331e7df254555f0a0b46814f76d1cf3",
    "wmm": "21c21ad65fc16f0896c5c727e6ad96e94a5cbd531c7879fcc7a6ed67faf1b0de",
    "rm": "8337d3f965150a35ed4373b07dff3b76b0243239aa53036b3eda62aa40d4c1e8",
}

UNKNOWN_SYMBOL = "delta uses unknown symbol"


def _known_symbols_only(line: str) -> bool:
    return not line.startswith(UNKNOWN_SYMBOL)


@pytest.mark.parametrize("kind", ["dfa", "nfa", "wmm"])
def test_violations_match_golden_digests(kind):
    assert violations_digest(kind) == VIOLATIONS_GOLDEN[kind]


def test_reward_machine_violations_keep_their_order():
    assert violations_digest("rm", _known_symbols_only) == VIOLATIONS_GOLDEN["rm"]
    reported = 0
    for i in range(300):
        model = broken_requirement("rm", i)
        added = [line for line in validate(model) if not _known_symbols_only(line)]
        expected = [
            f"{UNKNOWN_SYMBOL} 'z' at state {y!r}"
            for y in model.states
            if "z" in model.delta.get(y, {})
        ]
        assert added == expected
        reported += len(added)
    assert reported > 0


def test_reward_machine_unknown_symbol_is_reported():
    rm = RewardMachine(("r0",), ("a",), 2, {"r0": {"a": ("r0", 1), "z": ("r0", 1)}}, "r0")
    assert validate(rm) == [f"{UNKNOWN_SYMBOL} 'z' at state 'r0'"]
    dfa = Dfa(("r0",), ("a",), {"r0": {"a": ("r0", True), "z": ("r0", True)}}, "r0")
    assert validate(dfa) == validate(rm)
