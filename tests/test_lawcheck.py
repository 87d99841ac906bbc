import random
from fractions import Fraction

import fraction_direct
import pytest
from fraction_iterate import fraction_iterates

from qtrace import lawcheck, oracle, products, solvers
from qtrace.bundled import load_model
from qtrace.domains import value_str
from qtrace.models import Dfa, NonTerminatingMc, joined, validate
from qtrace.solvers import integer_iterates, solve_reach_prob
from qtrace.products import product_mc_dfa, product_ntmc_dfa

F = Fraction


@pytest.fixture(scope="module")
def robot():
    return load_model("robot-mc.json")


@pytest.fixture(scope="module")
def monitor():
    return load_model("safe-recharge-dfa.json")


def test_fixture_step_equality(robot, monitor):
    res = lawcheck.check_step_equality("mc-dfa", robot, monitor, 6)
    assert res.passed, res.counterexample


def test_all_rejecting_requirement_gives_zeroes(robot):
    dead = Dfa(
        states=("z",),
        alphabet=robot.alphabet,
        delta={"z": {a: ("z", False) for a in robot.alphabet}},
        initial="z",
    )
    res = lawcheck.check_step_equality("mc-dfa", robot, dead, 5)
    assert res.passed
    rep = solve_reach_prob(product_mc_dfa(robot, dead, restrict=False))
    assert all(v == 0 for v in rep.values.values())


@pytest.mark.parametrize("pairing", lawcheck.PAIRINGS)
def test_step_equality_random_smoke(pairing):
    res = lawcheck.run_step_equality_batch(pairing, instances=8, kmax=7, seed=123)
    assert res.passed, res.counterexample


@pytest.mark.parametrize("pairing", lawcheck.DIAGRAM_PAIRINGS)
def test_diagram_random_smoke(pairing):
    res = lawcheck.check_diagram(pairing, samples=60, seed=5)
    assert res.passed, res.counterexample


def test_diagram_refuses_never_terminating_pairing():
    with pytest.raises(ValueError, match="weaker criterion"):
        lawcheck.check_diagram("ntmc-dfa", 10, 0)


@pytest.mark.parametrize("name", sorted(lawcheck.MUTATIONS))
def test_mutations_are_caught_on_fixture(name, robot, monitor):
    res = lawcheck.check_step_equality(
        "mc-dfa", robot, monitor, 4, product_fn=lawcheck.MUTATIONS[name]
    )
    assert not res.passed
    assert res.counterexample["depth"] <= 4


@pytest.mark.parametrize("name", sorted(lawcheck.MUTATIONS))
def test_mutations_run_the_shipped_rule(name, robot, monitor, monkeypatch):
    # every mutant edits the inputs of the shipped builder, which crosses
    # them with the one rule in products: no copy of the rule is mutated
    calls = []
    rule = products.mealy_row

    def counted(moves, edges):
        calls.append(moves)
        return rule(moves, edges)

    monkeypatch.setattr(products, "mealy_row", counted)
    res = lawcheck.check_step_equality(
        "mc-dfa", robot, monitor, 4, product_fn=lawcheck.MUTATIONS[name]
    )
    assert len(calls) == len(robot.states) * len(monitor.states)
    assert not res.passed


def test_cost_bounded_smoke():
    rng = random.Random(21)
    for _ in range(4):
        c = lawcheck.random_cost_mc(rng, weight_bound=rng.randint(1, 3))
        res = lawcheck.check_cost_bounded(c, budget=rng.randint(1, 5), kmax=6)
        assert res.passed, res.counterexample


def test_cost_induced_smoke():
    rng = random.Random(22)
    for _ in range(4):
        res = lawcheck.check_cost_induced(
            lawcheck.random_mc(rng), lawcheck.random_rm(rng), budget=rng.randint(2, 5), kmax=6
        )
        assert res.passed, res.counterexample


def test_translation_fixture_and_random(robot, monitor):
    assert lawcheck.check_translation(robot, monitor).passed
    rng = random.Random(23)
    for _ in range(5):
        res = lawcheck.check_translation(lawcheck.random_mc(rng), lawcheck.random_dfa(rng))
        assert res.passed, res.counterexample


def test_translation_with_rejecting_requirement_is_zero_on_both_sides(robot):
    dead = Dfa(
        states=("z",),
        alphabet=robot.alphabet,
        delta={"z": {a: ("z", False) for a in robot.alphabet}},
        initial="z",
    )
    assert lawcheck.check_translation(robot, dead).passed
    rep = solve_reach_prob(product_mc_dfa(robot, dead, restrict=False))
    assert all(v == 0 for v in rep.values.values())


def test_step_equality_on_compiled_reactive_fixture():
    from qtrace.bundled import fixture_text, load_model
    from qtrace.programs import compile_probabilistic, parse_program

    chain = compile_probabilistic(
        parse_program(fixture_text("patrol.qtp")), "reactive"
    ).model
    monitor = load_model("reach-recharge-dfa.json")
    res = lawcheck.check_step_equality("ntmc-dfa", chain, monitor, 6)
    assert res.passed, res.counterexample


def test_random_models_are_valid():
    rng = random.Random(55)
    for _ in range(10):
        for pairing in lawcheck.PAIRINGS:
            system, requirement = lawcheck.random_instance(pairing, rng)
            assert validate(system) == []
            assert validate(requirement) == []


def test_batches_are_seed_deterministic():
    a = lawcheck.run_step_equality_batch("mc-dfa", instances=5, kmax=5, seed=99)
    b = lawcheck.run_step_equality_batch("mc-dfa", instances=5, kmax=5, seed=99)
    assert a == b
    c = lawcheck.check_diagram("wts-nfa", samples=40, seed=3)
    d = lawcheck.check_diagram("wts-nfa", samples=40, seed=3)
    assert c == d


def test_check_result_serializes():
    res = lawcheck.check_step_equality(
        "mc-dfa",
        load_model("robot-mc.json"),
        load_model("safe-recharge-dfa.json"),
        3,
    )
    doc = res.to_json()
    assert doc["passed"] is True
    assert doc["name"] == "step-equality[mc-dfa]"


def _looping_chain(s1_row) -> NonTerminatingMc:
    """Three states labelled a, b, c; ``s1_row`` is the row of s1."""
    states = ("s0", "s1", "s2")
    trans = {
        "s0": {"s1": F(1, 3), "s2": F(2, 3)},
        "s1": s1_row,
        "s2": {"s2": F(1, 2), "s0": F(1, 2)},
    }
    return NonTerminatingMc(states, ("a", "b", "c"), dict(zip(states, "abc")), trans, "s0")


def _monitor(accepts) -> Dfa:
    """One state; a step on a symbol in ``accepts`` accepts."""
    alphabet = ("a", "b", "c")
    return Dfa(("q",), alphabet, {"q": {a: ("q", a in accepts) for a in alphabet}}, "q")


def _reference_counterexample(product, system, requirement, kmax):
    """The first mismatch of the Fraction iterates with the Fraction direct
    query, in the order step equality compares them."""
    direct = fraction_direct.direct_ntmc_dfa(system, requirement, kmax)
    for k, values in enumerate(fraction_iterates(product, kmax)):
        for x in system.states:
            for y in requirement.states:
                lhs, rhs = values[joined(x, y)], direct(x, y, k)
                if lhs != rhs:
                    return {"system_state": x, "requirement_state": y, "depth": k,
                            "product_value": value_str(lhs), "direct_value": value_str(rhs)}
    return None


def test_step_equality_across_different_denominators():
    # a monitor that accepts on every symbol sends each product row whole
    # to the goal, so the product's denominator is 1 and the chain's is 30
    chain = _looping_chain({"s0": F(2, 5), "s1": F(3, 5)})
    accept_all = _monitor("abc")
    den, _ = integer_iterates(product_ntmc_dfa(chain, accept_all, restrict=False))
    assert (den, oracle.direct_ntmc_dfa(chain, accept_all, 10).den) == (1, 30)
    assert lawcheck.check_step_equality("ntmc-dfa", chain, accept_all, 10).passed


def test_mismatch_across_different_denominators_names_the_reference_counterexample():
    # the product is built from a chain whose s1 row differs: its
    # denominator is 2 against the chain's 30, so the mismatch is found by
    # cross multiplying, and reported as the Fraction comparison reports it
    chain = _looping_chain({"s0": F(2, 5), "s1": F(3, 5)})
    other = _looping_chain({"s0": F(1, 2), "s1": F(1, 2)})
    monitor = _monitor("a")

    def build(c, d, restrict):
        return product_ntmc_dfa(other, d, restrict)

    product = build(chain, monitor, False)
    den, _ = integer_iterates(product)
    assert (den, oracle.direct_ntmc_dfa(chain, monitor, 10).den) == (2, 30)
    res = lawcheck.check_step_equality("ntmc-dfa", chain, monitor, 10, product_fn=build)
    assert not res.passed
    expected = _reference_counterexample(product, chain, monitor, 10)
    assert res.counterexample == expected
    assert (expected["product_value"], expected["direct_value"]) == ("1/2", "2/5")


def _goal_dropped(update):
    return lambda rows, scale, values: update([(s, d, 0, r, e) for s, d, _, r, e in rows], scale, values)


def _step_reward_dropped(update):
    return lambda rows, scale, values: update(
        [(s, d, g, None if r is None else 0, e) for s, d, g, r, e in rows], scale, values
    )


def _cost_raised(update):
    return lambda *args: {s: c + 1 for s, c in update(*args).items()}


def _flag_negated(rule):
    return lambda moves, edges: rule(
        moves, {a: [(t, not f, n) for t, f, n in es] for a, es in edges.items()}
    )


def _weights_raised(rule):
    # a weight is an int, a probability mass a Fraction: only weights rise
    return lambda *args: [(t, v + 1 if isinstance(v, int) else v) for t, v in rule(*args)]


@pytest.mark.parametrize(
    "module, name, mutate, failing",
    [
        (solvers, "_prob_update", _goal_dropped, {"mc-dfa", "mc-costdfa", "mrm-dfa"}),
        (solvers, "_prob_update", _step_reward_dropped, {"mrm-dfa"}),
        (solvers, "_cost_update", _cost_raised, {"wts-nfa", "wts-wmm"}),
        (products, "mealy_row", _flag_negated, set(lawcheck.DIAGRAM_PAIRINGS)),
        (products, "mealy_row", _weights_raised, {"wts-nfa", "wts-wmm"}),
    ],
    ids=["goal-dropped", "step-reward-dropped", "cost-raised", "flag-negated", "weights-raised"],
)
def test_diagram_checks_run_the_shipped_update(module, name, mutate, failing, monkeypatch):
    # a broken update in solvers, or one edit of the crossing rule in
    # products, and nowhere else, fails the diagram checks of the pairings
    # it breaks; restored, they pass again
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    verdicts = {p: lawcheck.check_diagram(p, samples=60, seed=5).passed for p in lawcheck.DIAGRAM_PAIRINGS}
    assert {p for p, passed in verdicts.items() if not passed} == failing
    monkeypatch.undo()
    assert all(lawcheck.check_diagram(p, samples=60, seed=5).passed for p in lawcheck.DIAGRAM_PAIRINGS)
