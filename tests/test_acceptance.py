"""Acceptance suite: one test per shipped guarantee, at exact tolerances.

Every test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all) and enforces both the expected value and its time budget.

Criterion 11 is known to fail and is kept failing on purpose: the grid
program's border cells carry positive-probability self loops, so accepted
traces of every length exist and no finite oracle depth can reproduce the
exact value; see the repository notes for the analysis.
"""

import random
import time
from fractions import Fraction

import fraction_direct
import pytest
from minplus_solver import least_costs

import qtrace.oracle as oracle
from qtrace import lawcheck
from qtrace.bundled import fixture_path, fixture_text, load_model
from qtrace.cli import main
from qtrace.models import ACCEPT, REJECT, MarkovRewardModel
from qtrace.products import (
    pair_states,
    product_mc_dfa,
    product_mrm_dfa,
    product_wts_nfa,
    product_wts_wmm,
)
from qtrace.programs import compile_probabilistic, parse_program
from qtrace.solvers import solve_partial_expected_reward, solve_reach_prob, solve_tropical

F = Fraction
SEED = 7


def _report(name: str, budget: float, started: float, ok: bool, detail: str = ""):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name} ({elapsed:.2f}s / budget {budget:.0f}s) {detail}")
    assert elapsed < budget, f"{name} exceeded its time budget ({elapsed:.2f}s)"
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def robot():
    return load_model("robot-mc.json")


@pytest.fixture(scope="module")
def monitor():
    return load_model("safe-recharge-dfa.json")


def test_criterion_01_fixture_inference_value(robot, monitor, capsys):
    started = time.perf_counter()
    code = main(
        [
            "infer",
            fixture_path("robot-mc.json"),
            fixture_path("safe-recharge-dfa.json"),
            "--pairing",
            "mc-dfa",
            "--mode",
            "exact",
        ]
    )
    out = capsys.readouterr().out
    oracle_value = oracle.query_prob(
        oracle.mc_semantics(robot, "x0", 4), fraction_direct.DfaLanguage(monitor, "y0", 4)
    )
    ok = code == 0 and "= 4/25" in out and oracle_value == F(4, 25)
    with capsys.disabled():
        _report("criterion-01 fixture inference = 4/25", 1.0, started, ok, out.strip())


def test_criterion_02_fixture_trace_distribution(robot):
    started = time.perf_counter()
    dist = oracle.mc_semantics(robot, "x0", 3)
    expected = {
        ("sand", "lake", "recharge"): F(4, 5),
        ("sand", "sand", "recharge"): F(4, 25),
        ("sand", "sand", "volcano"): F(1, 25),
    }
    _report(
        "criterion-02 depth-3 trace distribution",
        1.0,
        started,
        dist == expected,
        f"{len(dist)} traces",
    )


def test_criterion_03_product_fragment(robot, monitor):
    started = time.perf_counter()
    prod = product_mc_dfa(robot, monitor)
    ok = (
        prod.trans["x0|y0"].get("x1|y0") == F(4, 5)
        and prod.trans["x1|y0"].get("x3|y2") == F(1)
        and prod.trans["x3|y2"].get(REJECT) == F(1)
        and prod.trans["x3|y0"].get(ACCEPT) == F(1)
    )
    _report("criterion-03 product fragment edges", 1.0, started, ok)


def test_criterion_04_step_equality_all_pairings():
    started = time.perf_counter()
    failures = []
    for pairing in lawcheck.PAIRINGS:
        res = lawcheck.run_step_equality_batch(pairing, instances=100, kmax=10, seed=SEED)
        if not res.passed:
            failures.append((pairing, res.counterexample))
    _report(
        "criterion-04 step equality, 6 pairings x 100 instances, kmax=10",
        60.0,
        started,
        not failures,
        str(failures) if failures else "all exact",
    )


def test_criterion_05_diagram_commutation():
    started = time.perf_counter()
    failures = []
    for pairing in lawcheck.DIAGRAM_PAIRINGS:
        res = lawcheck.check_diagram(pairing, samples=200, seed=SEED)
        if not res.passed:
            failures.append((pairing, res.counterexample))
    refused = False
    try:
        lawcheck.check_diagram("ntmc-dfa", samples=1, seed=SEED)
    except ValueError:
        refused = True
    _report(
        "criterion-05 one-step commutation, 5 pairings x 200 samples",
        30.0,
        started,
        not failures and refused,
        str(failures) if failures else "all exact; ntmc-dfa refused",
    )


def test_criterion_06_mutation_sensitivity(robot, monitor):
    started = time.perf_counter()
    missed = []
    for name, build in sorted(lawcheck.MUTATIONS.items()):
        res = lawcheck.check_step_equality(
            "mc-dfa", robot, monitor, 4, product_fn=build
        )
        if res.passed:
            missed.append(name)
    _report(
        "criterion-06 5 broken pairing rules all detected at kmax=4",
        10.0,
        started,
        not missed,
        f"missed: {missed}" if missed else "all caught",
    )


def test_criterion_07_cost_constructions():
    started = time.perf_counter()
    rng = random.Random(f"{SEED}:cost")
    failures = []
    for i in range(25):
        weight_bound = rng.randint(1, 3)
        budget = rng.randint(1, 6)
        res = lawcheck.check_cost_bounded(
            lawcheck.random_cost_mc(rng, weight_bound), budget, kmax=8
        )
        if not res.passed:
            failures.append(("bounded", i, res.counterexample))
    for i in range(25):
        budget = rng.randint(2, 6)
        res = lawcheck.check_cost_induced(
            lawcheck.random_mc(rng), lawcheck.random_rm(rng), budget, kmax=8
        )
        if not res.passed:
            failures.append(("induced", i, res.counterexample))
    _report(
        "criterion-07 budgeted acceptance, direct + transducer-induced, 25+25 instances",
        30.0,
        started,
        not failures,
        str(failures[:1]) if failures else "all exact",
    )


def test_criterion_08_tropical_optimality():
    started = time.perf_counter()
    rng = random.Random(f"{SEED}:tropical")
    failures = []
    for i in range(50):
        wts = lawcheck.random_wts(rng, max_states=4)
        if i % 2 == 0:
            req = lawcheck.random_nfa(rng, max_states=2)
            prod = product_wts_nfa(wts, req, restrict=False)
        else:
            req = lawcheck.random_wmm(rng, max_states=2)
            prod = product_wts_wmm(wts, req, restrict=False)
        pairs = pair_states(prod)
        assert len(pairs) <= 8
        rep = solve_tropical(prod)
        dist = least_costs(prod)
        if any(rep.values[s] != dist[s] for s in pairs):
            failures.append(("min-plus", i))
            continue
        depth = len(pairs)
        sys_sem = oracle.wts_semantics(wts, wts.initial, depth)
        if i % 2 == 0:
            direct = oracle.query_tropical(
                sys_sem, fraction_direct.NfaLanguage(req, req.initial, depth)
            )
        else:
            direct = oracle.query_wmm(
                sys_sem, fraction_direct.wmm_semantics(req, req.initial, depth)
            )
        if rep.value_at(prod.initial) != direct:
            failures.append(("oracle", i))
    _report(
        "criterion-08 min-cost = shortest path = direct semantics, 50 instances",
        30.0,
        started,
        not failures,
        str(failures) if failures else "all exact",
    )


def test_criterion_09_translation(robot, monitor):
    started = time.perf_counter()
    failures = []
    if not lawcheck.check_translation(robot, monitor).passed:
        failures.append("fixture")
    rng = random.Random(f"{SEED}:translation")
    for i in range(20):
        res = lawcheck.check_translation(lawcheck.random_mc(rng), lawcheck.random_dfa(rng))
        if not res.passed:
            failures.append(i)
    _report(
        "criterion-09 terminating vs translated never-terminating, fixture + 20 instances",
        20.0,
        started,
        not failures,
        str(failures) if failures else "all exact",
    )


def test_criterion_10_partial_expected_reward(robot, monitor):
    started = time.perf_counter()
    unit = MarkovRewardModel(
        robot.states,
        robot.alphabet,
        robot.label,
        {x: 1 for x in robot.states},
        robot.trans,
        robot.initial,
    )
    # the oracle pins the fixture value before the solver is trusted
    pinned = oracle.query_reward(
        oracle.mrm_semantics(unit, "x0", 4), fraction_direct.DfaLanguage(monitor, "y0", 4)
    )
    prod = product_mrm_dfa(unit, monitor)
    solved = solve_partial_expected_reward(prod).value_at(prod.initial)
    ok = pinned == (F(4, 25), F(12, 25)) and solved == pinned
    batch = lawcheck.run_step_equality_batch("mrm-dfa", instances=50, kmax=10, seed=SEED)
    _report(
        "criterion-10 partial expected reward, fixture (4/25, 12/25) + 50 instances",
        30.0,
        started,
        ok and batch.passed,
        batch.counterexample if not batch.passed else "",
    )


def test_criterion_11_gridworld_end_to_end(monitor):
    started = time.perf_counter()
    program = parse_program(fixture_text("gridworld.qtp"))
    mc = compile_probabilistic(program, "terminating").model
    states_ok = len(mc.states) == 14
    prod = product_mc_dfa(mc, monitor)
    exact = solve_reach_prob(prod).value_at(prod.initial)
    depth8 = oracle.query_prob(
        oracle.mc_semantics(mc, mc.initial, 8),
        fraction_direct.DfaLanguage(monitor, monitor.initial, 8),
    )
    ok = states_ok and exact == depth8
    _report(
        "criterion-11 gridworld end to end (known failing; see notes)",
        5.0,
        started,
        ok,
        f"states={len(mc.states)} exact={exact} depth8={depth8}",
    )


def test_gridworld_iterates_do_match_the_oracle(monitor):
    # not an acceptance criterion: the depth-indexed agreement that actually
    # holds for the gridworld, in place of the unattainable criterion 11
    program = parse_program(fixture_text("gridworld.qtp"))
    mc = compile_probabilistic(program, "terminating").model
    res = lawcheck.check_step_equality("mc-dfa", mc, monitor, 8)
    assert res.passed, res.counterexample
