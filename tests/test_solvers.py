import hashlib
import json
import random
from fractions import Fraction
from functools import partial

import pytest
from fraction_iterate import fraction_iterates, min_cost_step, product_transformer
from minplus_solver import least_costs

from qtrace import solvers
from qtrace.bundled import fixture_text, load_model
from qtrace.domains import INF, PROB, PROB_REWARD, TROPICAL, _value_over, bottom_vector, leq
from qtrace.lawcheck import (
    PAIRINGS,
    _fold_prob_row,
    random_dfa,
    random_instance,
    random_mc,
    random_mrm,
    random_nfa,
    random_ntmc,
    random_wmm,
    random_wts,
)
from qtrace.models import ACCEPT, REJECT, TARGET, Dfa, MarkovRewardModel, ModelError, WeightedTs
from qtrace.products import (
    PAIRING_TABLE,
    ProductMc,
    ProductRewardMc,
    ProductWts,
    pair_states,
    product_mc_dfa,
    product_mrm_dfa,
    product_ntmc_dfa,
    product_wts_nfa,
    product_wts_wmm,
    validate_product,
)
from qtrace.programs import compile_probabilistic, parse_program
from qtrace.solvers import (
    SolverError,
    solve_partial_expected_reward,
    solve_product,
    solve_reach_prob,
    solve_tropical,
)

F = Fraction


@pytest.fixture(scope="module")
def robot():
    return load_model("robot-mc.json")


@pytest.fixture(scope="module")
def monitor():
    return load_model("safe-recharge-dfa.json")


def test_exact_value_on_fixture(robot, monitor):
    prod = product_mc_dfa(robot, monitor)
    rep = solve_reach_prob(prod)
    assert rep.value_at("x0|y0") == F(4, 25)
    assert rep.method == "exact-linear"
    assert rep.converged
    # the fixture product is acyclic: four update rounds already reach it
    assert solve_reach_prob(prod, "iterate", steps=4).value_at("x0|y0") == F(4, 25)


def test_almost_sure_acceptance(robot):
    everything = Dfa(
        states=("t",),
        alphabet=robot.alphabet,
        delta={"t": {a: ("t", True) for a in robot.alphabet}},
        initial="t",
    )
    rep = solve_reach_prob(product_mc_dfa(robot, everything, restrict=False))
    assert all(v == 1 for v in rep.values.values())


def test_self_loop_only_product_is_zero():
    prod = ProductMc(
        states=("p", ACCEPT, "!reject"),
        trans={"p": {"p": F(1)}},
        initial="p",
    )
    assert solve_reach_prob(prod).value_at("p") == 0
    # iteration agrees: bottom is already the fixed point
    assert solve_reach_prob(prod, "iterate", steps=50).value_at("p") == 0


def test_iterates_form_a_chain_below_exact(robot, monitor):
    prod = product_mc_dfa(robot, monitor, restrict=False)
    exact = solve_reach_prob(prod).values
    prev = solve_reach_prob(prod, "iterate", steps=0).values
    for k in range(1, 7):
        cur = solve_reach_prob(prod, "iterate", steps=k).values
        for s in cur:
            assert prev[s] <= cur[s] <= exact[s]
        prev = cur
    # the product is acyclic: the chain reaches the solution
    assert solve_reach_prob(prod, "iterate", steps=5).values == exact


def test_epsilon_mode_converges(robot, monitor):
    # the exact answer lies within every positive epsilon, and is returned
    products = [product_mc_dfa(robot, monitor)]
    for pairing in ("mc-dfa", "mrm-dfa", "ntmc-dfa"):
        for seed in range(8):
            system, requirement = random_instance(pairing, random.Random(seed))
            products.append(PAIRING_TABLE[pairing].build(system, requirement))
    for prod in products:
        rep = solve_product(prod, "epsilon", epsilon=F(1, 10**9))
        assert (rep.method, rep.iterations, rep.converged) == ("exact-linear", 0, True)
        assert rep.values == solve_product(prod).values


def test_exact_solution_is_a_fixed_point_on_random_models():
    rng = random.Random(8)
    for _ in range(20):
        prod = product_mc_dfa(random_mc(rng), random_dfa(rng), restrict=False)
        rep = solve_reach_prob(prod)
        phi = product_transformer(prod)
        assert phi(rep.values) == rep.values


def _random_fraction(rng: random.Random) -> Fraction:
    """A value in [0, 1]: 0 or 1, a small fraction, or, half of the time,
    one over a 300-bit denominator."""
    kind = rng.randrange(4)
    if kind == 0:
        return F(rng.randint(0, 1))
    den = rng.randint(1, 12) if kind == 1 else rng.getrandbits(300) | 1 << 299
    return F(rng.randint(0, den), den)


def _rule_output(values, masses, goal):
    """A probabilistic row as the crossing rule gives it: successor i at
    the pair (value i, None), the goal mass on the accepting sink, and a
    rejecting entry that the fold leaves out."""
    return [((v, None), p) for v, p in zip(values, masses)] + [(ACCEPT, goal), (REJECT, F(1, 3))]


def _first(value, _):
    return value


def test_integer_update_steps_match_fraction_arithmetic():
    # the shipped updates on one row: a probabilistic row folded into one
    # integer row as the diagram checks fold it, and the weighted row of a
    # one-state product
    rng = random.Random("update steps")
    seen = set()
    for _ in range(500):
        masses = [_random_fraction(rng) for _ in range(rng.choice((0, 0, 1, 3, 6)))]
        goal = _random_fraction(rng) if rng.random() < 0.7 else F(0)
        step_reward = rng.randint(0, 9)
        probs = [_random_fraction(rng) for _ in masses]
        rewards = [_random_fraction(rng) * rng.randint(0, 40) for _ in masses]
        want = goal + sum((p * v for v, p in zip(probs, masses)), F(0))
        got = _fold_prob_row(_rule_output(probs, masses, goal), _first)
        assert (type(got), got) == (Fraction, want)
        want_reward = step_reward * goal + sum(
            (p * (v * step_reward + r) for v, r, p in zip(probs, rewards, masses)), F(0)
        )
        got = _fold_prob_row(_rule_output(list(zip(probs, rewards)), masses, goal), _first, step_reward)
        assert got == (want, want_reward)
        assert tuple(map(type, got)) == (Fraction, Fraction)
        seen |= {name for name, hit in (
            ("empty", not masses),
            ("zero mass", 0 in masses),
            ("integer value", any(v.denominator == 1 for v in probs + rewards)),
            ("300-bit", any(v.denominator.bit_length() == 300 for v in masses + probs + rewards)),
        ) if hit}
    assert seen == {"empty", "zero mass", "integer value", "300-bit"}
    rng = random.Random("cost rows")
    seen = set()
    for _ in range(300):
        costs = {f"t{i}": INF if rng.random() < 0.3 else rng.randint(0, 20) for i in range(rng.randint(0, 3))}
        row = [(t, rng.randint(0, 9)) for t in costs for _ in range(rng.randint(1, 3))]
        row += [(ACCEPT, rng.randint(0, 30)) for _ in range(rng.choice((0, 1, 2, 3)))]
        row += [(REJECT, rng.randint(0, 5)) for _ in range(rng.randint(0, 1))]
        rng.shuffle(row)
        prod = ProductWts(states=("s", ACCEPT, REJECT), trans={"s": tuple(row)}, initial="s")
        want = min_cost_step([(costs[t], w) for t, w in row if t in costs], [w for t, w in row if t == ACCEPT])
        assert solvers._cost_update(prod, ("s",), costs) == {"s": want}
        targets = [t for t, _ in row]
        seen |= {name for name, hit in (
            ("no edge", not row),
            ("parallel edges", any(targets.count(t) > 1 for t in costs)),
            ("several goal edges", targets.count(ACCEPT) > 1),
            ("infinite successor", INF in costs.values()),
            ("infinite answer", want == INF),
        ) if hit}
    assert seen == {"no edge", "parallel edges", "several goal edges", "infinite successor", "infinite answer"}


def test_reward_fixture_value(robot, monitor):
    mrm = MarkovRewardModel(
        robot.states,
        robot.alphabet,
        robot.label,
        {x: 1 for x in robot.states},
        robot.trans,
        robot.initial,
    )
    rep = solve_partial_expected_reward(product_mrm_dfa(mrm, monitor))
    assert rep.value_at("x0|y0") == (F(4, 25), F(12, 25))


def test_single_state_reward_product():
    prod = ProductRewardMc(
        states=("p", ACCEPT, "!reject"),
        trans={"p": {ACCEPT: F(1)}},
        stepreward={"p": 5},
        initial="p",
    )
    assert solve_partial_expected_reward(prod).value_at("p") == (1, 5)


def test_zero_step_rewards_reduce_to_reachability(robot, monitor):
    mrm = MarkovRewardModel(
        robot.states,
        robot.alphabet,
        robot.label,
        {x: 0 for x in robot.states},
        robot.trans,
        robot.initial,
    )
    prod = product_mrm_dfa(mrm, monitor, restrict=False)
    rep = solve_partial_expected_reward(prod)
    reach = solve_reach_prob(product_mc_dfa(robot, monitor, restrict=False)).values
    for s, (p, r) in rep.values.items():
        assert r == 0
        assert p == reach[s]


def test_tropical_direct_and_unreachable():
    prod = ProductWts(
        states=("p", "q", ACCEPT, "!reject"),
        trans={"p": ((ACCEPT, 3),), "q": (("q", 1),)},
        initial="p",
    )
    rep = solve_tropical(prod)
    assert rep.value_at("p") == 3
    assert rep.value_at("q") == INF
    assert rep.converged


def test_dijkstra_matches_min_plus_iteration():
    rng = random.Random(14)
    for _ in range(20):
        prod = product_wts_nfa(random_wts(rng), random_nfa(rng), restrict=False)
        rep = solve_tropical(prod)
        assert (rep.method, rep.iterations, rep.converged) == ("dijkstra", 0, True)
        assert rep.values == least_costs(prod)


def test_tropical_matches_independent_shortest_path():
    rng = random.Random(15)
    for _ in range(25):
        prod = product_wts_nfa(random_wts(rng), random_nfa(rng), restrict=False)
        rep = solve_tropical(prod)
        dist = least_costs(prod)
        assert all(rep.values[s] == dist[s] for s in rep.values)


def test_negative_weight_is_a_model_error():
    # built by hand, so no model validation ran; the weight's row is not
    # the goal's, so the Dijkstra pass would have to reach it
    prod = ProductWts(
        states=("p", "q", ACCEPT, REJECT),
        trans={"p": (("q", -1),), "q": ((ACCEPT, 2),)},
        initial="p",
    )
    (fault,) = validate_product(prod)
    for solve in (solve_tropical, solve_product, partial(solve_tropical, mode="iterate", steps=3)):
        with pytest.raises(ModelError) as err:
            solve(prod)
        assert str(err.value) == fault == "weight -1 at product state 'p' is not natural"


def _zero_weight_wts(rng: random.Random) -> WeightedTs:
    """A weighted system whose weights are mostly 0, with self-loops and
    several terminating transitions per state."""
    states = tuple(f"s{i}" for i in range(rng.randint(2, 5)))
    trans = {}
    for x in states:
        entries = {
            (TARGET if rng.random() < 0.3 else rng.choice(states), rng.choice("ab"), rng.choice((0, 0, 1, 3)))
            for _ in range(rng.randint(1, 4))
        }
        trans[x] = tuple(sorted(entries))
    return WeightedTs(states, ("a", "b"), trans, states[0])


def _tropical_golden_products():
    rng = random.Random(81)
    for i in range(120):
        wts = _zero_weight_wts(rng)
        if i % 2:
            yield product_wts_wmm(wts, random_wmm(rng, ("a", "b"), 3), restrict=i % 3 == 0)
        else:
            yield product_wts_nfa(wts, random_nfa(rng, ("a", "b"), 3), restrict=i % 3 == 0)


def _zero_weight_cycle(prod) -> bool:
    zero = {s: [t for t, w in prod.trans[s] if w == 0 and t not in prod.SINKS] for s in pair_states(prod)}
    for s in zero:
        seen, todo = set(), list(zero[s])
        while todo:
            t = todo.pop()
            if t == s:
                return True
            if t not in seen:
                seen.add(t)
                todo.extend(zero[t])
    return False


def _reaching_goal(prod) -> set:
    reach = {prod.GOAL}
    grew = True
    while grew:
        grew = False
        for s in pair_states(prod):
            if s not in reach and any(t in reach for t, _ in prod.trans[s]):
                reach.add(s)
                grew = True
    return reach


#: sha256 of the JSON value vectors of ``_tropical_golden_products``, as the
#: min-plus iteration computed them before the Dijkstra solver replaced it.
TROPICAL_GOLDEN = "d107f7f08ae028c2bfd447480242175b2e5c322ee3a2d4809cb2614bf763727b"


def test_tropical_values_match_golden_digest():
    digest = hashlib.sha256()
    shapes = {"zero-cycle": 0, "parallel-goal": 0, "self-loop": 0, "reject-only": 0}
    for prod in _tropical_golden_products():
        rep = solve_tropical(prod)
        reach = _reaching_goal(prod)
        for s, v in rep.values.items():
            assert type(v) is int if s in reach else v == INF, (s, v)
            row = prod.trans[s]
            shapes["parallel-goal"] += len({w for t, w in row if t == ACCEPT}) > 1
            shapes["self-loop"] += any(t == s for t, _ in row)
            shapes["reject-only"] += s not in reach and any(t == REJECT for t, _ in row)
        shapes["zero-cycle"] += _zero_weight_cycle(prod)
        digest.update(json.dumps(rep.to_json()["values"]).encode())
    assert all(shapes.values()), shapes
    assert digest.hexdigest() == TROPICAL_GOLDEN


def _iterate_golden_products(name: str):
    """The bundled pairs and programs, or 10 seeded random instances of a
    pairing (the only reward chains and Mealy machines), each built with
    the reachability restriction on and off."""
    if name in PAIRING_TABLE:
        build = PAIRING_TABLE[name].build
        for i in range(10):
            system, requirement = random_instance(name, random.Random(f"iterate:{name}:{i}"))
            for restrict in (True, False):
                yield build(system, requirement, restrict=restrict)
        return
    robot, safe = load_model("robot-mc.json"), load_model("safe-recharge-dfa.json")
    pairing, system, requirement = {
        "robot*safe": ("mc-dfa", robot, safe),
        "robot*reach": ("mc-dfa", robot, load_model("reach-recharge-dfa.json")),
        "travel-wts*nfa": ("wts-nfa", load_model("travel-wts.json"), load_model("train-arrival-nfa.json")),
        "patrol*safe": ("ntmc-dfa", _compiled("patrol.qtp", "reactive"), safe),
        "gridworld*safe": ("mc-dfa", _compiled("gridworld.qtp", "terminating"), safe),
    }[name]
    for restrict in (True, False):
        yield PAIRING_TABLE[pairing].build(system, requirement, restrict=restrict)


def _compiled(program: str, mode: str):
    return compile_probabilistic(parse_program(fixture_text(program)), mode).model


#: sha256 of the JSON reports of ``solve_product(m, "iterate", steps=6)``
#: over ``_iterate_golden_products``, as each domain's own transformer
#: computed them before all three shared one row form.
ITERATE_GOLDEN = {
    "robot*safe": "892fb3dc83d5eede2f11397d0b0a50cf8156bc4a19a75770765b4a6b71cde216",
    "robot*reach": "c4d785cf43ba384f230c21530e73ecdb516929fac9938b64b73f449212b78124",
    "travel-wts*nfa": "032e4617415116212629bd082f55f6eaf1ebb08c2704b83a67304ebab1af9ebf",
    "patrol*safe": "1c7e30e273003177c12e5423f9db89aee85c63bc71361bf5d262be9df90d3205",
    "gridworld*safe": "f2a686db67a4aa935e0f2591dc95db133c438e5e93685e31659177a72516367b",
    "mc-dfa": "53c152b69bde8872b5c9cf71ab042990a92017b2e2be2d918892d9b6cde0659a",
    "mrm-dfa": "52fcab8738e9737473dd40772a5a5735240b943c390416b07ed49f9683c2aed5",
    "mc-costdfa": "c9609d294fce4fd48387aee640c4aeb6de92566633cbcb4c98cb033ac9a0dd8e",
    "ntmc-dfa": "c0990eef354bfaa0b02f054dece9bfced34d3b69ffaf24a6cf068dc033cecf1b",
    "wts-nfa": "6bd3a3b201c0b9b1ffc3ea29b56ce8aacd647f4d9d3c2d559bf42252dca8b304",
    "wts-wmm": "2602ec1e20361796ce33b14e3a35ba1387078d8636862a5b717971a48a56784a",
}


@pytest.mark.parametrize("name", ITERATE_GOLDEN)
def test_iterate_values_match_golden_digests(name):
    digest = hashlib.sha256()
    moved = False  # some iterate leaves the bottom vector
    for prod in _iterate_golden_products(name):
        rep = solve_product(prod, "iterate", steps=6)
        moved |= rep.values != bottom_vector(pair_states(prod), prod.DOMAIN)
        digest.update(json.dumps(rep.to_json()).encode())
    assert moved
    assert digest.hexdigest() == ITERATE_GOLDEN[name]


@pytest.mark.parametrize("epsilon", [F(0), F(-1)])
def test_nonpositive_epsilon_is_rejected(robot, monitor, epsilon):
    # the stopping rule "change < epsilon" could never fire
    prod = product_mc_dfa(robot, monitor)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        solve_reach_prob(prod, "epsilon", epsilon=epsilon)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        solve_product(prod, "epsilon", epsilon=epsilon)


def test_solve_product_dispatch(robot, monitor):
    prod = product_mc_dfa(robot, monitor)
    assert solve_product(prod).value_at(prod.initial) == F(4, 25)
    with pytest.raises(TypeError):
        solve_product(robot)


@pytest.mark.parametrize(
    "solve, pairing, held",
    [
        (solve_tropical, "mc-dfa", PROB),
        (solve_reach_prob, "wts-nfa", TROPICAL),
        (solve_partial_expected_reward, "mc-dfa", PROB),
    ],
    ids=["tropical-on-mc", "reach-on-wts", "reward-on-mc"],
)
def test_typed_entry_points_reject_other_domains(solve, pairing, held):
    # each typed entry point solves its own value domain only; a product of
    # another one is named in a TypeError before any solve starts
    fixtures = {
        "mc-dfa": ("robot-mc.json", "safe-recharge-dfa.json"),
        "wts-nfa": ("travel-wts.json", "train-arrival-nfa.json"),
    }
    product = PAIRING_TABLE[pairing].build(*map(load_model, fixtures[pairing]))
    with pytest.raises(TypeError, match=f"^{type(product).__name__} holds {held} values, not "):
        solve(product)


def _random_comparable_vectors(rng, states, domain):
    if domain == PROB:
        lo = {s: F(rng.randint(0, 8), 16) for s in states}
        hi = {s: lo[s] + F(rng.randint(0, 8), 16) for s in states}
    elif domain == TROPICAL:
        # reversed order: lo must be numerically at least hi
        hi = {s: rng.choice([INF, rng.randint(0, 9)]) for s in states}
        lo = {
            s: INF if hi[s] == INF or rng.random() < 0.3 else hi[s] + rng.randint(0, 4)
            for s in states
        }
    else:
        lo = {s: (F(rng.randint(0, 8), 16), F(rng.randint(0, 5))) for s in states}
        hi = {s: (lo[s][0] + F(rng.randint(0, 8), 16), lo[s][1] + rng.randint(0, 3)) for s in states}
    return lo, hi


def _random_product(rng):
    kind = rng.choice(("mc", "mrm", "ntmc", "wts-nfa", "wts-wmm"))
    if kind == "mc":
        return product_mc_dfa(random_mc(rng), random_dfa(rng), restrict=False)
    if kind == "mrm":
        return product_mrm_dfa(random_mrm(rng), random_dfa(rng), restrict=False)
    if kind == "ntmc":
        return product_ntmc_dfa(random_ntmc(rng), random_dfa(rng), restrict=False)
    if kind == "wts-nfa":
        return product_wts_nfa(random_wts(rng), random_nfa(rng), restrict=False)
    from qtrace.lawcheck import random_wmm

    return product_wts_wmm(random_wts(rng), random_wmm(rng), restrict=False)


@pytest.mark.parametrize("pairing", PAIRINGS)
def test_integer_iterates_match_the_fraction_reference(pairing):
    # every level k <= 10 of the integer iterates, read over D**k, is the
    # k-th iterate of the Fraction update
    for i in range(50):
        system, requirement = random_instance(pairing, random.Random(f"iterates:{pairing}:{i}"))
        prod = PAIRING_TABLE[pairing].build(system, requirement, restrict=False)
        den, levels = solvers.integer_iterates(prod)
        if prod.DOMAIN == TROPICAL:
            assert den == 1
        for k, (level, reference) in enumerate(zip(levels, fraction_iterates(prod, 10))):
            assert {s: _value_over(prod.DOMAIN, n, den**k) for s, n in level.items()} == reference, (i, k)
        assert k == 10


def test_transformers_are_monotone():
    # every shipped one-step update preserves the domain order pointwise
    rng = random.Random(77)
    for _ in range(30):
        prod = _random_product(rng)
        domain = prod.DOMAIN
        phi = product_transformer(prod)
        states = pair_states(prod)
        lo, hi = _random_comparable_vectors(rng, states, domain)
        assert all(leq(domain, lo[s], hi[s]) for s in states)
        flo, fhi = phi(lo), phi(hi)
        assert all(leq(domain, flo[s], fhi[s]) for s in states)


def test_iterates_are_an_ascending_chain():
    rng = random.Random(78)
    for _ in range(20):
        prod = _random_product(rng)
        domain = prod.DOMAIN
        phi = product_transformer(prod)
        current = bottom_vector(list(prod.trans), domain)
        for _ in range(8):
            nxt = phi(current)
            assert all(leq(domain, current[s], nxt[s]) for s in current)
            current = nxt


def test_wrong_linear_solution_raises_solver_error(monkeypatch, capsys):
    # the fixed-point check is an exception, not an assert, so python -O keeps it
    from qtrace import solvers
    from qtrace.bundled import fixture_path
    from qtrace.cli import main

    def wrong(rows, rewards=False):
        return {row[0]: F(1, 3) for row in rows}

    monkeypatch.setattr(solvers, "_solve_linear", wrong)
    robot = load_model("robot-mc.json")
    monitor = load_model("safe-recharge-dfa.json")
    with pytest.raises(SolverError, match="update equation"):
        solve_reach_prob(product_mc_dfa(robot, monitor))
    argv = ["infer", fixture_path("robot-mc.json"), fixture_path("safe-recharge-dfa.json"),
            "--pairing", "mc-dfa"]
    assert main(argv) == 1
    assert "error: exact solution does not satisfy" in capsys.readouterr().err


def test_wrong_least_costs_raise_solver_error(monkeypatch):
    # a Dijkstra pass that lowers costs but never queues them leaves r at
    # infinity although it reaches the goal through p
    import heapq

    monkeypatch.setattr(heapq, "heappush", lambda heap, item: None)
    prod = ProductWts(
        states=("r", "p", "q", ACCEPT, REJECT),
        trans={"r": (("p", 1),), "p": (("q", 1),), "q": ((ACCEPT, 2),)},
        initial="r",
    )
    with pytest.raises(SolverError, match="least costs do not satisfy the update equation"):
        solve_tropical(prod)


@pytest.mark.parametrize(
    "trans, wrong, least",
    [
        ({"q": (("q", 0),)}, {"q": 0}, {"q": INF}),
        ({"p": ((ACCEPT, 5), ("p", 0))}, {"p": 3}, {"p": 5}),
        ({"p": (("q", 0), (REJECT, 0)), "q": (("p", 0), (ACCEPT, 2))}, {"p": 1, "q": 1}, {"p": 2, "q": 2}),
    ],
    ids=["zero-loop", "loop-below-goal", "zero-cycle"],
)
def test_least_cost_check_rejects_other_fixed_points(trans, wrong, least):
    # each wrong vector satisfies the update equation; only the tight-path
    # condition tells it from the least costs
    prod = ProductWts(states=(*trans, ACCEPT, REJECT), trans=trans, initial=next(iter(trans)))
    phi = product_transformer(prod)
    assert phi(wrong) == wrong and phi(least) == least
    with pytest.raises(SolverError, match="least costs are not attained by a path to the goal"):
        solvers._check_least_costs(prod, wrong)
    solvers._check_least_costs(prod, least)
    assert solve_tropical(prod).values == least


def _patrol_product():
    """The shipped patrol program, reactive, paired ntmc-dfa: cyclic."""
    chain = compile_probabilistic(parse_program(fixture_text("patrol.qtp")), "reactive").model
    return product_ntmc_dfa(chain, load_model("safe-recharge-dfa.json"))


def _gridworld_reward_product():
    """The shipped gridworld program with a reward per state, paired mrm-dfa."""
    c = compile_probabilistic(parse_program(fixture_text("gridworld.qtp")), "terminating").model
    reward = {x: 1 + i % 3 for i, x in enumerate(c.states)}
    mrm = MarkovRewardModel(c.states, c.alphabet, c.label, reward, c.trans, c.initial)
    return product_mrm_dfa(mrm, load_model("reach-recharge-dfa.json"))


@pytest.mark.parametrize(
    "build, wrong_vector",
    [(_patrol_product, 0), (_gridworld_reward_product, 0), (_gridworld_reward_product, 1)],
    ids=["ntmc-dfa", "mrm-dfa-probability", "mrm-dfa-reward"],
)
def test_one_wrong_value_fails_the_certificate(build, wrong_vector, monkeypatch):
    # one state on a cycle is off; a reward product's one _solve_linear
    # call returns the probabilities and the rewards, and either is wrong
    prod = build()
    solve_product(prod)
    changed = []
    solve_linear = solvers._solve_linear

    def one_value_off(system, rewards=False):
        got = solve_linear(system, rewards)
        values = got[wrong_vector] if rewards else got
        unknowns = [row[0] for row in system]
        index = {s: i for i, s in enumerate(unknowns)}
        rows = [[index[t] for t, _ in row[4] if t in index] for row in system]
        on_cycle = [i for c in solvers._components(rows) for i in c if len(c) > 1 or i in rows[i]]
        values[unknowns[on_cycle[0]]] += F(1, 10**6)
        changed.append(rewards)
        return got

    monkeypatch.setattr(solvers, "_solve_linear", one_value_off)
    with pytest.raises(SolverError, match="exact solution does not satisfy the update equation"):
        solve_product(prod)
    assert changed == [prod.DOMAIN == PROB_REWARD]


def test_a_zero_mass_entry_is_not_a_path_to_the_goal():
    # a's only positive mass is its self-loop, so no goal mass is reachable
    # from it and it is pinned to 0; following the zero entry to b would
    # leave it in the system as a = 1 * a, which is singular
    trans = {"a": {"a": F(1), "b": F(0)}, "b": {ACCEPT: F(1)}}
    prod = ProductMc(states=(*trans, ACCEPT, REJECT), trans=trans, initial="a")
    assert validate_product(prod) == ["probability Fraction(0, 1) at product state 'a' not in (0, 1]"]
    assert solve_reach_prob(prod).values == {"a": 0, "b": 1}


@pytest.mark.parametrize(
    "rewards, wrong_vector",
    [(False, 0), (True, 0), (True, 1)],
    ids=["mc-dfa", "mrm-dfa-probability", "mrm-dfa-reward"],
)
def test_a_fixed_point_above_the_least_fails_the_certificate(rewards, wrong_vector, monkeypatch):
    # a <-> b is a cycle with no goal mass: 1 on it is a fixed point of the
    # update, so only the certificate's own leastness check tells it from
    # the least one, which is 0 there
    trans = {"a": {"b": F(1)}, "b": {"a": F(1)}, "g": {ACCEPT: F(1, 2), REJECT: F(1, 2)}}
    states = (*trans, ACCEPT, REJECT)
    if rewards:
        prod = ProductRewardMc(states=states, trans=trans, stepreward={"a": 0, "b": 0, "g": 3}, initial="a")
    else:
        prod = ProductMc(states=states, trans=trans, initial="a")
    least = solve_product(prod).values
    solve_linear = solvers._solve_linear

    def above(rows, rewards=False):
        got = solve_linear(rows, rewards)
        (got if rewards else (got,))[wrong_vector].update(a=F(1), b=F(1))
        return got

    monkeypatch.setattr(solvers, "_solve_linear", above)
    with pytest.raises(SolverError, match="exact solution is not zero where no goal mass is reachable"):
        solve_product(prod)
    assert least["a"] == least["b"] == ((0, 0) if rewards else 0)


@pytest.mark.parametrize("change", ["missing", "extra"])
def test_a_vector_over_other_states_fails_the_certificate(change, monkeypatch):
    # the certificates raise SolverError here, never KeyError: the linear
    # solve misses a live unknown, or adds a state the product does not
    # have, in every vector it returns
    solve_linear = solvers._solve_linear

    def changed(rows, rewards=False):
        got = solve_linear(rows, rewards)
        for values in got if rewards else (got,):
            if change == "missing":
                del values[rows[-1][0]]
            else:
                values["x|y"] = values[rows[0][0]]
        return got

    monkeypatch.setattr(solvers, "_solve_linear", changed)
    for prod in (_patrol_product(), _gridworld_reward_product()):
        with pytest.raises(SolverError, match="exact solution does not satisfy the update equation"):
            solve_product(prod)
    prod = product_wts_nfa(load_model("travel-wts.json"), load_model("train-arrival-nfa.json"))
    values = dict(solve_product(prod).values)
    if change == "missing":
        del values[next(s for s in pair_states(prod) if s != prod.initial)]
    else:
        values["x|y"] = values[prod.initial]
    with pytest.raises(SolverError, match="least costs do not satisfy the update equation"):
        solvers._check_least_costs(prod, values)


@pytest.mark.parametrize("mode", ["exact", "iterate"])
def test_a_row_that_names_no_state_is_a_model_error(mode):
    # a hand-built product whose row names a state it does not have, or
    # whose pair state has no row: ModelError with validate_product's
    # message, in both domains, never a KeyError
    half = {ACCEPT: F(1, 2)}
    products = [
        ProductMc(states=("a", ACCEPT, REJECT), trans={"a": {"zzz": F(1, 2), **half}}, initial="a"),
        ProductMc(states=("a", "b", ACCEPT, REJECT), trans={"a": {"b": F(1, 2), **half}}, initial="a"),
        ProductRewardMc(states=("a", ACCEPT, REJECT), trans={"a": {"zzz": F(1, 2), **half}},
                        stepreward={"a": 1}, initial="a"),
        ProductRewardMc(states=("a", "b", ACCEPT, REJECT), trans={"a": {"b": F(1, 2), **half}},
                        stepreward={"a": 1, "b": 2}, initial="a"),
        ProductWts(states=("a", ACCEPT, REJECT), trans={"a": (("zzz", 1), (ACCEPT, 2))}, initial="a"),
        ProductWts(states=("a", "b", ACCEPT, REJECT), trans={"a": (("b", 1), (ACCEPT, 2))}, initial="a"),
    ]
    for prod in products:
        (fault,) = validate_product(prod)
        with pytest.raises(ModelError) as err:
            solve_product(prod, mode, steps=3)
        assert str(err.value) == fault


@pytest.mark.parametrize("mode", ["exact", "iterate"])
@pytest.mark.parametrize("reward", [None, F(1, 2), -1], ids=["missing", "half", "negative"])
def test_a_step_reward_that_is_not_natural_is_a_model_error(mode, reward):
    # a missing step reward used to raise KeyError, and a fractional or
    # negative one was solved and answered as (1, 1/2) or (1, -1)
    stepreward = {} if reward is None else {"a": reward}
    prod = ProductRewardMc(states=("a", ACCEPT, REJECT), trans={"a": {ACCEPT: F(1)}},
                           stepreward=stepreward, initial="a")
    assert validate_product(prod) == ["step reward at 'a' is not a natural number"]
    with pytest.raises(ModelError) as err:
        solve_product(prod, mode, steps=3)
    assert str(err.value) == "step reward at 'a' is not a natural number"


@pytest.mark.parametrize("mode", ["exact", "iterate"])
@pytest.mark.parametrize("weight", [F(1, 2), 1.5, -1, None], ids=["half", "float", "negative", "none"])
def test_a_weight_that_is_not_natural_is_a_model_error(mode, weight):
    # a weight of 1/2 or 1.5 was answered as the cost itself in both
    # modes, -1 was a SolverError in exact mode but answered -1 in
    # iterate mode, and None was a TypeError
    prod = ProductWts(states=("a", ACCEPT, REJECT), trans={"a": ((ACCEPT, weight),)}, initial="a")
    fault = f"weight {weight!r} at product state 'a' is not natural"
    assert validate_product(prod) == [fault]
    with pytest.raises(ModelError) as err:
        solve_tropical(prod, mode, steps=3)
    assert str(err.value) == fault
