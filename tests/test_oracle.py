import gc
import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fraction_direct
import qtrace.oracle as oracle
from qtrace.bundled import load_model
from qtrace.lawcheck import (
    PAIRINGS,
    check_cost_bounded,
    check_cost_induced,
    check_step_equality,
    random_cost_mc,
    random_dfa,
    random_instance,
    random_mc,
    random_mrm,
    random_nfa,
    random_ntmc,
    random_rm,
    random_wmm,
    random_wts,
)
from qtrace.models import (
    TARGET,
    Dfa,
    LabeledMc,
    MarkovRewardModel,
    ModelError,
    NonTerminatingMc,
    RewardMachine,
    WeightedMealy,
    WeightedTs,
    joined,
    make_cost_bound_dfa,
    product_rm_costdfa,
    validate,
)
from qtrace.products import PAIRING_TABLE, product_mc_dfa
from qtrace.solvers import solve_reach_prob

F = Fraction


@pytest.fixture(scope="module")
def robot():
    return load_model("robot-mc.json")


@pytest.fixture(scope="module")
def monitor():
    return load_model("safe-recharge-dfa.json")


@pytest.fixture(scope="module")
def travel_nfa():
    return load_model("train-arrival-nfa.json")


# ---------------------------------------------------------------------------
# chain semantics

def test_robot_depth3_distribution(robot):
    dist = oracle.chain_semantics(robot, "x0", 3)
    assert dist == {
        ("sand", "lake", "recharge"): F(4, 5),
        ("sand", "sand", "recharge"): F(4, 25),
        ("sand", "sand", "volcano"): F(1, 25),
    }


def test_depth_zero_is_empty(robot):
    assert oracle.chain_semantics(robot, "x0", 0) == {}


def test_one_step_to_target(robot):
    assert oracle.chain_semantics(robot, "x3", 1) == {("recharge",): F(1)}


def test_semantics_monotone_in_depth(robot):
    prev = oracle.chain_semantics(robot, "x0", 1)
    for k in (2, 3, 4, 5):
        cur = oracle.chain_semantics(robot, "x0", k)
        assert all(cur.get(w, 0) >= p for w, p in prev.items())
        prev = cur


def test_mass_conservation():
    # total terminated mass plus surviving-path mass is exactly 1
    rng = random.Random(10)
    for _ in range(10):
        mc = random_mc(rng, max_states=4)
        for k in (1, 3, 6):
            done = sum(oracle.chain_semantics(mc, mc.initial, k).values())
            alive = _surviving_mass(mc, mc.initial, k)
            assert done + alive == 1


def _surviving_mass(mc, state, depth):
    current = {state: F(1)}
    for _ in range(depth):
        nxt = {}
        for x, p in current.items():
            for succ, q in mc.trans[x].items():
                if succ != "*":
                    nxt[succ] = nxt.get(succ, F(0)) + p * q
        current = nxt
    return sum(current.values(), F(0))


# ---------------------------------------------------------------------------
# automata semantics

def test_monitor_language(monitor):
    lang = fraction_direct.dfa_language(monitor, "y0", 3)
    assert ("sand", "sand", "recharge") in lang
    assert ("sand", "lake", "recharge") not in lang
    assert fraction_direct.dfa_language(monitor, "y0", 0) == set()


def test_nfa_language_depth2(travel_nfa):
    assert fraction_direct.nfa_language(travel_nfa, "y0", 2) == {
        ("T",),
        ("P", "T"),
        ("B", "T"),
        ("T", "T"),
    }


def test_language_views_agree_with_materialized(monitor, travel_nfa):
    view = fraction_direct.DfaLanguage(monitor, "y0", 4)
    lang = fraction_direct.dfa_language(monitor, "y0", 4)
    words = lang | {("sand",), ("volcano", "sand"), ("sand",) * 5}
    for w in words:
        assert (w in view) == (w in lang)
    nview = fraction_direct.NfaLanguage(travel_nfa, "y0", 3)
    nlang = fraction_direct.nfa_language(travel_nfa, "y0", 3)
    for w in nlang | {("P",), ("B", "B"), ("T",) * 4}:
        assert (w in nview) == (w in nlang)


# ---------------------------------------------------------------------------
# reward semantics

def test_zero_rewards_marginalize_to_plain_semantics(robot):
    mrm = MarkovRewardModel(
        robot.states,
        robot.alphabet,
        robot.label,
        {x: 0 for x in robot.states},
        robot.trans,
        robot.initial,
    )
    dist = oracle.chain_semantics(mrm, "x0", 3)
    assert {w: p for (w, m), p in dist.items()} == oracle.chain_semantics(robot, "x0", 3)
    assert all(m == 0 for (_, m) in dist)


def test_single_state_reward():
    mrm = MarkovRewardModel(
        states=("x",),
        alphabet=("a",),
        label={"x": "a"},
        reward={"x": 5},
        trans={"x": {"*": F(1)}},
        initial="x",
    )
    assert oracle.chain_semantics(mrm, "x", 1) == {(("a",), 5): F(1)}


def test_unit_rewards_count_trace_length(robot):
    mrm = MarkovRewardModel(
        robot.states,
        robot.alphabet,
        robot.label,
        {x: 1 for x in robot.states},
        robot.trans,
        robot.initial,
    )
    for (w, m), _ in oracle.chain_semantics(mrm, "x0", 3).items():
        assert m == len(w)


# ---------------------------------------------------------------------------
# weighted semantics

def test_wts_single_step():
    wts = WeightedTs(("x",), ("T",), {"x": (("*", "T", 3),)}, "x")
    assert oracle.wts_semantics(wts, "x", 1) == {(("T",), 3)}


def test_wmm_unrolls_with_weight_sums():
    wmm = WeightedMealy(("y",), ("a",), {"y": {"a": (("y", True, 2),)}}, "y")
    assert fraction_direct.wmm_semantics(wmm, "y", 2) == {(("a",), 2), (("a", "a"), 4)}


def test_rm_semantics_constant_machine():
    rm = RewardMachine(
        ("r",), ("a", "b"), 1, {"r": {"a": ("r", 1), "b": ("r", 1)}}, "r"
    )
    table = fraction_direct.rm_semantics(rm, "r", 2)
    assert table[("a", "b")] == (1, 1)
    assert oracle.rm_weights(rm, "r", ("b", "a", "a")) == (1, 1, 1)


# ---------------------------------------------------------------------------
# marginals and partition

def test_marginal_self_loop():
    c = NonTerminatingMc(("s",), ("a",), {"s": "a"}, {"s": {"s": F(1)}}, "s")
    assert oracle.chain_semantics(c, "s", 3) == {("a", "a", "a"): F(1)}


def test_marginal_alternating():
    c = NonTerminatingMc(
        states=("u", "v"),
        alphabet=("a", "b"),
        label={"u": "a", "v": "b"},
        trans={
            "u": {"u": F(1, 2), "v": F(1, 2)},
            "v": {"u": F(1, 2), "v": F(1, 2)},
        },
        initial="u",
    )
    dist = oracle.chain_semantics(c, "u", 2)
    assert dist == {("a", "a"): F(1, 2), ("a", "b"): F(1, 2)}


def test_marginal_consistency():
    rng = random.Random(4)
    for _ in range(5):
        c = random_ntmc(rng, max_states=4)
        deep = oracle.chain_semantics(c, c.initial, 6)
        for m in (1, 2, 4):
            projected = {}
            for w, p in deep.items():
                projected[w[:m]] = projected.get(w[:m], 0) + p
            assert projected == oracle.chain_semantics(c, c.initial, m)


def test_marginal_sums_to_one():
    rng = random.Random(5)
    c = random_ntmc(rng)
    assert sum(oracle.chain_semantics(c, c.initial, 5).values()) == 1


def test_partition_examples():
    a, ab, b = ("a",), ("a", "b"), ("b",)
    assert fraction_direct.partition({a, ab, b}, 2) == [{a, b}, set()]
    assert fraction_direct.partition({ab}, 2) == [set(), {ab}]
    assert fraction_direct.partition(set(), 3) == [set(), set(), set()]


@given(
    st.sets(
        st.lists(st.sampled_from("ab"), min_size=1, max_size=4).map(tuple),
        max_size=12,
    )
)
def test_partition_is_prefix_free(words):
    layers = fraction_direct.partition(words, 4)
    flat = [w for layer in layers for w in layer]
    assert set(flat) <= words
    for w in flat:
        for j in range(1, len(w)):
            assert w[:j] not in flat


# ---------------------------------------------------------------------------
# queries

def test_query_prob_robot(robot, monitor):
    dist = oracle.chain_semantics(robot, "x0", 3)
    lang = fraction_direct.dfa_language(monitor, "y0", 3)
    assert oracle.query_prob(dist, lang) == F(4, 25)
    assert oracle.query_prob(dist, set()) == 0
    assert oracle.query_prob(dist, set(dist)) == sum(dist.values())


def test_query_cond(robot, monitor):
    # the conditional query of ``qtrace oracle --condition``
    # condition: the trace contains two consecutive sand cells
    cond = Dfa(
        states=("c0", "c1", "c2"),
        alphabet=robot.alphabet,
        delta={
            "c0": {a: (("c1", False) if a == "sand" else ("c0", False)) for a in robot.alphabet},
            "c1": {a: (("c2", True) if a == "sand" else ("c0", False)) for a in robot.alphabet},
            "c2": {a: ("c2", True) for a in robot.alphabet},
        },
        initial="c0",
    )
    nothing = Dfa(("n",), robot.alphabet, {"n": {a: ("n", False) for a in robot.alphabet}}, "n")
    assert oracle.cond_prob(robot, monitor, cond, 4) == F(4, 25) / F(1, 5)
    assert oracle.cond_prob(robot, monitor, monitor, 4) == 1
    assert oracle.cond_prob(robot, nothing, cond, 4) == 0
    assert oracle.cond_prob(robot, monitor, nothing, 4) is None
    assert oracle.cond_prob(robot, monitor, cond, 0) is None


def test_cond_prob_is_the_ratio_of_run_from_start_masses():
    # the Fraction semantics with every word run through both automata
    # from their start, independent of the product and of the lookups
    undefined = 0
    for i in range(60):
        rng = random.Random(f"cond-prob:{i}")
        c, d, condition = random_mc(rng), random_dfa(rng), random_dfa(rng)
        levels = fraction_direct.mc_semantics_levels(c, 6)
        for depth, level in enumerate(levels):
            given = both = F(0)
            for w, p in level[c.initial].items():
                if fraction_direct.dfa_accepts(condition, condition.initial, w):
                    given += p
                    if fraction_direct.dfa_accepts(d, d.initial, w):
                        both += p
            expected = both / given if given else None
            undefined += expected is None
            assert oracle.cond_prob(c, d, condition, depth) == expected, (i, depth)
    assert 60 <= undefined < 60 * 7  # depth 0 is always undefined


def test_cond_prob_refuses_state_names_that_collide_when_joined(robot):
    # ("s|t", "u") and ("s", "t|u") both join to "s|t|u"
    def stay(*states):
        return Dfa(states, robot.alphabet, {y: {a: (y, True) for a in robot.alphabet} for y in states}, states[0])

    with pytest.raises(ModelError, match="collide when joined"):
        oracle.cond_prob(robot, stay("s|t", "s"), stay("u", "t|u"), 4)


def test_query_reward(robot, monitor):
    mrm = MarkovRewardModel(
        robot.states,
        robot.alphabet,
        robot.label,
        {x: 1 for x in robot.states},
        robot.trans,
        robot.initial,
    )
    dist = oracle.chain_semantics(mrm, "x0", 4)
    lang = fraction_direct.DfaLanguage(monitor, "y0", 4)
    assert oracle.query_reward(dist, lang) == (F(4, 25), F(12, 25))
    assert oracle.query_reward(dist, set()) == (0, 0)


def test_query_tropical():
    assert oracle.query_tropical(set(), {("T",)}) == float("inf")
    assert oracle.query_tropical({(("T",), 3), (("B",), 1)}, {("T",)}) == 3


def test_query_wmm():
    assert oracle.query_wmm({(("a",), 2)}, {(("a",), 3)}) == 5
    assert oracle.query_wmm({(("a",), 2)}, {(("b",), 3)}) == float("inf")


def test_wmm_min_weight_matches_materialized_semantics():
    from qtrace.lawcheck import random_wmm, random_wts

    rng = random.Random(1)
    for _ in range(10):
        wmm = random_wmm(rng)
        wts = random_wts(rng)
        for k in (1, 3, 5):
            pairs = oracle.wts_semantics(wts, wts.initial, k)
            full = oracle.query_wmm(pairs, fraction_direct.wmm_semantics(wmm, wmm.initial, k))
            lazy = min(
                (m + fraction_direct.wmm_min_weight(wmm, wmm.initial, w) for w, m in pairs),
                default=float("inf"),
            )
            assert full == lazy


def _cost_value(chain, requirement, x, y):
    product = product_mc_dfa(chain, requirement, restrict=False)
    return solve_reach_prob(product).values[joined(x, y)]


def test_query_cost_bounded():
    # the cost-bounded query, as check_cost_bounded reads it: from x1 the
    # weight words 1 (mass 1/3) and 1·2 (mass 2/3), from x3 the word 3
    c = LabeledMc(
        ("x1", "x2", "x3"), ("1", "2", "3"), {"x1": "1", "x2": "2", "x3": "3"},
        {"x1": {"x2": F(2, 3), TARGET: F(1, 3)}, "x2": {TARGET: F(1)}, "x3": {TARGET: F(1)}},
        "x1",
    )
    for budget, at_x1, at_x3 in ((4, 1, 1), (3, F(1, 3), 0), (1, 0, 0)):
        assert check_cost_bounded(c, budget, kmax=2).passed
        requirement = make_cost_bound_dfa(budget, 3)
        assert _cost_value(c, requirement, "x1", str(budget)) == at_x1
        assert _cost_value(c, requirement, "x3", str(budget)) == at_x3


def test_query_cost_induced():
    # the requirement-induced cost query, as check_cost_induced reads it:
    # from x0 the words a·a (weight 2, mass 2/3) and a·b (weight 3, mass 1/3)
    rm = RewardMachine(
        ("r",), ("a", "b"), 2, {"r": {"a": ("r", 1), "b": ("r", 2)}}, "r"
    )
    c = LabeledMc(
        ("x0", "xa", "xb"), ("a", "b"), {"x0": "a", "xa": "a", "xb": "b"},
        {"x0": {"xa": F(2, 3), "xb": F(1, 3)}, "xa": {TARGET: F(1)}, "xb": {TARGET: F(1)}},
        "x0",
    )
    # transducer weights are at least 1, so budget 1 admits nothing
    for budget, want in ((1, 0), (3, F(2, 3)), (4, 1)):
        assert check_cost_induced(c, rm, budget, kmax=2).passed
        requirement = product_rm_costdfa(rm, make_cost_bound_dfa(budget, rm.bound))
        assert _cost_value(c, requirement, "x0", joined("r", str(budget))) == want


def _safety(c, d, k):
    """The safety query of ``ntmc-dfa`` from the initial states at depth k."""
    return oracle.direct_ntmc_dfa(c, d, k)(c.initial, d.initial, k)


def test_query_safety_examples():
    loop = NonTerminatingMc(("s",), ("a",), {"s": "a"}, {"s": {"s": F(1)}}, "s")
    accept_first = Dfa(("q0", "q1"), ("a",), {"q0": {"a": ("q1", True)}, "q1": {"a": ("q1", True)}}, "q0")
    assert _safety(loop, accept_first, 1) == 1
    nothing = Dfa(("q",), ("a",), {"q": {"a": ("q", False)}}, "q")
    for k in (1, 2, 5):
        assert _safety(loop, nothing, k) == 0


def test_query_safety_matches_partition_route():
    rng = random.Random(42)
    for _ in range(6):
        c = random_ntmc(rng, max_states=4)
        d = random_dfa(rng, max_states=3)
        for k in (1, 3, 5):
            fast = _safety(c, d, k)
            layers = fraction_direct.partition(fraction_direct.dfa_language(d, d.initial, k), k)
            slow = sum(
                (
                    oracle.query_prob(oracle.chain_semantics(c, c.initial, i + 1), layers[i])
                    for i in range(k)
                ),
                F(0),
            )
            assert fast == slow


def test_query_safety_monotone_in_depth():
    rng = random.Random(17)
    c = random_ntmc(rng, max_states=4)
    d = random_dfa(rng, max_states=3)
    values = [_safety(c, d, k) for k in range(1, 7)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_weighted_semantics_monotone_in_depth():
    rng = random.Random(23)
    wts = random_wts(rng)
    prev = oracle.wts_semantics(wts, wts.initial, 1)
    for k in (2, 4, 6):
        cur = oracle.wts_semantics(wts, wts.initial, k)
        assert prev <= cur
        prev = cur


# ---------------------------------------------------------------------------
# golden semantics

#: sha256 of levels 0..6 of every state's semantics, over 25 seeded random
#: machines per kind.  The semantics must stay bit-identical, so any change
#: to a level's values, or to the order of a trace distribution, fails here.
SEMANTICS_GOLDEN = {
    "mc": "8d4081a2b2e2fc0226cd34721a7ead7372e6a71091189441cb33f00bf239a12b",
    "mrm": "4e86fb7f6e1995d677a23d7718634e21087310579e3f82d0691fddf5912ac4a9",
    "ntmc": "dd57abeee807dd77ecc80b0806d5d92ebd93bf07cebffb37814c7def04cb22b7",
    "dfa": "4d363538e2c9990e6aed756409b44b43b26c54fae86c5d3d44fdff387d06bb8b",
    "nfa": "d20fe5afabea4f49fc85e3d25c6881c1d1878295a3083e7cc186985ce919d2f4",
    "wts": "e60668ec54ba65eaa586b9f2cc6c33021ad751c9e4d1680a2512ec267e0fd908",
    "wmm": "1c0d01877517e09d661da8e64bf496d45e8570a69a4ae484a86750a9ca85b21d",
    "rm": "60c924d2b6c7757cb9b8bd0996fce691fe86bd6369d396587cafc7116f734b5e",
}

def _chain_levels(c, depth):
    """Every level of a chain's integer unfold, each numerator over D**k as a ``Fraction``."""
    den, levels = oracle._mass_levels(c, depth)
    return [
        {x: {t: F(q, den**k) for t, q in dist.items()} for x, dist in level.items()}
        for k, level in enumerate(levels)
    ]


SEMANTICS = {
    "mc": (random_mc, _chain_levels),
    "mrm": (random_mrm, _chain_levels),
    "ntmc": (random_ntmc, _chain_levels),
    "dfa": (random_dfa, fraction_direct.dfa_language_levels),
    "nfa": (random_nfa, fraction_direct.nfa_language_levels),
    "wts": (random_wts, oracle.wts_semantics_levels),
    "wmm": (random_wmm, fraction_direct.wmm_semantics_levels),
    "rm": (
        random_rm,
        lambda d, depth: [
            {y: fraction_direct.rm_semantics(d, y, k) for y in d.states} for k in range(depth + 1)
        ],
    ),
}


def semantics_digest(kind: str) -> str:
    make, levels = SEMANTICS[kind]
    digest = hashlib.sha256()
    for i in range(25):
        machine = make(random.Random(f"golden:{kind}:{i}"))
        for k, level in enumerate(levels(machine, 6)):
            for state, value in level.items():
                # dicts keep their insertion order; sets have none, so sort them
                body = sorted(value) if isinstance(value, set) else list(value.items())
                digest.update(f"{i}:{k}:{state}:{body!r}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("kind", SEMANTICS_GOLDEN)
def test_semantics_match_golden_digests(kind):
    assert semantics_digest(kind) == SEMANTICS_GOLDEN[kind]


# ---------------------------------------------------------------------------
# integer direct queries against the ``Fraction`` reference

def _assert_direct_matches_reference(pairing, system, requirement, depth=10):
    name = f"direct_{pairing.replace('-', '_')}"
    fast = getattr(oracle, name)(system, requirement, depth)
    slow = getattr(fraction_direct, name)(system, requirement, depth)
    for k in range(depth + 1):
        for x in system.states:
            for y in requirement.states:
                assert fast(x, y, k) == slow(x, y, k), (x, y, k)


@pytest.mark.parametrize("pairing", ["mc-dfa", "mrm-dfa", "mc-costdfa", "ntmc-dfa", "wts-nfa", "wts-wmm"])
def test_direct_queries_match_the_fraction_reference(pairing):
    direct = "mc-dfa" if pairing == "mc-costdfa" else pairing
    for i in range(50):
        system, requirement = random_instance(pairing, random.Random(f"direct:{pairing}:{i}"))
        _assert_direct_matches_reference(direct, system, requirement)


def test_direct_queries_on_rows_with_different_denominators():
    # row denominators 3, 5 and 16: the common scale is 240, no row's own
    trans = {
        "s0": {"s1": F(1, 3), "s2": F(2, 3)},
        "s1": {"s0": F(2, 5), "s2": F(1, 5), TARGET: F(2, 5)},
        "s2": {"s0": F(5, 16), "s1": F(3, 16), TARGET: F(1, 2)},
    }
    states, alphabet = ("s0", "s1", "s2"), ("a", "b", "c")
    label = {"s0": "a", "s1": "b", "s2": "a"}
    looping = {x: {s: p for s, p in row.items() if s != TARGET} for x, row in trans.items()}
    looping["s1"]["s1"] = F(2, 5)
    looping["s2"]["s2"] = F(1, 2)
    chains = {
        "mc-dfa": LabeledMc(states, alphabet, label, trans, "s0"),
        "mrm-dfa": MarkovRewardModel(states, alphabet, label, {"s0": 1, "s1": 0, "s2": 4}, trans, "s0"),
        "ntmc-dfa": NonTerminatingMc(states, alphabet, label, looping, "s0"),
    }
    rng = random.Random("denominators")
    for pairing, chain in chains.items():
        assert validate(chain) == []
        for _ in range(5):
            _assert_direct_matches_reference(pairing, chain, random_dfa(rng))


def test_direct_queries_leave_no_reference_cycles():
    # a memo that reaches itself would live until a full collection; each
    # check's garbage must be freed by reference counting alone, and so
    # must each lookup, called as ``qtrace oracle`` calls it
    gc.collect()
    gc.disable()
    try:
        for pairing in PAIRINGS:
            for i in range(20):
                system, requirement = random_instance(pairing, random.Random(f"gc:{pairing}:{i}"))
                assert check_step_equality(pairing, system, requirement, 10).passed
                lookup = PAIRING_TABLE[pairing].direct(system, requirement, 10)
                assert isinstance(lookup, oracle.Lookup)
                lookup(system.initial, requirement.initial, 10)
                del lookup
        rng = random.Random("gc:cost")
        for _ in range(5):
            assert check_cost_bounded(random_cost_mc(rng), budget=3, kmax=6).passed
            assert check_cost_induced(random_mc(rng), random_rm(rng), budget=3, kmax=6).passed
        assert gc.collect() == 0
    finally:
        gc.enable()


def _with_every_kind_of_row(d):
    """A copy of a random NFA or weighted Mealy machine, plus a state
    without any row, a move with several accepting edges and a symbol on
    which the start state has no edge."""
    first, second, last = d.states[0], d.states[1], d.states[-1]
    delta = {y: dict(row) for y, row in d.delta.items() if y != last}
    edges = ((first, True), (second, True), (last, False))
    if isinstance(d, WeightedMealy):  # weights 0, 2 and 4
        edges = tuple((*e, 2 * i) for i, e in enumerate(edges))
    delta[first]["a"] = edges
    delta[first].pop("c", None)
    return type(d)(d.states, d.alphabet, delta, d.initial)


def _runs_to_the_end(d, y: str, w) -> bool:
    current = {y}
    for a in w[:-1]:
        current = {e[0] for s in current for e in d.delta.get(s, {}).get(a, ())}
    return bool(current)


@pytest.mark.parametrize("kind", ["nfa", "wmm"])
def test_word_memos_match_running_each_word(kind):
    # ``_Flags`` on an NFA and ``_Weights`` on a weighted Mealy machine,
    # against running every word of length <= 6 from every state: missing
    # rows, runs that die early and moves with several accepting edges
    # included
    words = [w for n in range(1, 7) for w in itertools.product("abc", repeat=n)]
    died = 0
    for i in range(12):
        rng = random.Random(f"memo:{kind}:{i}")
        d = _with_every_kind_of_row(random_nfa(rng) if kind == "nfa" else random_wmm(rng))
        memo = oracle._Flags(d) if kind == "nfa" else oracle._Weights(d)
        for w in words:
            got = memo[w]
            for bit, y in enumerate(d.states):
                if kind == "nfa":
                    assert bool(got >> bit & 1) == fraction_direct.nfa_accepts(d, y, w), (i, y, w)
                else:
                    assert got[bit] == fraction_direct.wmm_min_weight(d, y, w), (i, y, w)
                died += not _runs_to_the_end(d, y, w)
    assert died
    assert len(memo) == len(words)
