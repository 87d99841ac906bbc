import hashlib
import random
from fractions import Fraction

import pytest

from qtrace.bundled import fixture_text, load_model
from qtrace.lawcheck import MUTATIONS, random_dfa, random_instance, random_mc, random_wmm, random_wts
from qtrace.modeljson import emit_model
from qtrace.models import (
    ABSORB,
    ACCEPT,
    Dfa,
    LabeledMc,
    MarkovRewardModel,
    ModelError,
    Nfa,
    NonTerminatingMc,
    REJECT,
    WeightedMealy,
    WeightedTs,
    joined,
    validate,
)
from qtrace.programs import compile_probabilistic, parse_program
from qtrace.products import (
    PAIRING_TABLE,
    pair_states,
    product_mc_dfa,
    product_mrm_dfa,
    product_ntmc_dfa,
    product_wts_nfa,
    product_wts_wmm,
)

F = Fraction


@pytest.fixture(scope="module")
def robot():
    return load_model("robot-mc.json")


@pytest.fixture(scope="module")
def monitor():
    return load_model("safe-recharge-dfa.json")


def test_product_fragment_edges(robot, monitor):
    prod = product_mc_dfa(robot, monitor)
    assert prod.trans["x0|y0"]["x1|y0"] == F(4, 5)
    assert prod.trans["x1|y0"]["x3|y2"] == F(1)
    assert prod.trans["x3|y2"][REJECT] == F(1)
    assert prod.trans["x3|y0"][ACCEPT] == F(1)


def test_product_rows_sum_to_one(robot, monitor):
    for restrict in (True, False):
        prod = product_mc_dfa(robot, monitor, restrict=restrict)
        assert validate(prod) == []
        for s in pair_states(prod):
            assert sum(prod.trans[s].values()) == 1


def test_all_rejecting_requirement(robot):
    dead = Dfa(
        states=("z",),
        alphabet=robot.alphabet,
        delta={"z": {a: ("z", False) for a in robot.alphabet}},
        initial="z",
    )
    prod = product_mc_dfa(robot, dead, restrict=False)
    for s in pair_states(prod):
        assert ACCEPT not in prod.trans[s]


def _instance(pairing: str, i: int = 0):
    return random_instance(pairing, random.Random(f"products:{pairing}:{i}"))


@pytest.mark.parametrize("pairing", PAIRING_TABLE)
def test_alphabet_mismatch_rejected(pairing):
    system, requirement = _instance(pairing)
    other = type(requirement)(**{**vars(requirement), "alphabet": requirement.alphabet + ("extra",)})
    with pytest.raises(ModelError, match="alphabet mismatch"):
        PAIRING_TABLE[pairing].build(system, other)


def _reachable(product) -> set[str]:
    seen, queue = {product.initial}, [product.initial]
    while queue:
        row = product.trans[queue.pop()]
        for t in dict(row):
            if t not in product.SINKS and t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


@pytest.mark.parametrize("pairing", PAIRING_TABLE)
def test_restriction_only_drops_unreachable(pairing):
    build = PAIRING_TABLE[pairing].build
    for i in range(10):
        system, requirement = _instance(pairing, i)
        full = build(system, requirement, restrict=False)
        small = build(system, requirement, restrict=True)
        assert small.initial == full.initial
        assert set(pair_states(small)) == _reachable(full)
        assert small.states[-len(small.SINKS):] == small.SINKS
        for s in pair_states(small):
            assert small.trans[s] == full.trans[s]


def test_reward_product_carries_step_rewards(robot, monitor):
    mrm = MarkovRewardModel(
        robot.states,
        robot.alphabet,
        robot.label,
        {x: i for i, x in enumerate(robot.states)},
        robot.trans,
        robot.initial,
    )
    prod = product_mrm_dfa(mrm, monitor, restrict=False)
    assert validate(prod) == []
    for x in robot.states:
        for y in monitor.states:
            assert prod.stepreward[joined(x, y)] == mrm.reward[x]
    plain = product_mc_dfa(robot, monitor, restrict=False)
    assert prod.trans == plain.trans


def test_absorbing_product_acceptance_is_total(monitor):
    c = NonTerminatingMc(
        states=("s",),
        alphabet=monitor.alphabet,
        label={"s": "recharge"},
        trans={"s": {"s": F(1)}},
        initial="s",
    )
    prod = product_ntmc_dfa(c, monitor, restrict=False)
    assert validate(prod) == []
    # an accepting step absorbs the whole unit mass, whatever the row was
    assert prod.trans["s|y0"] == {ABSORB: F(1)}
    # a non-accepting step carries the distribution and advances the monitor
    assert prod.trans["s|y2"] == {joined("s", "y3"): F(1)}


def test_wts_nfa_product_single_transition():
    wts = WeightedTs(("x",), ("P", "B", "T"), {"x": (("*", "T", 3),)}, "x")
    nfa = load_model("train-arrival-nfa.json")
    prod = product_wts_nfa(wts, nfa, restrict=False)
    assert set(prod.trans["x|y0"]) == {(ACCEPT, 3), (REJECT, 3)}
    assert prod.trans["x|y1"] == ()


def test_wts_product_cross_cardinality():
    wts = WeightedTs(
        ("x", "z"), ("a",), {"x": (("z", "a", 1), ("*", "a", 2)), "z": ()}, "x"
    )
    nfa = Nfa(
        ("y",),
        ("a",),
        {"y": {"a": (("y", False), ("y", True))}},
        "y",
    )
    prod = product_wts_nfa(wts, nfa, restrict=False)
    # 2 system transitions x 2 requirement edges, deduplicated as a set
    assert set(prod.trans["x|y"]) == {
        (joined("z", "y"), 1),
        (ACCEPT, 2),
        (REJECT, 2),
    }


def test_zero_weight_wmm_collapses_to_nfa_product():
    rng = random.Random(12)
    for _ in range(6):
        wts = random_wts(rng, max_states=4)
        wmm = random_wmm(rng, max_states=3)
        zero = WeightedMealy(
            wmm.states,
            wmm.alphabet,
            {
                y: {a: tuple((t, f, 0) for t, f, _ in row) for a, row in table.items()}
                for y, table in wmm.delta.items()
            },
            wmm.initial,
        )
        flags = Nfa(
            wmm.states,
            wmm.alphabet,
            {
                y: {a: tuple((t, f) for t, f, _ in row) for a, row in table.items()}
                for y, table in wmm.delta.items()
            },
            wmm.initial,
        )
        via_wmm = product_wts_wmm(wts, zero, restrict=False)
        via_nfa = product_wts_nfa(wts, flags, restrict=False)
        assert via_wmm == via_nfa


def _rename_mc(mc: LabeledMc, tag: str) -> LabeledMc:
    r = lambda s: f"{tag}{s}"
    return LabeledMc(
        states=tuple(r(s) for s in mc.states),
        alphabet=mc.alphabet,
        label={r(s): a for s, a in mc.label.items()},
        trans={
            r(s): {(succ if succ == "*" else r(succ)): p for succ, p in row.items()}
            for s, row in mc.trans.items()
        },
        initial=r(mc.initial),
    )


def _rename_dfa(d: Dfa, tag: str) -> Dfa:
    r = lambda s: f"{tag}{s}"
    return Dfa(
        states=tuple(r(s) for s in d.states),
        alphabet=d.alphabet,
        delta={r(y): {a: (r(t), f) for a, (t, f) in row.items()} for y, row in d.delta.items()},
        initial=r(d.initial),
    )


def test_renaming_commutes_with_construction():
    # construct-then-rename equals rename-then-construct
    rng = random.Random(31)
    for _ in range(5):
        mc = random_mc(rng, max_states=4)
        d = random_dfa(rng, max_states=3)
        before = product_mc_dfa(_rename_mc(mc, "L_"), _rename_dfa(d, "R_"), restrict=False)
        after = product_mc_dfa(mc, d, restrict=False)
        mapping = {
            joined(x, y): joined(f"L_{x}", f"R_{y}") for x in mc.states for y in d.states
        }
        mapping.update({ACCEPT: ACCEPT, REJECT: REJECT})
        renamed_trans = {
            mapping[s]: {mapping[t]: p for t, p in row.items()}
            for s, row in after.trans.items()
        }
        assert renamed_trans == before.trans
        assert mapping[after.initial] == before.initial


@pytest.mark.parametrize("pairing", PAIRING_TABLE)
def test_join_collision_detected(pairing):
    # joined("a", "b|c") == joined("a|b", "c"); the check runs before any row is read
    system, requirement = _instance(pairing)
    system = type(system)(**{**vars(system), "states": ("a", "a|b"), "initial": "a"})
    requirement = type(requirement)(**{**vars(requirement), "states": ("b|c", "c"), "initial": "c"})
    with pytest.raises(ModelError, match="collide"):
        PAIRING_TABLE[pairing].build(system, requirement)


#: sha256 of the concatenated ``emit_model`` output of each set of products.
#: Exact results must stay bit-identical, so any change to a product's
#: states, their order, its rows or its sinks fails here.
GOLDEN = {
    "mc-dfa/True": "287fe39a87ca8adb8a58c3ad9b428ad3c3663aab4469b869ceed56dd3675dff7",
    "mc-dfa/False": "5a8fc2f6cc883dcbcb26feb8cd930108ff9adcb8122772ef3ffeec4765b9f3da",
    "mrm-dfa/True": "d28d7cac7aa8eb094f7b32e746504ce1c05fbaac195c74bb3eaaf425fc70d8ba",
    "mrm-dfa/False": "d7ef5c75cae1a87b4151774b0266dd7070869922f63ef42f3ea4c238259b94d1",
    "mc-costdfa/True": "b5275aee1e076004129b582ae6e01bc482380b8aab92ebfe5422128a82c17a6f",
    "mc-costdfa/False": "2dea1e9dc5dc735cd58ac193bb8b13ff43896ed4a8fc5c2c1f8689c6b75937de",
    "ntmc-dfa/True": "33ee060d46c77df199a719633c97c7d72f8d6cdd85896e11e39f6f2c695416d0",
    "ntmc-dfa/False": "1ce45b1a3148eb25646d802829b33a99e96d26fbb3d70fbfdbc8ab6e9669de66",
    "wts-nfa/True": "fe2ebc94752fceb6ee47fdfdea2b1ee5dd225f4ab7a9b1aef26a013b2fa314f0",
    "wts-nfa/False": "2718dfc27e7895f67d44df80442f5234275a5410dafe205c9eeb01a1a3bb3037",
    "wts-wmm/True": "b5221bb4108727bfddab44d959296cdbfd63254971f92fcb28e577dc9ca76ac5",
    "wts-wmm/False": "aecf28d48e78e4316a7c2a5ac163db0fa03d39a76b4a58f29386468851713036",
    "robot*safe": "bcb09eac71efaea7a5203155efe9a2d6e17931106d6165c40e5f9672e9238115",
    "robot*reach": "6840d1f846b9e88c92abf312787bcba890b6f1693d789248118715b4f82abd05",
    "gridworld*safe": "23c3428421ae175b1c31978db2e33a2110c4e76c6d6a2a74d1c8f8c0451806fc",
    "patrol*safe": "b3576be60157d1bccfa8d7c2d6d3487cec28e8a20c429e0872a5fe50999de154",
    "travel-wts*nfa": "a0a93c605566bc8d466b2ed0801ade4b8ce9ebffd1b5c96f6a7032a4469416ce",
    "mutated[flag-swapped]": "2a70d5869710cdffbde61f131eccc7bfbe6a1c55c71d5bcebf657f088a468ab5",
    "mutated[halt-mass-dropped]": "c3601d3ed0f2c245ae98e28e808683675c643e0b1a03af499f155835ae35de2b",
    "mutated[pair-broadcast]": "c7db56ea429505beda4a9466fe2d3590c0b85c3bae03176c8536a3889e300df1",
    "mutated[requirement-frozen]": "eb00b6836419414b62faa65169e94c8fb630b1ffa7690051679965c84264ec7d",
    "mutated[symbol-ignored]": "669a16e64995c2f1e7f9a222aa1b0fdbe956110118ea46e0d08ae3720580b19f",
}


def _golden_products(name: str):
    if "/" in name:  # 25 seeded random instances, restrict on or off
        pairing, restrict = name.split("/")
        build = PAIRING_TABLE[pairing].build
        for i in range(25):
            system, requirement = random_instance(pairing, random.Random(f"golden:{pairing}:{i}"))
            yield build(system, requirement, restrict=restrict == "True")
        return
    robot, safe = load_model("robot-mc.json"), load_model("safe-recharge-dfa.json")
    if name.startswith("mutated["):
        pairing, system, requirement = "mc-dfa", robot, safe
        build = MUTATIONS[name[len("mutated["):-1]]
    else:
        pairing, system, requirement = {
            "robot*safe": ("mc-dfa", robot, safe),
            "robot*reach": ("mc-dfa", robot, load_model("reach-recharge-dfa.json")),
            "gridworld*safe": ("mc-dfa", _compiled("gridworld.qtp", "terminating"), safe),
            "patrol*safe": ("ntmc-dfa", _compiled("patrol.qtp", "reactive"), safe),
            "travel-wts*nfa": (
                "wts-nfa", load_model("travel-wts.json"), load_model("train-arrival-nfa.json")
            ),
        }[name]
        build = PAIRING_TABLE[pairing].build
    for restrict in (True, False):
        yield build(system, requirement, restrict=restrict)


def _compiled(program: str, mode: str):
    return compile_probabilistic(parse_program(fixture_text(program)), mode).model


@pytest.mark.parametrize("name", GOLDEN)
def test_products_match_golden_digests(name):
    digest = hashlib.sha256()
    for product in _golden_products(name):
        digest.update(emit_model(product).encode())
    assert digest.hexdigest() == GOLDEN[name]
