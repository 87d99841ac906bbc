"""Frozen records: the value semantics every model, product, program and
report class of the package relies on."""

import hashlib
import random
from fractions import Fraction

import pytest

from qtrace.bundled import fixture_text, load_model
from qtrace.lawcheck import (
    MUTATIONS,
    CheckResult,
    check_diagram,
    check_step_equality,
    random_instance,
    random_rm,
)
from qtrace.models import translate_to_nonterminating
from qtrace.programs import Code, CompileReport, compile_probabilistic, compile_weighted, parse_program
from qtrace.products import PAIRING_TABLE, AbsorbingProductMc, ProductMc
from qtrace.solvers import solve_product

MODELS = ("robot-mc.json", "safe-recharge-dfa.json", "reach-recharge-dfa.json",
          "travel-wts.json", "train-arrival-nfa.json")

#: sha256 of the ``repr`` of every bundled fixture model, program, compile
#: report, product, solve report and check result below, plus seeded
#: instances of the other record classes, taken while the records were
#: generated by ``dataclasses``.
REPR_GOLDEN = "3595c53da814a8316286e34c0920bd3404c9d2fcd4a4ddbd0784e494341cbed2"


def _fixture_records():
    models = {name: load_model(name) for name in MODELS}
    yield from models.values()
    for name, mode in (("gridworld.qtp", "terminating"), ("patrol.qtp", "reactive")):
        program = parse_program(fixture_text(name))
        yield program
        yield compile_probabilistic(program, mode)
        yield compile_probabilistic(program, mode, restrict_reachable=False)
    program = parse_program(fixture_text("travel.qtp"))
    yield program
    yield compile_weighted(program)
    for pairing, system, requirement in (
        ("mc-dfa", "robot-mc.json", "safe-recharge-dfa.json"),
        ("mc-dfa", "robot-mc.json", "reach-recharge-dfa.json"),
        ("ntmc-dfa", "robot-mc.json", "safe-recharge-dfa.json"),
        ("wts-nfa", "travel-wts.json", "train-arrival-nfa.json"),
    ):
        system, requirement = models[system], models[requirement]
        if pairing == "ntmc-dfa":
            system, requirement = translate_to_nonterminating(system, requirement)
        product = PAIRING_TABLE[pairing].build(system, requirement)
        yield product
        yield solve_product(product)
        yield check_step_equality(pairing, system, requirement, 4)
    for pairing in ("mrm-dfa", "mc-costdfa", "wts-wmm"):
        system, requirement = random_instance(pairing, random.Random(f"records:{pairing}"))
        yield system
        yield requirement
        product = PAIRING_TABLE[pairing].build(system, requirement)
        yield product
        yield solve_product(product)
    yield random_rm(random.Random("records:rm"))
    yield check_diagram("mc-dfa", 3, 1)
    for name, mutant in sorted(MUTATIONS.items()):
        yield check_step_equality(
            "mc-dfa", models["robot-mc.json"], models["safe-recharge-dfa.json"], 6,
            product_fn=mutant, name=name,
        )


def test_fixture_reprs_match_golden_digest():
    text = "\n".join(repr(record) for record in _fixture_records())
    assert hashlib.sha256(text.encode()).hexdigest() == REPR_GOLDEN


def test_positional_and_keyword_construction_follow_the_field_order():
    trans = {"a": {"!accept": Fraction(1)}}
    for cls in (ProductMc, AbsorbingProductMc):
        by_position = cls(("a", "!accept"), trans, "a")
        by_keyword = cls(initial="a", trans=trans, states=("a", "!accept"))
        mixed = cls(("a", "!accept"), initial="a", trans=trans)
        assert by_position == by_keyword == mixed
        assert (by_position.states, by_position.trans, by_position.initial) == (("a", "!accept"), trans, "a")
        assert list(vars(mixed)) == ["states", "trans", "initial"]
    assert AbsorbingProductMc._fields == ProductMc._fields == ("states", "trans", "initial")


def test_defaults_and_a_fresh_dict_per_instance():
    report = CompileReport(None, 3, 2)
    assert report.warnings == ()
    first, second = CheckResult("a", True), CheckResult(name="b", passed=False)
    assert first.counterexample is None and first.details == {}
    assert first.details is not second.details
    first.details["k"] = 1
    assert second.details == {} and CheckResult("c", True).details == {}
    assert CheckResult("a", True, details={"x": 1}).details == {"x": 1}


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((("a",), {}), {}, r"missing required arguments: initial"),
        ((), {"trans": {}}, r"missing required arguments: states, initial"),
        ((("a",), {}, "a", "b"), {}, r"takes 3 arguments but 4 were given"),
        ((("a",), {}, "a"), {"colour": 1}, r"got an unexpected keyword argument 'colour'"),
        ((), {"states": (), "trans": {}, "initial": "a", "colour": 1}, r"got an unexpected keyword"),
        ((("a",),), {"states": (), "trans": {}, "initial": "a"}, r"got multiple values for argument 'states'"),
    ],
    ids=["missing-one", "missing-two", "too-many", "unexpected", "unexpected-with-all", "twice"],
)
def test_bad_arguments_are_type_errors(args, kwargs, message):
    with pytest.raises(TypeError, match=f"^ProductMc\\(\\) {message}"):
        ProductMc(*args, **kwargs)


def test_fields_cannot_be_assigned_or_deleted():
    m = ProductMc(("a",), {}, "a")
    with pytest.raises(AttributeError, match="cannot assign to field 'initial'"):
        m.initial = "b"
    with pytest.raises(AttributeError, match="cannot assign to field 'colour'"):
        m.colour = "b"
    with pytest.raises(AttributeError, match="cannot delete field 'initial'"):
        del m.initial
    assert m.initial == "a" and vars(m) == {"states": ("a",), "trans": {}, "initial": "a"}


def test_equality_is_by_fields_within_one_class():
    trans = {"a": {"!absorb": Fraction(1)}}
    plain, absorbing = ProductMc(("a",), trans, "a"), AbsorbingProductMc(("a",), trans, "a")
    assert plain == ProductMc(("a",), {"a": {"!absorb": Fraction(1)}}, "a")
    assert plain != ProductMc(("a",), trans, "b")
    assert plain != absorbing and absorbing != plain
    assert not plain == absorbing
    assert absorbing == AbsorbingProductMc(("a",), dict(trans), "a")
    assert plain != ("a",) and plain.__eq__(("a",)) is NotImplemented


def test_hash_is_the_hash_of_the_field_tuple():
    code = Code(("t0 = {0} + 1",), "t0")
    assert hash(code) == hash((("t0 = {0} + 1",), "t0"))
    assert {code, Code(lines=("t0 = {0} + 1",), result="t0")} == {code}
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(ProductMc(("a",), {}, "a"))


def test_repr_names_every_field_in_order():
    assert repr(CompileReport(None, 3, 2)) == (
        "CompileReport(model=None, state_count=3, reachable_count=2, warnings=())"
    )
    assert repr(AbsorbingProductMc((), {}, "a")) == "AbsorbingProductMc(states=(), trans={}, initial='a')"
