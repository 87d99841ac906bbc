from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtrace.domains import (
    INF,
    PROB,
    PROB_REWARD,
    TROPICAL,
    ConfigError,
    _value_over,
    bottom_vector,
    leq,
    rational,
    rational_str,
    value_str,
)
from qtrace.solvers import SolveReport

rationals = st.fractions(max_denominator=1000)


def test_bottom_vectors():
    assert bottom_vector({"s0", "s1"}, PROB) == {"s0": 0, "s1": 0}
    assert bottom_vector({"a"}, TROPICAL) == {"a": INF}
    assert bottom_vector({"a"}, PROB_REWARD) == {"a": (0, 0)}


def test_bottom_vector_rejects_unknown_domain():
    with pytest.raises(ConfigError):
        bottom_vector({"a"}, "lexicographic")
    with pytest.raises(ConfigError):
        bottom_vector(set(), PROB)


def test_rational_parse_and_render():
    assert rational("4/5") == Fraction(4, 5)
    assert rational("3") == 3
    assert rational_str(Fraction(4, 25)) == "4/25"
    assert rational_str(Fraction(1)) == "1/1"
    with pytest.raises(ConfigError):
        rational("4/0")
    with pytest.raises(ConfigError):
        rational("pi")


def test_values_past_the_int_str_limit_render_in_full():
    # str(int) refuses more than 4,300 digits; the renderers must not
    digits = "1" + "0" * 4998 + "7"  # 10**4999 + 7, a 5,000-digit numerator
    big = Fraction(10**4999 + 7, 3)
    assert value_str(big) == rational_str(big) == digits + "/3"
    assert value_str(Fraction(10**4999 + 7)) == digits
    assert value_str((big, Fraction(1, 2))) == f"({digits}/3, 1/2)"
    assert value_str(10**4999 + 7) == digits
    report = SolveReport({"s": big, "t": (big, Fraction(1))}, "kleene", 1, True, PROB_REWARD)
    assert report.to_json()["values"] == {"s": digits + "/3", "t": [digits + "/3", "1/1"]}


def test_infinity_renders_as_inf_in_text_and_json():
    # a tropical state that cannot accept, and an infinite expected reward
    assert value_str(INF) == "inf"
    assert value_str((Fraction(1, 2), INF)) == "(1/2, inf)"
    report = SolveReport({"s": INF, "t": 3}, "bellman", 2, True, TROPICAL)
    assert report.to_json()["values"] == {"s": "inf", "t": 3}
    report = SolveReport({"s": (Fraction(1, 2), INF)}, "kleene", 1, False, PROB_REWARD)
    assert report.to_json()["values"] == {"s": ["1/2", "inf"]}


def test_tropical_order_is_reversed():
    assert leq(TROPICAL, INF, 3)
    assert leq(TROPICAL, 7, 3)
    assert not leq(TROPICAL, 3, 7)


def test_value_over_reads_numerators_per_domain():
    # the integer iterates and the oracle's tables hold numerators over a
    # power of one denominator; a tropical value is its own numerator
    assert _value_over(PROB, 6, 8) == Fraction(3, 4)
    assert type(_value_over(PROB, 0, 1)) is Fraction
    assert _value_over(PROB_REWARD, (2, 10), 4) == (Fraction(1, 2), Fraction(5, 2))
    assert _value_over(TROPICAL, 7, 1) == 7 and type(_value_over(TROPICAL, 7, 1)) is int
    assert _value_over(TROPICAL, INF, 1) == INF


@given(rationals, rationals)
def test_rational_arithmetic_is_exact(a, b):
    assert a + b - b == a
    s = a + b
    assert s.denominator > 0
    from math import gcd

    assert gcd(s.numerator, s.denominator) == 1


@given(st.lists(rationals, min_size=1, max_size=6))
def test_prob_reward_order_is_componentwise(values):
    pairs = [(abs(v), abs(v) + 1) for v in values]
    for p in pairs:
        assert leq(PROB_REWARD, p, (p[0] + 1, p[1] + 1))
        assert not leq(PROB_REWARD, (p[0] + 1, p[1]), p)
