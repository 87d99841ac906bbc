"""Exact value domains and their rendering.

Three ordered domains are supported:

* ``prob``        -- probabilities in [0, 1], exact rationals, usual order;
* ``tropical``    -- nonnegative integer costs extended with infinity,
                     ordered so that *larger* costs are *smaller* (infinity
                     is the bottom: "no finite cost found yet");
* ``prob-reward`` -- pairs (probability, expected reward), componentwise.

All probabilities and rewards are exact: ``fractions.Fraction`` values,
or, in the k-th iterate of a product's update and in the direct semantics
that ``lawcheck`` compares it with, integer numerators over the k-th
power of one denominator, which :func:`_value_over` turns into values.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from typing import Iterable

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

#: Tropical infinity; also marks an infinite expected reward.
INF = float("inf")

PROB = "prob"
TROPICAL = "tropical"
PROB_REWARD = "prob-reward"


class ConfigError(ValueError):
    """Unknown domain tag or otherwise inconsistent configuration."""


def rational(value: str | int | Fraction) -> Fraction:
    """Parse an exact rational, typically from a "num/den" string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise ConfigError(f"refusing to coerce float {value!r} to an exact rational")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a rational: {value!r}") from exc


def _int_str(n: int) -> str:
    """Decimal digits of ``n``, however many.  ``str`` refuses integers
    longer than the interpreter's conversion limit (4,300 digits by
    default); ``decimal`` converts them without one."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def rational_str(value: Fraction) -> str:
    """Canonical "num/den" rendering (denominator always written)."""
    return f"{_int_str(value.numerator)}/{_int_str(value.denominator)}"


def _json_value(value):
    """JSON form of a value: a rational as "num/den", a tuple as an array,
    a dict as an object, infinity as "inf"; strings, flags and integers as
    they are."""
    if isinstance(value, Fraction):
        return rational_str(value)
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if value == INF:
        return "inf"
    return value


def value_str(value, decimal: int | None = None) -> str:
    """Text of a domain value: a rational as written by ``str`` (or rounded
    to ``decimal`` places, exactly and half to even), a pair in parentheses,
    infinity as ``inf``.  Integers of any length are written out in full."""
    if isinstance(value, Fraction):
        if decimal is not None:
            whole, frac = divmod(round(abs(value) * 10**decimal), 10**decimal)
            digits = _int_str(whole) + ("." + _int_str(frac).zfill(decimal) if decimal else "")
            return "-" + digits if value < 0 else digits
        return _int_str(value.numerator) if value.denominator == 1 else rational_str(value)
    if isinstance(value, tuple):
        return "(" + ", ".join(value_str(v, decimal) for v in value) + ")"
    if value == INF:
        return "inf"
    return _int_str(value)


def bottom(domain: str):
    """Least element of the chosen domain."""
    if domain == PROB:
        return ZERO
    if domain == TROPICAL:
        return INF
    if domain == PROB_REWARD:
        return (ZERO, ZERO)
    raise ConfigError(f"unknown domain tag: {domain!r}")


def bottom_vector(states: Iterable[str], domain: str) -> dict:
    """Value vector assigning the domain's bottom to every state."""
    b = bottom(domain)
    vec = {s: b for s in states}
    if not vec:
        raise ConfigError("bottom_vector needs a non-empty state set")
    return vec


def leq(domain: str, a, b) -> bool:
    """Domain order; for ``tropical`` this is the reversed numeric order."""
    if domain == PROB:
        return a <= b
    if domain == TROPICAL:
        return a >= b
    if domain == PROB_REWARD:
        return a[0] <= b[0] and a[1] <= b[1]
    raise ConfigError(f"unknown domain tag: {domain!r}")


def _value_over(domain: str, n, scale: int):
    """The value whose numerator over ``scale`` is ``n``: a ``Fraction``,
    a pair of them for a pair of numerators, and for ``tropical`` the cost
    ``n`` itself."""
    if domain == TROPICAL:
        return n
    if domain == PROB_REWARD:
        return Fraction(n[0], scale), Fraction(n[1], scale)
    return Fraction(n, scale)
