"""Exact value domains and the generic fixed-point iteration used by every solver.

Three ordered domains are supported:

* ``prob``        -- probabilities in [0, 1], exact rationals, usual order;
* ``tropical``    -- nonnegative integer costs extended with infinity,
                     ordered so that *larger* costs are *smaller* (infinity
                     is the bottom: "no finite cost found yet");
* ``prob-reward`` -- pairs (probability, expected reward), componentwise.

All probabilities and rewards are ``fractions.Fraction`` values so that
iteration and direct solving agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

#: Tropical infinity; also marks an infinite expected reward.
INF = float("inf")

PROB = "prob"
TROPICAL = "tropical"
PROB_REWARD = "prob-reward"

DOMAINS = (PROB, TROPICAL, PROB_REWARD)


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
    to ``decimal`` places), a pair in parentheses, infinity as ``inf``.
    Integers of any length are written out in full."""
    if isinstance(value, Fraction):
        if decimal is not None:
            return f"{float(value):.{decimal}f}"
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


def change(domain: str, a, b):
    """Magnitude of the difference between two values, for epsilon stopping."""
    if domain == PROB:
        return abs(a - b)
    if domain == TROPICAL:
        if a == b:
            return ZERO
        if a == INF or b == INF:
            return INF
        return abs(a - b)
    if domain == PROB_REWARD:
        dp = abs(a[0] - b[0])
        if a[1] == b[1]:
            return dp
        if a[1] == INF or b[1] == INF:
            return INF
        return max(dp, abs(a[1] - b[1]))
    raise ConfigError(f"unknown domain tag: {domain!r}")


@dataclass(frozen=True)
class KleeneResult:
    """Outcome of a fixed-point iteration.

    ``converged`` is True only when the stopping rule actually fired:
    literal stabilization in exact mode, change below epsilon otherwise.
    Hitting ``max_iter`` reports the last iterate with ``converged=False``.
    """

    values: dict
    iterations: int
    converged: bool


def kleene_iterate(transformer: Callable[[dict], dict], start: dict, steps: int) -> dict:
    """Apply ``transformer`` exactly ``steps`` times to ``start``."""
    current = start
    for _ in range(steps):
        current = transformer(current)
    return current


def kleene_lfp(
    transformer: Callable[[dict], dict],
    start: dict,
    epsilon: Fraction | None = None,
    max_iter: int = 100_000,
    domain: str = PROB,
) -> KleeneResult:
    """Iterate ``transformer`` from ``start`` towards its least fixed point.

    In exact mode (``epsilon is None``) the iteration stops once an
    iterate repeats literally; this is sound for acyclic and tropical
    systems but can only report "max_iter reached" on genuinely infinite
    ascents.  With ``epsilon`` set, it stops when the largest pointwise
    change drops below epsilon.
    """
    current = start
    for i in range(max_iter):
        nxt = transformer(current)
        if epsilon is None:
            if nxt == current:
                return KleeneResult(nxt, i + 1, True)
        else:
            delta = max(change(domain, nxt[s], current[s]) for s in nxt)
            if delta < epsilon:
                return KleeneResult(nxt, i + 1, True)
        current = nxt
    return KleeneResult(current, max_iter, False)
