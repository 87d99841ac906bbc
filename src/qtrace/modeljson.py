"""JSON interchange format for all machine kinds.

One document per machine: ``kind``, ``alphabet``, ``states``, ``initial``
plus the kind-specific tables.  Probabilities are exact "num/den" strings;
flags are JSON booleans; weights, rewards and bounds are JSON integers;
names are strings.  Values are checked, never coerced.  ``emit_model``
canonicalizes, and ``parse_model(emit_model(m)) == m`` holds for every kind.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable

from .domains import _json_value, rational
from .models import (
    AbsorbingProductMc,
    Dfa,
    LabeledMc,
    MarkovRewardModel,
    Nfa,
    NonTerminatingMc,
    ProductMc,
    ProductRewardMc,
    ProductWts,
    RewardMachine,
    WeightedMealy,
    WeightedTs,
)


class SchemaError(ValueError):
    """Malformed model document."""


def _need(doc: dict, *fields: str) -> None:
    for f in fields:
        if f not in doc:
            raise SchemaError(f"missing field {f!r}")


# Field checks: each returns the parsed value or raises SchemaError.
# Nothing is coerced, because a coerced value silently changes the answer:
# "false" is not a flag, 2.7 or "2" is not an integer, and a string is not
# an array of names.

def _bad(expected: str, value) -> SchemaError:
    return SchemaError(f"expected {expected}, got {value!r}")


def _string(value) -> str:
    if isinstance(value, str):
        return value
    raise _bad("a string", value)


def _integer(value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise _bad("an integer", value)


def _flag(value) -> bool:
    if isinstance(value, bool):
        return value
    raise _bad("a boolean", value)


def _prob(value) -> Fraction:
    if isinstance(value, bool):
        raise _bad("a rational", value)
    return rational(value)


def _array(item: Callable) -> Callable:
    """A JSON array, every element checked by ``item``; parsed as a tuple."""
    def check(value) -> tuple:
        if not isinstance(value, list):
            raise _bad("an array", value)
        return tuple(map(item, value))

    return check


def _entry(*items: Callable) -> Callable:
    """A JSON array of exactly ``len(items)`` elements; parsed as a tuple."""
    def check(value) -> tuple:
        if not isinstance(value, list) or len(value) != len(items):
            raise _bad(f"an array of {len(items)} items", value)
        return tuple(item(v) for item, v in zip(items, value))

    return check


def _table(cell: Callable) -> Callable:
    """A JSON object, every value checked by ``cell``; parsed as a dict."""
    def check(value) -> dict:
        if not isinstance(value, dict):
            raise _bad("an object", value)
        return {k: cell(v) for k, v in value.items()}

    return check


_NAMES = _array(_string)
_PROB_TABLE = _table(_table(_prob))
_MACHINE = {"alphabet": _NAMES, "states": _NAMES, "initial": _string}
_CHAIN = {**_MACHINE, "label": _table(_string), "trans": _PROB_TABLE}
_PRODUCT = {"states": _NAMES, "initial": _string, "trans": _PROB_TABLE}

#: Per kind: its class, and its fields in the order they are checked, and how.
KINDS: dict[str, tuple[type, dict[str, Callable]]] = {
    "mc": (LabeledMc, _CHAIN),
    "mrm": (MarkovRewardModel, {**_CHAIN, "reward": _table(_integer)}),
    "ntmc": (NonTerminatingMc, _CHAIN),
    "wts": (WeightedTs, {**_MACHINE, "trans": _table(_array(_entry(_string, _string, _integer)))}),
    "dfa": (Dfa, {**_MACHINE, "delta": _table(_table(_entry(_string, _flag)))}),
    "nfa": (Nfa, {**_MACHINE, "delta": _table(_table(_array(_entry(_string, _flag))))}),
    "rm": (RewardMachine, {**_MACHINE, "bound": _integer, "delta": _table(_table(_entry(_string, _integer)))}),
    "wmm": (WeightedMealy, {**_MACHINE, "delta": _table(_table(_array(_entry(_string, _flag, _integer))))}),
    "product-mc": (ProductMc, _PRODUCT),
    "product-mrm": (ProductRewardMc, {**_PRODUCT, "stepreward": _table(_integer)}),
    "product-absorbing": (AbsorbingProductMc, _PRODUCT),
    "product-wts": (ProductWts, {**_PRODUCT, "trans": _table(_array(_entry(_string, _integer)))}),
}

KIND_OF = {cls: kind for kind, (cls, _) in KINDS.items()}


def parse_model(text: str | dict):
    """Parse a JSON model document into the corresponding machine."""
    doc = json.loads(text) if isinstance(text, str) else text
    if not isinstance(doc, dict):
        raise SchemaError("model document must be a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise SchemaError(f"unknown kind {kind!r}")
    cls, fields = KINDS[kind]
    _need(doc, *fields)
    values = {}
    for f, check in fields.items():
        try:
            values[f] = check(doc[f])
        except SchemaError as exc:
            raise SchemaError(f"field {f!r}: {exc}") from None
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"malformed {kind} document: {exc}") from exc
    return cls(**values)


def model_to_dict(model) -> dict:
    """The document of a machine: its kind and the fields ``parse_model``
    checks for that kind, in JSON form."""
    kind = KIND_OF.get(type(model))
    if kind is None:
        raise SchemaError(f"cannot serialize {type(model).__name__}")
    return {"kind": kind, **{f: _json_value(getattr(model, f)) for f in KINDS[kind][1]}}


def emit_model(model) -> str:
    """Canonical JSON rendering of a machine."""
    return json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n"
