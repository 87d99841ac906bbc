"""State-machine definitions: systems, requirements, their products,
validation, constructors.

Systems are labeled probabilistic or weighted transition structures; the
requirements are finite automata variants whose acceptance sits on the
transitions (Mealy style); the product classes are the machines that
:mod:`qtrace.products` builds from one of each.  All types are frozen
records (:class:`Record`) holding dict tables; instances are treated as
immutable after construction.

Conventions:

* ``TARGET`` ("*") marks the terminating successor in mc/mrm/wts rows.
* Tuple-shaped states (products, translations) are joined with ``SEP``.
* Sink identifiers used by products start with "!" so they cannot be
  confused with ordinary states in the same table.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from types import SimpleNamespace
from typing import Callable

from .domains import ONE, PROB, PROB_REWARD, TROPICAL

TARGET = "*"
ACCEPT = "!accept"
REJECT = "!reject"
ABSORB = "!absorb"
SEP = "|"

#: Label given to the absorbing state introduced by translate_to_nonterminating.
HALT_SYMBOL = "!halt"

#: Name of the dead state in cost-bound automata.
EXHAUSTED = "bot"


class ModelError(ValueError):
    """Invalid constructor parameter or mismatched pair of machines."""


def joined(*parts: str) -> str:
    """Canonical identifier of a tuple-shaped state."""
    return SEP.join(parts)


class Fresh:
    """Default of a record field that is made anew for each instance, as in
    ``details: dict = Fresh(dict)``."""

    def __init__(self, make: Callable[[], object]):
        self.make = make


class Record:
    """Base of the package's frozen value classes.

    A subclass's fields are its annotated names, in order, after those of
    its record bases; a field's default is its value in the class body.  A
    record is built by position or keyword, holds its fields in its
    ``__dict__``, refuses assignment and deletion, equals a record of the
    same class with equal fields, hashes as the tuple of its fields and
    prints as ``Name(field=value, ...)``.  These methods are shared by
    every record: nothing is generated per class, so defining one costs
    no more than defining a plain class.
    """

    _fields: tuple[str, ...] = ()
    _names: frozenset[str] = frozenset()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [n for n in cls.__dict__.get("__annotations__", ()) if n not in cls._fields]
        cls._fields += tuple(own)
        cls._names = frozenset(cls._fields)
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}

    def __init__(self, *args, **kwargs):
        if args and not kwargs and len(args) == len(self._fields):
            kwargs = dict(zip(self._fields, args))
        elif args or kwargs.keys() != self._names:
            kwargs = self._bind(args, kwargs)
        # A call that names every field hands over its own keyword dict.
        _set_fields(self, kwargs)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> dict:
        """The fields, in order, of a call that neither passes every field
        by position nor names every field."""
        fields, name = cls._fields, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in cls._names:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        missing = [f for f in fields if f not in values and f not in cls._defaults]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        out = {}
        for f in fields:
            value = values[f] if f in values else cls._defaults[f]
            out[f] = value.make() if isinstance(value, Fresh) else value
        return out

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(map(self.__dict__.__getitem__, self._fields)))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


#: Gives a record its field dict.  Filled through ``self.__dict__``, the
#: dict would share its keys with the class, and CPython 3.11 reads the
#: attributes of such a dict about three times slower.
_set_fields = Record.__dict__["__dict__"].__set__


class LabeledMc(Record):
    """Markov chain with state labels and a terminating target."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    label: dict[str, str]
    trans: dict[str, dict[str, Fraction]]
    initial: str


class MarkovRewardModel(Record):
    """Labeled Markov chain that additionally earns a reward per step."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    label: dict[str, str]
    reward: dict[str, int]
    trans: dict[str, dict[str, Fraction]]
    initial: str


class NonTerminatingMc(Record):
    """Labeled Markov chain without a target: every run is infinite."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    label: dict[str, str]
    trans: dict[str, dict[str, Fraction]]
    initial: str


class WeightedTs(Record):
    """Nondeterministic transition system with per-transition label and cost."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    trans: dict[str, tuple[tuple[str, str, int], ...]]  # (successor|TARGET, symbol, weight)
    initial: str


class Dfa(Record):
    """Deterministic automaton; acceptance is a flag on each transition."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    delta: dict[str, dict[str, tuple[str, bool]]]
    initial: str


class Nfa(Record):
    """Nondeterministic automaton; rows may be empty (dead)."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    delta: dict[str, dict[str, tuple[tuple[str, bool], ...]]]
    initial: str


class RewardMachine(Record):
    """Deterministic transducer emitting a bounded weight per symbol."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    bound: int
    delta: dict[str, dict[str, tuple[str, int]]]
    initial: str


class WeightedMealy(Record):
    """Nondeterministic transducer with acceptance flag and weight per edge."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    delta: dict[str, dict[str, tuple[tuple[str, bool, int], ...]]]
    initial: str


# The products of a system with a requirement, built by qtrace.products.


class ProductMc(Record):
    """Unlabeled Markov chain over state pairs with accept/reject sinks."""

    GOAL = ACCEPT  # the sink whose reachability the solvers compute
    SINKS = (ACCEPT, REJECT)
    DOMAIN = PROB  # the value domain the solvers work in

    states: tuple[str, ...]
    trans: dict[str, dict[str, Fraction]]
    initial: str


class ProductRewardMc(Record):
    """Product chain that additionally earns the system's reward per step."""

    GOAL = ACCEPT
    SINKS = (ACCEPT, REJECT)
    DOMAIN = PROB_REWARD

    states: tuple[str, ...]
    trans: dict[str, dict[str, Fraction]]
    stepreward: dict[str, int]
    initial: str


class AbsorbingProductMc(ProductMc):
    """Product of a never-terminating chain with a monitor; acceptance absorbs."""

    GOAL = ABSORB
    SINKS = (ABSORB,)


class ProductWts(Record):
    """Weighted product; rows are finite sets of (successor-or-sink, weight)."""

    GOAL = ACCEPT
    SINKS = (ACCEPT, REJECT)
    DOMAIN = TROPICAL

    states: tuple[str, ...]
    trans: dict[str, tuple[tuple[str, int], ...]]
    initial: str


def nfa_row(d: Nfa, state: str, symbol: str) -> tuple[tuple[str, bool], ...]:
    """Row access treating a missing symbol entry as the empty set."""
    return d.delta.get(state, {}).get(symbol, ())


def wmm_row(d: WeightedMealy, state: str, symbol: str) -> tuple[tuple[str, bool, int], ...]:
    return d.delta.get(state, {}).get(symbol, ())


# ---------------------------------------------------------------------------
# validation

def _common(model, out: list[str]) -> None:
    if not model.states:
        out.append("state set is empty")
    if len(set(model.states)) != len(model.states):
        out.append("duplicate state identifiers")
    if not model.alphabet:
        out.append("alphabet is empty")
    if len(set(model.alphabet)) != len(model.alphabet):
        out.append("duplicate alphabet symbols")
    for s in model.states:
        if not isinstance(s, str) or not s:
            out.append(f"state identifier {s!r} is not a non-empty string")
        elif s == TARGET:
            out.append(f"state identifier {TARGET!r} is reserved for the target")
    if model.initial not in model.states:
        out.append(f"initial state {model.initial!r} not in state set")


def _check_distribution(
    row: dict, where: str, allowed: set, out: list[str], target: bool = False
) -> None:
    """Append the faults of one probability row at ``where``: successors
    not in ``allowed`` (with ``target`` set, ``TARGET`` is reported as not
    allowed rather than unknown), entries that are not a ``Fraction`` in
    (0, 1], and valid entries that do not sum to 1.  The sum is one
    integer numerator over the lcm of the denominators, one gcd per
    entry."""
    num, den = 0, 1
    for succ, p in row.items():
        if succ not in allowed:
            if target and succ == TARGET:
                out.append(f"target successor not allowed at {where}")
            else:
                out.append(f"unknown successor {succ!r} at {where}")
        if not isinstance(p, Fraction) or not 0 < p.numerator <= p.denominator:
            out.append(f"probability {p!r} at {where} not in (0, 1]")
            continue
        d = p.denominator
        g = gcd(den, d)
        num, den = num * (d // g) + p.numerator * (den // g), den * (d // g)
    if num != den:
        out.append(f"row sum != 1 at {where} (got {Fraction(num, den)})")


def _check_rows(model, out: list[str], allow_target: bool) -> None:
    symbols = set(model.alphabet)
    allowed = set(model.states) - {TARGET}
    if allow_target:
        allowed.add(TARGET)
    for x in model.states:
        if x not in model.trans:
            out.append(f"no transition row at state {x!r}")
            continue
        _check_distribution(model.trans[x], f"state {x!r}", allowed, out, target=True)
    if hasattr(model, "label"):
        for x in model.states:
            a = model.label.get(x)
            if a is None:
                out.append(f"label missing at state {x!r}")
            elif a not in symbols:
                out.append(f"label {a!r} at state {x!r} not in alphabet")


def _check_flag(flag, y: str, a: str, out: list[str]) -> None:
    if not isinstance(flag, bool):
        out.append(f"acceptance flag at ({y!r}, {a!r}) is not a boolean")


def _check_total_delta(d, out: list[str], check_mark: Callable) -> None:
    """A row at every state holding exactly the alphabet's symbols, each
    entry a known target and a mark (flag or weight) checked by
    ``check_mark(mark, y, a, out)``."""
    states = set(d.states)
    symbols = set(d.alphabet)
    for y in d.states:
        row = d.delta.get(y)
        if row is None:
            out.append(f"delta not total: no row at state {y!r}")
            continue
        for a in d.alphabet:
            if a not in row:
                out.append(f"delta not total: missing ({y!r}, {a!r})")
                continue
            tgt, mark = row[a]
            if tgt not in states:
                out.append(f"unknown delta target {tgt!r} at ({y!r}, {a!r})")
            check_mark(mark, y, a, out)
        for a in row:
            if a not in symbols:
                out.append(f"delta uses unknown symbol {a!r} at state {y!r}")


def _check_edges(d, out: list[str]) -> None:
    """Rows and entries may be missing; every edge present has a known
    target, a flag and, on a weighted machine, a natural weight."""
    states = set(d.states)
    symbols = set(d.alphabet)
    for y in d.states:
        for a, entries in d.delta.get(y, {}).items():
            if a not in symbols:
                out.append(f"delta uses unknown symbol {a!r} at state {y!r}")
            for tgt, flag, *weight in entries:
                if tgt not in states:
                    out.append(f"unknown delta target {tgt!r} at ({y!r}, {a!r})")
                _check_flag(flag, y, a, out)
                for w in weight:
                    if not isinstance(w, int) or w < 0:
                        out.append(f"weight {w!r} at ({y!r}, {a!r}) is not a natural number")


def validate(model) -> list[str]:
    """Return every invariant violation (empty list means the model is ok)."""
    if isinstance(model, (ProductMc, ProductRewardMc, ProductWts)):
        from .products import validate_product

        return validate_product(model)

    out: list[str] = []
    _common(model, out)
    if out and "state set is empty" in out[0]:
        return out
    if isinstance(model, LabeledMc):
        _check_rows(model, out, allow_target=True)
    elif isinstance(model, MarkovRewardModel):
        _check_rows(model, out, allow_target=True)
        for x in model.states:
            r = model.reward.get(x)
            if not isinstance(r, int) or r < 0:
                out.append(f"reward at state {x!r} is not a natural number")
    elif isinstance(model, NonTerminatingMc):
        _check_rows(model, out, allow_target=False)
    elif isinstance(model, WeightedTs):
        states = set(model.states)
        symbols = set(model.alphabet)
        for x in model.states:
            if x not in model.trans:
                out.append(f"no transition set at state {x!r}")
                continue
            for succ, a, m in model.trans[x]:
                if succ != TARGET and succ not in states:
                    out.append(f"unknown successor {succ!r} at state {x!r}")
                if a not in symbols:
                    out.append(f"unknown symbol {a!r} at state {x!r}")
                if not isinstance(m, int) or m < 0:
                    out.append(f"weight {m!r} at state {x!r} is not a natural number")
    elif isinstance(model, Dfa):
        _check_total_delta(model, out, _check_flag)
    elif isinstance(model, RewardMachine):
        if model.bound < 1:
            out.append("weight bound must be at least 1")

        def check_weight(w, y: str, a: str, out: list[str]) -> None:
            if not isinstance(w, int) or not (1 <= w <= model.bound):
                out.append(f"weight {w!r} at ({y!r}, {a!r}) outside 1..{model.bound}")

        _check_total_delta(model, out, check_weight)
    elif isinstance(model, (Nfa, WeightedMealy)):
        _check_edges(model, out)
    else:
        out.append(f"unknown model type {type(model).__name__}")
    return out


def require_same_alphabet(left, right) -> None:
    if set(left.alphabet) != set(right.alphabet):
        raise ModelError(
            f"alphabet mismatch: {sorted(left.alphabet)} vs {sorted(right.alphabet)}"
        )


# ---------------------------------------------------------------------------
# constructors

def make_cost_bound_dfa(budget: int, weight_bound: int) -> Dfa:
    """Automaton over symbols "1".."weight_bound" accepting exactly the
    weight words whose running sum stays strictly below ``budget``.

    States are the remaining budgets "1".."budget" plus the dead state
    ``EXHAUSTED``; spending ``j`` from budget ``i`` moves to ``i - j``
    (accepting) while overspending falls into the dead state.
    """
    if budget < 1 or weight_bound < 1:
        raise ModelError("cost bound and weight bound must both be at least 1")
    states = tuple(str(i) for i in range(1, budget + 1)) + (EXHAUSTED,)
    alphabet = tuple(str(j) for j in range(1, weight_bound + 1))
    delta: dict[str, dict[str, tuple[str, bool]]] = {}
    for i in range(1, budget + 1):
        row = {}
        for j in range(1, weight_bound + 1):
            if i - j > 0:
                row[str(j)] = (str(i - j), True)
            else:
                row[str(j)] = (EXHAUSTED, False)
        delta[str(i)] = row
    delta[EXHAUSTED] = {str(j): (EXHAUSTED, False) for j in range(1, weight_bound + 1)}
    return Dfa(states=states, alphabet=alphabet, delta=delta, initial=str(budget))


def _joined_pairs(lefts, rights) -> dict[str, tuple[str, str]]:
    """The pair behind each joined identifier; two pairs may not share one."""
    ids = {joined(a, b): (a, b) for a in lefts for b in rights}
    if len(ids) != len(lefts) * len(rights):
        raise ModelError("state identifiers collide when joined; rename the inputs")
    return ids


def _paired_dfa(left, right, alphabet: tuple[str, ...], move: Callable) -> Dfa:
    """The DFA over ``alphabet`` on the pairs of ``left``'s and ``right``'s
    states, left major, from the initial pair; ``move(y, z, a)`` gives the
    pair that (y, z) moves to on ``a`` and the step's acceptance flag."""
    _joined_pairs(left.states, right.states)
    delta: dict[str, dict[str, tuple[str, bool]]] = {}
    for y in left.states:
        for z in right.states:
            row = delta[joined(y, z)] = {}
            for a in alphabet:
                (y2, z2), flag = move(y, z, a)
                row[a] = (joined(y2, z2), flag)
    return Dfa(states=tuple(delta), alphabet=alphabet, delta=delta, initial=joined(left.initial, right.initial))


def dfa_intersect(d1: Dfa, d2: Dfa) -> Dfa:
    """Synchronous intersection; a step accepts when both components do."""
    require_same_alphabet(d1, d2)

    def move(y: str, z: str, a: str):
        (y2, f1), (z2, f2) = d1.delta[y][a], d2.delta[z][a]
        return (y2, z2), f1 and f2

    return _paired_dfa(d1, d2, d1.alphabet, move)


def complete_dfa(d: Dfa) -> Dfa:
    """Fill missing delta entries with a fresh rejecting sink state.

    Hand-written automata often leave harmless transitions out; this adds
    them back explicitly so the machine satisfies totality.  Applied only
    on request (e.g. the frontend's completion flag), never implicitly.
    """
    missing = [
        (y, a)
        for y in d.states
        for a in d.alphabet
        if a not in d.delta.get(y, {})
    ]
    if not missing:
        return d
    sink = "!dead"
    while sink in d.states:
        sink += "_"
    delta = {y: dict(row) for y, row in d.delta.items()}
    for y in d.states:
        delta.setdefault(y, {})
    for y, a in missing:
        delta[y][a] = (sink, False)
    delta[sink] = {a: (sink, False) for a in d.alphabet}
    return Dfa(
        states=d.states + (sink,), alphabet=d.alphabet, delta=delta, initial=d.initial
    )


def product_rm_costdfa(rm: RewardMachine, cd: Dfa) -> Dfa:
    """Compose a reward machine with a cost-bound automaton into one
    requirement over the reward machine's alphabet.

    Reading symbol ``a`` first asks the reward machine for its weight,
    then spends that weight in the cost automaton; the composite accepts
    while the budget survives.
    """
    expected = {str(j) for j in range(1, rm.bound + 1)}
    if set(cd.alphabet) != expected:
        raise ModelError(
            f"cost automaton alphabet {sorted(cd.alphabet)} does not match weight bound {rm.bound}"
        )

    def move(y: str, z: str, a: str):
        y2, w = rm.delta[y][a]
        z2, flag = cd.delta[z][str(w)]
        return (y2, z2), flag

    return _paired_dfa(rm, cd, rm.alphabet, move)


def translate_to_nonterminating(c: LabeledMc, d: Dfa) -> tuple[NonTerminatingMc, Dfa]:
    """Recast a terminating inference instance as a never-terminating one.

    The chain gains an absorbing state emitting the reserved ``HALT_SYMBOL``;
    the automaton defers its acceptance verdict to that symbol by carrying
    the flag of the transition it just took.
    """
    if HALT_SYMBOL in c.alphabet:
        raise ModelError(f"alphabet already contains the reserved symbol {HALT_SYMBOL!r}")
    require_same_alphabet(c, d)
    halt_state = HALT_SYMBOL
    while halt_state in c.states:
        halt_state += "_"

    alphabet = c.alphabet + (HALT_SYMBOL,)
    states = c.states + (halt_state,)
    label = dict(c.label)
    label[halt_state] = HALT_SYMBOL
    trans: dict[str, dict[str, Fraction]] = {}
    for x in c.states:
        row = {}
        for succ, p in c.trans[x].items():
            row[halt_state if succ == TARGET else succ] = p
        trans[x] = row
    trans[halt_state] = {halt_state: ONE}
    chain = NonTerminatingMc(
        states=states, alphabet=alphabet, label=label, trans=trans, initial=c.initial
    )

    # the monitor pairs d with the flag of the step it just took
    flags = SimpleNamespace(states=("acc", "rej"), initial="rej")

    def move(y: str, flag: str, a: str):
        if a == HALT_SYMBOL:
            return (y, flag), flag == "acc"
        y2, accepted = d.delta[y][a]
        return (y2, "acc" if accepted else "rej"), False

    return chain, _paired_dfa(d, flags, alphabet, move)
