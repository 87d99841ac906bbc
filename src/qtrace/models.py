"""State-machine definitions: systems, requirements, validation, constructors.

Systems are labeled probabilistic or weighted transition structures; the
requirements are finite automata variants whose acceptance sits on the
transitions (Mealy style).  All types are plain frozen dataclasses holding
dict tables; instances are treated as immutable after construction.

Conventions:

* ``TARGET`` ("*") marks the terminating successor in mc/mrm/wts rows.
* Tuple-shaped states (products, translations) are joined with ``SEP``.
* Sink identifiers used by products start with "!" so they cannot be
  confused with ordinary states in the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .domains import ONE, ZERO

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


@dataclass(frozen=True)
class LabeledMc:
    """Markov chain with state labels and a terminating target."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    label: dict[str, str]
    trans: dict[str, dict[str, Fraction]]
    initial: str


@dataclass(frozen=True)
class MarkovRewardModel:
    """Labeled Markov chain that additionally earns a reward per step."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    label: dict[str, str]
    reward: dict[str, int]
    trans: dict[str, dict[str, Fraction]]
    initial: str


@dataclass(frozen=True)
class NonTerminatingMc:
    """Labeled Markov chain without a target: every run is infinite."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    label: dict[str, str]
    trans: dict[str, dict[str, Fraction]]
    initial: str


@dataclass(frozen=True)
class WeightedTs:
    """Nondeterministic transition system with per-transition label and cost."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    trans: dict[str, tuple[tuple[str, str, int], ...]]  # (successor|TARGET, symbol, weight)
    initial: str


@dataclass(frozen=True)
class Dfa:
    """Deterministic automaton; acceptance is a flag on each transition."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    delta: dict[str, dict[str, tuple[str, bool]]]
    initial: str


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic automaton; rows may be empty (dead)."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    delta: dict[str, dict[str, tuple[tuple[str, bool], ...]]]
    initial: str


@dataclass(frozen=True)
class RewardMachine:
    """Deterministic transducer emitting a bounded weight per symbol."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    bound: int
    delta: dict[str, dict[str, tuple[str, int]]]
    initial: str


@dataclass(frozen=True)
class WeightedMealy:
    """Nondeterministic transducer with acceptance flag and weight per edge."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    delta: dict[str, dict[str, tuple[tuple[str, bool, int], ...]]]
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


def _check_rows(model, out: list[str], allow_target: bool) -> None:
    symbols = set(model.alphabet)
    states = set(model.states)
    for x in model.states:
        if x not in model.trans:
            out.append(f"no transition row at state {x!r}")
            continue
        total = ZERO
        for succ, p in model.trans[x].items():
            if succ == TARGET:
                if not allow_target:
                    out.append(f"target successor not allowed at state {x!r}")
            elif succ not in states:
                out.append(f"unknown successor {succ!r} at state {x!r}")
            if not isinstance(p, Fraction) or p <= 0 or p > 1:
                out.append(f"probability {p!r} at state {x!r} not in (0, 1]")
                continue
            total += p
        if total != ONE:
            out.append(f"row sum != 1 at state {x!r} (got {total})")
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
    from . import products as _products

    if isinstance(
        model, (_products.ProductMc, _products.ProductRewardMc, _products.ProductWts)
    ):
        return _products.validate_product(model)

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


def dfa_intersect(d1: Dfa, d2: Dfa) -> Dfa:
    """Synchronous intersection; a step accepts when both components do."""
    require_same_alphabet(d1, d2)
    _joined_pairs(d1.states, d2.states)
    states = tuple(joined(a, b) for a in d1.states for b in d2.states)
    delta: dict[str, dict[str, tuple[str, bool]]] = {}
    for a in d1.states:
        for b in d2.states:
            row = {}
            for sym in d1.alphabet:
                t1, f1 = d1.delta[a][sym]
                t2, f2 = d2.delta[b][sym]
                row[sym] = (joined(t1, t2), f1 and f2)
            delta[joined(a, b)] = row
    return Dfa(
        states=states,
        alphabet=d1.alphabet,
        delta=delta,
        initial=joined(d1.initial, d2.initial),
    )


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
    _joined_pairs(rm.states, cd.states)
    states = tuple(joined(y, z) for y in rm.states for z in cd.states)
    delta: dict[str, dict[str, tuple[str, bool]]] = {}
    for y in rm.states:
        for z in cd.states:
            row = {}
            for a in rm.alphabet:
                y2, w = rm.delta[y][a]
                z2, flag = cd.delta[z][str(w)]
                row[a] = (joined(y2, z2), flag)
            delta[joined(y, z)] = row
    return Dfa(
        states=states,
        alphabet=rm.alphabet,
        delta=delta,
        initial=joined(rm.initial, cd.initial),
    )


def translate_to_nonterminating(c: LabeledMc, d: Dfa) -> tuple[NonTerminatingMc, Dfa]:
    """Recast a terminating inference instance as a never-terminating one.

    The chain gains an absorbing state emitting the reserved ``HALT_SYMBOL``;
    the automaton defers its acceptance verdict to that symbol by carrying
    the flag of the transition it just took.
    """
    if HALT_SYMBOL in c.alphabet:
        raise ModelError(f"alphabet already contains the reserved symbol {HALT_SYMBOL!r}")
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

    flag_tag = {True: "acc", False: "rej"}
    dstates = tuple(joined(y, flag_tag[b]) for y in d.states for b in (True, False))
    delta: dict[str, dict[str, tuple[str, bool]]] = {}
    for y in d.states:
        for b in (True, False):
            row: dict[str, tuple[str, bool]] = {}
            for a in d.alphabet:
                y2, b2 = d.delta[y][a]
                row[a] = (joined(y2, flag_tag[b2]), False)
            row[HALT_SYMBOL] = (joined(y, flag_tag[b]), b)
            delta[joined(y, flag_tag[b])] = row
    monitor = Dfa(
        states=dstates,
        alphabet=alphabet,
        delta=delta,
        initial=joined(d.initial, flag_tag[False]),
    )
    return chain, monitor
