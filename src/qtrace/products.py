"""Synchronized products of a system with a requirement.

Each construction pairs the system's transition structure with the
requirement's step relation, producing a query-agnostic machine over the
joint state space plus distinguished sinks.  All of them go through one
breadth-first builder.  Each product class names the value domain it is
solved in (``DOMAIN``), and ``PAIRING_TABLE`` names the six pairings with
their input types, builders and the direct queries of :mod:`qtrace.oracle`
that the products are checked against.  The ``*_row`` functions contain the
actual pairing rule for a single transition row; they are deliberately
independent of state identity so the same rule can be exercised on raw
semantic values by the commutation checks.

By default products are restricted to the states reachable from the pair
of initial states; ``restrict=False`` builds the full cartesian space,
which the equality checks quantify over.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from .domains import ONE, PROB, PROB_REWARD, TROPICAL, ZERO
from .models import (
    ABSORB,
    ACCEPT,
    Dfa,
    LabeledMc,
    MarkovRewardModel,
    Nfa,
    NonTerminatingMc,
    REJECT,
    TARGET,
    WeightedMealy,
    WeightedTs,
    _check_distribution,
    _joined_pairs,
    require_same_alphabet,
)

SINKS = (ACCEPT, REJECT, ABSORB)


@dataclass(frozen=True)
class ProductMc:
    """Unlabeled Markov chain over state pairs with accept/reject sinks."""

    GOAL = ACCEPT  # the sink whose reachability the solvers compute
    SINKS = (ACCEPT, REJECT)
    DOMAIN = PROB  # the value domain the solvers work in

    states: tuple[str, ...]
    trans: dict[str, dict[str, Fraction]]
    initial: str


@dataclass(frozen=True)
class ProductRewardMc:
    """Product chain that additionally earns the system's reward per step."""

    GOAL = ACCEPT
    SINKS = (ACCEPT, REJECT)
    DOMAIN = PROB_REWARD

    states: tuple[str, ...]
    trans: dict[str, dict[str, Fraction]]
    stepreward: dict[str, int]
    initial: str


@dataclass(frozen=True)
class AbsorbingProductMc(ProductMc):
    """Product of a never-terminating chain with a monitor; acceptance absorbs."""

    GOAL = ABSORB
    SINKS = (ABSORB,)


@dataclass(frozen=True)
class ProductWts:
    """Weighted product; rows are finite sets of (successor-or-sink, weight)."""

    GOAL = ACCEPT
    SINKS = (ACCEPT, REJECT)
    DOMAIN = TROPICAL

    states: tuple[str, ...]
    trans: dict[str, tuple[tuple[str, int], ...]]
    initial: str


def pair_states(product) -> tuple[str, ...]:
    """The non-sink states of a product."""
    return tuple(s for s in product.states if s not in SINKS)


def validate_product(m) -> list[str]:
    out: list[str] = []
    pairs = dict.fromkeys(pair_states(m))  # unique, in order: faults come in state order
    allowed = {*pairs, *m.SINKS}
    for s in pairs:
        row = m.trans.get(s)
        if row is None:
            out.append(f"no transition row at product state {s!r}")
        elif isinstance(m, ProductWts):
            for succ, w in row:
                if succ not in allowed:
                    out.append(f"unknown successor {succ!r} at product state {s!r}")
                if not isinstance(w, int) or w < 0:
                    out.append(f"weight {w!r} at product state {s!r} is not natural")
        else:
            _check_distribution(row, f"product state {s!r}", allowed, out)
    if isinstance(m, ProductRewardMc):
        for s in pairs:
            r = m.stepreward.get(s)
            if not isinstance(r, int) or r < 0:
                out.append(f"step reward at {s!r} is not a natural number")
    if m.initial not in pairs:
        out.append(f"initial state {m.initial!r} not in product state set")
    return out


# ---------------------------------------------------------------------------
# pairing rules for a single transition row

def mc_dfa_row(
    successors: Iterable[tuple[object, Fraction]],
    halt_mass: Fraction,
    symbol: str,
    dfa_row,
):
    """Synchronize one probabilistic row with one deterministic step table.

    Every successor is paired with the monitor state reached on ``symbol``;
    the terminating mass lands in the sink named by the step's flag.
    Returns (pairs, accept mass, reject mass).
    """
    tgt, flag = dfa_row[symbol]
    pairs = [((x, tgt), p) for x, p in successors]
    if flag:
        return pairs, halt_mass, ZERO
    return pairs, ZERO, halt_mass


def mrm_dfa_row(successors, halt_mass, step_reward: int, symbol: str, dfa_row):
    """As :func:`mc_dfa_row`, carrying the step reward through unchanged."""
    pairs, acc, rej = mc_dfa_row(successors, halt_mass, symbol, dfa_row)
    return pairs, acc, rej, step_reward


def ntmc_dfa_row(successors, symbol: str, dfa_row):
    """Pair a never-terminating row with a monitor step.

    An accepting step sends the whole unit mass into the absorbing sink,
    discarding the successor distribution; otherwise the distribution is
    carried along with the advanced monitor state.
    """
    tgt, flag = dfa_row[symbol]
    if flag:
        return [], ONE
    return [((x, tgt), p) for x, p in successors], ZERO


def wts_nfa_row(transitions, nfa_row_fn):
    """Cross every weighted transition with every matching automaton edge.

    ``transitions`` yields (successor-or-None, symbol, weight); ``None``
    marks termination, which turns into a flag sink carrying the weight.
    """
    out = []
    for succ, a, m in transitions:
        for tgt, flag in nfa_row_fn(a):
            if succ is None:
                out.append(((ACCEPT if flag else REJECT), m))
            else:
                out.append(((succ, tgt), m))
    return out


def wts_wmm_row(transitions, wmm_row_fn):
    """As :func:`wts_nfa_row` but adding the requirement's edge weight."""
    out = []
    for succ, a, m in transitions:
        for tgt, flag, n in wmm_row_fn(a):
            if succ is None:
                out.append(((ACCEPT if flag else REJECT), m + n))
            else:
                out.append(((succ, tgt), m + n))
    return out


# ---------------------------------------------------------------------------
# product constructions

def _summed(entries) -> dict[str, Fraction]:
    """Probabilistic row: the total mass per target; zero masses are left out."""
    row: dict[str, Fraction] = {}
    for t, p in entries:
        if t in row:
            row[t] += p
        elif p:
            row[t] = p
    return row


def _weight_set(entries) -> tuple[tuple[str, int], ...]:
    """Weighted row: the distinct (target, weight) entries in sorted order."""
    return tuple(sorted(set(entries)))


def _build(kind, c, d, step, restrict: bool, collect=_summed, **fields):
    """Explore the pairs of ``c`` and ``d`` breadth first and build ``kind``.

    ``step(x, y)`` gives the entries of the row at pair (x, y) as
    (target, value), where a target is a successor pair (x', y') or a sink
    name; ``collect`` folds the entries into the row.  A restricted product
    holds the pairs reachable from the initial pair in discovery order, an
    unrestricted one every pair, system state major.  Each keyword in
    ``fields`` names a further per-state field of ``kind``, given as a
    function of the pair behind the state.
    """
    require_same_alphabet(c, d)
    back = _joined_pairs(c.states, d.states)
    ids = {pair: s for s, pair in back.items()}
    init = ids[c.initial, d.initial]
    order = [init] if restrict else list(back)
    seen = set(order)
    rows = {}
    for s in order:  # appended to while it is read: the breadth-first queue
        row = rows[s] = collect(
            [(ids[t] if isinstance(t, tuple) else t, v) for t, v in step(*back[s])]
        )
        if restrict:
            for t in dict(row):  # successor ids, first occurrence first
                if t not in seen and t not in SINKS:
                    seen.add(t)
                    order.append(t)
    extra = {name: {s: f(*back[s]) for s in rows} for name, f in fields.items()}
    return kind(states=tuple(order) + kind.SINKS, trans=rows, initial=init, **extra)


def _mc_dfa_rule(c, d, y, succ, halt, symbol):
    return mc_dfa_row(succ, halt, symbol, d.delta[y])


def _mc_dfa_step(c, d, rule):
    def step(x, y):
        row = c.trans[x]
        succ = [(x2, p) for x2, p in row.items() if x2 != TARGET]
        pairs, acc, rej = rule(c, d, y, succ, row.get(TARGET, ZERO), c.label[x])
        return [*pairs, (ACCEPT, acc), (REJECT, rej)]

    return step


def _product_mc_dfa(c, d, restrict: bool = True, rule=_mc_dfa_rule) -> ProductMc:
    """:func:`product_mc_dfa` with a replaceable row rule.

    ``rule(c, d, y, successors, halt mass, symbol)`` returns (pairs, accept
    mass, reject mass); the mutation catalogue of ``lawcheck`` passes
    broken rules here, so it exercises the builder that ships.
    """
    return _build(ProductMc, c, d, _mc_dfa_step(c, d, rule), restrict)


def product_mc_dfa(c: LabeledMc, d: Dfa, restrict: bool = True) -> ProductMc:
    """Product of a terminating chain with a deterministic requirement."""
    return _product_mc_dfa(c, d, restrict)


def product_mrm_dfa(c: MarkovRewardModel, d: Dfa, restrict: bool = True) -> ProductRewardMc:
    """Reward-carrying variant of :func:`product_mc_dfa`."""
    step = _mc_dfa_step(c, d, _mc_dfa_rule)
    return _build(
        ProductRewardMc, c, d, step, restrict, stepreward=lambda x, y: c.reward[x]
    )


def product_ntmc_dfa(c: NonTerminatingMc, d: Dfa, restrict: bool = True) -> AbsorbingProductMc:
    """Product of a never-terminating chain with a monitor; acceptance absorbs."""

    def step(x, y):
        pairs, absorb = ntmc_dfa_row(c.trans[x].items(), c.label[x], d.delta[y])
        return [*pairs, (ABSORB, absorb)]

    return _build(AbsorbingProductMc, c, d, step, restrict)


def _moves(c: WeightedTs) -> Callable[[str], list[tuple[str | None, str, int]]]:
    """The transitions of each state of ``c`` with termination written as
    ``None``, listed once per state however many pairs it enters."""
    memo: dict[str, list] = {}

    def moves(x: str):
        if x not in memo:
            memo[x] = [(None if succ == TARGET else succ, a, m) for succ, a, m in c.trans[x]]
        return memo[x]

    return moves


def product_wts_nfa(c: WeightedTs, d: Nfa, restrict: bool = True) -> ProductWts:
    """Product of a weighted system with a nondeterministic requirement."""
    moves = _moves(c)

    def step(x, y):
        row = d.delta.get(y, {})  # once per pair, not per move
        return wts_nfa_row(moves(x), lambda a: row.get(a, ()))

    return _build(ProductWts, c, d, step, restrict, _weight_set)


def product_wts_wmm(c: WeightedTs, d: WeightedMealy, restrict: bool = True) -> ProductWts:
    """Product of a weighted system with a weighted Mealy requirement."""
    moves = _moves(c)

    def step(x, y):
        row = d.delta.get(y, {})  # once per pair, not per move
        return wts_wmm_row(moves(x), lambda a: row.get(a, ()))

    return _build(ProductWts, c, d, step, restrict, _weight_set)


# ---------------------------------------------------------------------------
# the pairings

class Pairing(NamedTuple):
    """What a pairing takes as system and requirement, its builder, and its
    direct query: ``direct(system, requirement, depth)`` returns the lookup
    ``value(x, y, k)`` of the query on the depth-``k`` direct semantics,
    for any ``k <= depth``."""

    system: type
    requirement: type
    build: Callable
    direct: Callable


def _direct(name: str) -> Callable:
    """The direct query ``oracle.<name>``, imported when first called:
    building and solving products never needs the oracle, so ``import
    qtrace`` does not load it."""

    def direct(system, requirement, depth: int):
        from . import oracle

        return getattr(oracle, name)(system, requirement, depth)

    return direct


#: Every pairing by name; ``lawcheck.PAIRINGS`` lists them in this order.
PAIRING_TABLE: dict[str, Pairing] = {
    "mc-dfa": Pairing(LabeledMc, Dfa, product_mc_dfa, _direct("direct_mc_dfa")),
    "mrm-dfa": Pairing(MarkovRewardModel, Dfa, product_mrm_dfa, _direct("direct_mrm_dfa")),
    "mc-costdfa": Pairing(LabeledMc, Dfa, product_mc_dfa, _direct("direct_mc_dfa")),
    "ntmc-dfa": Pairing(NonTerminatingMc, Dfa, product_ntmc_dfa, _direct("direct_ntmc_dfa")),
    "wts-nfa": Pairing(WeightedTs, Nfa, product_wts_nfa, _direct("direct_wts_nfa")),
    "wts-wmm": Pairing(WeightedTs, WeightedMealy, product_wts_wmm, _direct("direct_wts_wmm")),
}
