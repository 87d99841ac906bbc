"""Synchronized products of a system with a requirement.

Each construction pairs the system's transition structure with the
requirement's step relation, producing a query-agnostic machine over the
joint state space plus distinguished sinks.  All of them go through one
breadth-first builder.  Each product class names the value domain it is
solved in (``DOMAIN``); the classes are defined in :mod:`qtrace.models`
and imported here, so that reading a product document or ``import qtrace``
does not load the builders.  ``PAIRING_TABLE`` names the six pairings with
their input types, builders and the direct queries of :mod:`qtrace.oracle`
that the products are checked against.

Two rules pair a system row with the requirement.  ``mealy_row`` is the
one crossing rule of the five terminating pairings: it crosses each
system move (successor or termination, symbol, value) with each
requirement edge (target, flag, weight) on that symbol.  A chain's moves
are its successors and then its halting mass; a weighted system's moves
are its transitions.  A DFA is read as a Mealy machine with one edge per
symbol and an NFA as one with its own edges, each edge carrying the unit
``None``, which leaves a probability or a weight as it is.  The reward
pairing is the ``mc-dfa`` product carrying the system's reward per state
in ``stepreward``.  ``ntmc_dfa_row`` pairs a never-terminating chain:
there acceptance absorbs the whole unit mass, a different law.  The
rules are independent of state identity, so the commutation checks
(``lawcheck.check_diagram``) run the same functions on raw semantic
values.

By default products are restricted to the states reachable from the pair
of initial states; ``restrict=False`` builds the full cartesian space,
which the equality checks quantify over.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .domains import ONE, ZERO
from .models import (
    ABSORB,
    ACCEPT,
    AbsorbingProductMc,
    Dfa,
    LabeledMc,
    MarkovRewardModel,
    Nfa,
    NonTerminatingMc,
    ProductMc,
    ProductRewardMc,
    ProductWts,
    REJECT,
    TARGET,
    WeightedMealy,
    WeightedTs,
    _check_distribution,
    _joined_pairs,
    require_same_alphabet,
)

SINKS = (ACCEPT, REJECT, ABSORB)


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

def mealy_row(moves, edges: dict) -> list:
    """Cross every system move with every requirement edge on its symbol.

    ``moves`` yields (successor-or-None, symbol, value), ``None`` marking a
    terminating move; ``edges`` maps a symbol to the requirement's
    (target, flag, weight) edges on it.  A successor move goes to the pair
    (successor, target), a terminating one to the sink that the edge's
    flag names.  The entry carries the move's value plus the edge's
    weight, or the move's value alone where the weight is the unit,
    ``None``.  Returns the (target, value) entries in order.
    """
    out = []
    for succ, a, m in moves:
        for tgt, flag, n in edges.get(a, ()):
            out.append((
                (succ, tgt) if succ is not None else ACCEPT if flag else REJECT,
                m if n is None else m + n,
            ))
    return out


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


def _unit_row(row: dict, deterministic: bool) -> dict:
    """A DFA row (one (target, flag) edge per symbol) or an NFA row (a
    tuple of them per symbol) as a Mealy row whose edges carry the unit."""
    if deterministic:
        return {a: ((tgt, flag, None),) for a, (tgt, flag) in row.items()}
    return {a: tuple((tgt, flag, None) for tgt, flag in edges) for a, edges in row.items()}


def _unit_mealy(d) -> WeightedMealy:
    """``d`` read as a Mealy machine: a DFA or NFA with the unit on every
    edge, a Mealy machine as it is."""
    if isinstance(d, WeightedMealy):
        return d
    deterministic = isinstance(d, Dfa)
    delta = {y: _unit_row(row, deterministic) for y, row in d.delta.items()}
    return WeightedMealy(d.states, d.alphabet, delta, d.initial)


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


def _chain_moves(c):
    """A chain's moves: each successor on the state's label in row order,
    then the halting mass as a terminating move."""

    def moves(x):
        row, a = c.trans[x], c.label[x]
        out = [(t, a, p) for t, p in row.items() if t != TARGET]
        if TARGET in row:
            out.append((None, a, row[TARGET]))
        return out

    return moves


def _mealy_product(kind, c, d: WeightedMealy, moves: Callable, restrict: bool, collect=_summed, **fields):
    """Build ``kind`` from :func:`mealy_row` at every pair (x, y), crossing
    ``moves(x)`` with the edges of ``y``.  The moves are read once per
    system state, however many pairs it enters."""
    memo: dict = {}
    delta = d.delta

    def step(x, y):
        if x not in memo:
            memo[x] = moves(x)
        return mealy_row(memo[x], delta.get(y, {}))

    return _build(kind, c, d, step, restrict, collect, **fields)


def product_mc_dfa(c: LabeledMc, d: Dfa | WeightedMealy, restrict: bool = True) -> ProductMc:
    """Product of a terminating chain with a deterministic requirement, read
    as a Mealy machine with one unit edge per symbol.  A Mealy machine of
    unit edges is taken as it is."""
    return _mealy_product(ProductMc, c, _unit_mealy(d), _chain_moves(c), restrict)


def product_mrm_dfa(c: MarkovRewardModel, d: Dfa, restrict: bool = True) -> ProductRewardMc:
    """Reward-carrying variant of :func:`product_mc_dfa`."""
    return _mealy_product(
        ProductRewardMc, c, _unit_mealy(d), _chain_moves(c), restrict,
        stepreward=lambda x, y: c.reward[x],
    )


def product_ntmc_dfa(c: NonTerminatingMc, d: Dfa, restrict: bool = True) -> AbsorbingProductMc:
    """Product of a never-terminating chain with a monitor; acceptance absorbs."""

    def step(x, y):
        pairs, absorb = ntmc_dfa_row(c.trans[x].items(), c.label[x], d.delta[y])
        return [*pairs, (ABSORB, absorb)]

    return _build(AbsorbingProductMc, c, d, step, restrict)


def product_wts_nfa(c: WeightedTs, d: Nfa, restrict: bool = True) -> ProductWts:
    """Product of a weighted system with a nondeterministic requirement: the
    weighted Mealy product with ``d`` read as a Mealy machine whose every
    edge carries the unit."""
    return product_wts_wmm(c, _unit_mealy(d), restrict)


def product_wts_wmm(c: WeightedTs, d: WeightedMealy, restrict: bool = True) -> ProductWts:
    """Product of a weighted system with a weighted Mealy requirement."""

    def moves(x):
        return [(None if succ == TARGET else succ, a, m) for succ, a, m in c.trans[x]]

    return _mealy_product(ProductWts, c, d, moves, restrict, _weight_set)


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
