"""Executable correctness checks for the product constructions.

Two families of checks are provided:

* ``check_step_equality`` -- for every depth k up to a bound and every
  joint state, the k-th iterate of the product's value update must equal
  the query evaluated on the depth-k direct semantics of the two
  machines.  This is exact (rational / min-plus) equality and is the
  repository's core guarantee.  Both sides are compared as integers: the
  product's iterate (``solvers.integer_iterates``) and the oracle's
  lookup (``oracle.Lookup``) each hold numerators over the k-th power of
  their own denominator, cross multiplied when the two differ.

* ``check_diagram`` -- the one-step commutation property behind that
  equality, tested on randomly sampled semantic values: folding the two
  sides first and then querying must coincide with pairing first and then
  folding the product update.  The pairing runs the crossing rule the
  builders run (``products.mealy_row``, over the requirement row read as
  the builders read it) and the fold the update the solvers run (one per
  value domain, in ``solvers``), each called through its module, so a
  patched rule or update is the one checked.  The never-terminating
  pairing is excluded (its property only holds on iterates, which step
  equality covers).

One table, ``LAWS``, keyed and ordered like ``products.PAIRING_TABLE``,
holds one row per pairing: its seeded instance drawer and, for a pairing
with a one-step diagram, the diagram's alphabet, a sampler of one system
step, a sampler of one requirement row, the query and the fold.
``random_instance``, ``DIAGRAM_PAIRINGS`` and ``check_diagram`` read the
table, so no check tests a pairing's name.

Composite checks (``check_cost_bounded``, ``check_cost_induced``,
``check_translation``) validate derived constructions end to end, and a
small catalogue of mutants (``MUTATIONS``) demonstrates that step equality
actually has teeth.  Each mutant is the shipped ``mc-dfa`` builder run on
one edit of its inputs: the DFA read as a Mealy machine of unit edges
with its edges edited, or the chain without its halting mass.

All randomness is drawn from explicitly seeded generators so every
failure is reproducible from its seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from math import lcm
from typing import Callable, NamedTuple

from . import oracle, products, solvers
from .domains import ONE, PROB, PROB_REWARD, ZERO, _value_over, value_str
from .models import (
    ACCEPT,
    Dfa,
    Fresh,
    LabeledMc,
    MarkovRewardModel,
    Nfa,
    NonTerminatingMc,
    ProductWts,
    Record,
    RewardMachine,
    TARGET,
    WeightedMealy,
    WeightedTs,
    joined,
    make_cost_bound_dfa,
    product_rm_costdfa,
    translate_to_nonterminating,
)
from .products import PAIRING_TABLE, product_mc_dfa, product_ntmc_dfa
from .solvers import integer_iterates, solve_reach_prob

PAIRINGS = tuple(PAIRING_TABLE)


class CheckResult(Record):
    """Outcome of one correctness check; failures carry a counterexample."""

    name: str
    passed: bool
    counterexample: dict | None = None
    details: dict = Fresh(dict)

    def to_json(self) -> dict:
        doc = {"name": self.name, "passed": self.passed, "details": self.details}
        if self.counterexample is not None:
            doc["counterexample"] = self.counterexample
        return doc


def _fail(name: str, *, x, y, k, lhs, rhs, details) -> CheckResult:
    return CheckResult(
        name=name,
        passed=False,
        counterexample={
            "system_state": x,
            "requirement_state": y,
            "depth": k,
            "product_value": value_str(lhs),
            "direct_value": value_str(rhs),
        },
        details=details,
    )


# ---------------------------------------------------------------------------
# step-indexed equality

def _times(n, c: int):
    """A numerator, or a pair of them, times ``c``."""
    return (n[0] * c, n[1] * c) if isinstance(n, tuple) else n * c


def _compare_iterates(
    name: str, product, points, direct: oracle.Lookup, depth: int, details: dict, exact: bool = False
) -> CheckResult:
    """Compare the iterates of ``product``'s value update with ``direct``.

    ``points`` lists (x, y, product state).  For every k <= depth the k-th
    iterate at the product state must equal ``direct(x, y, k)``; with
    ``exact`` the exact solve must also equal ``direct(x, y, depth)``
    (reported at depth ``"exact"``).  The first mismatch is the
    counterexample.

    Both sides are integer numerators: the iterate's over D**k, D the
    product's denominator, and the lookup's over its own ``den**k``.  They
    are compared as they are when the two denominators agree, and cross
    multiplied when they differ, so every comparison is exact; a value
    becomes a ``Fraction`` only for the counterexample.
    """
    den, levels = integer_iterates(product)
    table, same = direct.table, den == direct.den
    for k, level in zip(range(depth + 1), levels):
        scale, direct_scale = den**k, direct.den**k
        for x, y, s in points:
            n, o = level[s], table[x, y, k]
            if (n != o) if same else (_times(n, direct_scale) != _times(o, scale)):
                lhs = _value_over(product.DOMAIN, n, scale)
                return _fail(name, x=x, y=y, k=k, lhs=lhs, rhs=direct(x, y, k), details=details)
    if exact:
        values = solve_reach_prob(product).values
        for x, y, s in points:
            lhs = values[s]
            rhs = direct(x, y, depth)
            if lhs != rhs:
                return _fail(name, x=x, y=y, k="exact", lhs=lhs, rhs=rhs, details=details)
    return CheckResult(name=name, passed=True, counterexample=None, details=details)


def check_step_equality(
    pairing: str,
    system,
    requirement,
    kmax: int,
    product_fn: Callable | None = None,
    name: str | None = None,
) -> CheckResult:
    """Compare product iterates with direct-semantics queries, depth by depth.

    For every k <= kmax and every pair (x, y), the k-th iterate of the
    product's value update at (x, y) must equal the query applied to the
    depth-k semantics of the system at x and of the requirement at y.
    The first mismatch is reported as a counterexample.
    """
    if pairing not in PAIRINGS:
        raise ValueError(f"unknown pairing {pairing!r}")
    pair = PAIRING_TABLE[pairing]
    product = (product_fn or pair.build)(system, requirement, restrict=False)
    points = [(x, y, joined(x, y)) for x in system.states for y in requirement.states]
    return _compare_iterates(
        name or f"step-equality[{pairing}]",
        product,
        points,
        pair.direct(system, requirement, kmax),
        kmax,
        {"pairing": pairing, "kmax": kmax},
    )


# ---------------------------------------------------------------------------
# sampled one-step commutation

def _rand_den(rng: random.Random) -> int:
    return rng.choice((2, 3, 4, 5, 8, 16))


def _rand_unit_split(rng: random.Random, parts: int) -> list[Fraction]:
    """Positive rationals with a common small denominator summing to 1."""
    den = max(_rand_den(rng), parts)
    cuts = sorted(rng.sample(range(1, den), parts - 1)) if parts > 1 else []
    nums = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return [Fraction(n, den) for n in nums]


def _rand_word(rng: random.Random, alphabet) -> tuple[str, ...]:
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))


def _rand_lang(rng: random.Random, alphabet) -> set:
    return {_rand_word(rng, alphabet) for _ in range(rng.randint(0, 4))}


def _rand_trace_dist(rng: random.Random, alphabet) -> dict:
    words = list({_rand_word(rng, alphabet) for _ in range(rng.randint(0, 3))})
    if not words:
        return {}
    masses = _rand_unit_split(rng, len(words) + 1)[:-1]  # keep total below 1
    return {w: p for w, p in zip(words, masses) if p > 0}


def _rand_trace_reward_dist(rng: random.Random, alphabet) -> dict:
    return {
        (w, rng.randint(0, 6)): p for w, p in _rand_trace_dist(rng, alphabet).items()
    }


def _rand_weight_set(rng: random.Random, alphabet) -> set:
    return {
        (_rand_word(rng, alphabet), rng.randint(0, 5))
        for _ in range(rng.randint(0, 4))
    }


def _rand_value_dist(rng: random.Random, values: list) -> tuple[list, Fraction]:
    """Distribution over up to three semantic values plus a halting mass."""
    count = rng.randint(0, min(3, len(values)))
    masses = _rand_unit_split(rng, count + 1)
    entries = [(values[i], masses[i]) for i in range(count)]
    return entries, masses[-1]


def _rand_edge_row(rng: random.Random, alphabet, degenerate: bool, draw: Callable) -> dict:
    """Up to two edges per symbol, each drawn by ``draw`` (none when degenerate)."""
    return {a: [] if degenerate else [draw() for _ in range(rng.randint(0, 2))] for a in alphabet}


# One system step, sampled: (semantic step, the builders' moves, step
# reward or None).  A chain's moves are its successors and then its halting
# mass, on the sampled symbol; a reward chain draws its step reward last.

def _chain_step(rng: random.Random, alphabet, degenerate: bool, reward: bool = False):
    draw = _rand_trace_reward_dist if reward else _rand_trace_dist
    dists = [draw(rng, alphabet) for _ in range(3)]
    entries, halt = ([], ONE) if degenerate else _rand_value_dist(rng, dists)
    symbol = rng.choice(alphabet)
    moves = [(nu, symbol, p) for nu, p in entries] + [(None, symbol, halt)]
    if not reward:
        return oracle.mc_trace_step(entries, halt, symbol), moves, None
    step_reward = rng.randint(0, 5)
    return oracle.mrm_trace_step(entries, halt, step_reward, symbol), moves, step_reward


def _wts_step(rng: random.Random, alphabet, degenerate: bool):
    """Weighted transitions into sampled weight sets; ``None`` terminates."""
    sets = [_rand_weight_set(rng, alphabet) for _ in range(3)]
    transitions = [] if degenerate else [
        (None if rng.random() < 0.4 else rng.choice(sets), rng.choice(alphabet), rng.randint(0, 5))
        for _ in range(rng.randint(0, 4))
    ]
    return oracle.wts_trace_step(transitions), transitions, None


# One requirement row, sampled: (semantic step, the builders' edges).  The
# builders read a DFA or NFA row as unit edges, a Mealy row as it is.

def _dfa_row_step(rng: random.Random, alphabet, degenerate: bool):
    row = {a: (set() if degenerate else _rand_lang(rng, alphabet), rng.random() < 0.25) for a in alphabet}
    return oracle.dfa_lang_step(row), products._unit_row(row, True)


def _nfa_row_step(rng: random.Random, alphabet, degenerate: bool):
    row = _rand_edge_row(rng, alphabet, degenerate, lambda: (_rand_lang(rng, alphabet), rng.random() < 0.25))
    return oracle.nfa_lang_step(row), products._unit_row(row, False)


def _wmm_row_step(rng: random.Random, alphabet, degenerate: bool):
    row = _rand_edge_row(
        rng, alphabet, degenerate,
        lambda: (_rand_weight_set(rng, alphabet), rng.random() < 0.25, rng.randint(0, 5)),
    )
    return oracle.wmm_trace_step(row), row


def _fold_prob_row(entries: list, query: Callable, reward: int | None = None):
    """Fold one probabilistic product row, the crossing rule's output,
    through the shipped update.

    ``entries`` lists (target, mass): a successor pair (x, y) has the value
    ``query(x, y)``, a pair (probability, reward) when ``reward`` is given,
    the mass on the accepting sink is the goal mass, and the rejecting
    sink is left out.  The row becomes one integer row of
    ``solvers._prob_rows``, successor i at its mass's numerator over the
    lcm D of the masses' denominators, the values numerators over the lcm
    L of theirs, and ``solvers._prob_update``'s result is read back over
    D L."""
    goal = sum((p for t, p in entries if t == ACCEPT), ZERO)
    pairs = [(query(*t), p) for t, p in entries if isinstance(t, tuple)]
    scale, values = solvers._over_lcm(dict(enumerate(v for v, _ in pairs)), reward is not None)
    den = lcm(goal.denominator, *(p.denominator for _, p in pairs))
    succ = [(i, p.numerator * (den // p.denominator)) for i, (_, p) in enumerate(pairs)]
    row = ("s", den, goal.numerator * (den // goal.denominator), reward, succ)
    (n,) = solvers._prob_update([row], scale, values).values()
    return _value_over(PROB if reward is None else PROB_REWARD, n, den * scale)


def _fold_cost_row(entries, query: Callable, reward: None = None):
    """Fold one weighted product row, the crossing rule's output, through
    the shipped update: the row of a one-state product whose successor
    pairs (x, y) are named by position, each with its cost
    ``query(x, y)``.  A weighted system has no step reward."""
    row, values = [], {}
    for i, (tgt, m) in enumerate(entries):
        if isinstance(tgt, tuple):
            values[str(i)] = query(*tgt)
            tgt = str(i)
        row.append((tgt, m))
    product = ProductWts(states=("s", *ProductWts.SINKS), trans={"s": tuple(row)}, initial="s")
    return solvers._cost_update(product, ("s",), values)["s"]


def check_diagram(pairing: str, samples: int, seed: int) -> CheckResult:
    """Sampled one-step commutation check for a pairing's product rule.

    Each sample draws, from the pairing's row of :data:`LAWS`, one system
    step and then one requirement row, and compares the two paths of the
    diagram exactly: the query on the two semantic steps, and the row's
    fold of the builders' crossing rule on their moves and edges.
    Degenerate samples (pure halting mass, empty requirement rows) are
    always included.
    """
    law = _law(pairing)
    if law.alphabet is None:
        raise ValueError(
            f"{pairing} satisfies the weaker criterion only; its one-step diagram "
            "is not checked -- use check_step_equality instead"
        )
    rng = random.Random(seed)
    query = getattr(oracle, law.query)
    counterexample = None
    for i in range(samples):
        degenerate = i < 2  # first samples: halt-only mass / empty rows
        system, moves, reward = law.system(rng, law.alphabet, degenerate)
        requirement, edges = law.requirement(rng, law.alphabet, degenerate)
        lhs = query(system, requirement)
        rhs = law.fold(products.mealy_row(moves, edges), query, reward)
        if lhs != rhs:
            counterexample = {"sample": i, "lhs": value_str(lhs), "rhs": value_str(rhs)}
            break
    return CheckResult(
        name=f"diagram[{pairing}]",
        passed=counterexample is None,
        counterexample=counterexample,
        details={"pairing": pairing, "samples": samples, "seed": seed},
    )


# ---------------------------------------------------------------------------
# composite constructions

def _mass_lookup(c: LabeledMc, depth: int, states, admits: Callable) -> oracle.Lookup:
    """The direct side of a cost check: at (x, y, k), the mass of the
    depth-k traces w from x with ``admits(y, w)``, summed on the chain's
    integer unfold."""
    den, levels = oracle._mass_levels(c, depth)

    def read(x, dist):
        return [sum(q for w, q in dist.items() if admits(y, w)) for y in states]

    return oracle._lookup(PROB, den, levels, states, read)


def check_cost_bounded(c: LabeledMc, budget: int, kmax: int) -> CheckResult:
    """Bounded-budget acceptance: product pipeline vs direct weight sums.

    The direct side never touches the budget automaton: it sums the mass
    of the weight words whose total stays below the budget.  Checked at
    every depth up to kmax and, because weights are at least 1, the exact
    solve must agree with the direct value at depth max(kmax, budget).
    """
    weight_bound = max(int(a) for a in c.alphabet)
    product = product_mc_dfa(c, make_cost_bound_dfa(budget, weight_bound), restrict=False)
    depth = max(kmax, budget)
    y = str(budget)
    return _compare_iterates(
        f"cost-bounded[N={budget}]",
        product,
        [(x, y, joined(x, y)) for x in c.states],
        _mass_lookup(c, depth, (y,), lambda y, w: sum(int(a) for a in w) < budget),
        depth,
        {"budget": budget, "kmax": kmax},
        exact=True,
    )


def check_cost_induced(c: LabeledMc, rm: RewardMachine, budget: int, kmax: int) -> CheckResult:
    """Requirement-induced costs: composed product vs transducer weight sums.

    The requirement is the composition of the reward machine with the
    budget automaton; the direct side runs the transducer over each trace
    and sums its weights.
    """
    composed = product_rm_costdfa(rm, make_cost_bound_dfa(budget, rm.bound))
    product = product_mc_dfa(c, composed, restrict=False)
    depth = max(kmax, budget)
    return _compare_iterates(
        f"cost-induced[N={budget}]",
        product,
        [(x, y, joined(x, y, str(budget))) for x in c.states for y in rm.states],
        _mass_lookup(c, depth, rm.states, lambda y, w: sum(oracle.rm_weights(rm, y, w)) < budget),
        depth,
        {"budget": budget, "kmax": kmax, "bound": rm.bound},
        exact=True,
    )


def check_translation(c: LabeledMc, d: Dfa) -> CheckResult:
    """Terminating pipeline vs its never-terminating translation.

    Both sides are solved exactly; the values must agree at every pair of
    corresponding states, for either choice of the carried flag.
    """
    direct = solve_reach_prob(product_mc_dfa(c, d, restrict=False)).values
    chain, monitor = translate_to_nonterminating(c, d)
    translated = solve_reach_prob(product_ntmc_dfa(chain, monitor, restrict=False)).values
    name = "translation"
    for x in c.states:
        for y in d.states:
            lhs = direct[joined(x, y)]
            for tag in ("acc", "rej"):
                rhs = translated[joined(x, joined(y, tag))]
                if lhs != rhs:
                    return _fail(
                        name, x=x, y=f"{y}/{tag}", k="exact", lhs=lhs, rhs=rhs, details={}
                    )
    return CheckResult(name=name, passed=True, counterexample=None, details={})


# ---------------------------------------------------------------------------
# mutation catalogue: the shipped mc-dfa builder on single edits of its inputs

def _edges_edited(edit: Callable) -> Callable:
    """The shipped ``mc-dfa`` builder over the DFA read as a Mealy machine
    of unit edges, its edges at (y, a) replaced by ``edit(c, m, y, a)``, m
    that Mealy machine."""

    def build(c: LabeledMc, d: Dfa, restrict: bool = True):
        m = products._unit_mealy(d)
        delta = {y: {a: edit(c, m, y, a) for a in m.alphabet} for y in m.states}
        return product_mc_dfa(c, WeightedMealy(m.states, m.alphabet, delta, m.initial), restrict)

    return build


def _halt_mass_dropped(c: LabeledMc, d: Dfa, restrict: bool = True):
    """The shipped ``mc-dfa`` builder over the chain without its halting mass."""
    trans = {x: {t: p for t, p in row.items() if t != TARGET} for x, row in c.trans.items()}
    return product_mc_dfa(LabeledMc(c.states, c.alphabet, c.label, trans, c.initial), d, restrict)


#: Single-edit mutants of the mc-dfa pairing, each of which must be caught
#: by check_step_equality on the shipped robot fixture.  The broadcast adds
#: a rejecting edge to every other requirement state, so the halting mass
#: it copies leaves the accepting sink's mass as it is.
MUTATIONS: dict[str, Callable] = {
    "flag-swapped": _edges_edited(lambda c, m, y, a: tuple((t, not f, n) for t, f, n in m.delta[y][a])),
    "requirement-frozen": _edges_edited(lambda c, m, y, a: tuple((y, f, n) for t, f, n in m.delta[y][a])),
    "halt-mass-dropped": _halt_mass_dropped,
    "symbol-ignored": _edges_edited(lambda c, m, y, a: m.delta[y][c.alphabet[0]]),
    "pair-broadcast": _edges_edited(
        lambda c, m, y, a: tuple((z, f and z == t, n) for t, f, n in m.delta[y][a] for z in m.states)
    ),
}


# ---------------------------------------------------------------------------
# seeded random instances

def _rand_row(rng: random.Random, targets: tuple[str, ...], allow_halt: bool) -> dict[str, Fraction]:
    support = rng.sample(targets, min(len(targets), rng.randint(1, 2)))
    if allow_halt and (rng.random() < 0.5 or not support):
        support.append(TARGET)
    if len(support) == 1:
        return {support[0]: ONE}
    probs = _rand_unit_split(rng, len(support))
    return {s: p for s, p in zip(support, probs)}


def _random_chain(rng: random.Random, alphabet, max_states: int, halts: bool):
    """States s0, s1, ..., a label per state and a row per state, drawn in
    that order; each row may halt when ``halts``."""
    n = rng.randint(2, max_states)
    states = tuple(f"s{i}" for i in range(n))
    label = {x: rng.choice(alphabet) for x in states}
    trans = {x: _rand_row(rng, states, allow_halt=halts) for x in states}
    return states, tuple(alphabet), label, trans


def random_mc(rng: random.Random, alphabet=("a", "b", "c"), max_states: int = 6) -> LabeledMc:
    states, alphabet, label, trans = _random_chain(rng, alphabet, max_states, halts=True)
    trans[states[-1]] = {TARGET: ONE}  # make sure termination is reachable at all
    return LabeledMc(states, alphabet, label, trans, states[0])


def random_mrm(rng: random.Random, alphabet=("a", "b", "c"), max_states: int = 6) -> MarkovRewardModel:
    mc = random_mc(rng, alphabet, max_states)
    reward = {x: rng.randint(0, 5) for x in mc.states}
    return MarkovRewardModel(mc.states, mc.alphabet, mc.label, reward, mc.trans, mc.initial)


def random_ntmc(rng: random.Random, alphabet=("a", "b", "c"), max_states: int = 6) -> NonTerminatingMc:
    states, alphabet, label, trans = _random_chain(rng, alphabet, max_states, halts=False)
    return NonTerminatingMc(states, alphabet, label, trans, states[0])


def random_dfa(rng: random.Random, alphabet=("a", "b", "c"), max_states: int = 4) -> Dfa:
    n = rng.randint(2, max_states)
    states = tuple(f"q{i}" for i in range(n))
    delta = {
        y: {a: (rng.choice(states), rng.random() < 0.25) for a in alphabet}
        for y in states
    }
    return Dfa(states, tuple(alphabet), delta, states[0])


def _random_edges(rng: random.Random, alphabet, max_states: int, weighted: bool) -> tuple[tuple[str, ...], dict]:
    """States q0, q1, ... and up to two (target, flag) edges per state and
    symbol, each with a weight after the flag when ``weighted``."""
    n = rng.randint(2, max_states)
    states = tuple(f"q{i}" for i in range(n))
    delta = {}
    for y in states:
        row = {}
        for a in alphabet:
            entries = tuple(
                (rng.choice(states), rng.random() < 0.25, *((rng.randint(0, 5),) if weighted else ()))
                for _ in range(rng.randint(0, 2))
            )
            if entries:
                row[a] = entries
        delta[y] = row
    return states, delta


def random_nfa(rng: random.Random, alphabet=("a", "b", "c"), max_states: int = 4) -> Nfa:
    states, delta = _random_edges(rng, alphabet, max_states, weighted=False)
    return Nfa(states, tuple(alphabet), delta, states[0])


def random_wts(rng: random.Random, alphabet=("a", "b", "c"), max_states: int = 6) -> WeightedTs:
    n = rng.randint(2, max_states)
    states = tuple(f"s{i}" for i in range(n))
    trans = {}
    for x in states:
        entries = set()
        for _ in range(rng.randint(1, 2)):
            succ = TARGET if rng.random() < 0.4 else rng.choice(states)
            entries.add((succ, rng.choice(alphabet), rng.randint(1, 5)))
        trans[x] = tuple(sorted(entries))
    return WeightedTs(states, tuple(alphabet), trans, states[0])


def random_wmm(rng: random.Random, alphabet=("a", "b", "c"), max_states: int = 4) -> WeightedMealy:
    states, delta = _random_edges(rng, alphabet, max_states, weighted=True)
    return WeightedMealy(states, tuple(alphabet), delta, states[0])


def random_rm(rng: random.Random, alphabet=("a", "b", "c"), bound: int = 3, max_states: int = 3) -> RewardMachine:
    n = rng.randint(1, max_states)
    states = tuple(f"r{i}" for i in range(n))
    delta = {
        y: {a: (rng.choice(states), rng.randint(1, bound)) for a in alphabet}
        for y in states
    }
    return RewardMachine(states, tuple(alphabet), bound, delta, states[0])


def random_cost_mc(rng: random.Random, weight_bound: int = 3, max_states: int = 6) -> LabeledMc:
    alphabet = tuple(str(j) for j in range(1, weight_bound + 1))
    return random_mc(rng, alphabet, max_states)


def _random_cost_instance(rng: random.Random):
    weight_bound = rng.randint(1, 3)
    budget = rng.randint(1, 3)
    return random_cost_mc(rng, weight_bound), make_cost_bound_dfa(budget, weight_bound)


def random_instance(pairing: str, rng: random.Random):
    """A (system, requirement) pair for the given pairing."""
    return _law(pairing).instance(rng)


# ---------------------------------------------------------------------------
# the laws: one row per pairing

class Law(NamedTuple):
    """What lawcheck draws and checks for one pairing.

    ``instance(rng)`` draws a seeded (system, requirement) pair.  A pairing
    with a one-step diagram also names the diagram's ``alphabet``;
    ``system(rng, alphabet, degenerate)`` samples one system step as
    (semantic step, the builders' moves, step reward or None),
    ``requirement(rng, alphabet, degenerate)`` one requirement row as
    (semantic step, the builders' edges), ``query`` names the query of
    :mod:`qtrace.oracle` on the two, and ``fold(entries, query, reward)``
    folds the crossing rule's output through the shipped update.  The
    never-terminating pairing has no diagram, so its row holds the drawer
    alone.  The rows call ``oracle``, ``products`` and ``solvers`` through
    their modules, so a patched or traced function is the one run.
    """

    instance: Callable
    alphabet: tuple[str, ...] | None = None
    system: Callable | None = None
    requirement: Callable | None = None
    query: str | None = None
    fold: Callable | None = None


_ABC = ("a", "b", "c")

#: One row per pairing, keyed and ordered like ``products.PAIRING_TABLE``.
LAWS: dict[str, Law] = {
    "mc-dfa": Law(lambda rng: (random_mc(rng), random_dfa(rng)),
                  _ABC, _chain_step, _dfa_row_step, "query_prob", _fold_prob_row),
    "mrm-dfa": Law(lambda rng: (random_mrm(rng), random_dfa(rng)),
                   _ABC, partial(_chain_step, reward=True), _dfa_row_step, "query_reward", _fold_prob_row),
    "mc-costdfa": Law(_random_cost_instance,
                      ("1", "2", "3"), _chain_step, _dfa_row_step, "query_prob", _fold_prob_row),
    "ntmc-dfa": Law(lambda rng: (random_ntmc(rng), random_dfa(rng))),
    "wts-nfa": Law(lambda rng: (random_wts(rng), random_nfa(rng)),
                   _ABC, _wts_step, _nfa_row_step, "query_tropical", _fold_cost_row),
    "wts-wmm": Law(lambda rng: (random_wts(rng), random_wmm(rng)),
                   _ABC, _wts_step, _wmm_row_step, "query_wmm", _fold_cost_row),
}

#: Pairings with a full one-step commutation property; the never-terminating
#: pairing satisfies only the iterate-level property.
DIAGRAM_PAIRINGS = tuple(p for p, law in LAWS.items() if law.alphabet is not None)


def _law(pairing: str) -> Law:
    if pairing not in LAWS:
        raise ValueError(f"unknown pairing {pairing!r}")
    return LAWS[pairing]


def run_step_equality_batch(
    pairing: str, instances: int, kmax: int, seed: int
) -> CheckResult:
    """Step equality over a seeded batch of random instances."""
    details = {"pairing": pairing, "instances": instances, "kmax": kmax, "seed": seed}
    for i in range(instances):
        rng = random.Random(f"{seed}:{pairing}:{i}")
        system, requirement = random_instance(pairing, rng)
        res = check_step_equality(pairing, system, requirement, kmax)
        if not res.passed:
            ce = dict(res.counterexample or {})
            ce["instance"] = i
            ce["seed"] = seed
            return CheckResult(name=res.name, passed=False, counterexample=ce, details=details)
    return CheckResult(
        name=f"step-equality[{pairing}]", passed=True, counterexample=None, details=details
    )
