"""Evaluate product machines: exact linear solving, Dijkstra, and k-step iterates.

The value of a product state is the least solution of a one-step update
equation.  Probabilistic products are solved exactly: states that cannot
reach the accepting sink are pinned to the bottom value first (this is
what selects the *least* solution), the remainder is a nonsingular linear
system solved one strongly connected component at a time, in reverse
topological order: a single state by back substitution, a cyclic
component by sparse elimination on integer rows.  The arithmetic runs on
plain integers, and each value becomes a ``Fraction`` once, when it is
known; the one-step updates sum integer numerators over a common
denominator in the same way.  Weighted products are
solved by one Dijkstra pass from the accepting sink over the reversed
product graph, which nonnegative weights make exact.  Each exact answer
is certified before it is returned, in one pass over the product rows:
every pair state's update is evaluated straight from ``m.trans`` and must
give its value back, and for least costs the same pass collects the tight
edges that prove the costs attained.  A failed check raises
``SolverError`` (never an ``assert``, so the check also runs under
``python -O``).  Every product class names its value domain (``DOMAIN``),
and one solve path serves all of them: ``iterate`` (the k-th iterate of
the update, the only mode that builds the transformer) is shared, and
every other mode, ``epsilon`` included, returns the domain's exact answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable

from .domains import (
    INF,
    PROB,
    PROB_REWARD,
    TROPICAL,
    ZERO,
    _json_value,
    bottom_vector,
    kleene_iterate,
)
from .products import ProductMc, ProductRewardMc, ProductWts, pair_states


class SolverError(RuntimeError):
    """A solution failed the solver's own check of the fixed point."""


@dataclass(frozen=True)
class SolveReport:
    """Solver outcome: a value vector plus how it was obtained."""

    values: dict[str, object]
    method: str  # "exact-linear" | "kleene" | "dijkstra"
    iterations: int
    converged: bool
    domain: str

    def value_at(self, state: str):
        return self.values[state]

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "iterations": self.iterations,
            "converged": self.converged,
            "domain": self.domain,
            "values": _json_value(self.values),
        }


# ---------------------------------------------------------------------------
# one-step value updates

def reach_value_step(successors, accept_mass: Fraction) -> Fraction:
    """Acceptance probability after one step, given successor values.

    The sum runs on an integer numerator over the lcm of the terms'
    denominators, one gcd per term, and is reduced once, into the
    ``Fraction`` it returns."""
    num, den = accept_mass.numerator, accept_mass.denominator
    for value, p in successors:
        n = p.numerator * value.numerator
        if n:
            d = p.denominator * value.denominator
            g = gcd(den, d)
            num, den = num * (d // g) + n * (den // g), den * (d // g)
    return Fraction(num, den)


def reward_value_step(successors, accept_mass: Fraction, step_reward: int):
    """Joint (probability, partial reward) update with a per-step reward.

    Accepting, now or later, earns the step reward weighted by the
    acceptance probability; continuing adds whatever the successor already
    accumulated.  Both sums are :func:`reach_value_step`.
    """
    successors = list(successors)
    prob = reach_value_step(((p_val, p) for (p_val, _), p in successors), accept_mass)
    return (prob, reach_value_step(((r_val, p) for (_, r_val), p in successors), step_reward * prob))


def min_cost_step(successors, accept_weights):
    """Cheapest way to accept in one more step: direct or via a successor."""
    best = INF
    for m in accept_weights:
        if m < best:
            best = m
    for value, m in successors:
        cand = value + m
        if cand < best:
            best = cand
    return best


# ---------------------------------------------------------------------------
# transformers

def _prob_transformer(m, step, extra=lambda s: ()) -> Callable[[dict], dict]:
    """The update ``step(successor values, goal mass, *extra(s))`` at every
    state of a probabilistic product; each row is compiled once, so a round
    makes one ``step`` call per state."""
    compiled = []
    for s in pair_states(m):
        row = m.trans[s]
        succ = [(t, p) for t, p in row.items() if t not in m.SINKS]
        compiled.append((s, succ, (row.get(m.GOAL, ZERO), *extra(s))))

    def phi(u: dict) -> dict:
        return {s: step(((u[t], p) for t, p in succ), *args) for s, succ, args in compiled}

    return phi


def reach_transformer(m: ProductMc) -> Callable[[dict], dict]:
    return _prob_transformer(m, reach_value_step)


def reward_transformer(m: ProductRewardMc) -> Callable[[dict], dict]:
    return _prob_transformer(m, reward_value_step, lambda s: (m.stepreward[s],))


def tropical_transformer(m: ProductWts) -> Callable[[dict], dict]:
    compiled = []
    for s in pair_states(m):
        acc = [w for t, w in m.trans[s] if t == m.GOAL]
        succ = [edge for edge in m.trans[s] if edge[0] not in m.SINKS]  # shares the product's tuples
        compiled.append((s, acc, succ))

    def phi(u: dict) -> dict:
        return {
            s: min_cost_step(((u[t], w) for t, w in succ), acc)
            for s, acc, succ in compiled
        }

    return phi


def product_transformer(m) -> Callable[[dict], dict]:
    """One-step value update of any product kind."""
    transformer, _, _ = _SOLVERS[_domain(m)]
    return transformer(m)


# ---------------------------------------------------------------------------
# exact linear solving

def _states_reaching(m, goal: str) -> set[str]:
    """States with a positive-probability path to ``goal``."""
    incoming: dict[str, list[str]] = {}
    for s in pair_states(m):
        for t in m.trans[s]:
            incoming.setdefault(t, []).append(s)
    seen: set[str] = set()
    queue = list(incoming.get(goal, []))
    while queue:
        s = queue.pop()
        if s in seen:
            continue
        seen.add(s)
        queue.extend(incoming.get(s, []))
    return seen


def _components(succ: list) -> list[list[int]]:
    """Strongly connected components of the graph with an edge ``i -> j``
    for each ``j`` in ``succ[i]``, each listed after every component it
    reaches (Tarjan 1972).  The depth-first search keeps its own stack, so
    long chains cannot hit the recursion limit."""
    n = len(succ)
    order = [-1] * n  # discovery number, -1 while unvisited
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    work: list = []  # the search path: (state, its successors not yet looked at)
    found: list[list[int]] = []
    count = 0

    def visit(v: int) -> None:
        nonlocal count
        order[v] = low[v] = count
        count += 1
        stack.append(v)
        on_stack[v] = True
        work.append((v, iter(succ[v])))

    for root in range(n):
        if order[root] < 0:
            visit(root)
        while work:
            v, edges = work[-1]
            for w in edges:
                if order[w] < 0:
                    visit(w)
                    break
                if on_stack[w] and order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == order[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == v:
                            break
                    found.append(component)
    return found


def _divide_content(row: dict[int, int], rhs: int) -> int:
    """Divide ``row`` in place by the greatest common divisor of its entries
    and ``rhs``; returns ``rhs`` divided by it."""
    content = gcd(rhs, *row.values())
    if content > 1:
        for j in row:
            row[j] //= content
        rhs //= content
    return rhs


def _eliminate(component: list[int], rows: list[dict], rhs: list[Fraction], value: list) -> None:
    """Solve one cyclic component into ``value``, given the values of every
    state it leaves to.

    This is state elimination (Daws, ICTAC 2004) written as Gaussian
    elimination.  Each row of (I - coeff) restricted to the component, with
    the known outside values moved to its right-hand side, is scaled by the
    lcm of its denominators to integers and kept free of a common factor.
    Forward elimination takes diagonal pivots in greedy Markowitz order
    (least (row count - 1) * (column count - 1) first, from a heap of
    lazily refreshed scores).  Back substitution keeps the values found so
    far as integer numerators over one shared denominator, so a row costs
    one integer pass and one gcd; the shared denominator is raised to the
    lcm, and the numerators scaled with it, only when a new value's reduced
    denominator does not divide it.  Every such denominator divides the
    determinant of the component's integer matrix, and so does the shared
    one.
    """
    from heapq import heapify, heappop, heappush  # only cyclic products need it, so not on import

    inside = set(component)
    mat: dict[int, dict[int, int]] = {}
    b: dict[int, int] = {}
    cols: dict[int, set[int]] = {k: set() for k in component}
    for i in component:
        acc = reach_value_step(((value[j], p) for j, p in rows[i].items() if j not in inside), rhs[i])
        coeffs = [(j, p) for j, p in rows[i].items() if j in inside]
        scale = lcm(acc.denominator, *(p.denominator for _, p in coeffs))
        row = {i: scale}
        for j, p in coeffs:
            row[j] = row.get(j, 0) - p.numerator * (scale // p.denominator)
        mat[i] = {j: a for j, a in row.items() if a}
        b[i] = _divide_content(mat[i], acc.numerator * (scale // acc.denominator))
        for j in mat[i]:
            cols[j].add(i)

    def score(k: int) -> tuple[int, int]:
        return ((len(mat[k]) - 1) * (len(cols[k]) - 1), k)

    heap = [score(k) for k in component]
    heapify(heap)
    order: list[int] = []
    while heap:
        entry = heappop(heap)
        k = entry[1]
        if k not in cols or entry != score(k):  # eliminated already, or a stale score
            continue
        order.append(k)
        row_k = mat[k]
        pivot = row_k.get(k, 0)
        if pivot == 0:
            raise SolverError("reduced system is singular; zero-pinning failed")
        others = [j for j in row_k if j != k]
        for j in others:
            cols[j].discard(k)
        for i in cols.pop(k):
            if i == k:
                continue
            row_i = mat[i]
            f = row_i.pop(k)
            g = gcd(pivot, f)
            up, down = pivot // g, f // g  # row_i <- up * row_i - down * row_k
            if up != 1:
                for j in row_i:
                    row_i[j] *= up
            for j in others:
                a = row_i.get(j, 0) - down * row_k[j]
                if a:
                    if j not in row_i:
                        cols[j].add(i)
                    row_i[j] = a
                elif j in row_i:
                    del row_i[j]
                    cols[j].discard(i)
            b[i] = _divide_content(row_i, up * b[i] - down * b[k])
            heappush(heap, score(i))
        for j in others:
            heappush(heap, score(j))

    shared = 1  # every value found so far is num[k] / shared
    num: dict[int, int] = {}
    for k in reversed(order):
        row_k = mat[k]
        pivot = row_k.pop(k)
        top = b[k] * shared
        for j, a in row_k.items():
            top -= a * num[j]
        den = pivot * shared
        g = gcd(top, den)
        top, den = top // g, den // g
        if shared % den:  # rare: scale the shared denominator to the lcm
            grow = den // gcd(shared, den)
            shared *= grow
            for j in num:
                num[j] *= grow
        num[k] = top * (shared // den)
        value[k] = Fraction(top, den)


def _solve_linear(unknowns: list[str], coeff: dict[str, dict[str, Fraction]], rhs: dict[str, Fraction]) -> dict[str, Fraction]:
    """Solve (I - coeff) v = rhs exactly, one strongly connected component
    at a time.

    The states are numbered, split into components, and the components
    solved so that every value a component reads from outside it is
    already known.  A single state is back substitution, divided by
    1 - p when it has a self-loop of probability p; a larger component is
    eliminated by ``_eliminate``.  Diagonal pivots suffice because on
    states that all reach the goal I - coeff is a nonsingular M-matrix,
    and so is every matrix elimination leaves; a zero pivot therefore
    means the zero-pinning failed.  Entries of ``coeff`` that name no
    unknown are ignored: those states are pinned to 0.
    """
    index = {s: i for i, s in enumerate(unknowns)}
    rows = [{index[t]: p for t, p in coeff[s].items() if t in index} for s in unknowns]
    b = [rhs[s] for s in unknowns]
    value: list = [None] * len(unknowns)
    for component in _components(rows):
        if len(component) > 1:
            _eliminate(component, rows, b, value)
            continue
        (i,) = component
        acc = reach_value_step(((value[j], p) for j, p in rows[i].items() if j != i), b[i])
        loop = rows[i].get(i)
        if loop is None:
            value[i] = acc
        elif loop == 1:
            raise SolverError("reduced system is singular; zero-pinning failed")
        else:  # acc / (1 - loop), in integers
            d = loop.denominator
            value[i] = Fraction(acc.numerator * d, acc.denominator * (d - loop.numerator))
    return {s: value[i] for s, i in index.items()}


def _linear_solver(m, states: list[str]) -> Callable:
    """``solve(rhs)``: the exact solution of v = coeff v + rhs over ``states``.

    States that cannot reach the goal are pinned to 0, which selects the
    least solution; the rest form a nonsingular system, set up once and
    solved for every right-hand side ``rhs(state)`` it is given.
    """
    live = _states_reaching(m, m.GOAL)
    unknowns = [s for s in states if s in live]
    coeff = {s: {t: p for t, p in m.trans[s].items() if t in live} for s in unknowns}

    def solve(rhs: Callable[[str], Fraction]) -> dict[str, Fraction]:
        values = {s: ZERO for s in states}
        values.update(_solve_linear(unknowns, coeff, {s: rhs(s) for s in unknowns}))
        return values

    return solve


def _checked(m, values: dict, domain: str) -> SolveReport:
    """An exact solution, once it satisfies its update equation.

    The certificate is one pass over the product rows: the update of each
    pair state is evaluated straight from ``m.trans`` and must give its
    value back, and ``values`` must hold exactly the pair states."""
    states = pair_states(m)
    if values.keys() != set(states):
        raise SolverError("exact solution does not satisfy the update equation")
    goal, sinks = m.GOAL, m.SINKS
    reward = m.stepreward if domain == PROB_REWARD else None
    for s in states:
        row = m.trans[s]
        successors = ((values[t], p) for t, p in row.items() if t not in sinks)
        if reward is None:
            value = reach_value_step(successors, row.get(goal, ZERO))
        else:
            value = reward_value_step(successors, row.get(goal, ZERO), reward[s])
        if value != values[s]:
            raise SolverError("exact solution does not satisfy the update equation")
    return SolveReport(values, "exact-linear", 0, True, domain)


def _exact_reach(m: ProductMc, states: list[str]) -> SolveReport:
    solve = _linear_solver(m, states)
    return _checked(m, solve(lambda s: m.trans[s].get(m.GOAL, ZERO)), PROB)


def _exact_reward(m: ProductRewardMc, states: list[str]) -> SolveReport:
    """The probability system first, then the reward system against it;
    both share one pinned state set, so rewards stay finite."""
    solve = _linear_solver(m, states)
    prob = solve(lambda s: m.trans[s].get(m.GOAL, ZERO))
    reward = solve(lambda s: m.stepreward[s] * prob[s])
    return _checked(m, {s: (prob[s], reward[s]) for s in states}, PROB_REWARD)


def _dijkstra(m: ProductWts, states: list[str]) -> SolveReport:
    """Least costs by one Dijkstra pass (1959) from the goal over the
    reversed product graph: a goal edge seeds its source at its weight, and
    edges into the other sinks are ignored.  Settled costs are final only
    because weights are nonnegative, so a negative weight raises."""
    from heapq import heapify, heappop, heappush  # not on ``import qtrace``

    index = {s: i for i, s in enumerate(states)}
    preds: list[list[int]] = [[] for _ in states]  # per state: source, weight, source, ...
    cost: list = [INF] * len(states)
    for i, s in enumerate(states):
        for t, w in m.trans[s]:
            if w < 0:
                raise SolverError(f"negative weight {w} at product state {s!r}")
            if t == m.GOAL:
                cost[i] = min(cost[i], w)
            elif t not in m.SINKS:
                preds[index[t]] += i, w
    heap = [(c, i) for i, c in enumerate(cost) if c != INF]
    heapify(heap)
    while heap:
        c, j = heappop(heap)
        if c == cost[j]:  # else stale: j was lowered after this entry was pushed
            edges = iter(preds[j])
            for i, w in zip(edges, edges):
                if c + w < cost[i]:
                    cost[i] = c + w
                    heappush(heap, (c + w, i))
    del preds, index
    values = dict(zip(states, cost))
    _check_least_costs(m, values)
    return SolveReport(values, "dijkstra", 0, True, TROPICAL)


def _check_least_costs(m: ProductWts, values: dict) -> None:
    """Raise ``SolverError`` unless ``values`` are the least costs.

    A fixed point of the update bounds every cost from below by the weight
    of every path to the goal; a path of tight edges (weight plus successor
    cost equal to the cost) from each finite cost to the goal attains it.
    One pass over the product rows tests the fixed point, as
    :func:`min_cost_step` would, and collects the tight edges; ``values``
    must hold exactly the pair states."""
    states = pair_states(m)
    if values.keys() != set(states):
        raise SolverError("least costs do not satisfy the update equation")
    goal, sinks = m.GOAL, m.SINKS
    tight: dict[str, list[str]] = {}  # per target: the sources of its tight edges
    for s in states:
        c = values[s]
        best = INF
        for t, w in m.trans[s]:
            if t != goal:
                if t in sinks:
                    continue
                w += values[t]
            if w < best:
                best = w
            if w == c != INF:
                tight.setdefault(t, []).append(s)
        if best != c:
            raise SolverError("least costs do not satisfy the update equation")
    reached, stack = set(), [goal]
    while stack:
        for s in tight.pop(stack.pop(), ()):
            if s not in reached:
                reached.add(s)
                stack.append(s)
    if any(values[s] != INF and s not in reached for s in states):
        raise SolverError("least costs are not attained by a path to the goal")


#: Per value domain: the one-step update, the exact solve
#: (product, states) -> SolveReport, and the modes that ask for it.
_SOLVERS = {
    PROB: (reach_transformer, _exact_reach, ("exact",)),
    PROB_REWARD: (reward_transformer, _exact_reward, ("exact",)),
    TROPICAL: (tropical_transformer, _dijkstra, ("bellman", "exact")),
}


def _domain(m) -> str:
    domain = getattr(m, "DOMAIN", None)
    if domain not in _SOLVERS:
        raise TypeError(f"not a product: {type(m).__name__}")
    return domain


def _solve(m, domain: str, mode: str, steps=None, epsilon=None) -> SolveReport:
    """The one solve path: ``iterate`` works alike in every domain, every
    other mode gives the domain's own exact answer."""
    transformer, exact, exact_modes = _SOLVERS[domain]
    states = list(pair_states(m))
    if mode == "iterate":
        if steps is None:
            raise ValueError("iterate mode needs steps")
        values = kleene_iterate(transformer(m), bottom_vector(states, domain), steps)
        return SolveReport(values, "kleene", steps, False, domain)
    if mode == "epsilon":
        if domain == TROPICAL:  # the least costs are exact already
            raise ValueError("--mode epsilon needs a probabilistic pairing; use bellman or iterate")
        if epsilon is None:
            raise ValueError("epsilon mode needs epsilon")
        if epsilon <= 0:  # not a bound; the exact answer is within every positive one
            raise ValueError(f"epsilon must be positive, got {epsilon}")
    elif mode not in exact_modes:
        raise ValueError(f"unknown mode {mode!r}")
    return exact(m, states)


def solve_reach_prob(
    m: ProductMc,
    mode: str = "exact",
    steps: int | None = None,
    epsilon: Fraction | None = None,
) -> SolveReport:
    """Probability of reaching the accepting sink, per product state.

    ``exact``      -- pin unreachable-accept states to 0, solve the rest
                      as a linear system; the result is the least fixed
                      point and satisfies the update equation bit for bit.
    ``iterate``    -- the ``steps``-th iterate from the all-zero vector.
    ``epsilon``    -- the exact answer, which lies within every positive
                      ``epsilon``; ``epsilon`` must be given and positive.
    """
    return _solve(m, PROB, mode, steps, epsilon)


def solve_partial_expected_reward(
    m: ProductRewardMc,
    mode: str = "exact",
    steps: int | None = None,
    epsilon: Fraction | None = None,
) -> SolveReport:
    """(acceptance probability, partial expected reward) per product state.

    Modes as in :func:`solve_reach_prob`.  Exact mode solves the
    probability system and then the reward system against it, over the
    same pinned state set.
    """
    return _solve(m, PROB_REWARD, mode, steps, epsilon)


def solve_tropical(
    m: ProductWts,
    mode: str = "bellman",
    steps: int | None = None,
) -> SolveReport:
    """Least cost of reaching the accepting sink, per product state.

    Bellman mode (also ``exact``) runs one Dijkstra pass from the
    accepting sink; weights must be nonnegative, so a product built by
    hand with a negative weight raises ``SolverError``.  ``iterate`` gives
    the ``steps``-th iterate of the min-cost update from all-infinity.
    """
    return _solve(m, TROPICAL, mode, steps)


def solve_product(m, mode: str | None = None, **kw) -> SolveReport:
    """Solve any product kind in its value domain, exactly unless ``mode``
    asks otherwise."""
    return _solve(m, _domain(m), mode or "exact", **kw)
