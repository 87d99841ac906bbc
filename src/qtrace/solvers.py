"""Evaluate product machines: exact linear solving, Dijkstra, and k-step iterates.

The value of a product state is the least solution of a one-step update
equation.  Each value domain states that update once, as a kernel applied
to one row form: a product is read once into per-state rows (successor
entries without the sinks, plus the kernel's other arguments), and the
update applies the kernel at every row.  Probabilistic products are solved
exactly on those rows: states that cannot reach the accepting sink are
pinned to the bottom value first (this is what selects the *least*
solution), the remainder is a nonsingular linear system solved one
strongly connected component at a time, in reverse topological order: a
single state by back substitution, a cyclic component by sparse
elimination on integer rows.  The rewards of a reward product solve the
same matrix for a second right-hand side, so one elimination of each
component serves both.  The arithmetic runs on plain integers, and
each value becomes a ``Fraction`` once, when it is known.  Weighted
products are solved by one Dijkstra pass from the accepting sink over the
reversed product graph, which nonnegative weights make exact.  Each exact
answer is certified before it is returned: a probabilistic answer must be
given back by the update itself and be 0 on every state with no path to a
goal mass, and least costs are certified by one pass over the
product rows that also collects the tight edges proving the costs
attained.  A failed check raises ``SolverError`` (never an ``assert``, so
the check also runs under ``python -O``).  Every product class names its
value domain (``DOMAIN``), and one solve path serves all of them:
``iterate`` (the k-th iterate of the update) is shared, and every other
mode, ``epsilon`` included, returns the domain's exact answer.  The
iterates are computed on integers (:func:`integer_iterates`): the k-th
holds numerators over the k-th power of the lcm of the row denominators,
level by level, and ``iterate`` mode turns the last one into
``Fraction`` values once; ``lawcheck`` compares the numerators with the
oracle's as they are.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from typing import Iterator

from .domains import INF, PROB, PROB_REWARD, TROPICAL, ZERO, _json_value, _value_over
from .models import Record
from .products import ProductMc, ProductRewardMc, ProductWts, pair_states


class SolverError(RuntimeError):
    """A solution failed the solver's own check of the fixed point."""


class SolveReport(Record):
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
    accumulated.  One pass keeps two sums as in :func:`reach_value_step`,
    the probability and the successors' rewards, and each becomes a
    ``Fraction`` at the end.
    """
    num, den = accept_mass.numerator, accept_mass.denominator
    rnum, rden = 0, 1
    for (p_val, r_val), p in successors:
        pn, pd = p.numerator, p.denominator
        n = pn * p_val.numerator
        if n:
            d = pd * p_val.denominator
            g = gcd(den, d)
            num, den = num * (d // g) + n * (den // g), den * (d // g)
        n = pn * r_val.numerator
        if n:
            d = pd * r_val.denominator
            g = gcd(rden, d)
            rnum, rden = rnum * (d // g) + n * (rden // g), rden * (d // g)
    return Fraction(num, den), Fraction(step_reward * num * rden + rnum * den, den * rden)


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
# product rows and the update

def _rows(m, domain: str) -> list:
    """The product read once: per pair state, (state, its successor entries
    with the sinks dropped, the rest of the domain's one-step kernel
    arguments).  Those are the goal mass, and for reward products the step
    reward; for weighted products, the weights of the goal edges."""
    goal, sinks = m.GOAL, m.SINKS
    rows = []
    for s in pair_states(m):
        row = m.trans[s]
        if domain == TROPICAL:  # the entries are the product's own tuples
            rows.append((s, [e for e in row if e[0] not in sinks], ([w for t, w in row if t == goal],)))
        else:
            args = (row.get(goal, ZERO),) if domain == PROB else (row.get(goal, ZERO), m.stepreward[s])
            rows.append((s, [e for e in row.items() if e[0] not in sinks], args))
    return rows


def _update(step, rows: list, values: dict) -> dict:
    """The one-step update: ``step(successor values, *kernel arguments)``
    at every state of ``rows``, one call per state."""
    return {s: step(((values[t], x) for t, x in succ), *args) for s, succ, args in rows}


def integer_iterates(m) -> tuple[int, Iterator[dict]]:
    """The iterates of ``m``'s update from the bottom vector, on integers.

    Returns D, the lcm of the denominators in the product's rows, and the
    levels k = 0, 1, 2, ... one at a time, so no level is kept once the
    caller drops it.  Level k holds per pair state the numerator of the
    k-th iterate over D**k.  With the row masses scaled by D to integers,
    goal mass g and successor masses p, it is
    P_k = g D**(k-1) + sum p P_(k-1); for a reward product it is the pair
    (P_k, R_k) with R_k = r P_k + sum p R_(k-1), r the step reward.  A
    weighted product's levels hold the costs themselves, and D is 1.
    ``domains._value_over(domain, n, D**k)`` gives a value back.
    """
    domain = _domain(m)
    rows = _rows(m, domain)
    if domain == TROPICAL:
        return 1, _cost_levels(rows)
    den = 1
    for _, succ, args in rows:
        den = lcm(den, args[0].denominator, *(p.denominator for _, p in succ))

    def times_den(p: Fraction) -> int:
        return p.numerator * (den // p.denominator)

    scaled = []
    for s, succ, args in rows:
        reward = args[1] if domain == PROB_REWARD else None
        scaled.append((s, times_den(args[0]), reward, [(t, times_den(p)) for t, p in succ]))
    return den, _numerator_levels(scaled, den)


def _numerator_levels(rows: list, den: int) -> Iterator[dict]:
    """Levels of :func:`integer_iterates` from integer rows
    (state, goal mass, step reward or None, successor masses)."""
    level = {s: 0 if r is None else (0, 0) for s, _, r, _ in rows}
    scale = 1  # D**(k-1) at level k
    while True:
        yield level
        prev, level = level, {}
        for s, goal, r, succ in rows:
            n = goal * scale
            if r is None:
                for t, p in succ:
                    n += p * prev[t]
                level[s] = n
            else:
                earned = 0
                for t, p in succ:
                    q, e = prev[t]
                    n += p * q
                    earned += p * e
                level[s] = n, r * n + earned
        scale *= den


def _cost_levels(rows: list) -> Iterator[dict]:
    """Levels of :func:`integer_iterates` for a weighted product."""
    level = {s: INF for s, _, _ in rows}
    while True:
        yield level
        level = _update(min_cost_step, rows, level)


# ---------------------------------------------------------------------------
# exact linear solving

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


def _divide_content(row: dict[int, int], rhs: int) -> tuple[int, int]:
    """Divide ``row`` in place by the greatest common divisor of its entries
    and ``rhs``; returns ``rhs`` divided by it, and the divisor."""
    content = gcd(rhs, *row.values())
    if content > 1:
        for j in row:
            row[j] //= content
        rhs //= content
    return rhs, content


def _back_substitute(order: list, mat: dict, b: dict, shared: int, value: list) -> tuple[dict, int]:
    """Solve the upper rows ``mat`` left by forward elimination for the
    right-hand side ``b / shared``, last pivot first, into ``value``;
    returns the values as numerators over one denominator.

    ``order`` lists (state, pivot), the pivots already taken out of their
    rows.  The values found so far are kept as integer numerators over one
    shared denominator, so a row costs one integer pass and one gcd; the
    shared denominator is raised to the lcm, and the numerators scaled with
    it, only when a new value's reduced denominator does not divide it.
    """
    lift = 1  # the shared denominator over the right-hand side's own
    num: dict[int, int] = {}
    for k, pivot in reversed(order):
        top = b[k] * lift
        for j, a in mat[k].items():
            top -= a * num[j]
        den = pivot * shared
        g = gcd(top, den)
        top, den = top // g, den // g
        if shared % den:  # rare: scale the shared denominator to the lcm
            grow = den // gcd(shared, den)
            shared *= grow
            lift *= grow
            for j in num:
                num[j] *= grow
        num[k] = top * (shared // den)
        value[k] = Fraction(top, den)
    return num, shared


def _eliminate(component: list[int], rows: list[dict], rhs: list[Fraction], value: list,
               rewards: list | None = None, earned: list | None = None) -> None:
    """Solve one cyclic component into ``value``, given the values of every
    state it leaves to, and given step rewards ``rewards``, its rewards
    into ``earned`` as well.

    This is state elimination (Daws, ICTAC 2004) written as Gaussian
    elimination.  Each row of (I - coeff) restricted to the component, with
    the known outside values moved to its right-hand side, is scaled by the
    lcm of its denominators to integers and kept free of a common factor.
    Forward elimination takes diagonal pivots in greedy Markowitz order
    (least (row count - 1) * (column count - 1) first, from a heap of
    lazily refreshed scores), and ``_back_substitute`` solves the upper
    rows it leaves.  Every probability's denominator divides the
    determinant of the component's integer matrix.

    The reward system has the same matrix, so one forward elimination
    serves both: its row operations are logged, and once the
    probabilities are known they are replayed on the reward right-hand
    side (the step reward times the probability, plus the rewards earned
    by leaving the component), which is then solved through the same
    upper rows.  The content a row was divided by was chosen with its
    probability entry and need not divide its reward entry, so each
    replayed entry is an integer numerator over the right-hand side's
    common denominator times a divisor of its own, which is reduced by one
    gcd per operation where it is not 1.
    """
    from heapq import heapify, heappop, heappush  # only cyclic products need it, so not on import

    inside = set(component)
    mat: dict[int, dict[int, int]] = {}
    b: dict[int, int] = {}
    cols: dict[int, set[int]] = {k: set() for k in component}
    first: dict[int, tuple[int, int]] = {}  # with rewards, per row: (scale, content) of its set-up
    log = None if rewards is None else []  # with rewards: (row, pivot row, up, down, content) per update
    for i in component:
        acc = reach_value_step(((value[j], p) for j, p in rows[i].items() if j not in inside), rhs[i])
        coeffs = [(j, p) for j, p in rows[i].items() if j in inside]
        scale = lcm(acc.denominator, *(p.denominator for _, p in coeffs))
        row = {i: scale}
        for j, p in coeffs:
            row[j] = row.get(j, 0) - p.numerator * (scale // p.denominator)
        mat[i] = {j: a for j, a in row.items() if a}
        b[i], content = _divide_content(mat[i], acc.numerator * (scale // acc.denominator))
        if log is not None:
            first[i] = scale, content
        for j in mat[i]:
            cols[j].add(i)

    def score(k: int) -> tuple[int, int]:
        return ((len(mat[k]) - 1) * (len(cols[k]) - 1), k)

    heap = [score(k) for k in component]
    heapify(heap)
    order: list[tuple[int, int]] = []
    while heap:
        entry = heappop(heap)
        k = entry[1]
        if k not in cols or entry != score(k):  # eliminated already, or a stale score
            continue
        row_k = mat[k]
        pivot = row_k.pop(k, 0)
        if pivot == 0:
            raise SolverError("reduced system is singular; zero-pinning failed")
        order.append((k, pivot))
        for j in row_k:
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
            for j, a_k in row_k.items():
                a = row_i.get(j, 0) - down * a_k
                if a:
                    if j not in row_i:
                        cols[j].add(i)
                    row_i[j] = a
                elif j in row_i:
                    del row_i[j]
                    cols[j].discard(i)
            b[i], content = _divide_content(row_i, up * b[i] - down * b[k])
            if log is not None:
                log.append((i, k, up, down, content))
            heappush(heap, score(i))
        for j in row_k:
            heappush(heap, score(j))
    num, shared = _back_substitute(order, mat, b, 1, value)
    if log is None:
        return

    # the reward right-hand side, numerators over ``common`` times ``den``:
    # the step reward times the probability num / shared, plus the rewards
    # earned by leaving the component
    gains = {}
    for i in component:
        leave = [(earned[j], p) for j, p in rows[i].items() if j not in inside]
        if leave:
            gains[i] = reach_value_step(leave, ZERO)
    common = lcm(shared, *(g.denominator for g in gains.values()))
    lift = common // shared
    top: dict[int, int] = {}
    den: dict[int, int] = {}
    for i, (scale, content) in first.items():
        t = rewards[i] * num[i] * lift
        if i in gains:
            t += gains[i].numerator * (common // gains[i].denominator)
        top[i], den[i] = _reduced(t * scale, content)
    for i, k, up, down, content in log:
        d_i, d_k = den[i], den[k]
        top[i], den[i] = _reduced(up * top[i] * d_k - down * top[k] * d_i, d_i * d_k * content)
    extra = lcm(*den.values())
    _back_substitute(order, mat, {i: t * (extra // den[i]) for i, t in top.items()}, common * extra, earned)


def _reduced(top: int, den: int) -> tuple[int, int]:
    """``top / den`` in lowest terms, without a gcd when ``den`` is 1."""
    if den == 1:
        return top, 1
    g = gcd(top, den)
    return top // g, den // g


def _solve_linear(unknowns: list[str], coeff: dict[str, dict[str, Fraction]], rhs: dict[str, Fraction],
                  reward: dict[str, int] | None = None):
    """Solve (I - coeff) v = rhs exactly, one strongly connected component
    at a time.  Given step rewards ``reward``, also solve
    (I - coeff) r = reward * v on the same factorization, and return
    ``(v, r)``.

    The states are numbered, split into components, and the components
    solved so that every value a component reads from outside it is
    already known.  A single state is back substitution, divided by
    1 - p when it has a self-loop of probability p, for both values in
    the same visit; a larger component is eliminated once by
    ``_eliminate``.  Diagonal pivots suffice because on states that all
    reach the goal I - coeff is a nonsingular M-matrix, and so is every
    matrix elimination leaves; a zero pivot therefore means the
    zero-pinning failed.  Entries of ``coeff`` that name no unknown are
    ignored: those states are pinned to 0.
    """
    index = {s: i for i, s in enumerate(unknowns)}
    rows = [{index[t]: p for t, p in coeff[s].items() if t in index} for s in unknowns]
    b = [rhs[s] for s in unknowns]
    value: list = [None] * len(unknowns)
    rewards = earned = None
    if reward is not None:
        rewards = [reward[s] for s in unknowns]
        earned = [None] * len(unknowns)
    for component in _components(rows):
        if len(component) > 1:
            _eliminate(component, rows, b, value, rewards, earned)
            continue
        (i,) = component
        loop = rows[i].get(i)
        if loop == 1:
            raise SolverError("reduced system is singular; zero-pinning failed")
        acc = reach_value_step(((value[j], p) for j, p in rows[i].items() if j != i), b[i])
        value[i] = _over_one_minus(acc, loop)
        if rewards is not None:
            acc = reach_value_step(((earned[j], p) for j, p in rows[i].items() if j != i), rewards[i] * value[i])
            earned[i] = _over_one_minus(acc, loop)
    values = {s: value[i] for s, i in index.items()}
    return values if reward is None else (values, {s: earned[i] for s, i in index.items()})


def _over_one_minus(acc: Fraction, loop: Fraction | None) -> Fraction:
    """``acc / (1 - loop)`` in integers; ``acc`` when there is no loop."""
    if loop is None:
        return acc
    d = loop.denominator
    return Fraction(acc.numerator * d, acc.denominator * (d - loop.numerator))


def _reaching(targets, edges) -> set:
    """``targets`` and every state with a path of ``edges``, given as
    (source, target) pairs, to one of them: one backward search."""
    sources: dict[str, list[str]] = {}
    for s, t in edges:
        sources.setdefault(t, []).append(s)
    reach = set(targets)
    stack = list(reach)
    while stack:
        for s in sources.pop(stack.pop(), ()):
            if s not in reach:
                reach.add(s)
                stack.append(s)
    return reach


def _exact_prob(m, domain: str) -> SolveReport:
    """The least solution of a probabilistic product, certified.

    States with no path to a goal mass are pinned to 0, which selects the
    least solution; the rest form a nonsingular system.  For reward
    products one factorization of it serves both the probabilities and
    the rewards against them, over the same pinned set, so rewards stay
    finite.  The certificate is the update itself, which applied to the
    answer must give the answer back, and a search of its own for the
    states with a path to a goal mass: the answer must be 0 on all others,
    which makes it the least fixed point."""
    step = _SOLVERS[domain][0]
    rows = _rows(m, domain)
    goals = [s for s, _, args in rows if args[0]]
    live = _reaching(goals, ((s, t) for s, succ, _ in rows for t, _ in succ))
    system = [(s, {t: p for t, p in succ if t in live}, args) for s, succ, args in rows if s in live]
    unknowns = [s for s, _, _ in system]
    coeff = {s: row for s, row, _ in system}
    rhs = {s: args[0] for s, _, args in system}
    values = dict.fromkeys(pair_states(m), ZERO)
    if domain == PROB_REWARD:
        prob, reward = _solve_linear(unknowns, coeff, rhs, {s: args[1] for s, _, args in system})
        values.update(prob)
        values = {s: (p, reward.get(s, ZERO)) for s, p in values.items()}
    else:
        values.update(_solve_linear(unknowns, coeff, rhs))
    if _update(step, rows, values) != values:
        raise SolverError("exact solution does not satisfy the update equation")
    # leastness, from the rows alone: on the states with a path to goal
    # mass the update has one fixed point, so the one that is 0 on every
    # other state is the least
    reach = _reaching(goals, ((s, t) for s, succ, _ in rows for t, p in succ if p))
    bottom = (ZERO, ZERO) if domain == PROB_REWARD else ZERO
    if any(values[s] != bottom for s in values.keys() - reach):
        raise SolverError("exact solution is not zero where no goal mass is reachable")
    return SolveReport(
        values=values, method="exact-linear", iterations=0, converged=True, domain=domain
    )


def _dijkstra(m: ProductWts, domain: str) -> SolveReport:
    """Least costs by one Dijkstra pass (1959) from the goal over the
    reversed product graph: a goal edge seeds its source at its weight, and
    edges into the other sinks are ignored.  Settled costs are final only
    because weights are nonnegative, so a negative weight raises."""
    from heapq import heapify, heappop, heappush  # not on ``import qtrace``

    states = pair_states(m)
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
    return SolveReport(
        values=values, method="dijkstra", iterations=0, converged=True, domain=domain
    )


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
    tight: list[tuple[str, str]] = []  # the tight edges, (source, target)
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
                tight.append((s, t))
        if best != c:
            raise SolverError("least costs do not satisfy the update equation")
    reached = _reaching((goal,), tight)
    if any(values[s] != INF and s not in reached for s in states):
        raise SolverError("least costs are not attained by a path to the goal")


#: Per value domain: the one-step kernel, the exact solve
#: (product, domain) -> SolveReport, and the modes that ask for it.
_SOLVERS = {
    PROB: (reach_value_step, _exact_prob, ("exact",)),
    PROB_REWARD: (reward_value_step, _exact_prob, ("exact",)),
    TROPICAL: (min_cost_step, _dijkstra, ("bellman", "exact")),
}


def _domain(m) -> str:
    domain = getattr(m, "DOMAIN", None)
    if domain not in _SOLVERS:
        raise TypeError(f"not a product: {type(m).__name__}")
    return domain


def _solve(m, domain: str, mode: str, steps=None, epsilon=None) -> SolveReport:
    """The one solve path: ``iterate`` works alike in every domain, every
    other mode gives the domain's own exact answer."""
    held = _domain(m)
    if held != domain:
        raise TypeError(f"{type(m).__name__} holds {held} values, not {domain}")
    _, exact, exact_modes = _SOLVERS[domain]
    if mode == "iterate":
        if steps is None:
            raise ValueError("iterate mode needs steps")
        k = max(steps, 0)  # a negative count applies no step
        den, levels = integer_iterates(m)
        scale = den**k
        values = {s: _value_over(domain, n, scale) for s, n in next(islice(levels, k, None)).items()}
        return SolveReport(
            values=values, method="kleene", iterations=steps, converged=False, domain=domain
        )
    if mode == "epsilon":
        if domain == TROPICAL:  # the least costs are exact already
            raise ValueError("--mode epsilon needs a probabilistic pairing; use bellman or iterate")
        if epsilon is None:
            raise ValueError("epsilon mode needs epsilon")
        if epsilon <= 0:  # not a bound; the exact answer is within every positive one
            raise ValueError(f"epsilon must be positive, got {epsilon}")
    elif mode not in exact_modes:
        raise ValueError(f"unknown mode {mode!r}")
    return exact(m, domain)


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
    probability system and the reward system against it, over the same
    pinned state set; the two share their matrix, so one elimination of
    each cyclic component serves both.
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
