"""Evaluate product machines: exact linear solving, Dijkstra, and k-step iterates.

The value of a product state is the least solution of a one-step update
equation.  Each value domain has one one-step update:
:func:`_prob_update` for the probabilistic products, on integer rows, and
:func:`_cost_update` for the weighted ones, on the product's own rows.
The certificates, the iterates and the diagram checks of ``lawcheck`` all
run these two and no other copy.  A probabilistic product is read once into integer rows:
per pair state, the row denominator D, the goal numerator, the step
reward, and (successor, numerator) entries.  Those rows serve the whole
exact path.  One backward search over their positive numerators finds the
states with a path to goal mass; every other state is pinned to the
bottom value (this is what selects the *least* solution), and the
remainder is a nonsingular linear system solved one strongly connected
component at a time, in reverse topological order: a single state by back
substitution, a cyclic component by sparse elimination.  The rewards of a
reward product solve the same matrix for a second right-hand side, so one
elimination of each component serves both.  The arithmetic runs on plain
integers, and each value becomes a ``Fraction`` once, when it is known.
Weighted products are solved by one Dijkstra pass from the accepting sink
over the reversed product graph, which nonnegative weights make exact.
Each exact answer is certified before it is returned: a probabilistic
answer, written over the lcm L of its denominators, goes through the
update once, which must give back D N_s = g L + sum n N_t per row (and for
the rewards D R_s = r D N_s + sum n R_t), and it must be 0 outside the
searched set; least costs go through the update once, in a pass that also
collects the tight edges proving the costs attained.  A failed check
raises ``SolverError`` (never an ``assert``, so the check also runs under
``python -O``); a row that is missing, or names a state the product does
not have, a step reward that is not a natural number and a weight that
is not natural raise ``ModelError`` from the passes that read each row,
worded as the first fault that ``validate_product`` reports; the
validator runs only once a pass has met a fault.
Every product class names its value domain (``DOMAIN``), and one solve
path serves all of them: ``iterate`` (the k-th iterate of the update) is
shared, and every other mode, ``epsilon`` included, returns the domain's
exact answer.  The iterates are computed on the same integer rows scaled
to one D (:func:`integer_iterates`): the k-th holds numerators over D**k,
level by level, and ``iterate`` mode turns the last one into ``Fraction``
values once; ``lawcheck`` compares the numerators with the oracle's as
they are.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from typing import Iterator

from .domains import INF, PROB, PROB_REWARD, TROPICAL, ZERO, _json_value, _value_over
from .models import ModelError, Record
from .products import ProductMc, ProductRewardMc, ProductWts, pair_states, validate_product


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
# the one-step updates, the product rows and the iterates

def _invalid(m) -> ModelError:
    """``validate_product``'s first fault of ``m``, as a ``ModelError``.
    The row passes raise it only once they have met a fault that the
    validator also reports, so a product they can read costs nothing."""
    return ModelError(validate_product(m)[0])


def _prob_rows(m) -> list:
    """A probabilistic product read once into integer rows: per pair state,
    (state, D, goal numerator, step reward or None, successor entries), D
    the lcm of the denominators of the goal and successor masses, each mass
    a numerator over D, the entries (successor, numerator) pairs without the
    sinks and the zero masses.  D, and the row read so far, grow only when
    a mass's denominator does not divide D.  A missing row, a successor
    that is neither a pair state nor a sink, or a step reward that is not
    a natural number raises :func:`_invalid`."""
    goal, sinks = m.GOAL, m.SINKS
    reward = m.stepreward if m.DOMAIN == PROB_REWARD else None
    states = pair_states(m)
    known = set(states)
    rows = []
    for s in states:
        row = m.trans.get(s)
        if row is None:
            raise _invalid(m)
        g, den = row.get(goal, ZERO).as_integer_ratio()
        succ = []
        for t, p in row.items():
            if t in known:
                n, d = p.as_integer_ratio()
                if n:
                    if den % d:
                        k = d // gcd(den, d)
                        den, g = den * k, g * k
                        if succ:
                            succ = [(u, x * k) for u, x in succ]
                    succ.append((t, n * (den // d)))
            elif t not in sinks:
                raise _invalid(m)
        r = None if reward is None else reward.get(s)
        if reward is not None and (not isinstance(r, int) or r < 0):
            raise _invalid(m)
        rows.append((s, den, g, r, succ))
    return rows


def _prob_update(rows: list, scale: int, values: dict) -> dict:
    """The probabilistic update, one step on integer numerators.

    ``rows`` are rows of :func:`_prob_rows` and ``values`` holds a
    numerator per state, a pair of them (probability, reward) for a reward
    row.  Per row with goal numerator g and entries (t, n) the result is
    g * scale + sum n v_t, and for a reward row with step reward r the pair
    of that and r * (that) + sum n e_t.  With values over L and ``scale``
    equal to L, the result is the row's D times the updated value, over L."""
    out = {}
    for s, _, goal, r, succ in rows:
        n = goal * scale
        if r is None:
            for t, p in succ:
                n += p * values[t]
            out[s] = n
        else:
            earned = 0
            for t, p in succ:
                q, e = values[t]
                n += p * q
                earned += p * e
            out[s] = n, r * n + earned
    return out


def _over_lcm(values: dict, pairs: bool) -> tuple[int, dict]:
    """L, the lcm of the denominators of ``values`` (each a pair of
    ``Fraction``s with ``pairs``), and the values as numerators over L."""
    scale = 1
    for v in (v for pair in values.values() for v in pair) if pairs else values.values():
        if scale % v.denominator:
            scale = lcm(scale, v.denominator)
    if pairs:
        return scale, {s: (p.numerator * (scale // p.denominator), r.numerator * (scale // r.denominator))
                       for s, (p, r) in values.items()}
    return scale, {s: v.numerator * (scale // v.denominator) for s, v in values.items()}


def _cost_update(m: ProductWts, states, values: dict, tight: list | None = None) -> dict:
    """The min-cost update at each of ``states``, read from ``m.trans``:
    the least over the row's edges of the weight, plus the target's cost in
    ``values`` unless the target is the goal; edges into the other sinks
    are skipped, so a row without other edges gives infinity.

    With ``tight``, the same pass appends to it each edge (source, target)
    whose weight plus target cost equals the source's own finite cost in
    ``values``.  A missing row, a successor without a cost in ``values``,
    or a weight that is not a natural number raises :func:`_invalid`."""
    goal, sinks, trans = m.GOAL, m.SINKS, m.trans
    out = {}
    try:
        for s in states:
            c = INF if tight is None else values[s]
            best = INF
            for t, w in trans[s]:
                # the class test is the fast path; ``isinstance`` also
                # admits a bool, as ``validate_product`` does
                if w.__class__ is not int and not isinstance(w, int) or w < 0:
                    raise _invalid(m)
                if t != goal:
                    if t in sinks:
                        continue
                    w += values[t]
                if w < best:
                    best = w
                if w == c != INF:
                    tight.append((s, t))
            out[s] = best
    except KeyError:  # a missing row, or a successor without a cost
        raise _invalid(m) from None
    return out


def integer_iterates(m) -> tuple[int, Iterator[dict]]:
    """The iterates of ``m``'s update from the bottom vector, on integers.

    Returns D, the lcm of the denominators in the product's rows, and the
    levels k = 0, 1, 2, ... one at a time, so no level is kept once the
    caller drops it.  Level k holds per pair state the numerator of the
    k-th iterate over D**k: :func:`_prob_update` on the rows scaled to one
    D, with scale D**(k-1).  With the row masses scaled by D to integers,
    goal mass g and successor masses p, it is
    P_k = g D**(k-1) + sum p P_(k-1); for a reward product it is the pair
    (P_k, R_k) with R_k = r P_k + sum p R_(k-1), r the step reward.  A
    weighted product's levels hold the costs themselves, each the
    :func:`_cost_update` of the last, and D is 1.
    ``domains._value_over(domain, n, D**k)`` gives a value back.
    """
    if _domain(m) == TROPICAL:
        return 1, _cost_levels(m)
    rows = _prob_rows(m)
    den = lcm(*(d for _, d, _, _, _ in rows))
    scaled = [(s, den, g * (den // d), r, [(t, n * (den // d)) for t, n in succ]) for s, d, g, r, succ in rows]
    return den, _numerator_levels(scaled, den)


def _numerator_levels(rows: list, den: int) -> Iterator[dict]:
    """Levels of :func:`integer_iterates` from rows that share D = ``den``."""
    level = {s: 0 if r is None else (0, 0) for s, _, _, r, _ in rows}
    scale = 1  # D**(k-1) at level k
    while True:
        yield level
        level = _prob_update(rows, scale, level)
        scale *= den


def _cost_levels(m: ProductWts) -> Iterator[dict]:
    """Levels of :func:`integer_iterates` for a weighted product."""
    states = pair_states(m)
    level = dict.fromkeys(states, INF)
    while True:
        yield level
        level = _cost_update(m, states, level)


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


def _eliminate(component: list[int], succ: list[dict], rows: list, value: list, earned: list | None = None) -> None:
    """Solve one cyclic component into ``value``, given the values of every
    state it leaves to, and given ``earned``, its rewards into it as well.

    This is state elimination (Daws, ICTAC 2004) written as Gaussian
    elimination.  Each integer row (``rows[i]`` with the entries
    ``succ[i]``), restricted to the component with the known outside values
    moved to its right-hand side, is multiplied by the denominator of that
    right-hand side and kept free of a common factor.  Forward elimination
    takes diagonal pivots in greedy Markowitz order (least (row count - 1)
    * (column count - 1) first, from a heap of lazily refreshed scores), and
    ``_back_substitute`` solves the upper rows it leaves.  Every probability's denominator divides the
    determinant of the component's integer matrix.

    The reward system has the same matrix, so one forward elimination
    serves both: its row operations are logged, and once the
    probabilities are known they are replayed on the reward right-hand
    side (the step reward times D times the probability, plus the rewards
    earned by leaving the component), which is then solved through the same
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
    log = None if earned is None else []  # with rewards: (row, pivot row, up, down, content) per update
    for i in component:
        top, scale = _dot(rows[i][2], 1, ((n, value[j]) for j, n in succ[i].items() if j not in inside))
        row = {i: rows[i][1] * scale}
        for j, n in succ[i].items():
            if j in inside:
                row[j] = row.get(j, 0) - n * scale
        mat[i] = {j: a for j, a in row.items() if a}
        b[i], content = _divide_content(mat[i], top)
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
    # the step reward times D times the probability num / shared, plus the
    # rewards earned by leaving the component
    gains = {}
    for i in component:
        leave = [(n, earned[j]) for j, n in succ[i].items() if j not in inside]
        if leave:
            gains[i] = _reduced(*_dot(0, 1, leave))
    common = lcm(shared, *(d for _, d in gains.values()))
    lift = common // shared
    top: dict[int, int] = {}
    den: dict[int, int] = {}
    for i, (scale, content) in first.items():
        t = rows[i][3] * rows[i][1] * num[i] * lift
        if i in gains:
            gain, d = gains[i]
            t += gain * (common // d)
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


def _dot(num: int, den: int, terms) -> tuple[int, int]:
    """``num / den`` plus n * v for every (n, v) in ``terms``, n an integer
    and v a ``Fraction``: a numerator over the lcm of the denominators, one
    gcd per nonzero term, not reduced."""
    for n, v in terms:
        top = v.numerator
        if top:
            d = v.denominator
            g = gcd(den, d)
            num, den = num * (d // g) + n * top * (den // g), den * (d // g)
    return num, den


def _solve_linear(rows: list, rewards: bool = False):
    """Solve the integer rows ``rows`` of :func:`_prob_rows` for the
    values v with D v_s = g + sum n v_t, one strongly connected component
    at a time.  With ``rewards``, also solve
    D r_s = (step reward) D v_s + sum n r_t on the same factorization, and
    return ``(v, r)``.

    The states are numbered, split into components, and the components
    solved so that every value a component reads from outside it is
    already known.  A single state is back substitution on its integer
    row, divided by D - n when it has a self-loop of numerator n, for both
    values in the same visit, one ``Fraction`` each; a larger component is
    eliminated once by ``_eliminate``.  Diagonal pivots suffice because on
    states that all reach the goal the system's matrix is a nonsingular
    M-matrix, and so is every matrix elimination leaves; a zero pivot therefore means the
    zero-pinning failed.  Entries that name a state without a row are
    ignored: those states are pinned to 0.
    """
    index = {row[0]: i for i, row in enumerate(rows)}
    succ = [{index[t]: n for t, n in row[4] if t in index} for row in rows]
    value: list = [None] * len(rows)
    earned = [None] * len(rows) if rewards else None
    for component in _components(succ):
        if len(component) > 1:
            _eliminate(component, succ, rows, value, earned)
            continue
        (i,) = component
        _, den, g, r, _ = rows[i]
        entries = succ[i]
        rest = den - entries.get(i, 0)  # D less the self-loop
        if rest == 0:
            raise SolverError("reduced system is singular; zero-pinning failed")
        top, d = _dot(g, 1, ((n, value[j]) for j, n in entries.items() if j != i))
        p = value[i] = Fraction(top, d * rest)
        if rewards:
            top, d = _dot(r * den * p.numerator, p.denominator, ((n, earned[j]) for j, n in entries.items() if j != i))
            earned[i] = Fraction(top, d * rest)
    values = {s: value[i] for s, i in index.items()}
    return (values, {s: earned[i] for s, i in index.items()}) if rewards else values


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

    The product is read once into integer rows, and one backward search
    over their positive numerators finds the live states, those with a
    path of positive masses to a positive goal mass.  Every other state is
    pinned to 0, which selects the least solution, and the live rows form
    a nonsingular system for :func:`_solve_linear`.  For reward products
    one factorization of it serves both the probabilities and the rewards
    against them, over the same pinned set, so rewards stay finite.  The
    same rows and live set then certify the answer (:func:`_certify`)."""
    rows = _prob_rows(m)
    live = _reaching([s for s, _, g, _, _ in rows if g > 0],
                     ((s, t) for s, _, _, _, succ in rows for t, n in succ if n > 0))
    pairs = domain == PROB_REWARD
    solved = _solve_linear([row for row in rows if row[0] in live], pairs)
    values = dict.fromkeys(pair_states(m), ZERO)
    size = len(values)
    values.update(solved[0] if pairs else solved)
    if len(values) != size:  # a state the product does not have
        raise SolverError("exact solution does not satisfy the update equation")
    if pairs:
        values = {s: (p, solved[1].get(s, ZERO)) for s, p in values.items()}
    _certify(rows, live, values, pairs)
    return SolveReport(
        values=values, method="exact-linear", iterations=0, converged=True, domain=domain
    )


def _certify(rows: list, live: set, values: dict, pairs: bool) -> None:
    """Raise ``SolverError`` unless ``values`` (pairs of probability and
    reward with ``pairs``) are the least fixed point of the update on
    ``rows``.

    Every value is written as an integer numerator over L, the lcm of all
    their denominators, and :func:`_prob_update` is applied once with scale
    L: the update gives the answer back exactly when each row's result is
    its D times the answer's numerators, D N_s = g L + sum n N_t, plus
    D R_s = r (D N_s) + sum n R_t for the rewards.  On the ``live`` states
    the update has one fixed point, so the one that is 0 on every other
    state is the least."""
    scale, num = _over_lcm(values, pairs)
    stepped = _prob_update(rows, scale, num)
    for s, den, _, _, _ in rows:
        n = num[s]
        if stepped[s] != ((den * n[0], den * n[1]) if pairs else den * n):
            raise SolverError("exact solution does not satisfy the update equation")
    bottom = (0, 0) if pairs else 0
    if any(num[s] != bottom for s in num.keys() - live):
        raise SolverError("exact solution is not zero where no goal mass is reachable")


def _dijkstra(m: ProductWts, domain: str) -> SolveReport:
    """Least costs by one Dijkstra pass (1959) from the goal over the
    reversed product graph: a goal edge seeds its source at its weight, and
    edges into the other sinks are ignored.  Settled costs are final only
    because weights are natural numbers, so any other weight raises
    :func:`_invalid`."""
    from heapq import heapify, heappop, heappush  # not on ``import qtrace``

    states = pair_states(m)
    index = {s: i for i, s in enumerate(states)}
    preds: list[list[int]] = [[] for _ in states]  # per state: source, weight, source, ...
    cost: list = [INF] * len(states)
    try:
        for i, s in enumerate(states):
            for t, w in m.trans[s]:
                if w.__class__ is not int and not isinstance(w, int) or w < 0:  # as in _cost_update
                    raise _invalid(m)
                if t == m.GOAL:
                    cost[i] = min(cost[i], w)
                elif t not in m.SINKS:
                    preds[index[t]] += i, w
    except KeyError:  # a missing row, or a successor that is not a pair state
        raise _invalid(m) from None
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
    One :func:`_cost_update` pass tests the fixed point and collects the
    tight edges; ``values`` must hold exactly the pair states."""
    states = pair_states(m)
    if values.keys() != set(states):
        raise SolverError("least costs do not satisfy the update equation")
    tight: list[tuple[str, str]] = []  # the tight edges, (source, target)
    if _cost_update(m, states, values, tight) != values:
        raise SolverError("least costs do not satisfy the update equation")
    reached = _reaching((m.GOAL,), tight)
    if any(values[s] != INF and s not in reached for s in states):
        raise SolverError("least costs are not attained by a path to the goal")


#: Per value domain: the exact solve (product, domain) -> SolveReport, and
#: the modes that ask for it.
_SOLVERS = {
    PROB: (_exact_prob, ("exact",)),
    PROB_REWARD: (_exact_prob, ("exact",)),
    TROPICAL: (_dijkstra, ("bellman", "exact")),
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
    exact, exact_modes = _SOLVERS[domain]
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
    accepting sink.  ``iterate`` gives the ``steps``-th iterate of the
    min-cost update from all-infinity.  In both, a weight that is not a
    natural number raises ``ModelError``, as ``validate_product`` words it.
    """
    return _solve(m, TROPICAL, mode, steps)


def solve_product(m, mode: str | None = None, **kw) -> SolveReport:
    """Solve any product kind in its value domain, exactly unless ``mode``
    asks otherwise."""
    return _solve(m, _domain(m), mode or "exact", **kw)
