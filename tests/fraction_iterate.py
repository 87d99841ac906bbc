"""The ``Fraction`` form of the product iterates, kept as the independent
reference that ``qtrace.solvers`` is compared with.

The package runs one update per value domain, on integer numerators over
a power of one denominator for the probabilistic products.  Here each
domain's one-step update is a ``Fraction`` kernel of its own
(``reach_value_step``, ``reward_value_step``, ``min_cost_step``); a
product is read once into ``Fraction`` rows, and the update applies the
domain's kernel at every row; iterating it from the bottom vector gives
the k-th iterate.
"""

from fractions import Fraction
from math import gcd

from qtrace.domains import INF, PROB, PROB_REWARD, TROPICAL, ZERO, bottom_vector
from qtrace.products import pair_states


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


#: The one-step kernel of each value domain.
KERNELS = {PROB: reach_value_step, PROB_REWARD: reward_value_step, TROPICAL: min_cost_step}


def product_rows(m) -> list:
    """The product read once: per pair state, (state, its successor entries
    with the sinks dropped, the rest of the domain's one-step kernel
    arguments).  Those are the goal mass, and for reward products the step
    reward; for weighted products, the weights of the goal edges."""
    goal, sinks, domain = m.GOAL, m.SINKS, m.DOMAIN
    rows = []
    for s in pair_states(m):
        row = m.trans[s]
        if domain == TROPICAL:  # the entries are the product's own tuples
            rows.append((s, [e for e in row if e[0] not in sinks], ([w for t, w in row if t == goal],)))
        else:
            args = (row.get(goal, ZERO),) if domain == PROB else (row.get(goal, ZERO), m.stepreward[s])
            rows.append((s, [e for e in row.items() if e[0] not in sinks], args))
    return rows


def product_transformer(m):
    """One-step value update of any product kind: the kernel at every row,
    one call per state."""
    step, rows = KERNELS[m.DOMAIN], product_rows(m)

    def update(values: dict) -> dict:
        return {s: step(((values[t], x) for t, x in succ), *args) for s, succ, args in rows}

    return update


def fraction_iterates(m, depth: int) -> list[dict]:
    """Iterates 0..depth of ``m``'s update from the bottom vector."""
    phi = product_transformer(m)
    levels = [bottom_vector(pair_states(m), m.DOMAIN)]
    for _ in range(depth):
        levels.append(phi(levels[-1]))
    return levels
