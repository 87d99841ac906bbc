"""The ``Fraction`` form of the product iterates that ``qtrace.solvers``
replaced with integer numerators over a power of one denominator, kept as
the reference the integer iterates are compared with.

A product is read once into ``Fraction`` rows, and the one-step update
applies the domain's kernel at every row; iterating it from the bottom
vector gives the k-th iterate.
"""

from qtrace.domains import PROB, PROB_REWARD, TROPICAL, ZERO, bottom_vector
from qtrace.products import pair_states
from qtrace.solvers import min_cost_step, reach_value_step, reward_value_step

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
