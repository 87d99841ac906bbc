"""The min-plus iteration that ``qtrace.solvers`` used for weighted products
before it solved them with one Dijkstra pass, kept as the reference the
solver is compared with.

It applies the whole min-cost update from the all-infinity vector.  With
nonnegative weights the iterates stop changing within n + 1 rounds for n
product states, so the (n + 1)-th iterate must be a fixed point.
"""

from fraction_iterate import fraction_iterates, product_transformer
from qtrace.products import pair_states


def least_costs(prod) -> dict:
    """Least cost of reaching the accepting sink, per product state."""
    values = fraction_iterates(prod, len(pair_states(prod)) + 1)[-1]
    if product_transformer(prod)(values) != values:
        raise AssertionError("min-cost iteration did not stabilize within the state bound")
    return values
