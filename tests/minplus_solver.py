"""The min-plus iteration that ``qtrace.solvers`` used for weighted products
before it solved them with one Dijkstra pass, kept as the reference the
solver is compared with.

It applies the whole min-cost update from the all-infinity vector.  With
nonnegative weights the iterates stop changing within n + 1 rounds for n
product states, so the (n + 1)-th iterate must be a fixed point.
"""

from qtrace.domains import TROPICAL, bottom_vector, kleene_iterate
from qtrace.products import pair_states
from qtrace.solvers import product_transformer


def least_costs(prod) -> dict:
    """Least cost of reaching the accepting sink, per product state."""
    states = pair_states(prod)
    phi = product_transformer(prod)
    values = kleene_iterate(phi, bottom_vector(states, TROPICAL), len(states) + 1)
    if phi(values) != values:
        raise AssertionError("min-cost iteration did not stabilize within the state bound")
    return values
