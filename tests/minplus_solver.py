"""The min-plus iteration that ``qtrace.solvers`` used for weighted products
before it solved them with one Dijkstra pass, kept as the reference the
solver is compared with.

It applies the whole min-cost update from the all-infinity vector until an
iterate repeats.  With nonnegative weights that happens within n + 1 rounds
for n product states, so the iteration is cut off after n + 2.
"""

from qtrace.domains import TROPICAL, bottom_vector, kleene_lfp
from qtrace.products import pair_states
from qtrace.solvers import tropical_transformer


def least_costs(prod) -> dict:
    """Least cost of reaching the accepting sink, per product state."""
    states = pair_states(prod)
    res = kleene_lfp(
        tropical_transformer(prod), bottom_vector(states, TROPICAL), None, len(states) + 2, TROPICAL
    )
    if not res.converged:
        raise AssertionError("min-cost iteration did not stabilize within the state bound")
    return res.values
