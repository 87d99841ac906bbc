"""The ``Fraction`` form of the product iterates that ``qtrace.solvers``
replaced with integer numerators over a power of one denominator, kept as
the reference the integer iterates are compared with.

The one-step update applies the domain's kernel at every row of the
product, on ``Fraction`` values; iterating it from the bottom vector gives
the k-th iterate.
"""

from functools import partial

from qtrace.domains import bottom_vector
from qtrace.products import pair_states
from qtrace.solvers import _SOLVERS, _rows, _update


def product_transformer(m):
    """One-step value update of any product kind."""
    domain = m.DOMAIN
    return partial(_update, _SOLVERS[domain][0], _rows(m, domain))


def fraction_iterates(m, depth: int) -> list[dict]:
    """Iterates 0..depth of ``m``'s update from the bottom vector."""
    phi = product_transformer(m)
    levels = [bottom_vector(pair_states(m), m.DOMAIN)]
    for _ in range(depth):
        levels.append(phi(levels[-1]))
    return levels
