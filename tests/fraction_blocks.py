"""The ``Fraction`` branch-mass accumulation that ``qtrace.programs._run_block``
replaced, kept unchanged as the reference the integer weights are compared
with.

It multiplies and adds ``Fraction`` masses for every valuation and branch,
so it is only fit for the small programs of the tests.
"""

from fractions import Fraction

from qtrace.domains import ONE, ZERO
from qtrace.programs import Assign, CompileError, ProbChoice, _Space


def _run_block(stmts, vals: tuple, space: _Space) -> dict[tuple, Fraction]:
    """Distribution over successor valuations after one pass of ``stmts``."""
    current: dict[tuple, Fraction] = {vals: ONE}
    for stmt in stmts:
        nxt: dict[tuple, Fraction] = {}
        for key, p in current.items():
            if isinstance(stmt, Assign):
                succ = space.assigns[stmt.index](key)
                nxt[succ] = nxt.get(succ, ZERO) + p
            elif isinstance(stmt, ProbChoice):
                for branch, q in zip(stmt.branches, stmt.probs):
                    if q == 0:
                        continue
                    for succ, r in _run_block(branch, key, space).items():
                        nxt[succ] = nxt.get(succ, ZERO) + p * q * r
            else:
                raise CompileError("weighted choice inside a probabilistic program")
        current = nxt
    return current
