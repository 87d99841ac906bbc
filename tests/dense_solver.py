"""The dense exact solver that ``qtrace.solvers._solve_linear`` replaced,
kept unchanged as the reference the sparse solver is compared with.

It builds an (n+1)-column integer matrix for n unknowns and runs an O(n^3)
Bareiss elimination, so it is only fit for the small systems of the tests.
"""

from fractions import Fraction
from math import lcm

from qtrace.domains import ONE, ZERO
from qtrace.solvers import SolverError


def _solve_linear(unknowns: list[str], coeff: dict[str, dict[str, Fraction]], rhs: dict[str, Fraction]) -> dict[str, Fraction]:
    """Solve (I - coeff) v = rhs exactly by fraction-free elimination.

    Rows are first scaled to integers; forward elimination keeps every
    intermediate entry an exact integer (Bareiss scheme), and back
    substitution recovers the rational solution.
    """
    n = len(unknowns)
    index = {s: i for i, s in enumerate(unknowns)}
    mat: list[list[int]] = []
    for s in unknowns:
        row = [ZERO] * (n + 1)
        row[index[s]] = ONE
        for t, p in coeff[s].items():
            if t in index:
                row[index[t]] -= p
        row[n] = rhs[s]
        scale = lcm(*(f.denominator for f in row)) if row else 1
        mat.append([int(f * scale) for f in row])

    prev = 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if mat[i][k] != 0), None)
        if pivot_row is None:
            raise SolverError("reduced system is singular; zero-pinning failed")
        if pivot_row != k:
            mat[k], mat[pivot_row] = mat[pivot_row], mat[k]
        pivot = mat[k][k]
        for i in range(k + 1, n):
            factor = mat[i][k]
            row_i = mat[i]
            row_k = mat[k]
            for j in range(k, n + 1):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
        prev = pivot

    solution: list[Fraction] = [ZERO] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(mat[i][n])
        for j in range(i + 1, n):
            acc -= mat[i][j] * solution[j]
        solution[i] = acc / mat[i][i]
    return {s: solution[index[s]] for s in unknowns}
