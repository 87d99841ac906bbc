"""Seeded random ``.qtp`` programs for the compiler's golden-digest test.

``random_program(rng)`` draws one small program over one to three declared
variables: half of them probabilistic (assignments and nested ``[p]``
blocks, some with probability 0, plus a label table), half weighted (one
``choice`` block whose options may carry a ``when`` guard).  Guards mix
``and``/``or`` and ``true``; expressions mix ``+``/``-``, ``max``/``min``
and parentheses.  Some assignments are clamped to the variable's range and
some are not, so range errors, reactive halts, guard-violating initial
values and alphabet mismatches all occur.  Every name a program uses is
declared.
"""

from __future__ import annotations

import random
from fractions import Fraction

NAMES = ("x", "y", "z")
SYMBOLS = ("a", "b", "c")
_PROBS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 3), Fraction(0), Fraction(1))


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.vars = []  # (name, lo, hi, init)

    def expr(self, depth: int) -> str:
        rng = self.rng
        if depth == 0 or rng.random() < 0.4:
            if rng.random() < 0.7:
                return rng.choice(self.vars)[0]
            return str(rng.randint(0, 3))
        kind = rng.choice(("+", "-", "max", "min", "()"))
        if kind in ("max", "min"):
            return f"{kind}({self.expr(depth - 1)}, {self.expr(depth - 1)})"
        if kind == "()":
            return f"({self.expr(depth - 1)})"
        return f"{self.expr(depth - 1)} {kind} {self.expr(depth - 1)}"

    def guard(self) -> str:
        rng = self.rng
        if rng.random() < 0.1:
            return "true"
        clauses = []
        for _ in range(rng.randint(1, 2)):
            atoms = []
            for _ in range(rng.randint(1, 2)):
                op = rng.choice(("<", ">", "<=", ">=", "==", "!="))
                atoms.append(f"{self.expr(1)} {op} {self.expr(rng.randint(0, 1))}")
            clauses.append(" and ".join(atoms))
        return " or ".join(clauses)

    def loop_guard(self) -> str:
        """Mostly a guard that holds initially, so that most programs compile."""
        rng = self.rng
        if rng.random() < 0.3:
            return self.guard()
        atoms = []
        for name, lo, hi, init in rng.sample(self.vars, rng.randint(1, len(self.vars))):
            atoms.append(rng.choice((f"{name} < {init + 1}", f"{name} <= {hi}", f"{name} != {hi + 1}",
                                     f"{name} > {max(init - 1, 0)} or {name} == {init}")))
        return " and ".join(atoms)

    def assign(self, last: bool) -> str:
        name, lo, hi, _ = self.rng.choice(self.vars)
        value = self.expr(2)
        if self.rng.random() < 0.6:
            value = f"max({lo}, min({hi}, {value}))"
        end = "" if last and self.rng.random() < 0.3 else ";"
        return f"{name} <- {value}{end}"

    def block(self, depth: int, size: int) -> str:
        stmts = [self.stmt(depth, i == size - 1) for i in range(size)]
        return "{ " + " ".join(stmts) + " }"

    def stmt(self, depth: int, last: bool) -> str:
        rng = self.rng
        if depth >= 2 or rng.random() < 0.6:
            return self.assign(last)
        parts = [self.block(depth + 1, rng.randint(0, 2))]
        mass = Fraction(0)
        for _ in range(rng.randint(0, 2)):
            p = rng.choice([p for p in _PROBS if mass + p <= 1])
            mass += p
            parts.append(f"[{p.numerator}/{p.denominator}]" if p.denominator > 1 else f"[{p}]")
            parts.append(self.block(depth + 1, rng.randint(0, 2)))
        return " ".join(parts)

    def program(self) -> str:
        rng = self.rng
        lines = []
        for name in NAMES[: rng.randint(1, 3)]:
            lo = rng.randint(0, 2)
            hi = lo + rng.randint(0, 3)
            init = rng.randint(lo, hi)
            self.vars.append((name, lo, hi, init))
            lines.append(f"var {name} : {lo}..{hi} init {init};")
        weighted = rng.random() < 0.5
        if rng.random() < (0.5 if weighted else 0.7):
            symbols = SYMBOLS if rng.random() < 0.6 else rng.sample(SYMBOLS, rng.randint(1, 3))
            lines.append("alphabet " + ", ".join(symbols) + ";")
        if not weighted:
            entries = []
            for _ in range(rng.randint(0, 3)):
                key = ", ".join(str(rng.randint(lo, hi)) for _, lo, hi, _ in self.vars)
                entries.append(f"({key}): {rng.choice(SYMBOLS)};")
            lines.append("label { " + " ".join(entries) + f" default: {rng.choice(SYMBOLS)}; }}")
        if weighted:
            options = []
            for _ in range(rng.randint(1, 3)):
                when = f"when ({self.guard()}) " if rng.random() < 0.5 else ""
                size = rng.randint(0, 2)
                body = " ".join(self.assign(i == size - 1) for i in range(size))
                options.append(f"    {when}emit {rng.choice(SYMBOLS)} add {rng.randint(0, 4)} {{ {body} }}")
            body = "  choice {\n" + "\n".join(options) + "\n  }"
        else:
            size = rng.randint(1, 3)
            body = "\n".join("  " + self.stmt(0, i == size - 1) for i in range(size))
        lines.append(f"while ({self.loop_guard()}) {{\n{body}\n}}")
        return "\n".join(lines) + "\n"


def random_program(rng: random.Random) -> str:
    """One seeded random program text."""
    return _Gen(rng).program()
