"""A tree-walking reading of ``.qtp`` guards and expressions, kept as the
reference that the code generated by ``qtrace.programs`` is compared with.

``read_program(text)`` reads a well-formed program into its variables
(name, lo, hi), its loop guard and its loop body.  A guard or expression
is a syntax tree: ``("num", n)``, ``("var", position)`` or
``(op, left, right)``, and the guard ``true`` is ``None``.  Statements
are ``("assign", position, expr)``, ``("branches", blocks)`` and
``("choice", options)`` with options (guard, symbol, weight, assigns).
``value`` evaluates a tree on a valuation tuple by recursion; ``run`` and
``moves`` apply assignments and a choice block the way the generated
functions must, range errors included.
"""

from __future__ import annotations

import operator
import re

_TOKEN = re.compile(r"\s+|#[^\n]*|(\d+|\w+|<=|>=|==|!=|<-|\.\.|[<>+\-*/(){}\[\],:;])")

_APPLY = {
    "+": operator.add, "-": operator.sub, "max": max, "min": min,
    "<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge,
    "==": operator.eq, "!=": operator.ne,
    "and": lambda a, b: a and b, "or": lambda a, b: a or b,
}


class RangeError(Exception):
    """An assignment left its variable's declared range."""


class _Reader:
    def __init__(self, text: str):
        self.tokens = [m.group(1) for m in _TOKEN.finditer(text) if m.group(1)]
        self.pos = 0
        self.names: list[str] = []

    def peek(self) -> str:
        return self.tokens[self.pos]

    def take(self, expected: str | None = None) -> str:
        tok = self.tokens[self.pos]
        if expected is not None and tok != expected:
            raise SyntaxError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def skip_past(self, tok: str) -> None:
        while self.take() != tok:
            pass

    def program(self):
        variables = []
        while self.peek() == "var":
            self.take()
            name = self.take()
            self.take(":")
            lo = int(self.take())
            self.take("..")
            hi = int(self.take())
            self.skip_past(";")
            variables.append((name, lo, hi))
            self.names.append(name)
        if self.peek() == "alphabet":
            self.skip_past(";")
        if self.peek() == "label":
            self.skip_past("}")
        self.take("while")
        self.take("(")
        guard = self.guard()
        self.take(")")
        return variables, guard, self.block()

    def block(self) -> list:
        self.take("{")
        stmts = []
        while self.peek() != "}":
            stmts.append(self.stmt())
        self.take("}")
        return stmts

    def stmt(self):
        if self.peek() == "{":
            blocks = [self.block()]
            while self.peek() == "[":
                self.skip_past("]")
                blocks.append(self.block())
            return ("branches", blocks)
        if self.peek() == "choice":
            self.take()
            self.take("{")
            options = []
            while self.peek() != "}":
                guard = None
                if self.peek() == "when":
                    self.take()
                    self.take("(")
                    guard = self.guard()
                    self.take(")")
                self.take("emit")
                symbol = self.take()
                self.take("add")
                weight = int(self.take())
                options.append((guard, symbol, weight, self.block()))
            self.take("}")
            return ("choice", options)
        var = self.names.index(self.take())
        self.take("<-")
        expr = self.expr()
        if self.peek() == ";":
            self.take()
        return ("assign", var, expr)

    def chain(self, ops: tuple[str, ...], operand):
        tree = operand()
        while self.peek() in ops:
            op = self.take()
            tree = (op, tree, operand())
        return tree

    def guard(self):
        if self.peek() == "true":
            self.take()
            return None
        return self.chain(("or",), lambda: self.chain(("and",), self.comparison))

    def comparison(self):
        left = self.expr()
        op = self.take()
        return (op, left, self.expr())

    def expr(self):
        return self.chain(("+", "-"), self.term)

    def term(self):
        tok = self.take()
        if tok.isdigit():
            return ("num", int(tok))
        if tok in ("max", "min"):
            self.take("(")
            left = self.expr()
            self.take(",")
            right = self.expr()
            self.take(")")
            return (tok, left, right)
        if tok == "(":
            tree = self.expr()
            self.take(")")
            return tree
        return ("var", self.names.index(tok))


def read_program(text: str):
    """(variables, loop guard, loop body) of a well-formed program."""
    return _Reader(text).program()


def value(tree, vals: tuple):
    """The value of a guard or expression tree on a valuation."""
    if tree is None:
        return True
    op = tree[0]
    if op == "num":
        return tree[1]
    if op == "var":
        return vals[tree[1]]
    return _APPLY[op](value(tree[1], vals), value(tree[2], vals))


def assignments(stmts) -> list:
    """The assignments of ``stmts``, branches included, in source order."""
    out = []
    for stmt in stmts:
        if stmt[0] == "assign":
            out.append(stmt)
        elif stmt[0] == "branches":
            for block in stmt[1]:
                out += assignments(block)
    return out


def run(stmt, vals: tuple, variables) -> tuple:
    """The valuation after one assignment; ``RangeError`` if it leaves the range."""
    _, var, expr = stmt
    x = value(expr, vals)
    name, lo, hi = variables[var]
    if not lo <= x <= hi:
        raise RangeError(
            f"assignment drives {name!r} to {x}, outside {lo}..{hi}; clamp explicitly with max/min"
        )
    return vals[:var] + (x,) + vals[var + 1 :]


def moves(choice, vals: tuple, variables) -> list:
    """(successor, symbol, weight) of each option of ``choice`` whose guard holds."""
    out = []
    for guard, symbol, weight, body in choice[1]:
        if value(guard, vals):
            succ = vals
            for stmt in body:
                succ = run(stmt, succ, variables)
            out.append((succ, symbol, weight))
    return out
