"""Parser and compiler for the guarded-loop program language (``.qtp``).

A program declares finite-range integer variables, an optional alphabet,
an optional cell-label table, and a single guarded loop.  Probabilistic
programs use weighted branch blocks ``{s} [p] {s'}``; weighted programs
use a ``choice`` block whose options emit a symbol and add a cost.  The
two statement forms must not be mixed.

Compilation unrolls the loop over the (finite) valuation space: one loop
iteration becomes one transition, so the whole body is folded into a
single distribution over successor valuations.  Valuations violating the
guard become the terminating target (or are rejected in reactive mode).
The full grammar ships in ``docs/grammar.ebnf``.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

from .domains import ONE, ZERO
from .models import LabeledMc, NonTerminatingMc, TARGET, WeightedTs


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class CompileError(ValueError):
    """Program is well-formed but cannot be turned into a finite machine."""


# ---------------------------------------------------------------------------
# tokens

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<num>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|==|!=|<-|\.\.|[<>+\-*/(){}\[\],:;])
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "var", "init", "alphabet", "label", "default", "while", "true",
    "or", "and", "max", "min", "choice", "when", "emit", "add",
}


@dataclass(frozen=True)
class Token:
    kind: str  # "num" | "name" | "op" | "eof"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(lexeme)
        else:
            tokens.append(Token(kind, lexeme, line, col))
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# syntax trees

@dataclass(frozen=True)
class VarDecl:
    name: str
    lo: int
    hi: int
    init: int


@dataclass(frozen=True)
class LabelTable:
    entries: dict[tuple[int, ...], str]
    default: str


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Ref:
    name: str


@dataclass(frozen=True)
class Arith:
    op: str  # "+", "-", "max", "min"
    left: object
    right: object


@dataclass(frozen=True)
class Cmp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Guard:
    # disjunction of conjunctions of comparisons; empty means "true"
    clauses: tuple[tuple[Cmp, ...], ...]

    @property
    def trivially_true(self) -> bool:
        return not self.clauses


@dataclass(frozen=True)
class Assign:
    var: str
    expr: object


@dataclass(frozen=True)
class ProbChoice:
    branches: tuple[tuple, ...]  # tuples of statements
    probs: tuple[Fraction, ...]  # one per branch, summing to exactly 1


@dataclass(frozen=True)
class ChoiceOption:
    guard: Guard
    symbol: str
    weight: int
    body: tuple[Assign, ...]


@dataclass(frozen=True)
class Choice:
    options: tuple[ChoiceOption, ...]


@dataclass(frozen=True)
class Program:
    variables: tuple[VarDecl, ...]
    alphabet: tuple[str, ...] | None
    labels: LabelTable | None
    guard: Guard
    body: tuple
    mode: str  # "probabilistic" | "weighted"


@dataclass(frozen=True)
class CompileReport:
    """Compiled machine plus bookkeeping about the unrolled state space."""

    model: object
    state_count: int  # full valuation-space size (product of ranges)
    reachable_count: int
    warnings: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text!r}")
        return self.next()

    def accept(self, text: str) -> bool:
        if self.peek().text == text:
            self.next()
            return True
        return False

    def name(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "name" or tok.text in KEYWORDS:
            raise self.error(f"expected {what}, found {tok.text!r}")
        return self.next().text

    def number(self) -> int:
        tok = self.peek()
        if tok.kind != "num":
            raise self.error(f"expected a number, found {tok.text!r}")
        return int(self.next().text)

    # program ----------------------------------------------------------

    def program(self) -> Program:
        variables = []
        while self.peek().text == "var":
            variables.append(self.var_decl(variables))
        if not variables:
            raise self.error("expected at least one 'var' declaration")
        alphabet = None
        if self.peek().text == "alphabet":
            self.next()
            symbols = [self.name("a symbol")]
            while self.accept(","):
                symbols.append(self.name("a symbol"))
            self.expect(";")
            if len(set(symbols)) != len(symbols):
                raise self.error("duplicate alphabet symbol")
            alphabet = tuple(symbols)
        labels = None
        if self.peek().text == "label":
            labels = self.label_block(len(variables))
        self.expect("while")
        self.expect("(")
        guard = self.guard()
        self.expect(")")
        self.expect("{")
        body = []
        while self.peek().text != "}":
            body.append(self.stmt())
        self.expect("}")
        if self.peek().kind != "eof":
            raise self.error("trailing input after the loop")
        if not body:
            raise self.error("loop body is empty")

        has_prob = any(self._contains(s, ProbChoice) for s in body)
        has_weighted = any(self._contains(s, Choice) for s in body)
        if has_prob and has_weighted:
            raise ParseError(
                "mode conflict: probabilistic branches and weighted choice in one program",
                1, 1,
            )
        mode = "weighted" if has_weighted else "probabilistic"
        return Program(tuple(variables), alphabet, labels, guard, tuple(body), mode)

    @staticmethod
    def _contains(stmt, kind) -> bool:
        if isinstance(stmt, kind):
            return True
        if isinstance(stmt, ProbChoice):
            return any(
                _Parser._contains(s, kind) for br in stmt.branches for s in br
            )
        return False

    def var_decl(self, declared: list[VarDecl]) -> VarDecl:
        self.expect("var")
        if any(v.name == self.peek().text for v in declared):
            raise self.error(f"variable {self.peek().text!r} is declared twice")
        name = self.name("a variable name")
        self.expect(":")
        lo = self.number()
        self.expect("..")
        hi = self.number()
        if hi < lo:
            raise self.error(f"empty range {lo}..{hi}")
        self.expect("init")
        init = self.number()
        self.expect(";")
        if not lo <= init <= hi:
            raise self.error(f"initial value {init} outside range {lo}..{hi}")
        return VarDecl(name, lo, hi, init)

    def label_block(self, arity: int) -> LabelTable:
        self.expect("label")
        self.expect("{")
        entries: dict[tuple[int, ...], str] = {}
        default = None
        while not self.accept("}"):
            if self.accept("default"):
                self.expect(":")
                default = self.name("a symbol")
                self.expect(";")
                continue
            self.expect("(")
            key = [self.number()]
            while self.accept(","):
                key.append(self.number())
            self.expect(")")
            if len(key) != arity:
                raise self.error(
                    f"label key has {len(key)} coordinates, program declares {arity} variables"
                )
            self.expect(":")
            entries[tuple(key)] = self.name("a symbol")
            self.expect(";")
        if default is None:
            raise self.error("label block needs a 'default' entry")
        return LabelTable(entries, default)

    # statements -------------------------------------------------------

    def stmt(self):
        tok = self.peek()
        if tok.text == "{":
            return self.prob_choice()
        if tok.text == "choice":
            return self.choice()
        if tok.kind == "name" and tok.text not in KEYWORDS:
            return self.assign()
        raise self.error(f"expected a statement, found {tok.text!r}")

    def assign(self) -> Assign:
        var = self.name("a variable")
        self.expect("<-")
        expr = self.expr()
        # the semicolon may be omitted right before a closing brace
        if not self.accept(";") and self.peek().text != "}":
            raise self.error("expected ';' after assignment")
        return Assign(var, expr)

    def block(self) -> tuple:
        self.expect("{")
        stmts = []
        while self.peek().text != "}":
            stmts.append(self.stmt())
        self.expect("}")
        return tuple(stmts)

    def prob_choice(self) -> ProbChoice:
        branches = [self.block()]
        probs: list[Fraction] = []
        while self.peek().text == "[":
            tok = self.peek()
            self.next()
            num = self.number()
            den = 1
            if self.accept("/"):
                den = self.number()
            self.expect("]")
            p = Fraction(num, den) if den else None
            if p is None or not 0 <= p <= 1:
                raise ParseError("probability out of range", tok.line, tok.column)
            probs.append(p)
            branches.append(self.block())
        if not probs:
            # a bare block is a deterministic singleton choice
            return ProbChoice(tuple(branches), (ONE,))
        rest = ONE - sum(probs)
        if rest < 0:
            raise self.error("branch probabilities exceed 1")
        return ProbChoice(tuple(branches), tuple(probs) + (rest,))

    def choice(self) -> Choice:
        self.expect("choice")
        self.expect("{")
        options = []
        while not self.accept("}"):
            guard = Guard(())
            if self.accept("when"):
                self.expect("(")
                guard = self.guard()
                self.expect(")")
            self.expect("emit")
            symbol = self.name("a symbol")
            self.expect("add")
            weight = self.number()
            body = self.block()
            for s in body:
                if not isinstance(s, Assign):
                    raise self.error("choice options may only contain assignments")
            options.append(ChoiceOption(guard, symbol, weight, tuple(body)))
        if not options:
            raise self.error("choice block is empty")
        return Choice(tuple(options))

    # guards and expressions --------------------------------------------

    def guard(self) -> Guard:
        if self.peek().text == "true":
            self.next()
            return Guard(())
        clauses = [self.conjunction()]
        while self.accept("or"):
            clauses.append(self.conjunction())
        return Guard(tuple(clauses))

    def conjunction(self) -> tuple[Cmp, ...]:
        atoms = [self.comparison()]
        while self.accept("and"):
            atoms.append(self.comparison())
        return tuple(atoms)

    def comparison(self) -> Cmp:
        left = self.expr()
        tok = self.peek()
        if tok.text not in ("<", ">", "<=", ">=", "==", "!="):
            raise self.error(f"expected a comparison operator, found {tok.text!r}")
        self.next()
        right = self.expr()
        return Cmp(tok.text, left, right)

    def expr(self):
        node = self.term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            node = Arith(op, node, self.term())
        return node

    def term(self):
        tok = self.peek()
        if tok.kind == "num":
            return Lit(self.number())
        if tok.text in ("max", "min"):
            op = self.next().text
            self.expect("(")
            left = self.expr()
            self.expect(",")
            right = self.expr()
            self.expect(")")
            return Arith(op, left, right)
        if tok.text == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "name" and tok.text not in KEYWORDS:
            return Ref(self.next().text)
        raise self.error(f"expected an expression, found {tok.text!r}")


def parse_program(text: str) -> Program:
    """Parse program text; errors carry line and column."""
    return _Parser(text).program()


# ---------------------------------------------------------------------------
# evaluation

def _eval(expr, env: dict[str, int]) -> int:
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Ref):
        if expr.name not in env:
            raise CompileError(f"undeclared variable {expr.name!r}")
        return env[expr.name]
    if isinstance(expr, Arith):
        left = _eval(expr.left, env)
        right = _eval(expr.right, env)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "max":
            return max(left, right)
        return min(left, right)
    raise CompileError(f"cannot evaluate {expr!r}")


def _holds(guard: Guard, env: dict[str, int]) -> bool:
    if guard.trivially_true:
        return True
    ops = {
        "<": int.__lt__, ">": int.__gt__, "<=": int.__le__,
        ">=": int.__ge__, "==": int.__eq__, "!=": int.__ne__,
    }
    return any(
        all(ops[c.op](_eval(c.left, env), _eval(c.right, env)) for c in clause)
        for clause in guard.clauses
    )


class _Space:
    """Declared valuation space: naming, ranges, label lookup."""

    def __init__(self, program: Program):
        self.program = program
        self.names = [v.name for v in program.variables]
        self.ranges = {v.name: (v.lo, v.hi) for v in program.variables}
        self.size = 1
        for v in program.variables:
            self.size *= v.hi - v.lo + 1

    def initial(self) -> dict[str, int]:
        return {v.name: v.init for v in self.program.variables}

    def key(self, env: dict[str, int]) -> tuple:
        return tuple(env[n] for n in self.names)

    def env(self, key: tuple) -> dict[str, int]:
        return dict(zip(self.names, key))

    def state_id(self, env: dict[str, int]) -> str:
        return ",".join(f"{n}={env[n]}" for n in self.names)

    def check_range(self, var: str, value: int) -> int:
        lo, hi = self.ranges[var]
        if not lo <= value <= hi:
            raise CompileError(
                f"assignment drives {var!r} to {value}, outside {lo}..{hi}; "
                f"clamp explicitly with max/min"
            )
        return value

    def label(self, env: dict[str, int]) -> str:
        table = self.program.labels
        return table.entries.get(self.key(env), table.default)


def _run_block(stmts, env: dict[str, int], space: _Space) -> dict[tuple, Fraction]:
    """Distribution over successor valuations after one pass of ``stmts``."""
    current: dict[tuple, Fraction] = {space.key(env): ONE}
    for stmt in stmts:
        nxt: dict[tuple, Fraction] = {}
        for vals, p in current.items():
            local = space.env(vals)
            if isinstance(stmt, Assign):
                local[stmt.var] = space.check_range(stmt.var, _eval(stmt.expr, local))
                key = space.key(local)
                nxt[key] = nxt.get(key, ZERO) + p
            elif isinstance(stmt, ProbChoice):
                for branch, q in zip(stmt.branches, stmt.probs):
                    if q == 0:
                        continue
                    for key, r in _run_block(branch, local, space).items():
                        nxt[key] = nxt.get(key, ZERO) + p * q * r
            else:
                raise CompileError("weighted choice inside a probabilistic program")
        current = nxt
    return current


def _unroll(space: _Space, successors: Callable, row: Callable, restrict_reachable: bool):
    """Explore the valuation space breadth-first and build one row per state.

    ``successors(env)`` lists a valuation's outgoing entries, each starting
    with the successor's key; it runs once per valuation that becomes a
    state.  ``row(env, entries)`` turns them into that state's row.  The
    states are the guard-satisfying valuations reachable from the initial
    one, in breadth-first order, or with ``restrict_reachable`` off all of
    them in declaration order; unreached ones are expanded as their rows
    are built.  Returns (rows by state id, reachable count, warnings).
    """
    guard = space.program.guard
    keys = product(*(range(v.lo, v.hi + 1) for v in space.program.variables))
    valid = [key for key in keys if _holds(guard, space.env(key))]
    allowed = set(valid)
    start = space.key(space.initial())
    explored: dict[tuple, list] = {}
    seen = {start}
    queue = deque([start])
    while queue:
        key = queue.popleft()
        entries = explored[key] = successors(space.env(key))
        for succ, *_ in entries:
            if succ in allowed and succ not in seen:
                seen.add(succ)
                queue.append(succ)

    warnings = []
    dropped = len(valid) - len(explored)
    if restrict_reachable and dropped:
        warnings.append(f"{dropped} guard-satisfying valuations unreachable from init")
    rows = {}
    for key in explored if restrict_reachable else valid:
        env = space.env(key)
        entries = explored[key] if key in explored else successors(env)
        rows[space.state_id(env)] = row(env, entries)
    return rows, len(explored), tuple(warnings)


def compile_probabilistic(
    program: Program, mode: str, restrict_reachable: bool = True
) -> CompileReport:
    """Unroll a probabilistic program into a labeled chain.

    ``terminating`` sends guard-violating valuations to the target;
    ``reactive`` requires the guard to hold forever and rejects programs
    that can halt.
    """
    if program.mode != "probabilistic":
        raise CompileError("program uses weighted choice; compile it as weighted")
    if mode not in ("terminating", "reactive"):
        raise CompileError(f"unknown mode {mode!r}")
    if mode == "terminating" and program.guard.trivially_true:
        raise CompileError("terminating mode requires a non-trivial loop guard")
    space = _Space(program)
    init = space.initial()
    if not _holds(program.guard, init):
        raise CompileError("initial valuation violates the loop guard")

    if program.labels is None:
        raise CompileError("probabilistic compilation needs a label block")
    labels = tuple(dict.fromkeys([*program.labels.entries.values(), program.labels.default]))
    alphabet = program.alphabet or labels
    for sym in labels:
        if sym not in alphabet:
            raise CompileError(f"label {sym!r} not in the declared alphabet")

    def successors(env: dict[str, int]):
        return list(_run_block(program.body, env, space).items())

    def row(env: dict[str, int], entries) -> tuple[str, dict[str, Fraction]]:
        out: dict[str, Fraction] = {}
        for succ_key, p in entries:
            succ_env = space.env(succ_key)
            if _holds(program.guard, succ_env):
                row_key = space.state_id(succ_env)
            elif mode == "terminating":
                row_key = TARGET
            else:
                raise CompileError(
                    f"reactive program can halt: guard fails at {space.state_id(succ_env)}"
                )
            out[row_key] = out.get(row_key, ZERO) + p
        return space.label(env), out

    rows, reachable, warnings = _unroll(space, successors, row, restrict_reachable)
    cls = LabeledMc if mode == "terminating" else NonTerminatingMc
    model = cls(
        states=tuple(rows),
        alphabet=tuple(alphabet),
        label={sid: label for sid, (label, _) in rows.items()},
        trans={sid: out for sid, (_, out) in rows.items()},
        initial=space.state_id(init),
    )
    return CompileReport(model, space.size, reachable, warnings)


def compile_weighted(program: Program, restrict_reachable: bool = True) -> CompileReport:
    """Unroll a weighted program into a weighted transition system."""
    if program.mode != "weighted":
        raise CompileError("program has no weighted choice; compile it as probabilistic")
    if len(program.body) != 1 or not isinstance(program.body[0], Choice):
        raise CompileError("a weighted loop body must be a single choice block")
    if program.guard.trivially_true:
        raise CompileError("weighted programs must terminate; give a loop guard")
    choice = program.body[0]
    space = _Space(program)
    init = space.initial()
    if not _holds(program.guard, init):
        raise CompileError("initial valuation violates the loop guard")

    emitted = tuple(dict.fromkeys(opt.symbol for opt in choice.options))
    alphabet = program.alphabet or emitted
    for sym in emitted:
        if sym not in alphabet:
            raise CompileError(f"emitted symbol {sym!r} not in the declared alphabet")

    def moves(env: dict[str, int]):
        out = []
        for opt in choice.options:
            if not _holds(opt.guard, env):
                continue
            local = dict(env)
            for a in opt.body:
                local[a.var] = space.check_range(a.var, _eval(a.expr, local))
            out.append((space.key(local), opt.symbol, opt.weight))
        return out

    def row(env: dict[str, int], entries) -> tuple[tuple[str, str, int], ...]:
        triples = set()
        for succ_key, symbol, weight in entries:
            succ_env = space.env(succ_key)
            succ = space.state_id(succ_env) if _holds(program.guard, succ_env) else TARGET
            triples.add((succ, symbol, weight))
        return tuple(sorted(triples))

    trans, reachable, warnings = _unroll(space, moves, row, restrict_reachable)
    model = WeightedTs(
        states=tuple(trans),
        alphabet=tuple(alphabet),
        trans=trans,
        initial=space.state_id(init),
    )
    return CompileReport(model, space.size, reachable, warnings)
