"""Parser and compiler for the guarded-loop program language (``.qtp``).

A program declares finite-range integer variables, an optional alphabet,
an optional cell-label table, and a single guarded loop.  Probabilistic
programs use weighted branch blocks ``{s} [p] {s'}``; weighted programs
use a ``choice`` block whose options emit a symbol and add a cost.  The
two statement forms must not be mixed.

A valuation is the tuple of variable values in declaration order, and it
is the compiler's only valuation format.  The parser resolves every name
to its position in that tuple, so an undeclared name is a ``ParseError``,
and turns every expression and guard into a function of the tuple.

Compilation unrolls the loop over the (finite) valuation space: one loop
iteration becomes one transition, so the whole body is folded into a
single distribution over successor valuations.  Valuations violating the
guard become the terminating target (or are rejected in reactive mode).
The full grammar ships in ``docs/grammar.ebnf``.
"""

from __future__ import annotations

import operator
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
# parsed programs

def _true(vals: tuple) -> bool:
    """The guard ``true``; the compilers recognise it by identity."""
    return True


_OPS = {
    "+": operator.add, "-": operator.sub, "max": max, "min": min,
    "<": operator.lt, ">": operator.gt, "<=": operator.le,
    ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
    "and": operator.and_, "or": operator.or_,
}


def _apply(op: str, left: Callable, right: Callable) -> Callable[[tuple], int]:
    """``left op right`` as a function of the valuation tuple."""
    fn = _OPS[op]
    return lambda vals: fn(left(vals), right(vals))


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
class Assign:
    var: int  # position of the variable in declaration order
    expr: Callable[[tuple], int]


@dataclass(frozen=True)
class ProbChoice:
    branches: tuple[tuple, ...]  # tuples of statements
    probs: tuple[Fraction, ...]  # one per branch, summing to exactly 1


@dataclass(frozen=True)
class ChoiceOption:
    guard: Callable[[tuple], bool]
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
    guard: Callable[[tuple], bool]
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
        self.index: dict[str, int] = {}  # variable name -> position
        self.forms: dict[type, Token] = {}  # ProbChoice and Choice: first token of each

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
            variables.append(self.var_decl())
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
            labels = self.label_block(variables)
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

        if len(self.forms) == 2:
            second = list(self.forms.values())[1]
            raise ParseError(
                "mode conflict: probabilistic branches and weighted choice in one program",
                second.line, second.column,
            )
        mode = "weighted" if Choice in self.forms else "probabilistic"
        return Program(tuple(variables), alphabet, labels, guard, tuple(body), mode)

    def var_decl(self) -> VarDecl:
        self.expect("var")
        if self.peek().text in self.index:
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
        self.index[name] = len(self.index)
        return VarDecl(name, lo, hi, init)

    def label_block(self, variables: list[VarDecl]) -> LabelTable:
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
            key = [(self.peek(), self.number())]  # each coordinate with its token
            while self.accept(","):
                key.append((self.peek(), self.number()))
            self.expect(")")
            arity = len(variables)
            if len(key) != arity:
                raise self.error(
                    f"label key has {len(key)} coordinates, program declares {arity} variables"
                )
            for (tok, x), v in zip(key, variables):
                if not v.lo <= x <= v.hi:
                    message = f"label key {x} outside range {v.lo}..{v.hi} of {v.name!r}"
                    raise ParseError(message, tok.line, tok.column)
            self.expect(":")
            entries[tuple(x for _, x in key)] = self.name("a symbol")
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

    def variable(self) -> int:
        """Position of a declared variable."""
        tok = self.peek()
        name = self.name("a variable")
        if name not in self.index:
            raise ParseError(f"undeclared variable {name!r}", tok.line, tok.column)
        return self.index[name]

    def assign(self) -> Assign:
        var = self.variable()
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
        self.forms.setdefault(ProbChoice, self.peek())
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
        self.forms.setdefault(Choice, self.expect("choice"))
        self.expect("{")
        options = []
        while not self.accept("}"):
            guard = _true
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

    def chain(self, ops: tuple[str, ...], operand: Callable) -> Callable[[tuple], int]:
        """``operand`` ops ``operand`` ..., folded to the left."""
        node = operand()
        while self.peek().text in ops:
            node = _apply(self.next().text, node, operand())
        return node

    def guard(self) -> Callable[[tuple], bool]:
        return _true if self.accept("true") else self.chain(("or",), self.conjunction)

    def conjunction(self) -> Callable[[tuple], bool]:
        return self.chain(("and",), self.comparison)

    def comparison(self) -> Callable[[tuple], bool]:
        left = self.expr()
        tok = self.peek()
        if tok.text not in ("<", ">", "<=", ">=", "==", "!="):
            raise self.error(f"expected a comparison operator, found {tok.text!r}")
        self.next()
        right = self.expr()
        return _apply(tok.text, left, right)

    def expr(self) -> Callable[[tuple], int]:
        return self.chain(("+", "-"), self.term)

    def term(self) -> Callable[[tuple], int]:
        tok = self.peek()
        if tok.kind == "num":
            value = self.number()
            return lambda vals: value
        if tok.text in ("max", "min"):
            op = self.next().text
            self.expect("(")
            left = self.expr()
            self.expect(",")
            right = self.expr()
            self.expect(")")
            return _apply(op, left, right)
        if tok.text == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "name" and tok.text not in KEYWORDS:
            return operator.itemgetter(self.variable())
        raise self.error(f"expected an expression, found {tok.text!r}")


def parse_program(text: str) -> Program:
    """Parse program text; errors carry line and column."""
    return _Parser(text).program()


# ---------------------------------------------------------------------------
# compilation

class _Space:
    """Declared valuation space: state names, range checks, label lookup."""

    def __init__(self, program: Program):
        self.program = program
        self.names = [v.name for v in program.variables]
        self.initial = tuple(v.init for v in program.variables)
        self.size = 1
        for v in program.variables:
            self.size *= v.hi - v.lo + 1

    def state_id(self, vals: tuple) -> str:
        return ",".join(f"{n}={x}" for n, x in zip(self.names, vals))

    def assign(self, stmt: Assign, vals: tuple) -> tuple:
        """``vals`` after ``stmt``, which must keep its variable in range."""
        value = stmt.expr(vals)
        v = self.program.variables[stmt.var]
        if not v.lo <= value <= v.hi:
            raise CompileError(
                f"assignment drives {v.name!r} to {value}, outside {v.lo}..{v.hi}; "
                f"clamp explicitly with max/min"
            )
        return vals[: stmt.var] + (value,) + vals[stmt.var + 1 :]

    def label(self, vals: tuple) -> str:
        table = self.program.labels
        return table.entries.get(vals, table.default)


def _run_block(stmts, vals: tuple, space: _Space) -> dict[tuple, Fraction]:
    """Distribution over successor valuations after one pass of ``stmts``."""
    current: dict[tuple, Fraction] = {vals: ONE}
    for stmt in stmts:
        nxt: dict[tuple, Fraction] = {}
        for key, p in current.items():
            if isinstance(stmt, Assign):
                succ = space.assign(stmt, key)
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


def _unroll(space: _Space, successors: Callable, row: Callable, restrict_reachable: bool):
    """Explore the valuation space breadth-first and build one row per state.

    ``successors(vals)`` lists a valuation's outgoing entries, each starting
    with the successor valuation; it runs once per valuation that becomes a
    state.  ``row(vals, entries)`` turns them into that state's row.  The
    states are the guard-satisfying valuations reachable from the initial
    one, in breadth-first order, or with ``restrict_reachable`` off all of
    them in declaration order; unreached ones are expanded as their rows
    are built.  Returns (rows by state id, reachable count, warnings).
    """
    keys = product(*(range(v.lo, v.hi + 1) for v in space.program.variables))
    valid = list(filter(space.program.guard, keys))
    allowed = set(valid)
    explored: dict[tuple, list] = {}
    seen = {space.initial}
    queue = deque([space.initial])
    while queue:
        key = queue.popleft()
        entries = explored[key] = successors(key)
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
        entries = explored[key] if key in explored else successors(key)
        rows[space.state_id(key)] = row(key, entries)
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
    if mode == "terminating" and program.guard is _true:
        raise CompileError("terminating mode requires a non-trivial loop guard")
    space = _Space(program)
    init = space.initial
    if not program.guard(init):
        raise CompileError("initial valuation violates the loop guard")

    if program.labels is None:
        raise CompileError("probabilistic compilation needs a label block")
    labels = tuple(dict.fromkeys([*program.labels.entries.values(), program.labels.default]))
    alphabet = program.alphabet or labels
    for sym in labels:
        if sym not in alphabet:
            raise CompileError(f"label {sym!r} not in the declared alphabet")

    def successors(vals: tuple):
        return list(_run_block(program.body, vals, space).items())

    def row(vals: tuple, entries) -> tuple[str, dict[str, Fraction]]:
        out: dict[str, Fraction] = {}
        for succ, p in entries:
            if program.guard(succ):
                row_key = space.state_id(succ)
            elif mode == "terminating":
                row_key = TARGET
            else:
                raise CompileError(
                    f"reactive program can halt: guard fails at {space.state_id(succ)}"
                )
            out[row_key] = out.get(row_key, ZERO) + p
        return space.label(vals), out

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
    if program.guard is _true:
        raise CompileError("weighted programs must terminate; give a loop guard")
    choice = program.body[0]
    space = _Space(program)
    init = space.initial
    if not program.guard(init):
        raise CompileError("initial valuation violates the loop guard")

    emitted = tuple(dict.fromkeys(opt.symbol for opt in choice.options))
    alphabet = program.alphabet or emitted
    for sym in emitted:
        if sym not in alphabet:
            raise CompileError(f"emitted symbol {sym!r} not in the declared alphabet")

    def moves(vals: tuple):
        out = []
        for opt in choice.options:
            if opt.guard(vals):
                succ = vals
                for a in opt.body:
                    succ = space.assign(a, succ)
                out.append((succ, opt.symbol, opt.weight))
        return out

    def row(vals: tuple, entries) -> tuple[tuple[str, str, int], ...]:
        triples = set()
        for succ, symbol, weight in entries:
            sid = space.state_id(succ) if program.guard(succ) else TARGET
            triples.add((sid, symbol, weight))
        return tuple(sorted(triples))

    trans, reachable, warnings = _unroll(space, moves, row, restrict_reachable)
    model = WeightedTs(
        states=tuple(trans),
        alphabet=tuple(alphabet),
        trans=trans,
        initial=space.state_id(init),
    )
    return CompileReport(model, space.size, reachable, warnings)
