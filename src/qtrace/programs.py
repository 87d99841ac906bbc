"""Parser and compiler for the guarded-loop program language (``.qtp``).

A program declares finite-range integer variables, an optional alphabet,
an optional cell-label table, and a single guarded loop.  Probabilistic
programs use weighted branch blocks ``{s} [p] {s'}``; weighted programs
use a ``choice`` block whose options emit a symbol and add a cost.  The
two statement forms must not be mixed.

A valuation is the tuple of variable values in declaration order, and it
is the compiler's only valuation format.  The parser resolves every name
to its position in that tuple, so an undeclared name is a ``ParseError``,
and writes every guard and expression as straight-line Python source over
the tuple (:class:`Code`): one temporary per operator node, in parse-tree
order, so no generated line nests however long a chain or deep a
parenthesis.  The compiler turns a program into real functions with one
``compile``/``exec``: the loop guard, one function per assignment of a
probabilistic program (range check included), and for a weighted program
one ``moves`` function that holds the whole ``choice`` block.

Generated code is safe because the grammar is closed.  Only integer
literals (written with ``str(int(...))``), tuple positions, temporaries
and locals the generator names, and operators from the fixed ``_OPS``
table reach the source.  Symbols, weights and the range error are bound
as constants in the namespace of ``exec``, which has no builtins, and are
never spliced into the source.

Compilation unrolls the loop over the (finite) valuation space: one loop
iteration becomes one transition, so the whole body is folded into a
single distribution over successor valuations.  Branch masses are plain
integers: the common denominator of each statement list is fixed once per
program, a body run carries integer weights over it, and each row entry
becomes a ``Fraction`` once.  Valuations violating the guard become the
terminating target (or are rejected in reactive mode).
The full grammar ships in ``docs/grammar.ebnf``.
"""

from __future__ import annotations

import re
from collections import deque
from functools import partial
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Callable

from .domains import ONE
from .models import LabeledMc, NonTerminatingMc, Record, TARGET, WeightedTs


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
    (?P<skip>[ \t\r]+|\#[^\n]*)
  | (?P<nl>\n)
  | (?P<num>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|==|!=|<-|\.\.|[<>+\-*/(){}\[\],:;])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "var", "init", "alphabet", "label", "default", "while", "true",
    "or", "and", "max", "min", "choice", "when", "emit", "add",
}


#: A token is the tuple (kind, text, line, column): its kind is "num",
#: "name", "op" or "eof", and line and column are where it starts.
Token = tuple[str, str, int, int]


def _tokenize(text: str) -> list[Token]:
    """The tokens of ``text`` from one pass of ``_TOKEN_RE``, then "eof"."""
    tokens: list[Token] = []
    line, start = 1, 0  # start: offset of the current line
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            start = m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, m.start() - start + 1)
        elif kind != "skip":
            tokens.append((kind, m.group(), line, m.start() - start + 1))
    tokens.append(("eof", "", line, len(text) - start + 1))
    return tokens


# ---------------------------------------------------------------------------
# parsed programs

#: Python source of each operator, over two atoms; no line nests.
_OPS = {
    "+": "{} + {}", "-": "{} - {}", "max": "max({}, {})", "min": "min({}, {})",
    "<": "{} < {}", ">": "{} > {}", "<=": "{} <= {}", ">=": "{} >= {}",
    "==": "{} == {}", "!=": "{} != {}", "and": "{} and {}", "or": "{} or {}",
}

#: Parentheses and ``max``/``min`` calls nested deeper than this are a
#: ``ParseError``: each level costs the recursive-descent parser two frames.
MAX_NESTING = 400

#: Statement blocks ``{ ... }`` nested deeper than this are a ``ParseError``:
#: each level costs three frames, so an expression nested ``MAX_NESTING``
#: deep inside blocks nested this deep still fits Python's default
#: recursion limit of 1000 frames.
MAX_BLOCK_NESTING = 40


class Code(Record):
    """A guard or expression as straight-line source over the valuation.

    Each of ``lines`` assigns one operator node to a fresh temporary, in
    parse-tree order, and ``result`` is the atom holding the value: an
    integer literal, a temporary, or ``True``.  Both are format templates
    in which ``{i}`` reads the variable at position ``i``, so the generator
    decides where each variable's current value lives.
    """

    lines: tuple[str, ...]
    result: str


#: The guard ``true``; the compilers recognise it by identity.
_TRUE = Code((), "True")


class VarDecl(Record):
    name: str
    lo: int
    hi: int
    init: int


class LabelTable(Record):
    entries: dict[tuple[int, ...], str]
    default: str


class Assign(Record):
    var: int  # position of the variable in declaration order
    expr: Code
    index: int  # position among the program's assignments, in source order


class ProbChoice(Record):
    branches: tuple[tuple, ...]  # tuples of statements
    probs: tuple[Fraction, ...]  # one per branch, summing to exactly 1


class ChoiceOption(Record):
    guard: Code
    symbol: str
    weight: int
    body: tuple[Assign, ...]


class Choice(Record):
    options: tuple[ChoiceOption, ...]


class Program(Record):
    variables: tuple[VarDecl, ...]
    alphabet: tuple[str, ...] | None
    labels: LabelTable | None
    guard: Code
    body: tuple
    mode: str  # "probabilistic" | "weighted"


class CompileReport(Record):
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
        self.assigned = 0  # assignments parsed so far
        self.temps = 0  # temporaries named so far
        self.depth = 0  # open parentheses and max/min calls
        self.blocks = 0  # open statement blocks
        self.forms: dict[type, Token] = {}  # ProbChoice and Choice: first token of each

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def text(self) -> str:
        """The text of the next token."""
        return self.tokens[self.pos][1]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        """A ``ParseError`` at ``tok``, by default at the next token."""
        _, _, line, column = tok or self.peek()
        return ParseError(message, line, column)

    def expect(self, text: str) -> Token:
        found = self.text()
        if found != text:
            raise self.error(f"expected {text!r}, found {found!r}")
        return self.next()

    def accept(self, text: str) -> bool:
        if self.text() == text:
            self.pos += 1
            return True
        return False

    def name(self, what: str) -> str:
        kind, text, _, _ = self.peek()
        if kind != "name" or text in KEYWORDS:
            raise self.error(f"expected {what}, found {text!r}")
        self.pos += 1
        return text

    def number(self) -> int:
        kind, text, _, _ = self.peek()
        if kind != "num":
            raise self.error(f"expected a number, found {text!r}")
        self.pos += 1
        return int(text)

    # program ----------------------------------------------------------

    def program(self) -> Program:
        variables = []
        while self.text() == "var":
            variables.append(self.var_decl())
        if not variables:
            raise self.error("expected at least one 'var' declaration")
        alphabet = None
        if self.text() == "alphabet":
            self.next()
            symbols = [self.name("a symbol")]
            while self.accept(","):
                symbols.append(self.name("a symbol"))
            self.expect(";")
            if len(set(symbols)) != len(symbols):
                raise self.error("duplicate alphabet symbol")
            alphabet = tuple(symbols)
        labels = None
        if self.text() == "label":
            labels = self.label_block(variables)
        self.expect("while")
        self.expect("(")
        guard = self.guard()
        self.expect(")")
        self.expect("{")
        body = []
        while self.text() != "}":
            body.append(self.stmt())
        self.expect("}")
        if self.peek()[0] != "eof":
            raise self.error("trailing input after the loop")
        if not body:
            raise self.error("loop body is empty")

        if len(self.forms) == 2:
            second = list(self.forms.values())[1]
            raise self.error(
                "mode conflict: probabilistic branches and weighted choice in one program", second
            )
        mode = "weighted" if Choice in self.forms else "probabilistic"
        return Program(tuple(variables), alphabet, labels, guard, tuple(body), mode)

    def var_decl(self) -> VarDecl:
        self.expect("var")
        if self.text() in self.index:
            raise self.error(f"variable {self.text()!r} is declared twice")
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
                    raise self.error(message, tok)
            self.expect(":")
            entries[tuple(x for _, x in key)] = self.name("a symbol")
            self.expect(";")
        if default is None:
            raise self.error("label block needs a 'default' entry")
        return LabelTable(entries, default)

    # statements -------------------------------------------------------

    def stmt(self):
        kind, text, _, _ = self.peek()
        if text == "{":
            return self.prob_choice()
        if text == "choice":
            return self.choice()
        if kind == "name" and text not in KEYWORDS:
            return self.assign()
        raise self.error(f"expected a statement, found {text!r}")

    def variable(self) -> int:
        """Position of a declared variable."""
        tok = self.peek()
        name = self.name("a variable")
        if name not in self.index:
            raise self.error(f"undeclared variable {name!r}", tok)
        return self.index[name]

    def assign(self) -> Assign:
        var = self.variable()
        self.expect("<-")
        out: list[str] = []
        value = self.expr(out)
        # the semicolon may be omitted right before a closing brace
        if not self.accept(";") and self.text() != "}":
            raise self.error("expected ';' after assignment")
        self.assigned += 1
        return Assign(var=var, expr=Code(lines=tuple(out), result=value), index=self.assigned - 1)

    def block(self) -> tuple:
        self.blocks += 1
        if self.blocks > MAX_BLOCK_NESTING:
            raise self.error(f"statement blocks nested deeper than {MAX_BLOCK_NESTING} levels")
        self.expect("{")
        stmts = []
        while self.text() != "}":
            stmts.append(self.stmt())
        self.expect("}")
        self.blocks -= 1
        return tuple(stmts)

    def prob_choice(self) -> ProbChoice:
        self.forms.setdefault(ProbChoice, self.peek())
        branches = [self.block()]
        probs: list[Fraction] = []
        while self.text() == "[":
            tok = self.next()
            num = self.number()
            den = 1
            if self.accept("/"):
                den = self.number()
            self.expect("]")
            p = Fraction(num, den) if den else None
            if p is None or not 0 <= p <= 1:
                raise self.error("probability out of range", tok)
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
            guard = _TRUE
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
    #
    # Each method below appends the lines of the operator nodes it parses
    # to ``out`` and returns the atom holding its value (see ``Code``).

    def emit(self, out: list[str], op: str, left: str, right: str) -> str:
        """Append ``left op right`` to ``out`` as a fresh temporary; return its name."""
        temp = f"t{self.temps}"
        self.temps += 1
        out.append(f"{temp} = " + _OPS[op].format(left, right))
        return temp

    def chain(self, ops: tuple[str, ...], operand: Callable, out: list[str]) -> str:
        """``operand`` ops ``operand`` ..., folded to the left."""
        node = operand(out)
        while self.text() in ops:
            op = self.next()[1]
            node = self.emit(out, op, node, operand(out))
        return node

    def guard(self) -> Code:
        if self.accept("true"):
            return _TRUE
        out: list[str] = []
        result = self.chain(("or",), self.conjunction, out)
        return Code(lines=tuple(out), result=result)

    def conjunction(self, out: list[str]) -> str:
        return self.chain(("and",), self.comparison, out)

    def comparison(self, out: list[str]) -> str:
        left = self.expr(out)
        op = self.text()
        if op not in ("<", ">", "<=", ">=", "==", "!="):
            raise self.error(f"expected a comparison operator, found {op!r}")
        self.pos += 1
        return self.emit(out, op, left, self.expr(out))

    def expr(self, out: list[str]) -> str:
        return self.chain(("+", "-"), self.term, out)

    def term(self, out: list[str]) -> str:
        kind, text, _, _ = self.peek()
        if kind == "num":
            return str(self.number())
        if kind == "name" and text not in KEYWORDS:
            return f"{{{self.variable()}}}"
        if text not in ("max", "min", "("):
            raise self.error(f"expected an expression, found {text!r}")
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"expression nested deeper than {MAX_NESTING} levels")
        self.next()
        # ``chain`` in place of ``expr``: two frames per nesting level
        if text == "(":
            node = self.chain(("+", "-"), self.term, out)
        else:
            self.expect("(")
            left = self.chain(("+", "-"), self.term, out)
            self.expect(",")
            node = self.emit(out, text, left, self.chain(("+", "-"), self.term, out))
        self.expect(")")
        self.depth -= 1
        return node


def parse_program(text: str) -> Program:
    """Parse program text; errors carry line and column."""
    return _Parser(text).program()


# ---------------------------------------------------------------------------
# compilation

def _assignments(stmts):
    """The assignments in ``stmts``, branches included, in source order."""
    for s in stmts:
        if isinstance(s, Assign):
            yield s
        elif isinstance(s, ProbChoice):
            for branch in s.branches:
                yield from _assignments(branch)


def _out_of_range(variables: tuple[VarDecl, ...], var: int, value: int):
    v = variables[var]
    raise CompileError(
        f"assignment drives {v.name!r} to {value}, outside {v.lo}..{v.hi}; "
        f"clamp explicitly with max/min"
    )


def _source(program: Program) -> tuple[str, dict[str, object]]:
    """The Python source of a program's functions, and the constants it names.

    ``guard(vals)`` is the loop guard.  A weighted program, whose body is
    one choice block, gets ``moves(vals)``: the (successor, symbol, weight)
    of each option whose guard holds, in option order.  A probabilistic
    program gets ``assigns``, the function ``vals -> successor`` of each
    assignment by index.  Every assignment calls ``out_of_range`` when its
    value leaves the variable's range.
    """
    names = [f"v{i}" for i in range(len(program.variables))]
    head = f"    {', '.join(names)}, = vals"
    src: list[str] = []
    consts: dict[str, object] = {}

    def code(c: Code, env: list[str], indent: str) -> str:
        """Append the lines of ``c`` over ``env``, which names each
        variable's current value; return the atom of its result."""
        src.extend(indent + line.format(*env) for line in c.lines)
        return c.result.format(*env)

    def assign(stmt: Assign, env: list[str], indent: str) -> list[str]:
        """Append ``stmt`` over ``env``; return the env after it."""
        value = code(stmt.expr, env, indent)
        v = program.variables[stmt.var]
        src.append(
            f"{indent}if not {int(v.lo)} <= {value} <= {int(v.hi)}: "
            f"out_of_range({int(stmt.var)}, {value})"
        )
        return env[: stmt.var] + [value] + env[stmt.var + 1 :]

    src += ["def guard(vals):", head]
    holds = code(program.guard, names, "    ")
    src.append(f"    return {holds}")
    if program.mode == "weighted":
        src += ["def moves(vals):", head, "    out = []"]
        for k, opt in enumerate(program.body[0].options):
            consts[f"S{k}"], consts[f"W{k}"] = opt.symbol, opt.weight
            indent = "    "
            if opt.guard is not _TRUE:
                holds = code(opt.guard, names, indent)
                src.append(f"    if {holds}:")
                indent = "        "
            env = names
            for stmt in opt.body:
                env = assign(stmt, env, indent)
            src.append(f"{indent}out.append((({', '.join(env)},), S{k}, W{k}))")
        src.append("    return out")
    else:
        stmts = list(_assignments(program.body))
        for stmt in stmts:
            src += [f"def assign{stmt.index}(vals):", head]
            env = assign(stmt, names, "    ")
            src.append(f"    return ({', '.join(env)},)")
        src.append("assigns = (" + "".join(f"assign{s.index}, " for s in stmts) + ")")
    return "\n".join(src) + "\n", consts


class _Space:
    """Declared valuation space: state names, label lookup, and the
    program's functions, compiled from ``_source`` with one ``exec``."""

    def __init__(self, program: Program):
        self.program = program
        # variable names are identifiers, so they hold no format braces
        self.id_format = ",".join(f"{v.name}={{}}" for v in program.variables)
        self.initial = tuple(v.init for v in program.variables)
        self.size = 1
        for v in program.variables:
            self.size *= v.hi - v.lo + 1
        source, consts = _source(program)
        namespace = {
            "__builtins__": {}, "max": max, "min": min,
            "out_of_range": partial(_out_of_range, program.variables), **consts,
        }
        # the functions land in their own dict, so that their globals do
        # not refer back to them and refcounting frees them
        functions: dict[str, object] = {}
        exec(compile(source, "<qtp program>", "exec"), namespace, functions)
        self.guard = functions["guard"]
        self.moves = functions.get("moves")
        self.assigns = functions.get("assigns")

    def state_id(self, vals: tuple) -> str:
        return self.id_format.format(*vals)

    def label(self, vals: tuple) -> str:
        table = self.program.labels
        return table.entries.get(vals, table.default)


def _weights(stmts, space: _Space) -> tuple[int, tuple]:
    """``stmts`` as (common denominator, steps): a step is an assignment's
    function, or a choice's (integer scale, steps) per branch of positive
    probability.  A choice's denominator is the lcm over its branches of
    probability denominator times branch denominator; a sequence
    multiplies its statements' denominators."""
    den, steps = 1, []
    for stmt in stmts:
        if isinstance(stmt, Assign):
            steps.append(space.assigns[stmt.index])
        elif isinstance(stmt, ProbChoice):
            branches = [(q, _weights(b, space)) for b, q in zip(stmt.branches, stmt.probs) if q]
            d = lcm(*(q.denominator * bd for q, (bd, _) in branches))
            steps.append(tuple((q.numerator * d // (q.denominator * bd), b)
                               for q, (bd, b) in branches))
            den *= d
        else:
            raise CompileError("weighted choice inside a probabilistic program")
    return den, tuple(steps)


def _run_block(steps: tuple, vals: tuple) -> dict[tuple, int]:
    """Integer weights of the successor valuations after one pass of
    ``steps``, over the denominator ``_weights`` fixed for them."""
    current = {vals: 1}
    for step in steps:
        nxt: dict[tuple, int] = {}
        if callable(step):
            for key, w in current.items():
                succ = step(key)
                nxt[succ] = nxt.get(succ, 0) + w
        else:
            for key, w in current.items():
                for scale, body in step:
                    for succ, r in _run_block(body, key).items():
                        nxt[succ] = nxt.get(succ, 0) + w * scale * r
        current = nxt
    return current


def _unroll(space: _Space, symbols: Callable, word: str, rules: Callable, make: Callable,
            restrict_reachable: bool) -> CompileReport:
    """Check a program against its valuation space, explore the space
    breadth-first and report on the model built from one row per state.

    The initial valuation must satisfy the guard, and each symbol of
    ``symbols()`` (a ``word`` in the error) must be in the declared
    alphabet, which they make up when there is none.  ``rules()`` then
    gives (successors, row); both callbacks run after the guard check, in
    this order, so the errors they raise keep their order.
    ``successors(vals)`` lists a valuation's outgoing entries, each starting
    with the successor valuation; it runs once per valuation that becomes a
    state.  ``row(vals, entries, ids)`` turns them into that state's row,
    where ``ids`` maps each state's valuation to its id, so a successor
    missing from it violates the guard.  The states are the
    guard-satisfying valuations reachable from the initial one, in
    breadth-first order, or with ``restrict_reachable`` off all of them in
    declaration order; unreached ones are expanded as their rows are
    built.  ``make(rows by state id, alphabet, initial id)`` builds the model.
    """
    if not space.guard(space.initial):
        raise CompileError("initial valuation violates the loop guard")
    used = symbols()
    alphabet = tuple(space.program.alphabet or used)
    for sym in used:
        if sym not in alphabet:
            raise CompileError(f"{word} {sym!r} not in the declared alphabet")
    successors, row = rules()
    keys = product(*(range(v.lo, v.hi + 1) for v in space.program.variables))
    valid = list(filter(space.guard, keys))
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
    states = explored if restrict_reachable else valid
    ids = {key: space.state_id(key) for key in states}
    rows = {}
    for key in states:
        entries = explored[key] if key in explored else successors(key)
        rows[ids[key]] = row(key, entries, ids)
    return CompileReport(
        model=make(rows, alphabet, space.state_id(space.initial)),
        state_count=space.size,
        reachable_count=len(explored),
        warnings=tuple(warnings),
    )


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
    if mode == "terminating" and program.guard is _TRUE:
        raise CompileError("terminating mode requires a non-trivial loop guard")
    space = _Space(program)

    def labels() -> tuple[str, ...]:
        if program.labels is None:
            raise CompileError("probabilistic compilation needs a label block")
        return tuple(dict.fromkeys([*program.labels.entries.values(), program.labels.default]))

    def rules():
        den, body = _weights(program.body, space)
        masses: dict[int, Fraction] = {}  # one Fraction per distinct branch weight

        def successors(vals: tuple):
            return list(_run_block(body, vals).items())

        def row(vals: tuple, entries, ids) -> tuple[str, dict[str, Fraction]]:
            out: dict[str, int] = {}
            for succ, w in entries:
                row_key = ids.get(succ)
                if row_key is None:
                    if mode == "reactive":
                        raise CompileError(
                            f"reactive program can halt: guard fails at {space.state_id(succ)}"
                        )
                    row_key = TARGET
                out[row_key] = out.get(row_key, 0) + w
            for t, w in out.items():
                if w not in masses:
                    masses[w] = Fraction(w, den)
                out[t] = masses[w]
            return space.label(vals), out

        return successors, row

    def make(rows, alphabet, initial):
        cls = LabeledMc if mode == "terminating" else NonTerminatingMc
        label = {sid: label for sid, (label, _) in rows.items()}
        return cls(tuple(rows), alphabet, label, {sid: out for sid, (_, out) in rows.items()}, initial)

    return _unroll(space, labels, "label", rules, make, restrict_reachable)


def compile_weighted(program: Program, restrict_reachable: bool = True) -> CompileReport:
    """Unroll a weighted program into a weighted transition system."""
    if program.mode != "weighted":
        raise CompileError("program has no weighted choice; compile it as probabilistic")
    if len(program.body) != 1 or not isinstance(program.body[0], Choice):
        raise CompileError("a weighted loop body must be a single choice block")
    if program.guard is _TRUE:
        raise CompileError("weighted programs must terminate; give a loop guard")
    space = _Space(program)

    def emitted() -> tuple[str, ...]:
        return tuple(dict.fromkeys(opt.symbol for opt in program.body[0].options))

    def row(vals: tuple, entries, ids) -> tuple[tuple[str, str, int], ...]:
        triples = {(ids.get(succ, TARGET), symbol, weight) for succ, symbol, weight in entries}
        return tuple(sorted(triples))

    def make(trans, alphabet, initial):
        return WeightedTs(tuple(trans), alphabet, trans, initial)

    return _unroll(space, emitted, "emitted symbol", lambda: (space.moves, row), make, restrict_reachable)
