"""The generated code of ``qtrace.programs``: the same values as the
tree-walking reference, and only allow-listed tokens in its source."""

import io
import random
import re
import tokenize
from collections import Counter
from importlib import resources
from itertools import product

import pytest

from qtrace import programs
from qtrace.bundled import fixture_text
from qtrace.programs import CompileError, compile_probabilistic, compile_weighted, parse_program

import expr_reference as ref
from random_programs import random_program

#: Programs that spell literals with leading zeros, and the same programs
#: spelled canonically.
LEADING_ZEROS = {
    "weighted": (
        "var x : 00..09 init 00;\nalphabet a, b;\n"
        "while (x < 07) { choice {\n"
        "  when (x == 00) emit a add 03 { x <- 007; }\n"
        "  when (x != 0) emit b add 1 { x <- min(x + 01, 009); }\n"
        "} }\n",
        "var x : 0..9 init 0;\nalphabet a, b;\n"
        "while (x < 7) { choice {\n"
        "  when (x == 0) emit a add 3 { x <- 7; }\n"
        "  when (x != 0) emit b add 1 { x <- min(x + 1, 9); }\n"
        "} }\n",
    ),
    "terminating": (
        "var x : 00..09 init 00;\nlabel { (007): a; default: b; }\n"
        "while (x < 08) { { x <- 007 } [01/02] { x <- x + 001 } }\n",
        "var x : 0..9 init 0;\nlabel { (7): a; default: b; }\n"
        "while (x < 8) { { x <- 7 } [1/2] { x <- x + 1 } }\n",
    ),
}


def _texts() -> list[str]:
    """The 400 seeded random programs, every shipped ``.qtp`` fixture and
    the leading-zero programs."""
    rng = random.Random(9)
    texts = [random_program(rng) for _ in range(400)]
    fixtures = resources.files("qtrace.fixtures").iterdir()
    texts += [fixture_text(e.name) for e in sorted(fixtures, key=lambda e: e.name) if e.name.endswith(".qtp")]
    return texts + [text for pair in LEADING_ZEROS.values() for text in pair]


def _outcome(fn, *args) -> tuple[bool, object]:
    """(True, ``fn(*args)``), or (False, the message of its range error)."""
    try:
        return True, fn(*args)
    except (CompileError, ref.RangeError) as exc:
        return False, str(exc)


def test_generated_code_matches_the_reference():
    # every guard and assignment function on every valuation of the
    # declared space, in both the probabilistic and the weighted form
    rng = random.Random(9)
    seen = Counter()
    for text in (random_program(rng) for _ in range(400)):
        program = parse_program(text)
        variables, guard, body = ref.read_program(text)
        space = programs._Space(program)
        for vals in product(*(range(lo, hi + 1) for _, lo, hi in variables)):
            assert space.guard(vals) == ref.value(guard, vals)
            if program.mode == "weighted":
                got = _outcome(space.moves, vals)
                assert got == _outcome(ref.moves, body[0], vals, variables)
                seen["weighted", got[0]] += 1
            else:
                for fn, stmt in zip(space.assigns, ref.assignments(body), strict=True):
                    got = _outcome(fn, vals)
                    assert got == _outcome(ref.run, stmt, vals, variables)
                    seen["probabilistic", got[0]] += 1
    for form in ("weighted", "probabilistic"):
        assert seen[form, True] >= 1000 and seen[form, False] >= 100, seen


#: Names the generator may write besides the patterns below.
_NAMES = {
    "def", "return", "if", "not", "and", "or", "True",
    "vals", "out", "append", "guard", "moves", "assigns", "max", "min", "out_of_range",
}
_GENERATED = re.compile(r"[tv]\d+|assign\d+")
_OPS = {"=", "+", "-", "<", ">", "<=", ">=", "==", "!=", "(", ")", "[", "]", ",", ":", "."}
_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _program_words(program) -> set[str]:
    """Every variable name and symbol a program declares or uses."""
    words = {v.name for v in program.variables} | set(program.alphabet or ())
    if program.labels is not None:
        words |= {program.labels.default, *program.labels.entries.values()}
    if program.mode == "weighted":
        words |= {opt.symbol for opt in program.body[0].options}
    return words


def test_generated_source_holds_only_allowed_tokens():
    kinds = Counter()
    for text in _texts():
        program = parse_program(text)
        source, consts = programs._source(program)
        assert all(re.fullmatch(r"[SW]\d+", name) for name in consts)
        words = _program_words(program)
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            kinds[tok.type] += 1
            if tok.type == tokenize.NUMBER:
                assert re.fullmatch(r"0|[1-9][0-9]*", tok.string), tok
            elif tok.type == tokenize.NAME:
                assert tok.string in _NAMES or tok.string in consts or _GENERATED.fullmatch(tok.string), tok
                assert tok.string not in words, tok
            elif tok.type == tokenize.OP:
                assert tok.string in _OPS, tok
            else:
                assert tok.type in _LAYOUT, tok
    assert kinds[tokenize.NUMBER] and kinds[tokenize.NAME] and kinds[tokenize.OP]


@pytest.mark.parametrize("mode", LEADING_ZEROS)
def test_leading_zero_literals_compile_like_canonical_ones(mode):
    padded, canonical = (parse_program(text) for text in LEADING_ZEROS[mode])
    if mode == "weighted":
        assert compile_weighted(padded) == compile_weighted(canonical)
    else:
        assert compile_probabilistic(padded, mode) == compile_probabilistic(canonical, mode)
