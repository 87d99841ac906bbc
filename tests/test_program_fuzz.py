"""Seeded token-mutation fuzzing of the shipped ``.qtp`` programs.

Each bundled program is cut into tokens, and each mutant deletes,
duplicates, swaps or replaces one or two of them while keeping the
whitespace between the others, so line and column numbers stay
meaningful.  Every mutant runs through ``compile`` via ``cli.main``: it
must end in exit code 0, 1 or 2, never in an escaping exception.
"""

import hashlib
import random
import re

import pytest

from qtrace.bundled import fixture_text
from qtrace.cli import main

#: Each program fixture with its compile mode.
PROGRAMS = {
    "gridworld.qtp": "terminating",
    "patrol.qtp": "reactive",
    "travel.qtp": "weighted",
}

MUTANTS = 150

#: Comments, numbers, names, the two-character operators and any other
#: single character; whitespace between tokens is kept as it is.
_TOKEN = re.compile(r"#[^\n]*|\d+|[A-Za-z_]\w*|<=|>=|==|!=|<-|\.\.|\S")

#: Replacements beside the fixtures' own tokens.  Numbers stay small, so
#: that a mutated range cannot blow up the valuation space.
EXTRA = ("", "@", "$", "#", "\n", "0", "9", "x9", "var", "while", "true", "choice", "emit",
         "[", "]", "{", "}", "(", ")", "..", "<-", "/", ";", ",", ":", "add", "init")

#: sha256 over every mutant's exit code and standard error.
FUZZ_GOLDEN = {
    "gridworld.qtp": "d0a9add3da0f8e6970e6592353a9205aa31707cf70986f26747a213d1c4e07c6",
    "patrol.qtp": "8cc2854e2f90d9b925071d7c27be90951861e85e465f987609bde9f45ae9e536",
    "travel.qtp": "ea08e97607a482eddf214ea3e4eadad322a53a62bd7f1116a77b167b8c5df144",
}


def _spans(text: str) -> list[tuple[int, int]]:
    return [m.span() for m in _TOKEN.finditer(text) if not m.group().startswith("#")]


def _pool() -> list[str]:
    words = set(EXTRA)
    for name in PROGRAMS:
        text = fixture_text(name)
        words.update(text[a:b] for a, b in _spans(text))
    return sorted(words)


def _mutant(text: str, rng: random.Random, pool: list[str]) -> str:
    """One or two edits, each on the tokens of the text the last one left."""
    for _ in range(rng.choice((1, 1, 2))):
        spans = _spans(text)
        i = rng.randrange(len(spans))
        a, b = spans[i]
        op = rng.choice(("delete", "duplicate", "swap", "replace", "replace"))
        if op == "delete":
            new = ""
        elif op == "duplicate":
            new = text[a:b] + " " + text[a:b]
        elif op == "swap" and i + 1 < len(spans):
            c, d = spans[i + 1]
            new, b = text[c:d] + text[b:c] + text[a:b], d
        else:
            new = rng.choice(pool)
        text = text[:a] + new + text[b:]
    return text


@pytest.mark.parametrize("name", PROGRAMS)
def test_mutated_programs_exit_cleanly(name, tmp_path, capsys):
    text = fixture_text(name)
    pool = _pool()
    rng = random.Random(f"program-fuzz:{name}")
    source, output = tmp_path / "mutant.qtp", str(tmp_path / "out.json")
    digest = hashlib.sha256()
    for i in range(MUTANTS):
        mutant = _mutant(text, rng, pool)
        source.write_text(mutant)
        code = main(["compile", str(source), "--mode", PROGRAMS[name], "-o", output])
        _, err = capsys.readouterr()
        assert code in (0, 1, 2), (i, mutant)
        assert code == 0 or err.startswith("error: "), (i, mutant, err)
        digest.update(f"{i}:{code}:{err}".replace(str(tmp_path), "").encode())
    assert digest.hexdigest() == FUZZ_GOLDEN[name]
