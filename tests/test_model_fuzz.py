"""Seeded field-mutation fuzzing of the shipped model documents.

Every field of each bundled model fixture, at any depth, is replaced in
turn by a value of the wrong shape, and the mutant runs through
``validate``, ``infer`` and ``oracle`` via ``cli.main``.  Bad input must end
in exit code 1 or 2 with a message, never in an escaping exception.
"""

import copy
import hashlib
import json
import random

import pytest

from qtrace.bundled import fixture_text
from qtrace.cli import main

#: Each model fixture with a partner for ``infer`` and ``oracle``: the
#: pairing and the (system, requirement) order of the two files.
FIXTURES = {
    "robot-mc.json": ("mc-dfa", "robot-mc.json", "safe-recharge-dfa.json"),
    "safe-recharge-dfa.json": ("mc-dfa", "robot-mc.json", "safe-recharge-dfa.json"),
    "reach-recharge-dfa.json": ("mc-dfa", "robot-mc.json", "reach-recharge-dfa.json"),
    "train-arrival-nfa.json": ("wts-nfa", "travel-wts.json", "train-arrival-nfa.json"),
    "travel-wts.json": ("wts-nfa", "travel-wts.json", "train-arrival-nfa.json"),
}

REPLACEMENTS = ([], {}, None, "x", 1.5, -1)

#: Paths drawn per fixture; the top-level fields are always all taken.
NESTED_DRAWS = 12

#: sha256 over every mutant's path, command, exit code and output, so that
#: a change to the front end keeps each message.
FUZZ_GOLDEN = {
    "robot-mc.json": "c04b618e3688232ef9c40995b962166434352e0149a66b6410bebbb7e36b8b4c",
    "safe-recharge-dfa.json": "0884bba0995baaa3303166659f40052a63a2a2c2148e6456919d3a4719611762",
    "reach-recharge-dfa.json": "b42115e22f153bcfb45c9c8c933c9ef0c5940a16ea1b80f19112e56d8fab844c",
    "train-arrival-nfa.json": "e1d3dee182797265dc04d08857d9b197db6314cfaef25ebe5a90905328ae059d",
    "travel-wts.json": "91e0fb4259235d7be0806f38459bc9e772674664b777894c7fd76c2c2b8249ab",
}


def _paths(value, prefix=()):
    """Every path to a dict entry or list item inside ``value``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replaced(doc, path, new):
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = new
    return out


def _mutants(name: str):
    doc = json.loads(fixture_text(name))
    rng = random.Random(f"model-fuzz:{name}")
    nested = [p for p in _paths(doc) if len(p) > 1]
    paths = [(key,) for key in doc] + rng.sample(nested, min(NESTED_DRAWS, len(nested)))
    for path in paths:
        for new in REPLACEMENTS:
            yield path, _replaced(doc, path, new)


@pytest.mark.parametrize("name", FIXTURES)
def test_mutated_documents_exit_cleanly(name, tmp_path, capsys):
    pairing, system, requirement = FIXTURES[name]
    files = {f: str(tmp_path / f) for f in (system, requirement)}
    for f in files:
        (tmp_path / f).write_text(fixture_text(f))
    mutant = files[name]
    digest = hashlib.sha256()
    commands = (
        ["validate", mutant],
        ["infer", files[system], files[requirement], "--pairing", pairing],
        ["oracle", files[system], files[requirement], "--pairing", pairing, "--depth", "4"],
    )
    for path, doc in _mutants(name):
        with open(mutant, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        for argv in commands:
            code = main(argv)
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), (path, argv)
            assert code == 0 or err.startswith("error: ") or argv[0] == "validate", (path, argv, err)
            text = f"{path}:{argv[0]}:{code}:{out}:{err}".replace(str(tmp_path), "")
            digest.update(text.encode())
    assert digest.hexdigest() == FUZZ_GOLDEN[name]


@pytest.mark.parametrize("kind", [[], {}, None, 1.5, ["mc"]])
@pytest.mark.parametrize("command", ["validate", "infer", "oracle"])
def test_a_kind_that_is_not_a_string_is_a_schema_error(kind, command, tmp_path, capsys):
    doc = json.loads(fixture_text("robot-mc.json"))
    doc["kind"] = kind
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    monitor = tmp_path / "dfa.json"
    monitor.write_text(fixture_text("safe-recharge-dfa.json"))
    argv = {
        "validate": ["validate", str(bad)],
        "infer": ["infer", str(bad), str(monitor), "--pairing", "mc-dfa"],
        "oracle": ["oracle", str(bad), str(monitor), "--pairing", "mc-dfa", "--depth", "3"],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: unknown kind {kind!r}\n"
