"""Seeded inputs and the per-query pipeline of each benchmark workload.

A workload turns ``--seed`` into a fixed list of :class:`Case` objects, one
pass.  ``Case.run`` is one query: it calls the public functions of the
``qtrace`` layers in the order ``qtrace.cli`` calls them (load or parse,
compile, validate, product, solve, render) and returns an :class:`Answer`.
Everything seed-dependent is drawn here, before timing starts; the query
itself is deterministic.

The first case of each pairing also carries ``cli_check``, which answers
the same input through ``qtrace.cli.main`` on temporary files, so the
benchmark can check that the layer-call path and the CLI agree.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from dataclasses import dataclass
from typing import Callable

from qtrace import cli, lawcheck
from qtrace.bundled import fixture_text, load_model
from qtrace.modeljson import emit_model, parse_model
from qtrace.models import (
    MarkovRewardModel,
    WeightedMealy,
    make_cost_bound_dfa,
    validate,
)
from qtrace.products import (
    product_mc_dfa,
    product_mrm_dfa,
    product_ntmc_dfa,
    product_wts_nfa,
    product_wts_wmm,
)
from qtrace.programs import compile_probabilistic, compile_weighted, parse_program
from qtrace.solvers import solve_product

SYMBOLS = ("sand", "recharge", "lake", "arid", "volcano")


@dataclass
class Answer:
    """What one query produced: the rendered output plus what checks need."""

    text: str
    product: object = None
    report: object = None  # SolveReport, or CheckResult on lawcheck-deep
    compiled: object = None  # CompileReport when the query compiled a program
    space: int = 0  # |system states| x |requirement states|
    expect_pass: bool = True  # verdict a lawcheck case must give


@dataclass
class Case:
    """One query input.  ``cli_check(tmpdir, answer)`` answers the same
    input through ``qtrace.cli.main`` and returns a mismatch, or None."""

    name: str
    run: Callable[[], Answer]
    cli_check: Callable[[str, Answer], str | None] | None = None


class QueryError(Exception):
    """A query input failed validation."""


def render(result, initial: str | None = None) -> str:
    """Render a ``SolveReport`` or ``CheckResult`` the way ``qtrace ...
    --format json`` does: ``to_json``, then ``json.dumps``."""
    doc = result.to_json()
    if initial is not None:
        doc["initial"] = initial
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _require_valid(model) -> None:
    violations = validate(model)
    if violations:
        raise QueryError("; ".join(violations))


def _solve(system, requirement, build, compiled=None) -> Answer:
    _require_valid(system)
    _require_valid(requirement)
    product = build(system, requirement)
    report = solve_product(product)
    return Answer(
        render(report, product.initial),
        product=product,
        report=report,
        compiled=compiled,
        space=len(system.states) * len(requirement.states),
    )


# ---------------------------------------------------------------------------
# the same inputs through the command line

def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _write(tmp: str, name: str, text: str) -> str:
    path = os.path.join(tmp, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _cli_infer(tmp: str, system: str, requirement, pairing: str, answer: Answer) -> str | None:
    req = _write(tmp, "requirement.json", emit_model(requirement))
    code, out = _cli(["infer", system, req, "--pairing", pairing, "--format", "json"])
    if code != 0:
        return f"qtrace infer exited {code}"
    if json.loads(out)["values"] != json.loads(answer.text)["values"]:
        return "qtrace infer values differ from the layer-call values"
    return None


def _cli_compiled(text: str, mode: str, pairing: str, requirement, reward: bool = False):
    def check(tmp: str, answer: Answer) -> str | None:
        model = os.path.join(tmp, "model.json")
        code, _ = _cli(["compile", _write(tmp, "program.qtp", text), "--mode", mode, "-o", model])
        if code != 0:
            return f"qtrace compile exited {code}"
        if reward:
            with open(model, encoding="utf-8") as handle:
                doc = json.load(handle)
            doc["kind"] = "mrm"
            doc["reward"] = {x: grid_reward(x) for x in doc["states"]}
            _write(tmp, "model.json", json.dumps(doc))
        return _cli_infer(tmp, model, requirement, pairing, answer)

    return check


def _cli_json(text: str, pairing: str, requirement):
    def check(tmp: str, answer: Answer) -> str | None:
        return _cli_infer(tmp, _write(tmp, "model.json", text), requirement, pairing, answer)

    return check


def _cli_lawcheck(argv: list[str], name: str, exit_code: int, whole_doc: bool):
    def check(tmp: str, answer: Answer) -> str | None:
        code, out = _cli(["lawcheck", *argv, "--format", "json"])
        if code != exit_code:
            return f"qtrace lawcheck exited {code}, expected {exit_code}"
        got = {c["name"]: c for c in json.loads(out)["checks"]}[name]
        want = json.loads(answer.text)
        if (got if whole_doc else got["passed"]) != (want if whole_doc else want["passed"]):
            return f"qtrace lawcheck disagrees on {name}"
        return None

    return check


# ---------------------------------------------------------------------------
# program text generated from the shipped fixtures

def _sub1(pattern: str, repl: str, text: str) -> str:
    out, count = re.subn(pattern, repl, text, flags=re.S)
    if count != 1:
        raise ValueError(f"fixture no longer matches {pattern!r}")
    return out


def _label_block(rng: random.Random, w: int, h: int, base: int, keep, tile: dict[str, int]) -> str:
    """A label table drawn tile by tile.

    Every 4x4 tile of the grid gets ``tile[sym]`` cells of each symbol (a
    border tile in proportion to its area, rounded down), at seeded
    positions.  Stratifying keeps the amount of solver work nearly the same
    from seed to seed while the layout changes.  The cells in ``keep``
    stay unlabeled: the initial cell, as in the fixtures, and on the
    terminating grid the two cells it halts from, whose labels would
    otherwise decide on their own whether anything is accepted.
    """
    lines = []
    for tx in range(0, w, 4):
        for ty in range(0, h, 4):
            cells = [
                (x + base, y + base)
                for x in range(tx, min(tx + 4, w))
                for y in range(ty, min(ty + 4, h))
                if (x + base, y + base) not in keep
            ]
            counts = {sym: n * len(cells) // 16 for sym, n in tile.items()}
            picked = rng.sample(cells, sum(counts.values()))
            for sym, n in counts.items():
                lines += [f"  ({x},{y}): {sym};" for x, y in picked[:n]]
                picked = picked[n:]
    return "label {\n" + "\n".join(lines) + "\n  default: sand;\n}"


# symbols per 4x4 tile, near the label densities of the shipped fixtures
PATROL_TILE = {"recharge": 1, "lake": 1, "arid": 1, "volcano": 1}
GRID_TILE = {"recharge": 2, "lake": 1, "arid": 1, "volcano": 1}


def patrol_text(base: str, rng: random.Random, w: int, h: int) -> str:
    text = _sub1(r"var x : 0\.\.\d+ init \d+;", f"var x : 0..{w - 1} init {w - 1};", base)
    text = _sub1(r"var y : 0\.\.\d+ init \d+;", f"var y : 0..{h - 1} init {h - 1};", text)
    text = _sub1(r"min\(x \+ 1, \d+\)", f"min(x + 1, {w - 1})", text)
    text = _sub1(r"min\(y \+ 1, \d+\)", f"min(y + 1, {h - 1})", text)
    labels = _label_block(rng, w, h, 0, {(w - 1, h - 1)}, PATROL_TILE)
    return _sub1(r"label \{.*?\n\}", labels, text)


def gridworld_text(base: str, rng: random.Random, w: int, h: int) -> str:
    text = _sub1(r"var i : 1\.\.\d+ init \d+;", f"var i : 1..{w} init {w};", base)
    text = _sub1(r"var j : 1\.\.\d+ init \d+;", f"var j : 1..{h} init {h};", text)
    labels = _label_block(rng, w, h, 1, {(w, h), (2, 1), (1, 2)}, GRID_TILE)
    return _sub1(r"label \{.*?\n\}", labels, text)


def weighted_grid_text(rng: random.Random, w: int, h: int) -> str:
    """Weighted grid walk from (0,0) to (w-1,h-1) with seeded band costs.

    Each of three horizontal bands has its own seeded cost and symbol for
    every move; left and down moves are back-edges, so the weighted system
    has cycles.
    """
    lines = [
        f"var i : 0..{w - 1} init 0;",
        f"var j : 0..{h - 1} init 0;",
        "alphabet P, B, T;",
        f"while (i < {w - 1} or j < {h - 1}) {{",
        "  choice {",
    ]
    edges = [0] + sorted(rng.sample(range(1, h), 2)) + [h]
    for lo, hi in zip(edges, edges[1:]):
        band = f"j >= {lo} and j < {hi}"
        moves = [
            (f"i < {w - 1}", "i <- i + 1", "T"),
            (f"i < {w - 1}", "i <- i + 1", rng.choice("PB")),
            (f"j < {h - 1}", "j <- j + 1", rng.choice("PBT")),
            ("i > 0", "i <- i - 1", rng.choice("PB")),
            ("j > 0", "j <- j - 1", rng.choice("PBT")),
        ]
        for guard, assign, sym in moves:
            cost = rng.randint(1, 9)
            lines.append(f"    when ({band} and {guard}) emit {sym} add {cost} {{ {assign}; }}")
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


def random_mealy(rng: random.Random, states: int) -> WeightedMealy:
    names = tuple(f"q{k}" for k in range(states))
    delta = {}
    for y in names:
        delta[y] = {
            a: tuple(
                sorted(
                    {
                        (rng.choice(names), rng.random() < 0.3, rng.randint(0, 4))
                        for _ in range(rng.randint(1, 2))
                    }
                )
            )
            for a in ("P", "B", "T")
        }
    # one accepting edge per symbol from the initial state keeps every answer finite
    delta[names[0]] = {
        a: entries + ((names[0], True, rng.randint(0, 4)),)
        for a, entries in delta[names[0]].items()
    }
    return WeightedMealy(names, ("P", "B", "T"), delta, names[0])


def random_chain_json(
    rng: random.Random, n: int, alphabet: tuple[str, ...], shares: tuple[int, ...],
    halt_every: int, reward: bool,
) -> str:
    """Seeded Markov chain with exactly ``n`` states and out-degree 2-3.

    A Hamiltonian cycle in shuffled order makes the chain strongly
    connected without giving the matrix a small bandwidth.  Exactly
    ``n // halt_every`` states may halt, every row splits its mass evenly,
    and each symbol labels ``n * share // sum(shares)`` states (the first
    symbol takes the rest, and the initial state): fixed counts at seeded
    positions keep the product's size steady from seed to seed.
    """
    names = [f"s{k}" for k in range(n)]
    order = names[:]
    rng.shuffle(order)
    halting = set(rng.sample(names, n // halt_every))
    trans = {}
    for pos, x in enumerate(order):
        succ = {order[(pos + 1) % n]}
        targets = ["*"] if x in halting else []
        degree = rng.randint(2, 3)
        while len(succ) + len(targets) < degree:
            succ.add(rng.choice(names))
        targets += sorted(succ)
        trans[x] = dict.fromkeys(targets, f"1/{len(targets)}")
    label = dict.fromkeys(names, alphabet[0])
    others = rng.sample(order[1:], n - 1)
    for sym, share in zip(alphabet[1:], shares[1:]):
        count = n * share // sum(shares)
        label.update(dict.fromkeys(others[:count], sym))
        others = others[count:]
    doc = {
        "kind": "mrm" if reward else "mc",
        "alphabet": list(alphabet),
        "states": names,
        "initial": order[0],
        "label": label,
        "trans": trans,
    }
    if reward:
        doc["reward"] = {x: rng.randint(0, 9) for x in names}
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# workloads

class Fixtures:
    """The shipped fixtures, loaded once before the first query."""

    def __init__(self):
        self.patrol = fixture_text("patrol.qtp")
        self.gridworld = fixture_text("gridworld.qtp")
        self.safe = load_model("safe-recharge-dfa.json")
        self.reach = load_model("reach-recharge-dfa.json")
        self.train = load_model("train-arrival-nfa.json")
        self.robot = load_model("robot-mc.json")


# Size ladders, (size, draws): each draw is an input with its own seeded
# labels, costs or edges.  The draws are placed so that a workload's p50 and
# p90 each fall inside a group of same-size inputs rather than on the step
# between two sizes, where a small shift in one input would move them.
PATROL_LADDER = (((4, 3), 1), ((6, 4), 1), ((8, 6), 4), ((10, 8), 2), ((12, 10), 4))
GRIDWORLD_LADDER = (((5, 3), 2), ((8, 5), 2), ((10, 8), 2))
WEIGHTED_LADDER = (((12, 10), 2), ((18, 14), 3), ((24, 20), 4))
# random-sparse: one size, so that p50 and p90 fall inside the mc-dfa and
# the mrm-dfa group (the cost-bounded products are a few milliseconds each)
SPARSE_STATES = 40
SPARSE_DRAWS = 12  # chains per pairing
CHAIN_LABEL_SHARES = (30, 4, 4, 4, 1)  # sand, recharge, lake, arid, volcano
CHAIN_BUDGET = 6  # budget of the mc-costdfa requirement
LAWCHECK_INSTANCES = 400  # per pairing; enough for a steady mean under the heavy tail
LAWCHECK_KMAX = 10
LAWCHECK_SAMPLES = 60


def grid_reward(state: str) -> int:
    """Per-state reward of a gridworld cell "i=<i>,j=<j>"."""
    i, j = (int(part.split("=")[1]) for part in state.split(","))
    return (i + 2 * j) % 10


def _with_reward(chain) -> MarkovRewardModel:
    return MarkovRewardModel(
        chain.states, chain.alphabet, chain.label,
        {x: grid_reward(x) for x in chain.states}, chain.trans, chain.initial,
    )


def grid_exact(fx: Fixtures, seed: int) -> list[Case]:
    """Patrol (reactive, ntmc-dfa) and gridworld (terminating, mc-dfa and
    mrm-dfa) programs on a fixed size ladder, label tables from the seed."""
    rng = random.Random(f"grid-exact:{seed}")
    cases = []
    for rung, ((w, h), draws) in enumerate(PATROL_LADDER):
        for draw in range(draws):
            text = patrol_text(fx.patrol, rng, w, h)

            def run(text=text):
                compiled = compile_probabilistic(parse_program(text), "reactive")
                return _solve(compiled.model, fx.safe, product_ntmc_dfa, compiled)

            first = rung == draw == 0
            cli_check = _cli_compiled(text, "reactive", "ntmc-dfa", fx.safe) if first else None
            cases.append(Case(f"patrol-{w}x{h}.{draw}/ntmc-dfa", run, cli_check))
    for rung, ((w, h), draws) in enumerate(GRIDWORLD_LADDER):
        for draw in range(draws):
            text = gridworld_text(fx.gridworld, rng, w, h)

            def run_mc(text=text):
                compiled = compile_probabilistic(parse_program(text), "terminating")
                return _solve(compiled.model, fx.reach, product_mc_dfa, compiled)

            def run_mrm(text=text):
                compiled = compile_probabilistic(parse_program(text), "terminating")
                return _solve(_with_reward(compiled.model), fx.reach, product_mrm_dfa, compiled)

            first = rung == draw == 0
            cases.append(Case(
                f"gridworld-{w}x{h}.{draw}/mc-dfa", run_mc,
                _cli_compiled(text, "terminating", "mc-dfa", fx.reach) if first else None,
            ))
            cases.append(Case(
                f"gridworld-{w}x{h}.{draw}/mrm-dfa", run_mrm,
                _cli_compiled(text, "terminating", "mrm-dfa", fx.reach, reward=True) if first else None,
            ))
    return cases


def random_sparse(fx: Fixtures, seed: int) -> list[Case]:
    """Random JSON chains with exact state counts, through ``parse_model``."""
    rng = random.Random(f"random-sparse:{seed}")
    n = SPARSE_STATES
    cases = []
    for draw in range(SPARSE_DRAWS):
        mc = random_chain_json(rng, n, SYMBOLS, CHAIN_LABEL_SHARES, 6, reward=False)
        mrm = random_chain_json(rng, n, SYMBOLS, CHAIN_LABEL_SHARES, 6, reward=True)
        cost = random_chain_json(rng, n, ("1", "2", "3"), (3, 2, 1), 3, reward=False)

        def run_mc(text=mc):
            return _solve(parse_model(text), fx.safe, product_mc_dfa)

        def run_mrm(text=mrm):
            return _solve(parse_model(text), fx.reach, product_mrm_dfa)

        def run_cost(text=cost):
            return _solve(parse_model(text), make_cost_bound_dfa(CHAIN_BUDGET, 3), product_mc_dfa)

        first = draw == 0
        cost_dfa = make_cost_bound_dfa(CHAIN_BUDGET, 3)
        cases.append(Case(f"chain-{n}.{draw}/mc-dfa", run_mc, _cli_json(mc, "mc-dfa", fx.safe) if first else None))
        cases.append(Case(f"chain-{n}.{draw}/mrm-dfa", run_mrm, _cli_json(mrm, "mrm-dfa", fx.reach) if first else None))
        cases.append(Case(
            f"chain-{n}.{draw}/mc-costdfa", run_cost,
            _cli_json(cost, "mc-costdfa", cost_dfa) if first else None,
        ))
    return cases


def weighted_min_plus(fx: Fixtures, seed: int) -> list[Case]:
    """Weighted grid programs with back-edges, paired wts-nfa and wts-wmm."""
    rng = random.Random(f"weighted-min-plus:{seed}")
    cases = []
    for rung, ((w, h), draws) in enumerate(WEIGHTED_LADDER):
        for draw in range(draws):
            text = weighted_grid_text(rng, w, h)
            mealy = random_mealy(rng, 3)

            def run_nfa(text=text):
                compiled = compile_weighted(parse_program(text))
                return _solve(compiled.model, fx.train, product_wts_nfa, compiled)

            def run_wmm(text=text, mealy=mealy):
                compiled = compile_weighted(parse_program(text))
                return _solve(compiled.model, mealy, product_wts_wmm, compiled)

            first = rung == draw == 0
            cases.append(Case(
                f"wgrid-{w}x{h}.{draw}/wts-nfa", run_nfa,
                _cli_compiled(text, "weighted", "wts-nfa", fx.train) if first else None,
            ))
            cases.append(Case(
                f"wgrid-{w}x{h}.{draw}/wts-wmm", run_wmm,
                _cli_compiled(text, "weighted", "wts-wmm", mealy) if first else None,
            ))
    return cases


def _check_case(case_name: str, check: str, *args, expect_pass: bool = True, cli_check=None, **kw) -> Case:
    def run() -> Answer:
        res = getattr(lawcheck, check)(*args, **kw)  # looked up per call, so tracing sees it
        return Answer(render(res), report=res, expect_pass=expect_pass)

    return Case(case_name, run, cli_check)


def lawcheck_deep(fx: Fixtures, seed: int) -> list[Case]:
    """Step equality on seeded random instances of every pairing at a deep
    ``kmax``, the sampled diagram checks, and the mutation catalogue."""
    kmax = str(LAWCHECK_KMAX)
    cases = []
    for pairing in lawcheck.PAIRINGS:
        for i in range(LAWCHECK_INSTANCES):
            # the instance stream of ``qtrace lawcheck <pairing> --seed <seed>``
            system, requirement = lawcheck.random_instance(
                pairing, random.Random(f"{seed}:{pairing}:{i}")
            )
            cli_check = None
            if i == 0:
                argv = [pairing, "--seed", str(seed), "--instances", "1", "--kmax", kmax]
                cli_check = _cli_lawcheck(argv, f"step-equality[{pairing}]", 0, whole_doc=False)
            cases.append(_check_case(
                f"step-equality[{pairing}]#{i}", "check_step_equality",
                pairing, system, requirement, LAWCHECK_KMAX, cli_check=cli_check,
            ))
    for pairing in lawcheck.DIAGRAM_PAIRINGS:
        argv = [pairing, "--seed", str(seed), "--instances", "0", "--samples", str(LAWCHECK_SAMPLES)]
        cases.append(_check_case(
            f"diagram[{pairing}]", "check_diagram", pairing, LAWCHECK_SAMPLES, seed,
            cli_check=_cli_lawcheck(argv, f"diagram[{pairing}]", 0, whole_doc=True),
        ))
    for name, fn in sorted(lawcheck.MUTATIONS.items()):
        argv = ["mc-dfa", "--mutate", name, "--kmax", kmax]
        cases.append(_check_case(
            f"mutated[{name}]", "check_step_equality",
            "mc-dfa", fx.robot, fx.safe, LAWCHECK_KMAX, product_fn=fn, name=f"mutated[{name}]",
            expect_pass=False,
            cli_check=_cli_lawcheck(argv, f"mutated[{name}]", 1, whole_doc=True),
        ))
    return cases


#: Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS: dict[str, Callable[[Fixtures, int], list[Case]]] = {
    "grid-exact": grid_exact,
    "random-sparse": random_sparse,
    "weighted-min-plus": weighted_min_plus,
    "lawcheck-deep": lawcheck_deep,
}
