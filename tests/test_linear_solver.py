"""The sparse exact solver against the dense reference it replaced.

``solvers._solve_linear`` must return the very same dict as the dense
Bareiss solver kept in ``dense_solver.py``: same keys, same order, same
exact fractions.  It is checked on seeded random systems with several
strongly connected components, self-loops and acyclic tails, and on every
system that solving real products asks it for.
"""

import random
from fractions import Fraction

import pytest
from dense_solver import _solve_linear as dense_solve_linear

from qtrace import solvers
from qtrace.bundled import load_model
from qtrace.models import MarkovRewardModel
from qtrace.products import product_mc_dfa, product_mrm_dfa, product_ntmc_dfa
from qtrace.programs import compile_probabilistic, parse_program
from qtrace.solvers import SolverError, _components, _solve_linear, solve_product

F = Fraction
SYMBOLS = ("recharge", "lake", "arid", "volcano")


def _same(unknowns, coeff, rhs, reward=None):
    """The sparse solve against the dense one; given step rewards, against
    two dense solves, the second for ``reward * probability``."""
    got = _solve_linear(unknowns, coeff, rhs, reward)
    want = dense_solve_linear(unknowns, coeff, rhs)
    if reward is not None:
        want = (want, dense_solve_linear(unknowns, coeff, {s: reward[s] * want[s] for s in unknowns}))
    assert got == want
    for g, w in zip(got, want) if reward is not None else [(got, want)]:
        assert list(g) == list(w)
    return got


def _random_system(rng: random.Random):
    """A substochastic system whose components are known blocks.

    States come in blocks, and every edge between blocks points forward,
    so the blocks are the strongly connected components: a block of
    several states is one cycle plus random chords, a block of one state
    has a self-loop half of the time, and the last blocks are single
    states in a chain (an acyclic tail).  Every state reaches the last,
    which keeps some mass back, so the system is nonsingular.
    """
    sizes = [rng.choice((1, 1, 2, 3, 5, 8)) for _ in range(rng.randint(1, 8))]
    sizes += [1] * rng.randint(0, 4)
    blocks, start = [], 0
    for size in sizes:
        blocks.append(list(range(start, start + size)))
        start += size
    n = start
    edges: dict[int, set[int]] = {i: set() for i in range(n)}
    for b, block in enumerate(blocks):
        if len(block) > 1:
            for k, i in enumerate(block):
                edges[i].add(block[(k + 1) % len(block)])
                if rng.random() < 0.4:
                    edges[i].add(rng.choice(block))
        elif b < len(blocks) - rng.randint(1, 3) and rng.random() < 0.5:
            edges[block[0]].add(block[0])
        if b + 1 < len(blocks):
            edges[block[-1]].add(blocks[b + 1][0])
        for i in block:
            if block[-1] + 1 < n and rng.random() < 0.3:
                edges[i].add(rng.randrange(block[-1] + 1, n))
    names = [f"s{i}" for i in range(n)]
    coeff, rhs = {}, {}
    for i in range(n):
        weights = {names[j]: rng.randint(1, 9) for j in sorted(edges[i])}
        if rng.random() < 0.2:  # an edge to a pinned state: not an unknown, so ignored
            weights["pinned"] = rng.randint(1, 9)
        kept = rng.randint(1, 9) if i == n - 1 or rng.random() < 0.3 else 0
        total = sum(weights.values()) + kept
        coeff[names[i]] = {t: F(w, total) for t, w in weights.items()}
        rhs[names[i]] = F(kept * rng.randint(0, 5), total * rng.randint(1, 7))
    order = names[:]
    rng.shuffle(order)
    return order, coeff, rhs, sizes


@pytest.mark.parametrize("seed", range(40))
def test_random_systems_match_the_dense_solver(seed):
    # alone, and with random step rewards (zeros included) for a second
    # vector on the same elimination
    rng = random.Random(seed)
    unknowns, coeff, rhs, sizes = _random_system(rng)
    _same(unknowns, coeff, rhs)
    _same(unknowns, coeff, rhs, {s: rng.choice((0, 0, 1, 2, 5, 9, 40)) for s in unknowns})
    index = {s: i for i, s in enumerate(unknowns)}
    succ = [[index[t] for t in coeff[s] if t in index] for s in unknowns]
    assert sorted(map(len, _components(succ))) == sorted(sizes)


def test_reward_solve_where_a_row_content_does_not_divide_the_reward(monkeypatch):
    # one cyclic component in which only a reaches the goal directly, so
    # every other probability right-hand side is 0; eliminating it divides
    # a row by a content of 5 that does not divide the row's reward entry,
    # which then keeps a denominator of its own
    denominators = []
    reduced = solvers._reduced

    def record(top, den):
        top, den = reduced(top, den)
        denominators.append(den)
        return top, den

    monkeypatch.setattr(solvers, "_reduced", record)
    coeff = {
        "a": {"b": F(1, 4)},
        "b": {"c": F(2, 3)},
        "c": {"d": F(1, 2), "a": F(1, 3)},
        "d": {"a": F(1, 6), "b": F(1, 2)},
    }
    rhs = {"a": F(3, 4), "b": F(0), "c": F(0), "d": F(0)}
    _same(list(coeff), coeff, rhs, {"a": 0, "b": 0, "c": 3, "d": 3})
    assert max(denominators) == 5


def test_random_systems_cover_every_component_shape():
    shapes = set()
    for seed in range(40):
        unknowns, coeff, _, sizes = _random_system(random.Random(seed))
        shapes.add("cyclic" if max(sizes) > 1 else "acyclic")
        if sum(size > 1 for size in sizes) > 1:
            shapes.add("several cyclic")
        if any(s in coeff[s] for s in unknowns):
            shapes.add("self-loop")
    assert shapes == {"cyclic", "acyclic", "several cyclic", "self-loop"}


def _patrol(w: int, h: int, rng: random.Random) -> str:
    cells = [(x, y) for x in range(w) for y in range(h) if (x, y) != (w - 1, h - 1)]
    picked = rng.sample(cells, max(len(SYMBOLS), len(cells) // 4))
    labels = "".join(f"  ({x},{y}): {SYMBOLS[k % 4]};\n" for k, (x, y) in enumerate(picked))
    return (
        f"var x : 0..{w - 1} init {w - 1};\nvar y : 0..{h - 1} init {h - 1};\n"
        "alphabet sand, recharge, lake, arid, volcano;\n"
        f"label {{\n{labels}  default: sand;\n}}\n"
        "while (true) {\n"
        f"  {{ x <- max(x - 1, 0) }} [1/4] {{ y <- max(y - 1, 0) }} [1/4] "
        f"{{ x <- min(x + 1, {w - 1}) }} [1/4] {{ y <- min(y + 1, {h - 1}) }}\n}}\n"
    )


def _gridworld(w: int, h: int, rng: random.Random) -> str:
    cells = [(i, j) for i in range(1, w + 1) for j in range(1, h + 1) if (i, j) != (w, h)]
    picked = rng.sample(cells, max(len(SYMBOLS), len(cells) // 3))
    labels = "".join(f"  ({i},{j}): {SYMBOLS[k % 4]};\n" for k, (i, j) in enumerate(picked))
    return (
        f"var i : 1..{w} init {w};\nvar j : 1..{h} init {h};\n"
        "alphabet sand, recharge, lake, arid, volcano;\n"
        f"label {{\n{labels}  default: sand;\n}}\n"
        "while (i > 1 or j > 1) {\n"
        "  { i <- max(i - 1, 1) } [4/5] { j <- max(j - 1, 1) }\n}\n"
    )


def _with_reward(chain) -> MarkovRewardModel:
    reward = {x: k % 7 for k, x in enumerate(chain.states)}
    return MarkovRewardModel(chain.states, chain.alphabet, chain.label, reward, chain.trans, chain.initial)


def _products():
    safe = load_model("safe-recharge-dfa.json")
    reach = load_model("reach-recharge-dfa.json")
    robot = load_model("robot-mc.json")
    yield pytest.param(product_mc_dfa(robot, safe), False, id="robot/mc-dfa")
    yield pytest.param(product_mrm_dfa(_with_reward(robot), reach), True, id="robot/mrm-dfa")
    for w, h in ((4, 3), (6, 4), (9, 7)):
        text = _patrol(w, h, random.Random(f"patrol {w}x{h}"))
        chain = compile_probabilistic(parse_program(text), "reactive").model
        yield pytest.param(product_ntmc_dfa(chain, safe), False, id=f"patrol-{w}x{h}/ntmc-dfa")
    for w, h in ((5, 3), (8, 6), (12, 9)):
        text = _gridworld(w, h, random.Random(f"gridworld {w}x{h}"))
        chain = compile_probabilistic(parse_program(text), "terminating").model
        yield pytest.param(product_mc_dfa(chain, reach), False, id=f"gridworld-{w}x{h}/mc-dfa")
        yield pytest.param(product_mrm_dfa(_with_reward(chain), reach), True, id=f"gridworld-{w}x{h}/mrm-dfa")


@pytest.mark.parametrize("product, rewards", list(_products()))
def test_product_systems_match_the_dense_solver(product, rewards, monkeypatch):
    # one solve per product: a reward product's passes its step rewards,
    # and both vectors must match the dense solver
    calls = []

    def compare(unknowns, coeff, rhs, reward=None):
        calls.append((len(unknowns), reward is not None))
        return _same(unknowns, coeff, rhs, reward)

    monkeypatch.setattr(solvers, "_solve_linear", compare)
    solve_product(product)
    assert len(calls) == 1 and calls[0][0] > 1 and calls[0][1] == rewards


def test_reward_products_eliminate_each_cyclic_component_once(monkeypatch):
    # the rewards reuse the probabilities' forward elimination: every
    # cyclic component is eliminated in one call, and the solve takes as
    # many row operations (each row's set-up, then one per row update) as
    # solving for the probabilities alone
    text = _patrol(6, 4, random.Random("patrol 6x4")).replace("while (true)", "while (x > 0 or y > 0)")
    chain = compile_probabilistic(parse_program(text), "terminating").model
    prod = product_mrm_dfa(_with_reward(chain), load_model("reach-recharge-dfa.json"))
    systems, eliminated, row_operations = [], [], []
    solve_linear, eliminate, divide_content = solvers._solve_linear, solvers._eliminate, solvers._divide_content

    def record_system(unknowns, coeff, rhs, reward=None):
        systems.append((unknowns, coeff, rhs, reward))
        return solve_linear(unknowns, coeff, rhs, reward)

    def record_component(component, *args):
        eliminated.append(sorted(component))
        return eliminate(component, *args)

    def count(row, rhs):
        row_operations.append(rhs)
        return divide_content(row, rhs)

    monkeypatch.setattr(solvers, "_solve_linear", record_system)
    monkeypatch.setattr(solvers, "_eliminate", record_component)
    monkeypatch.setattr(solvers, "_divide_content", count)
    solve_product(prod)
    ((unknowns, coeff, rhs, reward),) = systems
    assert reward is not None
    index = {s: i for i, s in enumerate(unknowns)}
    succ = [[index[t] for t in coeff[s] if t in index] for s in unknowns]
    cyclic = [sorted(c) for c in _components(succ) if len(c) > 1]
    assert cyclic and eliminated == cyclic
    with_rewards = len(row_operations)
    row_operations.clear()
    solve_linear(unknowns, coeff, rhs)
    assert len(row_operations) == with_rewards


def test_component_values_with_coprime_denominators():
    # every state of one complete component has the value 1/prime, a
    # different prime each, so no value's denominator divides the one
    # shared by the values back substitution found before it, and each
    # later row reads the scaled numerators of all of them
    primes = (2, 3, 5, 7, 11, 13, 17, 19)
    names = [f"s{i}" for i in range(len(primes))]
    want = {s: F(1, q) for s, q in zip(names, primes)}
    p = F(1, len(names) + 1)
    coeff = {s: {t: p for t in names} for s in names}
    coeff["s0"]["tail"] = p  # a value from outside the component
    coeff["tail"] = {}
    rhs = {s: want[s] - sum(p * want[t] for t in names) for s in names}
    rhs["s0"] -= p * F(1, 23)
    rhs["tail"] = F(1, 23)
    got = _same(names + ["tail"], coeff, rhs)
    assert got == {**want, "tail": F(1, 23)}


def test_closed_cycle_is_singular():
    with pytest.raises(SolverError, match="singular"):
        _solve_linear(["a", "b"], {"a": {"b": F(1)}, "b": {"a": F(1)}}, {"a": F(0), "b": F(0)})
    with pytest.raises(SolverError, match="singular"):
        _solve_linear(["a"], {"a": {"a": F(1)}}, {"a": F(1, 2)})
    with pytest.raises(SolverError, match="singular"):
        _solve_linear(["a", "b"], {"a": {"b": F(1)}, "b": {"a": F(1)}}, {"a": F(0), "b": F(0)}, {"a": 1, "b": 2})
    with pytest.raises(SolverError, match="singular"):
        _solve_linear(["a"], {"a": {"a": F(1)}}, {"a": F(1, 2)}, {"a": 1})


def test_long_acyclic_chain_solves_without_recursion():
    n = 5000
    names = [f"c{i}" for i in range(n)]
    coeff = {s: {t: F(1, 2)} for s, t in zip(names, names[1:])}
    coeff[names[-1]] = {}
    values = _solve_linear(names, coeff, {s: F(1, 2) for s in names})
    assert all(values[s] == 1 - F(1, 2 ** (n - i)) for i, s in enumerate(names))


def test_long_cycle_with_one_exit_solves_without_recursion():
    n = 2000
    names = [f"c{i}" for i in range(n)]
    coeff = {s: {t: F(1)} for s, t in zip(names, names[1:] + names[:1])}
    coeff[names[0]] = {names[1]: F(1, 2)}
    rhs = {s: F(0) for s in names}
    rhs[names[0]] = F(1, 2)
    assert _solve_linear(names, coeff, rhs) == {s: F(1) for s in names}
