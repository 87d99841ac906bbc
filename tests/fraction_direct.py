"""The direct queries that ``qtrace.oracle`` replaced with integer masses
and memoised automaton flags, kept as the reference the faster versions
are compared with.

Each level of a chain is folded with ``Fraction`` arithmetic by the
one-step updates, and every word is run through the automaton (or the
weighted Mealy machine) from its start, so it is only fit for the small
machines of the tests.
"""

from qtrace.domains import INF, ONE, ZERO
from qtrace.models import TARGET
from qtrace.oracle import (
    DfaLanguage,
    NfaLanguage,
    Trace,
    mc_trace_step,
    mrm_trace_step,
    query_prob,
    query_reward,
    query_tropical,
    wmm_min_weight,
    wts_semantics_levels,
)


def _unfold(states, start, step, depth: int) -> list[dict]:
    levels = [{s: start() for s in states}]
    for _ in range(depth):
        prev = levels[-1]
        levels.append({s: step(prev, s) for s in states})
    return levels


def mc_semantics_levels(c, depth: int) -> list[dict]:
    def step(prev, x):
        row = c.trans[x]
        succ = [(prev[s], p) for s, p in row.items() if s != TARGET]
        return mc_trace_step(succ, row.get(TARGET, ZERO), c.label[x])

    return _unfold(c.states, dict, step, depth)


def mrm_semantics_levels(c, depth: int) -> list[dict]:
    def step(prev, x):
        row = c.trans[x]
        succ = [(prev[s], p) for s, p in row.items() if s != TARGET]
        return mrm_trace_step(succ, row.get(TARGET, ZERO), c.reward[x], c.label[x])

    return _unfold(c.states, dict, step, depth)


def ntmc_marginal_levels(c, depth: int) -> list[dict]:
    def step(prev, x):
        return mc_trace_step([(prev[s], p) for s, p in c.trans[x].items()], ZERO, c.label[x])

    return _unfold(c.states, lambda: {(): ONE}, step, depth)


def prefix_minimal_accept(d, state: str, word: Trace) -> bool:
    """True when ``word`` is accepted and no proper prefix already was."""
    cur = state
    seen = False
    minimal = False
    for a in word:
        cur, flag = d.delta[cur][a]
        minimal = flag and not seen
        seen = seen or minimal
    return minimal


def _views(d, depth: int) -> dict:
    return {(y, k): DfaLanguage(d, y, k) for y in d.states for k in range(depth + 1)}


def direct_mc_dfa(c, d, depth: int):
    sys_levels = mc_semantics_levels(c, depth)
    views = _views(d, depth)
    return lambda x, y, k: query_prob(sys_levels[k][x], views[(y, k)])


def direct_mrm_dfa(c, d, depth: int):
    sys_levels = mrm_semantics_levels(c, depth)
    views = _views(d, depth)
    return lambda x, y, k: query_reward(sys_levels[k][x], views[(y, k)])


def direct_ntmc_dfa(c, d, depth: int):
    marginals = ntmc_marginal_levels(c, depth)
    acc = {(x, y): ZERO for x in c.states for y in d.states}
    per_depth = [dict(acc)]
    for k in range(1, depth + 1):
        for x in c.states:
            for w, p in marginals[k][x].items():
                for y in d.states:
                    if prefix_minimal_accept(d, y, w):
                        acc[(x, y)] += p
        per_depth.append(dict(acc))
    return lambda x, y, k: per_depth[k][(x, y)]


def direct_wts_nfa(c, d, depth: int):
    sys_levels = wts_semantics_levels(c, depth)
    views = {(y, k): NfaLanguage(d, y, k) for y in d.states for k in range(depth + 1)}
    return lambda x, y, k: query_tropical(sys_levels[k][x], views[(y, k)])


def direct_wts_wmm(c, d, depth: int):
    sys_levels = wts_semantics_levels(c, depth)

    def value(x, y, k):
        return min((m + wmm_min_weight(d, y, w) for w, m in sys_levels[k][x]), default=INF)

    return value
