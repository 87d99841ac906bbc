"""The direct queries that ``qtrace.oracle`` replaced with integer masses
and memoised automaton flags, kept as the reference the faster versions
are compared with.

Each level of a chain is folded with ``Fraction`` arithmetic by the
one-step updates, and every word is run through the automaton (or the
weighted Mealy machine) from its start, so it is only fit for the small
machines of the tests.  The run-from-start readers of a word and the lazy
language views over them live here too, and so do the whole depth-bounded
languages, weighted languages and weight sequences of the requirements,
which the package reads one word at a time instead.
"""

from qtrace.domains import INF, ONE, ZERO
from qtrace.models import TARGET, nfa_row, wmm_row
from qtrace.oracle import (
    LangSet,
    Trace,
    TraceWeightSet,
    dfa_lang_step,
    mc_trace_step,
    mrm_trace_step,
    nfa_lang_step,
    query_prob,
    query_reward,
    query_tropical,
    wmm_trace_step,
    wts_semantics_levels,
)


def dfa_accepts(d, state: str, word: Trace) -> bool:
    """True when the run over ``word`` ends with an accepting transition."""
    if not word:
        return False
    cur = state
    flag = False
    for a in word:
        cur, flag = d.delta[cur][a]
    return flag


def nfa_accepts(d, state: str, word: Trace) -> bool:
    if not word:
        return False
    current = {state}
    for a in word[:-1]:
        current = {t for y in current for t, _ in nfa_row(d, y, a)}
        if not current:
            return False
    return any(f for y in current for _, f in nfa_row(d, y, word[-1]))


class DfaLanguage:
    """Lazy view of the depth-bounded accepted word set (supports ``in``)."""

    accepts = staticmethod(dfa_accepts)

    def __init__(self, d, state: str, max_len: int):
        self.d = d
        self.state = state
        self.max_len = max_len
        self._memo: dict[Trace, bool] = {}

    def __contains__(self, word: Trace) -> bool:
        if not 1 <= len(word) <= self.max_len:
            return False
        got = self._memo.get(word)
        if got is None:
            got = self.accepts(self.d, self.state, word)
            self._memo[word] = got
        return got


class NfaLanguage(DfaLanguage):
    """Lazy view of the depth-bounded accepted word set of an NFA."""

    accepts = staticmethod(nfa_accepts)


def wmm_min_weight(d, state: str, word: Trace):
    """Least accumulated weight over the accepting runs of ``word``.

    Equals the smallest ``n`` with ``(word, n)`` in the depth-``k``
    semantics from ``state``, for any ``k >= len(word)``; infinity when no
    run accepts.  Computed by a forward min-cost sweep.
    """
    if not word:
        return INF
    costs = {state: 0}
    for a in word[:-1]:
        nxt: dict[str, int] = {}
        for s, c in costs.items():
            for t, _, m in wmm_row(d, s, a):
                if t not in nxt or c + m < nxt[t]:
                    nxt[t] = c + m
        if not nxt:
            return INF
        costs = nxt
    best = INF
    for s, c in costs.items():
        for _, flag, m in wmm_row(d, s, word[-1]):
            if flag and c + m < best:
                best = c + m
    return best


def partition(words: LangSet, depth: int) -> list[LangSet]:
    """Stratify ``words`` into prefix-minimal layers by length 1..depth."""
    minimal: LangSet = set()
    layers: list[LangSet] = []
    for i in range(1, depth + 1):
        layer = {
            w
            for w in words
            if len(w) == i and not any(w[:j] in minimal for j in range(1, i))
        }
        minimal |= layer
        layers.append(layer)
    return layers


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


# ---------------------------------------------------------------------------
# the languages, weighted languages and weight sequences of the requirements,
# unfolded by their one-step folds; nothing in the package needs them whole


def dfa_language_levels(d, depth: int) -> list[dict[str, LangSet]]:
    def step(prev, y):
        return dfa_lang_step({a: (prev[t], f) for a, (t, f) in d.delta[y].items()})

    return _unfold(d.states, set, step, depth)


def dfa_language(d, state: str, depth: int) -> LangSet:
    """Accepted words of length 1..depth from ``state``."""
    return dfa_language_levels(d, depth)[depth][state]


def nfa_language_levels(d, depth: int) -> list[dict[str, LangSet]]:
    def step(prev, y):
        return nfa_lang_step(
            {a: [(prev[t], f) for t, f in nfa_row(d, y, a)] for a in d.alphabet}
        )

    return _unfold(d.states, set, step, depth)


def nfa_language(d, state: str, depth: int) -> LangSet:
    return nfa_language_levels(d, depth)[depth][state]


def wmm_semantics_levels(d, depth: int) -> list[dict[str, TraceWeightSet]]:
    def step(prev, y):
        return wmm_trace_step(
            {a: [(prev[t], f, m) for t, f, m in wmm_row(d, y, a)] for a in d.alphabet}
        )

    return _unfold(d.states, set, step, depth)


def wmm_semantics(d, state: str, depth: int) -> TraceWeightSet:
    """(accepted trace, accumulated penalty) pairs within ``depth``."""
    return wmm_semantics_levels(d, depth)[depth][state]


def rm_seq_step(
    row: dict[str, tuple[dict[Trace, tuple[int, ...]], int]],
) -> dict[Trace, tuple[int, ...]]:
    """Weight sequences assigned after one deterministic transducer step."""
    out: dict[Trace, tuple[int, ...]] = {}
    for a, (table, w) in row.items():
        out[(a,)] = (w,)
        for word, seq in table.items():
            out[(a, *word)] = (w, *seq)
    return out


def rm_semantics(d, state: str, depth: int) -> dict[Trace, tuple[int, ...]]:
    """Weight sequence assigned to every word of length 1..depth."""

    def step(prev, y):
        return rm_seq_step({a: (prev[t], w) for a, (t, w) in d.delta[y].items()})

    return _unfold(d.states, dict, step, depth)[depth][state]


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
