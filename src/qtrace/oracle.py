"""Depth-bounded direct trace semantics and the inference queries.

This module is the ground-truth side of every correctness check: it
unfolds each machine for a bounded number of steps, materializing the
trace distribution / language / weighted trace set it denotes, and then
evaluates the requested query on those values directly.  Nothing here
ever looks at a synchronized product.  The ``direct_*`` functions are the
query of each pairing, as ``products.PAIRING_TABLE`` lists them.

The ``*_step`` functions fold the semantic values of the successor states
one transition backwards; iterating them from the empty value yields the
depth-``k`` semantics.  The chains' semantics are unfolded instead on
integer masses over a power of one common denominator, folding as
:func:`mc_trace_step` and :func:`mrm_trace_step` do, and each value
becomes a ``Fraction`` once.  The steps are also reused on raw sampled
values by the commutation checks in :mod:`qtrace.lawcheck`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Mapping

from .domains import INF, ZERO
from .models import (
    Dfa,
    LabeledMc,
    MarkovRewardModel,
    Nfa,
    NonTerminatingMc,
    RewardMachine,
    TARGET,
    WeightedMealy,
    WeightedTs,
    nfa_row,
    wmm_row,
)

Trace = tuple[str, ...]
TraceDist = dict[Trace, Fraction]
TraceRewardDist = dict[tuple[Trace, int], Fraction]
TraceWeightSet = set[tuple[Trace, int]]
LangSet = set[Trace]


# ---------------------------------------------------------------------------
# one-step semantic updates

def mc_trace_step(
    successors: Iterable[tuple[TraceDist, Fraction]],
    halt_mass: Fraction,
    symbol: str,
) -> TraceDist:
    """Prepend ``symbol`` to the successor trace distributions.

    ``halt_mass`` is the probability of terminating right after emitting
    ``symbol``; it becomes the mass of the one-symbol trace.
    """
    out: TraceDist = {}
    if halt_mass:
        out[(symbol,)] = halt_mass
    for dist, p in successors:
        for w, q in dist.items():
            t = (symbol, *w)
            out[t] = out.get(t, ZERO) + p * q
    return out


def mrm_trace_step(
    successors: Iterable[tuple[TraceRewardDist, Fraction]],
    halt_mass: Fraction,
    step_reward: int,
    symbol: str,
) -> TraceRewardDist:
    """As :func:`mc_trace_step` but also accumulating the step reward."""
    out: TraceRewardDist = {}
    if halt_mass:
        out[((symbol,), step_reward)] = halt_mass
    for dist, p in successors:
        for (w, m), q in dist.items():
            key = ((symbol, *w), step_reward + m)
            out[key] = out.get(key, ZERO) + p * q
    return out


def dfa_lang_step(row: Mapping[str, tuple[LangSet, bool]]) -> LangSet:
    """Accepted words reachable in one deterministic step.

    ``row`` maps each symbol to (successor's accepted set, step flag).
    """
    out: LangSet = set()
    for a, (lang, flag) in row.items():
        if flag:
            out.add((a,))
        for w in lang:
            out.add((a, *w))
    return out


def nfa_lang_step(row: Mapping[str, Iterable[tuple[LangSet, bool]]]) -> LangSet:
    out: LangSet = set()
    for a, entries in row.items():
        for lang, flag in entries:
            if flag:
                out.add((a,))
            for w in lang:
                out.add((a, *w))
    return out


def wts_trace_step(transitions: Iterable[tuple[TraceWeightSet | None, str, int]]) -> TraceWeightSet:
    """Weighted traces after one step; ``None`` marks a terminating edge."""
    out: TraceWeightSet = set()
    for value, a, m in transitions:
        if value is None:
            out.add(((a,), m))
        else:
            for w, n in value:
                out.add(((a, *w), m + n))
    return out


def wmm_trace_step(row: Mapping[str, Iterable[tuple[TraceWeightSet, bool, int]]]) -> TraceWeightSet:
    out: TraceWeightSet = set()
    for a, entries in row.items():
        for value, flag, m in entries:
            if flag:
                out.add(((a,), m))
            for w, n in value:
                out.add(((a, *w), m + n))
    return out


def rm_seq_step(
    row: Mapping[str, tuple[dict[Trace, tuple[int, ...]], int]],
) -> dict[Trace, tuple[int, ...]]:
    """Weight sequences assigned after one deterministic transducer step."""
    out: dict[Trace, tuple[int, ...]] = {}
    for a, (table, w) in row.items():
        out[(a,)] = (w,)
        for word, seq in table.items():
            out[(a, *word)] = (w, *seq)
    return out


# ---------------------------------------------------------------------------
# depth-bounded semantics (iterated steps, all states at once)

def _unfold(states, start: Callable, step: Callable, depth: int) -> list[dict]:
    """Levels 0..depth of a depth-bounded semantics, every state at once.

    Level 0 holds ``start()`` at every state; ``step(prev, state)`` folds
    the previous level back one transition into the value at ``state``.
    """
    levels = [{s: start() for s in states}]
    for _ in range(depth):
        prev = levels[-1]
        levels.append({s: step(prev, s) for s in states})
    return levels


def _mass_levels(c, depth: int) -> tuple[int, list[dict[str, dict]]]:
    """Levels 0..depth of a chain's trace masses as integer numerators.

    With D the lcm of the chain's transition denominators, every mass at
    level k is a numerator over D**k: a step multiplies by the integer row
    weights and halting mass enters as its weight times D**(k-1).  Keys
    are traces, or (trace, accumulated reward) for a reward model; a
    never-terminating chain starts from the empty word.  Returns D and
    the levels, keyed and ordered as the ``Fraction`` folds of
    :func:`mc_trace_step` and :func:`mrm_trace_step` order them.
    """
    den = lcm(*(p.denominator for row in c.trans.values() for p in row.values()))
    reward = c.reward if isinstance(c, MarkovRewardModel) else None
    rows = {}
    for x, row in c.trans.items():
        weights = {s: p.numerator * (den // p.denominator) for s, p in row.items()}
        halt = weights.pop(TARGET, 0)
        rows[x] = ((c.label[x],), None if reward is None else reward[x], halt, list(weights.items()))
    start = {(): 1} if isinstance(c, NonTerminatingMc) else {}
    levels = [{x: dict(start) for x in c.states}]
    scale = 1  # D**(k-1) at level k
    for _ in range(depth):
        prev = levels[-1]
        level = {}
        for x in c.states:
            head, r, halt, succ = rows[x]
            out = {}
            if r is None:
                if halt:
                    out[head] = halt * scale
                for s, p in succ:
                    for w, q in prev[s].items():
                        t = head + w
                        out[t] = out.get(t, 0) + p * q
            else:
                if halt:
                    out[head, r] = halt * scale
                for s, p in succ:
                    for (w, m), q in prev[s].items():
                        t = (head + w, r + m)
                        out[t] = out.get(t, 0) + p * q
            level[x] = out
        levels.append(level)
        scale *= den
    return den, levels


def _fraction_levels(c, depth: int) -> list[dict]:
    """:func:`_mass_levels` with each numerator over D**k as a ``Fraction``."""
    den, levels = _mass_levels(c, depth)
    return [
        {x: {t: Fraction(q, den**k) for t, q in dist.items()} for x, dist in level.items()}
        for k, level in enumerate(levels)
    ]


def mc_semantics_levels(c: LabeledMc, depth: int) -> list[dict[str, TraceDist]]:
    """Depth 0..depth trace distributions for every state."""
    return _fraction_levels(c, depth)


def mc_semantics(c: LabeledMc, state: str, depth: int) -> TraceDist:
    """Distribution over the traces of length <= depth that terminate."""
    return mc_semantics_levels(c, depth)[depth][state]


def mrm_semantics_levels(c: MarkovRewardModel, depth: int) -> list[dict[str, TraceRewardDist]]:
    return _fraction_levels(c, depth)


def mrm_semantics(c: MarkovRewardModel, state: str, depth: int) -> TraceRewardDist:
    """Joint distribution over (trace, accumulated reward) pairs."""
    return mrm_semantics_levels(c, depth)[depth][state]


def dfa_language_levels(d: Dfa, depth: int) -> list[dict[str, LangSet]]:
    def step(prev, y):
        return dfa_lang_step({a: (prev[t], f) for a, (t, f) in d.delta[y].items()})

    return _unfold(d.states, set, step, depth)


def dfa_language(d: Dfa, state: str, depth: int) -> LangSet:
    """Accepted words of length 1..depth from ``state``."""
    return dfa_language_levels(d, depth)[depth][state]


def nfa_language_levels(d: Nfa, depth: int) -> list[dict[str, LangSet]]:
    def step(prev, y):
        return nfa_lang_step(
            {a: [(prev[t], f) for t, f in nfa_row(d, y, a)] for a in d.alphabet}
        )

    return _unfold(d.states, set, step, depth)


def nfa_language(d: Nfa, state: str, depth: int) -> LangSet:
    return nfa_language_levels(d, depth)[depth][state]


def wts_semantics_levels(c: WeightedTs, depth: int) -> list[dict[str, TraceWeightSet]]:
    def step(prev, x):
        return wts_trace_step(
            (None if succ == TARGET else prev[succ], a, m) for succ, a, m in c.trans[x]
        )

    return _unfold(c.states, set, step, depth)


def wts_semantics(c: WeightedTs, state: str, depth: int) -> TraceWeightSet:
    """(trace, accumulated cost) pairs of terminating runs within ``depth``."""
    return wts_semantics_levels(c, depth)[depth][state]


def wmm_semantics_levels(d: WeightedMealy, depth: int) -> list[dict[str, TraceWeightSet]]:
    def step(prev, y):
        return wmm_trace_step(
            {a: [(prev[t], f, m) for t, f, m in wmm_row(d, y, a)] for a in d.alphabet}
        )

    return _unfold(d.states, set, step, depth)


def wmm_semantics(d: WeightedMealy, state: str, depth: int) -> TraceWeightSet:
    """(accepted trace, accumulated penalty) pairs within ``depth``."""
    return wmm_semantics_levels(d, depth)[depth][state]


def rm_semantics(d: RewardMachine, state: str, depth: int) -> dict[Trace, tuple[int, ...]]:
    """Weight sequence assigned to every word of length 1..depth."""

    def step(prev, y):
        return rm_seq_step({a: (prev[t], w) for a, (t, w) in d.delta[y].items()})

    return _unfold(d.states, dict, step, depth)[depth][state]


def rm_weights(d: RewardMachine, state: str, word: Trace) -> tuple[int, ...]:
    """Weight sequence of a single word (one run of the transducer)."""
    cur = state
    seq = []
    for a in word:
        cur, w = d.delta[cur][a]
        seq.append(w)
    return tuple(seq)


def ntmc_marginal_levels(c: NonTerminatingMc, depth: int) -> list[dict[str, TraceDist]]:
    """Depth 0..depth marginals: the chain step without halting mass,
    unfolded from the empty word of mass 1."""
    return _fraction_levels(c, depth)


def ntmc_marginal(c: NonTerminatingMc, state: str, depth: int) -> TraceDist:
    """Exact distribution of the first ``depth`` emitted symbols."""
    if depth < 1:
        raise ValueError("marginal depth must be at least 1")
    return ntmc_marginal_levels(c, depth)[depth][state]


def marginalize(dist: TraceDist, depth: int) -> TraceDist:
    """Project a fixed-length trace distribution onto its first ``depth`` symbols."""
    out: TraceDist = {}
    for w, p in dist.items():
        key = w[:depth]
        out[key] = out.get(key, ZERO) + p
    return out


# ---------------------------------------------------------------------------
# word membership without materializing whole languages

def dfa_accepts(d: Dfa, state: str, word: Trace) -> bool:
    """True when the run over ``word`` ends with an accepting transition."""
    if not word:
        return False
    cur = state
    flag = False
    for a in word:
        cur, flag = d.delta[cur][a]
    return flag


def nfa_accepts(d: Nfa, state: str, word: Trace) -> bool:
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

    def __init__(self, d: Dfa | Nfa, state: str, max_len: int):
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


def wmm_min_weight(d: WeightedMealy, state: str, word: Trace):
    """Least accumulated weight over the accepting runs of ``word``.

    Equals the smallest ``n`` with ``(word, n)`` in the depth-``k``
    semantics from ``state``, for any ``k >= len(word)``; infinity when no
    run accepts.  Computed by a forward min-cost sweep instead of
    materializing the whole weighted trace set.
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


# ---------------------------------------------------------------------------
# partition and queries

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


def query_prob(dist: TraceDist, lang) -> Fraction:
    """Probability mass of the traces that belong to ``lang``."""
    return sum((p for w, p in dist.items() if w in lang), ZERO)


def query_cond(dist: TraceDist, lang, condition) -> Fraction | None:
    """Conditional acceptance probability; None when the condition has mass 0."""
    den = sum((p for w, p in dist.items() if w in condition), ZERO)
    if den == 0:
        return None
    num = sum((p for w, p in dist.items() if w in lang and w in condition), ZERO)
    return num / den


def query_reward(dist: TraceRewardDist, lang) -> tuple[Fraction, Fraction]:
    """Acceptance probability and partial expected reward over ``lang``."""
    p_total = ZERO
    r_total = ZERO
    for (w, m), p in dist.items():
        if w in lang:
            p_total += p
            r_total += m * p
    return (p_total, r_total)


def query_tropical(pairs: TraceWeightSet, lang):
    """Least accumulated cost among accepted traces (infinity when none)."""
    best = INF
    for w, m in pairs:
        if m < best and w in lang:
            best = m
    return best


def query_wmm(pairs: TraceWeightSet, accepted: TraceWeightSet):
    """Least combined system + requirement weight over shared traces."""
    cheapest: dict[Trace, int] = {}
    for w, n in accepted:
        if w not in cheapest or n < cheapest[w]:
            cheapest[w] = n
    best = INF
    for w, m in pairs:
        n = cheapest.get(w)
        if n is not None and m + n < best:
            best = m + n
    return best


def query_cost_bounded(dist: TraceDist, budget: int) -> Fraction:
    """Mass of the weight words whose sum stays strictly below ``budget``."""
    total = ZERO
    for w, p in dist.items():
        if sum(int(a) for a in w) < budget:
            total += p
    return total


def query_cost_induced(
    dist: TraceDist,
    weights: Callable[[Trace], tuple[int, ...]] | Mapping[Trace, tuple[int, ...]],
    budget: int,
) -> Fraction:
    """Mass of the traces whose induced weight sequence sums below ``budget``."""
    lookup = weights if callable(weights) else weights.__getitem__
    total = ZERO
    for w, p in dist.items():
        if sum(lookup(w)) < budget:
            total += p
    return total


def query_safety(
    c: NonTerminatingMc, state: str, d: Dfa, monitor_state: str, depth: int
) -> Fraction:
    """Probability that a run is accepted within ``depth`` steps.

    Sums, per length i <= depth, the marginal mass of the prefix-minimal
    accepted words of length i; this is a lower bound of the unbounded
    acceptance probability and is nondecreasing in ``depth``.
    """
    return direct_ntmc_dfa(c, d, depth)(state, monitor_state, depth)


# ---------------------------------------------------------------------------
# the direct query of each pairing: the lookup value(x, y, k), k <= depth,
# over semantics unfolded once and shared by all lookups

class _Flags(dict):
    """Acceptance of each word from every state of a DFA, as a bit mask over
    its states, memoised per word: ``flags[w]``.

    The unfolding prepends symbols, so a word's flags follow from its
    tail's.  With (t, f) = delta[y][a], acceptance of a.w from y is f when
    w is empty and that of w from t otherwise.  With ``minimal`` (accepted,
    and no proper prefix accepted) it is f when w is empty, and ``not f``
    and that of w from t otherwise.  Walking the levels in order of depth
    finds every tail already memoised, so a new word costs one step per
    requirement state.
    """

    def __init__(self, d: Dfa, minimal: bool):
        super().__init__()
        index = {y: i for i, y in enumerate(d.states)}
        self.moves = {
            a: [(1 << i, index[d.delta[y][a][0]], d.delta[y][a][1]) for i, y in enumerate(d.states)]
            for a in d.alphabet
        }
        self.minimal = minimal
        self.n = len(d.states)

    def __missing__(self, w: Trace) -> int:
        mask = 0
        if len(w) == 1:
            for bit, _, f in self.moves[w[0]]:
                if f:
                    mask |= bit
        else:
            tail = self[w[1:]]
            for bit, t, f in self.moves[w[0]]:
                if tail >> t & 1 and not (self.minimal and f):
                    mask |= bit
        self[w] = mask
        return mask

    def totals(self, masses: Mapping[int, int]) -> list[int]:
        """Per requirement state i, the total of the masses whose mask has bit i."""
        totals = [0] * self.n
        for mask, q in masses.items():
            for i in range(self.n):
                if mask >> i & 1:
                    totals[i] += q
        return totals

    def accepted(self, dist: Mapping[Trace, int]) -> list[int]:
        """Per requirement state, the total mass of the words it accepts."""
        masses: dict[int, int] = {}
        for w, q in dist.items():
            mask = self[w]
            masses[mask] = masses.get(mask, 0) + q
        return self.totals(masses)


def _ratio(total: int, scale: int) -> Fraction:
    # most totals are 0, and a shared ZERO skips the gcd of a new Fraction
    return Fraction(total, scale) if total else ZERO


def direct_mc_dfa(c: LabeledMc, d: Dfa, depth: int) -> Callable:
    """Acceptance probability of the depth-k traces (also ``mc-costdfa``)."""
    den, levels = _mass_levels(c, depth)
    flags = _Flags(d, minimal=False)
    table = {}
    for k, level in enumerate(levels):
        scale = den**k
        for x, dist in level.items():
            for y, total in zip(d.states, flags.accepted(dist)):
                table[x, y, k] = _ratio(total, scale)
    return lambda x, y, k: table[x, y, k]


def direct_mrm_dfa(c: MarkovRewardModel, d: Dfa, depth: int) -> Callable:
    """(acceptance probability, partial expected reward) of the depth-k traces."""
    den, levels = _mass_levels(c, depth)
    flags = _Flags(d, minimal=False)
    table = {}
    for k, level in enumerate(levels):
        scale = den**k
        for x, dist in level.items():
            masses: dict[int, int] = {}
            rewards: dict[int, int] = {}
            for (w, m), q in dist.items():
                mask = flags[w]
                masses[mask] = masses.get(mask, 0) + q
                rewards[mask] = rewards.get(mask, 0) + m * q
            for y, p, r in zip(d.states, flags.totals(masses), flags.totals(rewards)):
                table[x, y, k] = (_ratio(p, scale), _ratio(r, scale))
    return lambda x, y, k: table[x, y, k]


def direct_ntmc_dfa(c: NonTerminatingMc, d: Dfa, depth: int) -> Callable:
    """Mass of the prefix-minimal accepted words of length 1..k."""
    den, levels = _mass_levels(c, depth)
    flags = _Flags(d, minimal=True)
    # the value at depth k is the value at k-1 plus the mass of the
    # prefix-minimal accepted words of length exactly k, all over D**k
    acc = {x: [0] * len(d.states) for x in c.states}
    table = {(x, y, 0): ZERO for x in c.states for y in d.states}
    for k in range(1, depth + 1):
        scale = den**k
        for x, dist in levels[k].items():
            acc[x] = [s * den + t for s, t in zip(acc[x], flags.accepted(dist))]
            for y, total in zip(d.states, acc[x]):
                table[x, y, k] = _ratio(total, scale)
    return lambda x, y, k: table[x, y, k]


def direct_wts_nfa(c: WeightedTs, d: Nfa, depth: int) -> Callable:
    """Least cost of an accepted depth-k trace."""
    sys_levels = wts_semantics_levels(c, depth)
    views = {(y, k): NfaLanguage(d, y, k) for y in d.states for k in range(depth + 1)}
    return lambda x, y, k: query_tropical(sys_levels[k][x], views[(y, k)])


def direct_wts_wmm(c: WeightedTs, d: WeightedMealy, depth: int) -> Callable:
    """Least system plus requirement weight of a depth-k trace."""
    sys_levels = wts_semantics_levels(c, depth)
    # the query only needs the cheapest accepting run per trace, so the
    # requirement side is evaluated lazily instead of materialized
    weight_memo: dict[tuple[str, Trace], object] = {}

    def cheapest(y: str, w) -> object:
        got = weight_memo.get((y, w))
        if got is None:
            got = wmm_min_weight(d, y, w)
            weight_memo[(y, w)] = got
        return got

    def value(x, y, k):
        best = INF
        for w, m in sys_levels[k][x]:
            n = cheapest(y, w)
            if m + n < best:
                best = m + n
        return best

    return value
