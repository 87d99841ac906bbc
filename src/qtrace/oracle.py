"""Depth-bounded direct trace semantics and the inference queries.

This module is the ground-truth side of every correctness check: it
unfolds each system for a bounded number of steps, materializing the
trace distribution or weighted trace set it denotes, reads each trace
through the requirement, and evaluates the requested query on those
values directly.  Nothing here
ever looks at a synchronized product.  The ``direct_*`` functions are the
query of each pairing, as ``products.PAIRING_TABLE`` lists them; each
returns a :class:`Lookup` of its values at every state pair and depth,
and one loop (``_lookup``) fills all of them.

The ``*_step`` functions fold the semantic values of the successor states
one transition backwards; iterating them from the empty value yields the
depth-``k`` semantics.  The chains' semantics are unfolded instead on
integer masses over a power of one common denominator, folding as
:func:`mc_trace_step` and :func:`mrm_trace_step` do.  Their direct
queries keep the totals as integer numerators, which ``lawcheck``
compares with the product's integer iterates; a value becomes a
``Fraction`` only when the lookup is called.  Each requirement kind has
one reader of a word, filled from the word's tail: acceptance by a DFA
or an NFA from every state as one bit mask (``_Flags``), and the least
accepting weight in a weighted Mealy machine from every state as one
tuple (``_Weights``).  The steps are also reused on raw sampled values by
the commutation checks in :mod:`qtrace.lawcheck`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Iterator, Mapping

from .domains import INF, PROB, PROB_REWARD, TROPICAL, ZERO, _value_over
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


def _mass_levels(c, depth: int) -> tuple[int, Iterator[dict[str, dict]]]:
    """Levels 0..depth of a chain's trace masses as integer numerators.

    With D the lcm of the chain's transition denominators, every mass at
    level k is a numerator over D**k: a step multiplies by the integer row
    weights and halting mass enters as its weight times D**(k-1).  Keys
    are traces, or (trace, accumulated reward) for a reward model; a
    never-terminating chain starts from the empty word.  Returns D and
    the levels, one at a time, keyed and ordered as the ``Fraction`` folds
    of :func:`mc_trace_step` and :func:`mrm_trace_step` order them.  The
    next level is made from the dicts of the last one as the caller left
    them, so a trace the caller deletes is not extended.
    """
    den = lcm(*(p.denominator for row in c.trans.values() for p in row.values()))
    reward = c.reward if isinstance(c, MarkovRewardModel) else None
    rows = []
    for x in c.states:
        weights = {s: p.numerator * (den // p.denominator) for s, p in c.trans[x].items()}
        halt = weights.pop(TARGET, 0)
        rows.append((x, (c.label[x],), None if reward is None else reward[x], halt, list(weights.items())))
    start = {(): 1} if isinstance(c, NonTerminatingMc) else {}
    return den, _unfold_masses(rows, start, den, depth)


def _unfold_masses(rows: list, start: dict, den: int, depth: int) -> Iterator[dict[str, dict]]:
    """The levels of :func:`_mass_levels`, each made from the one before."""
    level = {x: dict(start) for x, *_ in rows}
    scale = 1  # D**(k-1) at level k
    yield level
    for _ in range(depth):
        prev, level = level, {}
        for x, head, r, halt, succ in rows:
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
        yield level
        scale *= den


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


def wts_semantics_levels(c: WeightedTs, depth: int) -> list[dict[str, TraceWeightSet]]:
    def step(prev, x):
        return wts_trace_step(
            (None if succ == TARGET else prev[succ], a, m) for succ, a, m in c.trans[x]
        )

    return _unfold(c.states, set, step, depth)


def wts_semantics(c: WeightedTs, state: str, depth: int) -> TraceWeightSet:
    """(trace, accumulated cost) pairs of terminating runs within ``depth``."""
    return wts_semantics_levels(c, depth)[depth][state]


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


# ---------------------------------------------------------------------------
# queries on materialized semantics

def query_prob(dist: TraceDist, lang) -> Fraction:
    """Probability mass of the traces that belong to ``lang``."""
    return sum((p for w, p in dist.items() if w in lang), ZERO)


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


# ---------------------------------------------------------------------------
# the direct query of each pairing: the lookup value(x, y, k), k <= depth,
# over semantics unfolded once and shared by all lookups

class Lookup:
    """A pairing's direct query at every (x, y, k) with k <= depth.

    ``table[x, y, k]`` is the numerator of the value over ``den**k``: an
    integer, or for ``mrm-dfa`` a (probability, reward) pair of them.  The
    weighted pairings have ``den`` 1 and hold the least costs themselves.
    Calling the lookup gives the value: ``lookup(x, y, k)``.
    """

    __slots__ = ("domain", "den", "table")

    def __init__(self, domain: str, den: int, table: Mapping):
        self.domain = domain
        self.den = den
        self.table = table

    def __call__(self, x: str, y: str, k: int):
        return _value_over(self.domain, self.table[x, y, k], self.den**k)


class _Flags(dict):
    """Acceptance of each word from every state of a DFA or an NFA, as a
    bit mask over its states, memoised per word: ``flags[w]``.

    Each move of a state y on a symbol a carries the bit mask of its
    successors and whether some edge of it accepts; a DFA's move has one
    successor.  The unfolding prepends symbols, so a word's flags follow
    from its tail's: a.w is accepted from y when w is empty and the move
    accepts, or when w is not empty and the successor mask meets the flags
    of w.  With ``minimal`` (accepted, and no proper prefix accepted; used
    on DFAs) a non-empty w also needs the move not to accept.  Walking
    the levels in order of depth finds every tail already memoised, so a
    new word costs one step per requirement state.
    """

    def __init__(self, d: Dfa | Nfa, minimal: bool = False):
        super().__init__()
        index = {y: i for i, y in enumerate(d.states)}
        nfa = isinstance(d, Nfa)
        self.moves = {}
        for a in d.alphabet:
            moves = []
            for i, y in enumerate(d.states):
                succ, accept = 0, False
                for t, f in nfa_row(d, y, a) if nfa else (d.delta[y][a],):
                    succ |= 1 << index[t]
                    accept = accept or f
                moves.append((1 << i, succ, accept))
            self.moves[a] = moves
        self.minimal = minimal
        self.n = len(d.states)

    def __missing__(self, w: Trace) -> int:
        mask = 0
        if len(w) == 1:
            for bit, _, accept in self.moves.get(w[0], ()):
                if accept:
                    mask |= bit
        else:
            tail = self[w[1:]]
            if tail:
                for bit, succ, accept in self.moves.get(w[0], ()):
                    if succ & tail and not (self.minimal and accept):
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

    def accepted(self, dist: dict[Trace, int]) -> list[int]:
        """Per requirement state, the total mass of the words it accepts.

        Deletes from ``dist`` the words that no state accepts: no word that
        ends with one of them is accepted either, so the unfold of
        :func:`_mass_levels` need not extend them."""
        masses: dict[int, int] = {}
        dead = []
        for w, q in dist.items():
            mask = self[w]
            if mask:
                masses[mask] = masses.get(mask, 0) + q
            else:
                dead.append(w)
        for w in dead:
            del dist[w]
        return self.totals(masses)

    def rewarded(self, dist: dict[tuple[Trace, int], int]) -> list[tuple[int, int]]:
        """:meth:`accepted` on the (word, reward) keys of a reward model:
        per requirement state, the accepted mass and the sum of reward times
        mass, as a pair."""
        masses: dict[int, int] = {}
        rewards: dict[int, int] = {}
        dead = []
        for key, q in dist.items():
            mask = self[key[0]]
            if mask:
                masses[mask] = masses.get(mask, 0) + q
                rewards[mask] = rewards.get(mask, 0) + key[1] * q
            else:
                dead.append(key)
        for key in dead:
            del dist[key]
        return list(zip(self.totals(masses), self.totals(rewards)))

    def least(self, pairs: Iterable[tuple[Trace, int]]) -> list:
        """Per requirement state, the least cost of the words it accepts
        (infinity when it accepts none)."""
        cheapest: dict[int, int] = {}
        for w, m in pairs:
            mask = self[w]
            if mask and m < cheapest.get(mask, INF):
                cheapest[mask] = m
        least = [INF] * self.n
        for mask, m in cheapest.items():
            for i in range(self.n):
                if mask >> i & 1 and m < least[i]:
                    least[i] = m
        return least


class _Weights(dict):
    """The least weight of an accepting run of each word from every state
    of a weighted Mealy machine, as a tuple over its states (infinity where
    no run accepts), memoised per word: ``weights[w]``.

    As in :class:`_Flags`, a word's weights follow from its tail's: a run
    of a.w from y takes an edge (t, flag, m) on a, and weighs m when w is
    empty and the edge accepts, or m plus the weight of w from t when w is
    not empty: a forward min-cost sweep over the word, run backwards.
    """

    def __init__(self, d: WeightedMealy):
        super().__init__()
        index = {y: i for i, y in enumerate(d.states)}
        self.moves = {
            a: [[(index[t], f, m) for t, f, m in wmm_row(d, y, a)] for y in d.states] for a in d.alphabet
        }
        self.nowhere = [()] * len(d.states)  # the moves on a symbol outside the alphabet

    def __missing__(self, w: Trace) -> tuple:
        rows = self.moves.get(w[0], self.nowhere)
        if len(w) == 1:
            weights = tuple(min((m for _, f, m in row if f), default=INF) for row in rows)
        else:
            tail = self[w[1:]]
            weights = tuple(min((m + tail[t] for t, _, m in row), default=INF) for row in rows)
        self[w] = weights
        return weights

    def least(self, pairs: Iterable[tuple[Trace, int]]) -> list:
        """Per Mealy state, the least cost of a word plus its weight there
        (infinity when no run of any word accepts)."""
        least = [INF] * len(self.nowhere)
        for w, m in pairs:
            for i, n in enumerate(self[w]):
                if m + n < least[i]:
                    least[i] = m + n
        return least


def _lookup(domain: str, den: int, levels: Iterable[dict], states, read: Callable) -> Lookup:
    """The one loop that fills a :class:`Lookup`: ``read(x, value)`` gives
    the query on the level-k value of system state x at every requirement
    state, in the order of ``states``.  It is called once per (x, k), in
    order of depth."""
    table = {}
    for k, level in enumerate(levels):
        for x, value in level.items():
            for y, v in zip(states, read(x, value)):
                table[x, y, k] = v
    return Lookup(domain, den, table)


def direct_mc_dfa(c: LabeledMc, d: Dfa, depth: int) -> Lookup:
    """Acceptance probability of the depth-k traces (also ``mc-costdfa``)."""
    den, levels = _mass_levels(c, depth)
    flags = _Flags(d)
    return _lookup(PROB, den, levels, d.states, lambda x, dist: flags.accepted(dist))


def direct_mrm_dfa(c: MarkovRewardModel, d: Dfa, depth: int) -> Lookup:
    """(acceptance probability, partial expected reward) of the depth-k traces."""
    den, levels = _mass_levels(c, depth)
    flags = _Flags(d)
    return _lookup(PROB_REWARD, den, levels, d.states, lambda x, dist: flags.rewarded(dist))


def direct_ntmc_dfa(c: NonTerminatingMc, d: Dfa, depth: int) -> Lookup:
    """Mass of the prefix-minimal accepted words of length 1..k."""
    den, levels = _mass_levels(c, depth)
    flags = _Flags(d, minimal=True)
    sums: dict[str, list[int]] = {}

    def read(x, dist):
        # the value at depth k is the value at k-1 times D plus the mass of
        # the prefix-minimal accepted words of length exactly k; level 0,
        # read first, holds only the empty word, which no monitor accepts
        prev = sums.get(x)
        if prev is None:
            sums[x] = [0] * len(d.states)
        else:
            sums[x] = [s * den + t for s, t in zip(prev, flags.accepted(dist))]
        return sums[x]

    return _lookup(PROB, den, levels, d.states, read)


def direct_wts_nfa(c: WeightedTs, d: Nfa, depth: int) -> Lookup:
    """Least cost of an accepted depth-k trace."""
    flags = _Flags(d)
    levels = wts_semantics_levels(c, depth)
    return _lookup(TROPICAL, 1, levels, d.states, lambda x, pairs: flags.least(pairs))


def direct_wts_wmm(c: WeightedTs, d: WeightedMealy, depth: int) -> Lookup:
    """Least system plus requirement weight of a depth-k trace."""
    weights = _Weights(d)
    levels = wts_semantics_levels(c, depth)
    return _lookup(TROPICAL, 1, levels, d.states, lambda x, pairs: weights.least(pairs))


def cond_prob(c: LabeledMc, d: Dfa, condition: Dfa, depth: int) -> Fraction | None:
    """Probability that ``d`` accepts a depth-bounded trace of the chain,
    given that ``condition`` accepts it, all from their initial states;
    None when the condition has mass 0."""
    _, levels = _mass_levels(c, depth)
    flags, given = _Flags(d), _Flags(condition)
    for level in levels:
        for dist in level.values():
            for w in dist:  # in order of depth, so every tail is memoised first
                flags[w], given[w]
    y, z = 1 << d.states.index(d.initial), 1 << condition.states.index(condition.initial)
    both = total = 0
    for w, q in level[c.initial].items():
        if given[w] & z:
            total += q
            if flags[w] & y:
                both += q
    return Fraction(both, total) if total else None
