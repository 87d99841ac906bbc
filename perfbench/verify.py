"""Answer checks that do not reuse the solver, and the sizes that drive cost.

* Probabilistic products: every value satisfies the one-step update
  equation exactly (``Fraction`` arithmetic written here, not the
  package's transformer), and a value is 0 exactly on the states that
  cannot reach the accepting sink, which makes it the least solution.
* Weighted products: every value equals the least cost to the accepting
  sink found by this module's own Dijkstra.
* Checks on ``lawcheck-deep``: the verdict is the expected one (every
  unmutated check passes, every mutation fails).
"""

from __future__ import annotations

import hashlib
import json
from heapq import heappop, heappush

from qtrace.models import ABSORB, ACCEPT
from qtrace.products import AbsorbingProductMc, ProductRewardMc, ProductWts

INF = float("inf")


def _reaching(trans: dict, goal: str) -> set[str]:
    """Product states with a path of positive-probability edges to ``goal``."""
    incoming: dict[str, list[str]] = {}
    for s, row in trans.items():
        for t in row:
            incoming.setdefault(t, []).append(s)
    seen: set[str] = set()
    stack = list(incoming.get(goal, ()))
    while stack:
        s = stack.pop()
        if s not in seen:
            seen.add(s)
            stack.extend(incoming.get(s, ()))
    return seen


def largest_scc(trans: dict, nodes: set[str]) -> int:
    """Size of the largest strongly connected component among ``nodes``
    (iterative Tarjan)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    best = 0
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter([t for t in trans[root] if t in nodes]))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            v, succ = work[-1]
            for w in succ:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter([t for t in trans[w] if t in nodes])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    size = 0
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        size += 1
                        if w == v:
                            break
                    best = max(best, size)
    return best


def _bits(value) -> int:
    if isinstance(value, tuple):
        return max(_bits(v) for v in value)
    if value == INF:
        return 0
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _check_probabilistic(product, values: dict, live: set[str]) -> list[str]:
    goal = ABSORB if isinstance(product, AbsorbingProductMc) else ACCEPT
    reward = isinstance(product, ProductRewardMc)
    prob = {s: v[0] for s, v in values.items()} if reward else values
    out = []
    for s, row in product.trans.items():
        succ = [(t, p) for t, p in row.items() if t in product.trans]
        expect = row.get(goal, 0) + sum(p * prob[t] for t, p in succ)
        if prob[s] != expect:
            out.append(f"{s}: {prob[s]} does not satisfy the update equation ({expect})")
        if (prob[s] == 0) != (s not in live):
            out.append(f"{s}: {prob[s]} is not the least solution")
        if reward:
            n = product.stepreward[s]
            r = n * row.get(goal, 0) + sum(p * (prob[t] * n + values[t][1]) for t, p in succ)
            if values[s][1] != r:
                out.append(f"{s}: reward {values[s][1]} does not satisfy the update equation ({r})")
            if s not in live and values[s][1] != 0:
                out.append(f"{s}: reward {values[s][1]} is not the least solution")
    return out


def _dijkstra(product: ProductWts) -> dict[str, float]:
    incoming: dict[str, list[tuple[str, int]]] = {}
    for s, entries in product.trans.items():
        for t, w in entries:
            incoming.setdefault(t, []).append((s, w))
    dist: dict[str, float] = {ACCEPT: 0}
    heap = [(0, ACCEPT)]
    while heap:
        d, t = heappop(heap)
        if d > dist[t]:
            continue
        for s, w in incoming.get(t, ()):
            if d + w < dist.get(s, INF):
                dist[s] = d + w
                heappush(heap, (d + w, s))
    return dist


def answer_digest(answer) -> str:
    """Digest of the part of an answer that must stay bit-identical:
    the value vector, or a check's name, verdict and counterexample."""
    doc = json.loads(answer.text)
    if "values" in doc:
        key = doc["values"]
    else:
        key = [doc["name"], doc["passed"], doc.get("counterexample")]
    return hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:8]


def inspect(answer) -> tuple[list[str], dict[str, int]]:
    """Problems found in one answer, and the sizes that drove its cost."""
    counts = {"render_bytes": len(answer.text.encode()), "checks": 0, "mutants": 0, "killed": 0}
    if answer.product is None:  # a lawcheck verdict
        res = answer.report
        counts["checks"] = 1
        if not answer.expect_pass:
            counts["mutants"] = 1
            counts["killed"] = int(not res.passed)
        problems = [] if res.passed == answer.expect_pass else [
            f"{res.name}: passed={res.passed}, expected {answer.expect_pass}"
        ]
        return problems, counts

    product, report = answer.product, answer.report
    values = report.values
    counts.update(
        states=len(product.trans),
        edges=sum(len(row) for row in product.trans.values()),
        space=answer.space,
        max_bits=max(_bits(v) for v in values.values()),
        rounds=report.iterations if report.method in ("bellman", "kleene") else 0,
    )
    if answer.compiled is not None:
        counts["valuations"] = answer.compiled.state_count
        counts["reachable"] = answer.compiled.reachable_count
    if set(values) != set(product.trans):
        return ["value vector does not cover exactly the product states"], counts
    if isinstance(product, ProductWts):
        dist = _dijkstra(product)
        problems = [
            f"{s}: {values[s]} is not the least cost ({dist.get(s, INF)})"
            for s in product.trans
            if values[s] != dist.get(s, INF)
        ]
    else:
        live = _reaching(product.trans, ABSORB if isinstance(product, AbsorbingProductMc) else ACCEPT)
        counts["unknowns"] = len(live)
        counts["largest_scc"] = largest_scc(product.trans, live)
        problems = _check_probabilistic(product, values, live)
    return problems[:3], counts
