"""Spans around the public functions of the ``qtrace`` layers.

``Tracer.install`` wraps every public function of each layer module and
puts the wrapper in place of the function in every namespace that
imported it: all ``qtrace.*`` modules and the benchmark's own.  A span is
(name, start, end, parent span, query id).  Spans stay in flat in-memory
arrays and are written out once, at the end of the run.

Kernels are not wrapped: the one-row and one-step functions (``*_row``,
``*_step``, ``joined``) run once per state per iteration, and the
one-word predicates of the oracle (``*_accepts``, ``prefix_minimal_accept``,
``wmm_min_weight``, ``rm_weights``) once per trace.  A span each would cost
more than the work they do and skew every ratio; their time counts as self
time of the function that calls them.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

LAYERS = (
    "programs", "modeljson", "models", "products", "solvers",
    "domains", "oracle", "lawcheck", "cli", "bundled",
)

#: Functions of the oracle that build depth-bounded semantics; the other
#: oracle functions evaluate queries on them.
SEMANTICS = {
    "mc_semantics_levels", "mc_semantics", "mrm_semantics_levels", "mrm_semantics",
    "dfa_language_levels", "dfa_language", "nfa_language_levels", "nfa_language",
    "wts_semantics_levels", "wts_semantics", "wmm_semantics_levels", "wmm_semantics",
    "rm_semantics", "ntmc_marginal_levels", "ntmc_marginal",
}

#: Per-layer time metrics: inclusive time of the outermost span whose name
#: the predicate accepts.
TIMERS = {
    "programs.parse_s": lambda n: n == "programs.parse_program",
    "programs.compile_s": lambda n: n in ("programs.compile_probabilistic", "programs.compile_weighted"),
    "modeljson.parse_s": lambda n: n == "modeljson.parse_model",
    "models.validate_s": lambda n: n == "models.validate",
    "products.build_s": lambda n: n.startswith("products.product_"),
    "solvers.solve_s": lambda n: n.startswith("solvers."),
    "domains.kleene_s": lambda n: n in ("domains.kleene_lfp", "domains.kleene_iterate"),
    "oracle.semantics_s": lambda n: n.startswith("oracle.") and n[7:] in SEMANTICS,
    "oracle.query_s": lambda n: n.startswith("oracle.") and n[7:] not in SEMANTICS,
    "lawcheck.step_equality_s": lambda n: n == "lawcheck.check_step_equality",
    "lawcheck.diagram_s": lambda n: n == "lawcheck.check_diagram",
    "cli.render_s": lambda n: n == "cli.render",
}

#: Layers whose self time is reported; ``bench`` is the harness's own share.
SELF_LAYERS = ("programs", "modeljson", "models", "products", "solvers", "domains", "oracle", "lawcheck", "cli", "bench")


KERNELS = {"joined", "prefix_minimal_accept", "wmm_min_weight", "rm_weights"}


def _is_kernel(name: str) -> bool:
    return name.endswith(("_step", "_row", "_accepts")) or name in KERNELS


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.query = array("i")
        self.query_id = -1
        self.traces = 0  # entries in the semantics levels the oracle returned
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        count_levels = name.startswith("oracle.") and name.endswith("_levels")
        stack, names, starts, ends, parents, queries = (
            self._stack, self.name_id, self.start, self.end, self.parent, self.query,
        )

        def wrapper(*args, **kw):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            queries.append(self.query_id)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kw)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if count_levels:
                self.traces += sum(len(v) for level in result for v in level.values())
            return result

        return wrapper

    def install(self, own_modules=(), extra: dict | None = None) -> None:
        """Wrap the public functions of every layer, plus ``extra``
        (``{span name: (module, attribute)}``), in every namespace that
        holds them."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qtrace.{layer}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and not _is_kernel(attr)
                ):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for name, (module, attr) in (extra or {}).items():
            fn = getattr(module, attr)
            wrappers[fn] = self.wrap(name, fn)
        namespaces = [m for n, m in sys.modules.items() if n == "qtrace" or n.startswith("qtrace.")]
        for module in namespaces + list(own_modules):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def summary(self, queries: int) -> dict[str, float]:
        """Per-layer self time and the ``TIMERS``, in seconds per query."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        own = defaultdict(int)
        layer_of = [name.split(".")[0] for name in self.names]
        for i, nid in enumerate(self.name_id):
            own[layer_of[nid]] += dur[i] - child[i]
        out = {f"{layer}.self_s": own[layer] / queries / 1e9 for layer in SELF_LAYERS}
        for metric, accepts in TIMERS.items():
            hit = [accepts(name) for name in self.names]
            total = 0
            for i, nid in enumerate(self.name_id):
                if hit[nid]:
                    p = self.parent[i]
                    while p >= 0 and not hit[self.name_id[p]]:
                        p = self.parent[p]
                    if p < 0:
                        total += dur[i]
            out[metric] = total / queries / 1e9
        return out

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("name\tstart_ns\tend_ns\tparent\tquery\n")
            for i in range(len(self.start)):
                out.write(
                    f"{self.names[self.name_id[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                    f"{self.parent[i]}\t{self.query[i]}\n"
                )
