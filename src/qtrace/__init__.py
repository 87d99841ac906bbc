"""Exact quantitative temporal inference on probabilistic and weighted machines.

The package answers questions of the form "with what probability / at what
least cost / with what expected reward do the traces of this system satisfy
that requirement" by building a synchronized product of the two machines
and solving it, and it ships a depth-bounded direct-semantics oracle that
every construction is checked against.
"""

from .domains import (
    INF,
    PROB,
    PROB_REWARD,
    Rational,
    TROPICAL,
    bottom_vector,
    rational,
    rational_str,
)
from .models import (
    ABSORB,
    ACCEPT,
    AbsorbingProductMc,
    Dfa,
    HALT_SYMBOL,
    LabeledMc,
    MarkovRewardModel,
    ModelError,
    Nfa,
    NonTerminatingMc,
    ProductMc,
    ProductRewardMc,
    ProductWts,
    REJECT,
    RewardMachine,
    TARGET,
    WeightedMealy,
    WeightedTs,
    dfa_intersect,
    joined,
    make_cost_bound_dfa,
    product_rm_costdfa,
    translate_to_nonterminating,
    validate,
)
from .modeljson import SchemaError, emit_model, parse_model

__version__ = "0.1.0"

#: Names imported from a module of their own when first asked for, so that
#: ``import qtrace`` loads neither the product builders nor the solvers.
_DEFERRED = {
    "product_mc_dfa": "products",
    "product_mrm_dfa": "products",
    "product_ntmc_dfa": "products",
    "product_wts_nfa": "products",
    "product_wts_wmm": "products",
    "SolveReport": "solvers",
    "solve_partial_expected_reward": "solvers",
    "solve_product": "solvers",
    "solve_reach_prob": "solvers",
    "solve_tropical": "solvers",
}


def __getattr__(name: str):
    """A deferred name, from its module (PEP 562)."""
    if name in _DEFERRED:
        from importlib import import_module

        return getattr(import_module(f".{_DEFERRED[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
