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
    Dfa,
    HALT_SYMBOL,
    LabeledMc,
    MarkovRewardModel,
    ModelError,
    Nfa,
    NonTerminatingMc,
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
from .products import (
    AbsorbingProductMc,
    ProductMc,
    ProductRewardMc,
    ProductWts,
    product_mc_dfa,
    product_mrm_dfa,
    product_ntmc_dfa,
    product_wts_nfa,
    product_wts_wmm,
)

__version__ = "0.1.0"

_SOLVER_NAMES = (
    "SolveReport",
    "solve_partial_expected_reward",
    "solve_product",
    "solve_reach_prob",
    "solve_tropical",
)


def __getattr__(name: str):
    """The solver names, imported from :mod:`qtrace.solvers` when first
    asked for: ``import qtrace`` does not load the solvers (PEP 562)."""
    if name in _SOLVER_NAMES:
        from . import solvers

        return getattr(solvers, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
