"""Size-change termination analysis for a first-order functional language."""

from .colorings import EPColoring, PairColoring, StarWitness, pair_coloring_from_lasso, spp_witness, star_search
from .extract import Description, Mode, arc_for_argument, extract_description, extract_graph
from .graphs import (
    Arc,
    ArcKind,
    Closure,
    CompositionError,
    DerivedGraph,
    DescentWitness,
    FunSig,
    GraphSet,
    LassoMultipath,
    SizeChangeGraph,
    Verdict,
    check_sct_criterion,
    closure,
    compose,
    compose_all,
    decide_periodic_descent,
    idempotent_power,
    is_idempotent,
)
from .interp import (
    Fuel,
    OutOfFuel,
    SafetyReport,
    State,
    Transition,
    eval_program,
    sample_safety,
    trace_transitions,
)
from .oracle import OracleReport, bounded_lasso_oracle
from .parser import (
    CallSite,
    Diagnostic,
    GuardContext,
    ParseError,
    SourceError,
    ValidationError,
    enumerate_call_sites,
    implies_positive,
    parse_program,
)
from .reduction import (
    ChoiceState,
    IndexSet,
    ReversalRun,
    build_reversal_multipath,
    chi_step,
    family_signature,
    graph_for,
    index_sets,
    initial_chi,
    recurring_vs_active,
    spp_reduction_family,
    warmup_family,
)
from .synth import SynthesisError, graph_multiset, synthesize
from .syntax import Program, format_program

__all__ = [
    # colorings
    "EPColoring", "PairColoring", "StarWitness", "pair_coloring_from_lasso", "spp_witness",
    "star_search",
    # extract
    "Description", "Mode", "arc_for_argument", "extract_description", "extract_graph",
    # graphs
    "Arc", "ArcKind", "Closure", "CompositionError", "DerivedGraph", "DescentWitness", "FunSig",
    "GraphSet", "LassoMultipath", "SizeChangeGraph", "Verdict", "check_sct_criterion", "closure",
    "compose", "compose_all", "decide_periodic_descent", "idempotent_power", "is_idempotent",
    # interp
    "Fuel", "OutOfFuel", "SafetyReport", "State", "Transition", "eval_program", "sample_safety",
    "trace_transitions",
    # oracle
    "OracleReport", "bounded_lasso_oracle",
    # parser
    "CallSite", "Diagnostic", "GuardContext", "ParseError", "SourceError", "ValidationError",
    "enumerate_call_sites", "implies_positive", "parse_program",
    # reduction
    "ChoiceState", "IndexSet", "ReversalRun", "build_reversal_multipath", "chi_step",
    "family_signature", "graph_for", "index_sets", "initial_chi", "recurring_vs_active",
    "spp_reduction_family", "warmup_family",
    # synth
    "SynthesisError", "graph_multiset", "synthesize",
    # syntax
    "Program", "format_program",
]
