"""Size-change termination analysis for a first-order functional language.

The public names are loaded on first use (PEP 562): ``import sct`` imports
no submodule, and ``sct.closure`` imports ``sct.graphs`` the first time it
is read.
"""

from __future__ import annotations

from importlib import import_module

# submodule -> the public names it defines
_EXPORTS = {
    "colorings": (
        "EPColoring", "PairColoring", "StarWitness", "pair_coloring_from_lasso", "spp_witness",
        "star_search",
    ),
    "extract": ("Description", "Mode", "extract_description"),
    "graphs": (
        "Arc", "ArcKind", "Closure", "CompositionError", "DerivedGraph", "DescentWitness",
        "FunSig", "GraphSet", "LassoMultipath", "SizeChangeGraph", "Verdict",
        "check_sct_criterion", "closure", "compose", "decide_periodic_descent",
        "idempotent_power",
    ),
    "interp": (
        "Fuel", "OutOfFuel", "SafetyReport", "State", "Transition", "eval_program",
        "sample_safety", "trace_transitions",
    ),
    "oracle": ("OracleReport", "bounded_lasso_oracle"),
    "parser": ("Diagnostic", "ParseError", "SourceError", "ValidationError", "parse_program"),
    "reduction": (
        "ReversalRun", "build_reversal_multipath", "family_signature", "index_sets",
        "spp_reduction_family", "warmup_family",
    ),
    "synth": ("SynthesisError", "graph_multiset", "synthesize"),
    "syntax": ("Program", "format_program"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    # a name that is not public raises AttributeError, so `from sct import
    # jsonio` goes on to import the submodule
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
