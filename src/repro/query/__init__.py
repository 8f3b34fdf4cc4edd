"""Query substrate: pattern graphs, the Fig. 7 query catalog, WCOJ plan
compilation (static and incremental ΔM_i plans of paper Fig. 2), and
automorphism handling."""

from repro.query.pattern import QueryGraph, WILDCARD_LABEL
from repro.query.catalog import QUERIES, QUERY_ORDER, query_by_name, motifs
from repro.query.plan import (
    EdgeVersion,
    LevelPlan,
    MatchPlan,
    compile_static_plan,
    compile_delta_plans,
)
from repro.query.symmetry import automorphisms, automorphism_count

__all__ = [
    "QueryGraph",
    "WILDCARD_LABEL",
    "QUERIES",
    "QUERY_ORDER",
    "query_by_name",
    "motifs",
    "EdgeVersion",
    "LevelPlan",
    "MatchPlan",
    "compile_static_plan",
    "compile_delta_plans",
    "automorphisms",
    "automorphism_count",
]
