"""The package's public names are the written list below, so adding or
removing an export is a deliberate edit of this file."""

import types

import searchorder

PUBLIC = {
    # graphs
    "Graph", "Graph6ParseError", "EdgeListParseError", "UnsupportedSizeError",
    "DisconnectedGraphError", "parse_graph6", "emit_graph6", "parse_edge_list",
    "is_connected", "induced_subgraph",
    # searches
    "SearchKind", "TieBreak", "run_search",
    "enumerate_orderings", "EnumerationResult",
    # validators
    "PointViolation", "is_generic_order", "check_point_condition",
    "is_search_ordering",
    # patterns
    "PatternHit", "ClassLabel", "PawFreeVerdict", "find_induced_small",
    "find_induced_pan", "recognize_structure", "paw_free_decomposition",
    "P4", "C4", "PAW", "DIAMOND", "PAN",
    # equivalence
    "EquivalenceReport", "TheoremReport", "orderings_subset",
    "orderings_equal", "check_theorem", "find_mns_not_mcs", "THEOREM_A",
    "THEOREM_B", "THEOREM_C", "COROLLARY_A5A6", "THEOREMS",
}


def test_public_names_are_the_written_list():
    """Submodules are left out: which of them are attributes depends on
    what else has been imported."""
    exported = {name for name, value in vars(searchorder).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC
