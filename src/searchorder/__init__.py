"""Graph search orderings: executors, point-condition validators,
forbidden-subgraph recognizers, and equivalence checks between the seven
classic search paradigms on small graphs.
"""

from .graphs import (
    Graph,
    Graph6ParseError,
    EdgeListParseError,
    UnsupportedSizeError,
    DisconnectedGraphError,
    parse_graph6,
    emit_graph6,
    parse_edge_list,
    is_connected,
    induced_subgraph,
)
from .searches import (
    SearchKind,
    SearchState,
    TieBreak,
    candidates,
    run_search,
    enumerate_orderings,
    EnumerationResult,
)
from .validators import (
    PointViolation,
    is_generic_order,
    check_point_condition,
    is_search_ordering,
)
from .patterns import (
    PatternHit,
    ClassLabel,
    PawFreeVerdict,
    find_induced_small,
    find_induced_pan,
    recognize_structure,
    paw_free_decomposition,
    P4,
    C4,
    PAW,
    DIAMOND,
    PAN,
)
from .equivalence import (
    EquivalenceReport,
    TheoremReport,
    SizeGuardError,
    orderings_subset,
    orderings_equal,
    check_theorem,
    find_mns_not_mcs,
    THEOREM_A,
    THEOREM_B,
    THEOREM_C,
    COROLLARY_A5A6,
    THEOREMS,
)

__version__ = "0.1.0"
