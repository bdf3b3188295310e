"""Inclusion/equality of ordering sets between search kinds, and the
per-graph theorem checks that compare structural prediction with the
inclusion walk's verdicts: True, False, or None when the walk stopped at
its cap and the inclusion is unknown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .graphs import Graph, require_connected
from .searches import DEFAULT_WALK_CAP, SearchKind, first_outside
# Not called here, but importable as ``equivalence.enumerate_orderings``:
# bench/spans.py rebinds that name to span the layer in traced runs.
from .searches import enumerate_orderings  # noqa: F401
from .validators import PointViolation, is_search_ordering
from .patterns import recognize_structure


class InconsistentStateError(RuntimeError):
    """A candidate rule and its paradigm's validator disagree on an
    ordering."""


@dataclass(frozen=True)
class EquivalenceReport:
    kind_x: SearchKind
    kind_y: SearchKind
    relation: str  # "subset" | "equal"
    verdict: Optional[bool]  # None: the walk stopped at the cap
    witness_ordering: Optional[tuple[int, ...]] = None
    witness_violation: Optional[PointViolation] = None
    witness_vertex: Optional[int] = None  # generic/MCS failures

    @property
    def truncated(self) -> bool:
        return self.verdict is None

    def to_dict(self) -> dict:
        return {
            "kind_x": self.kind_x.value,
            "kind_y": self.kind_y.value,
            "relation": self.relation,
            "verdict": self.verdict,
            "witness_ordering": (list(self.witness_ordering)
                                 if self.witness_ordering else None),
            "witness_violation": (self.witness_violation.to_dict()
                                  if self.witness_violation else None),
            "witness_vertex": self.witness_vertex,
            "truncated": self.truncated,
        }


def _one_direction(g: Graph, kind_x: SearchKind, kind_y: SearchKind,
                   relation: str, cap: float) -> EquivalenceReport:
    """Is every kind_x ordering a kind_y ordering?  A counterexample is the
    lexicographically first one, with the validator's violating triple or
    vertex for it; the verdict is None if the walk stopped at the cap."""
    ordering, truncated = first_outside(g, kind_x, kind_y, cap)
    if ordering is None:
        return EquivalenceReport(kind_x, kind_y, relation,
                                 None if truncated else True)
    ok, witness = is_search_ordering(g, ordering, kind_y)
    if ok:
        raise InconsistentStateError(
            f"{kind_y.value} candidate rule rejects {ordering}, "
            "but its validator accepts it")
    violation = witness if isinstance(witness, PointViolation) else None
    vertex = witness if isinstance(witness, int) else None
    return EquivalenceReport(kind_x, kind_y, relation, False,
                             witness_ordering=ordering,
                             witness_violation=violation,
                             witness_vertex=vertex)


def _decide(g: Graph, kind_x: SearchKind, kind_y: SearchKind,
            relation: str, cap: int) -> EquivalenceReport:
    """kind_x ⊆ kind_y for "subset"; for "equal", inclusion both ways,
    and the first refuted direction is the report."""
    forward = _one_direction(g, kind_x, kind_y, relation, cap)
    if relation == "subset" or forward.verdict is False:
        return forward
    backward = _one_direction(g, kind_y, kind_x, relation, cap)
    if backward.verdict is False:
        return backward
    return EquivalenceReport(kind_x, kind_y, relation,
                             forward.verdict and backward.verdict)


def orderings_subset(g: Graph, kind_x: SearchKind, kind_y: SearchKind,
                     cap: int = DEFAULT_WALK_CAP) -> EquivalenceReport:
    """Is every kind_x ordering of g a kind_y ordering?"""
    require_connected(g)
    return _decide(g, kind_x, kind_y, "subset", cap)


def orderings_equal(g: Graph, kind_x: SearchKind, kind_y: SearchKind,
                    cap: int = DEFAULT_WALK_CAP) -> EquivalenceReport:
    """Do kind_x and kind_y produce identical ordering sets on g?"""
    require_connected(g)
    return _decide(g, kind_x, kind_y, "equal", cap)


# -- theorem checks ----------------------------------------------------

THEOREM_A = "A"
THEOREM_B = "B"
THEOREM_C = "C"
COROLLARY_A5A6 = "corollary"

# theorem -> (ClassLabel flag that predicts it, its items as
# (label, kind_x, kind_y, relation)); an item's name, such as
# "A4: bfs equals dfs", is spelled from its row
_THEOREMS = {
    THEOREM_A: ("class_a", (
        ("A2", SearchKind.GENERIC, SearchKind.DFS, "subset"),
        ("A3", SearchKind.GENERIC, SearchKind.BFS, "subset"),
        ("A4", SearchKind.BFS, SearchKind.DFS, "equal"),
    )),
    THEOREM_B: ("class_b", (
        ("B2", SearchKind.DFS, SearchKind.LEXDFS, "subset"),
        ("B3", SearchKind.BFS, SearchKind.LEXBFS, "subset"),
        ("B4", SearchKind.GENERIC, SearchKind.MNS, "subset"),
    )),
    THEOREM_C: ("class_c", (
        ("C2", SearchKind.MNS, SearchKind.LEXDFS, "subset"),
        ("C3", SearchKind.MNS, SearchKind.LEXBFS, "subset"),
    )),
    COROLLARY_A5A6: ("class_a", (
        ("A5", SearchKind.GENERIC, SearchKind.LEXDFS, "subset"),
        ("A6", SearchKind.GENERIC, SearchKind.LEXBFS, "subset"),
    )),
}

THEOREMS = tuple(_THEOREMS)


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    structural_prediction: bool
    items: tuple[tuple[str, Optional[bool]], ...]
    reports: tuple[EquivalenceReport, ...] = field(repr=False, default=())

    @property
    def truncated(self) -> bool:
        """Some item's walk stopped at the cap, so its verdict is unknown."""
        return any(value is None for _, value in self.items)

    @property
    def consistent(self) -> bool:
        return all(value == self.structural_prediction
                   for _, value in self.items)

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "structural_prediction": self.structural_prediction,
            "items": [{"item": name, "holds": value} for name, value in self.items],
            "consistent": self.consistent,
            "truncated": self.truncated,
        }


def check_theorem(g: Graph, theorem: str,
                  cap: int = DEFAULT_WALK_CAP) -> TheoremReport:
    """Compare a theorem's structural class prediction against the
    inclusion walk's verdict on every numbered item."""
    if theorem not in _THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}; one of {THEOREMS}")
    require_connected(g)
    flag, rows = _THEOREMS[theorem]
    prediction = bool(getattr(recognize_structure(g), flag))
    items = []
    reports = []
    for label, kx, ky, relation in rows:
        report = _decide(g, kx, ky, relation, cap)
        verb = "subset-of" if relation == "subset" else "equals"
        items.append((f"{label}: {kx.value} {verb} {ky.value}", report.verdict))
        reports.append(report)
    return TheoremReport(theorem, prediction, tuple(items), tuple(reports))


def find_mns_not_mcs(g: Graph) -> Optional[tuple[int, ...]]:
    """Lexicographically first ordering that is MNS-valid but MCS-invalid,
    or None if there is none: the walk is unbounded, so it is exact."""
    require_connected(g)
    return _one_direction(g, SearchKind.MNS, SearchKind.MCS, "subset",
                          math.inf).witness_ordering
