"""Inclusion/equality of ordering sets between search kinds, and the
per-graph theorem checks that compare structural prediction with the
inclusion walk's verdicts: True, False, or None when the walk stopped at
its cap and the inclusion is unknown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .graphs import Graph, bits, require_connected
from .searches import (DEFAULT_CAP, InconsistentStateError, SearchKind,
                       SearchState, candidate_mask, complete_prefix)
# Not called here, but importable as ``equivalence.enumerate_orderings``:
# bench/spans.py rebinds that name to span the layer in traced runs.
from .searches import enumerate_orderings  # noqa: F401
from .validators import PointViolation, is_search_ordering
from .patterns import ClassLabel, recognize_structure


class SizeGuardError(ValueError):
    pass


def _guard(g: Graph, allow_large: bool) -> None:
    require_connected(g)
    if g.n > 8 and not allow_large:
        raise SizeGuardError(
            f"n={g.n} exceeds the size guard (8); pass allow_large=True "
            "to override")


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


def _first_outside(g: Graph, kind_x: SearchKind, kind_y: SearchKind,
                   cap: int) -> tuple[Optional[tuple[int, ...]], bool]:
    """The lexicographically first kind_x ordering of g that is not a kind_y
    ordering (None if there is none), and whether the walk stopped at the cap.

    kind_x orderings lie within kind_y orderings iff, at every prefix both
    can reach, kind_x's candidates are a subset of kind_y's.  The walk
    visits those prefixes depth-first, trying kind_x's candidates in
    ascending order.  The first candidate v that kind_y does not allow
    makes every kind_x ordering through prefix + v a counterexample, and
    completing it with min-index kind_x choices gives the first of them.
    ``cap`` bounds the complete orderings reached without a counterexample;
    the walk stops there, and then its verdict is not established.

    Both paradigms' subtrees depend only on ``SearchState.key()``, so a
    state whose key roots a subtree already walked without a counterexample
    is not walked again: ``clean`` holds the number of complete orderings
    in that subtree, and the walk stops at the cap inside it exactly when
    those orderings would carry it past the cap.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    n = g.n
    complete = 0
    truncated = False
    clean: dict[tuple[int, ...], int] = {}

    def walk(state: SearchState) -> Optional[tuple[int, ...]]:
        nonlocal complete, truncated
        if len(state.visited) == n:
            complete += 1
            return None
        key = state.key()
        if key in clean:
            if complete + clean[key] > cap:
                truncated = True
            else:
                complete += clean[key]
            return None
        before = complete
        allowed = candidate_mask(g, kind_y, state)
        for v in bits(candidate_mask(g, kind_x, state)):
            if complete >= cap:
                truncated = True
                return None
            nxt = state.extend(v)
            if not allowed >> v & 1:
                return complete_prefix(g, kind_x, nxt)
            found = walk(nxt)
            if found is not None or truncated:
                return found
        clean[key] = complete - before
        return None

    witness = walk(SearchState(g))
    return witness, truncated


def _one_direction(g: Graph, kind_x: SearchKind, kind_y: SearchKind,
                   relation: str, cap: int) -> EquivalenceReport:
    """Is every kind_x ordering a kind_y ordering?  A counterexample is the
    lexicographically first one, with the validator's violating triple or
    vertex for it; the verdict is None if the walk stopped at the cap."""
    ordering, truncated = _first_outside(g, kind_x, kind_y, cap)
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


def _both_directions(g: Graph, kind_x: SearchKind, kind_y: SearchKind,
                     cap: int) -> EquivalenceReport:
    """Inclusion both ways; the first refuted direction is the report."""
    forward = _one_direction(g, kind_x, kind_y, "equal", cap)
    if forward.verdict is False:
        return forward
    backward = _one_direction(g, kind_y, kind_x, "equal", cap)
    if backward.verdict is False:
        return backward
    return EquivalenceReport(kind_x, kind_y, "equal",
                             forward.verdict and backward.verdict)


def orderings_subset(g: Graph, kind_x: SearchKind, kind_y: SearchKind,
                     cap: int = DEFAULT_CAP,
                     allow_large: bool = False) -> EquivalenceReport:
    """Is every kind_x ordering of g a kind_y ordering?"""
    _guard(g, allow_large)
    return _one_direction(g, kind_x, kind_y, "subset", cap)


def orderings_equal(g: Graph, kind_x: SearchKind, kind_y: SearchKind,
                    cap: int = DEFAULT_CAP,
                    allow_large: bool = False) -> EquivalenceReport:
    """Do kind_x and kind_y produce identical ordering sets on g?"""
    _guard(g, allow_large)
    return _both_directions(g, kind_x, kind_y, cap)


# -- theorem checks ----------------------------------------------------

THEOREM_A = "A"
THEOREM_B = "B"
THEOREM_C = "C"
COROLLARY_A5A6 = "corollary"

# item label -> (kind_x, kind_y, relation)
_THEOREM_ITEMS = {
    THEOREM_A: [
        ("A2: generic subset-of dfs", SearchKind.GENERIC, SearchKind.DFS, "subset"),
        ("A3: generic subset-of bfs", SearchKind.GENERIC, SearchKind.BFS, "subset"),
        ("A4: bfs equals dfs", SearchKind.BFS, SearchKind.DFS, "equal"),
    ],
    THEOREM_B: [
        ("B2: dfs subset-of lexdfs", SearchKind.DFS, SearchKind.LEXDFS, "subset"),
        ("B3: bfs subset-of lexbfs", SearchKind.BFS, SearchKind.LEXBFS, "subset"),
        ("B4: generic subset-of mns", SearchKind.GENERIC, SearchKind.MNS, "subset"),
    ],
    THEOREM_C: [
        ("C2: mns subset-of lexdfs", SearchKind.MNS, SearchKind.LEXDFS, "subset"),
        ("C3: mns subset-of lexbfs", SearchKind.MNS, SearchKind.LEXBFS, "subset"),
    ],
    COROLLARY_A5A6: [
        ("A5: generic subset-of lexdfs", SearchKind.GENERIC, SearchKind.LEXDFS, "subset"),
        ("A6: generic subset-of lexbfs", SearchKind.GENERIC, SearchKind.LEXBFS, "subset"),
    ],
}

_THEOREM_PREDICTION_FLAG = {
    THEOREM_A: "class_a",
    THEOREM_B: "class_b",
    THEOREM_C: "class_c",
    COROLLARY_A5A6: "class_a",
}

THEOREMS = tuple(_THEOREM_ITEMS)


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


@lru_cache(maxsize=1)
def _structure(g: Graph) -> ClassLabel:
    """recognize_structure, remembered for the last graph: a scan checks
    every theorem on one graph before it moves to the next."""
    return recognize_structure(g)


def check_theorem(g: Graph, theorem: str, cap: int = DEFAULT_CAP,
                  allow_large: bool = False) -> TheoremReport:
    """Compare a theorem's structural class prediction against the
    inclusion walk's verdict on every numbered item."""
    if theorem not in _THEOREM_ITEMS:
        raise ValueError(f"unknown theorem {theorem!r}; one of {THEOREMS}")
    _guard(g, allow_large)
    label = _structure(g)
    prediction = bool(getattr(label, _THEOREM_PREDICTION_FLAG[theorem]))
    items = []
    reports = []
    for name, kx, ky, relation in _THEOREM_ITEMS[theorem]:
        if relation == "subset":
            report = _one_direction(g, kx, ky, relation, cap)
        else:
            report = _both_directions(g, kx, ky, cap)
        items.append((name, report.verdict))
        reports.append(report)
    return TheoremReport(theorem, prediction, tuple(items), tuple(reports))


def find_mns_not_mcs(g: Graph,
                     allow_large: bool = False) -> Optional[tuple[int, ...]]:
    """Lexicographically first ordering that is MNS-valid but MCS-invalid,
    or None if there is none: a walk capped at n! never stops short."""
    _guard(g, allow_large)
    return _one_direction(g, SearchKind.MNS, SearchKind.MCS, "subset",
                          math.factorial(g.n)).witness_ordering
