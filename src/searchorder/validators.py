"""Membership tests for vertex orderings in each search paradigm.

BFS, DFS, LexBFS, LexDFS and MNS are decided by their three-point
characterizations (plus the generic prefix condition); generic search by
the prefix condition alone; MCS, which has no point condition here, by
step-by-step simulation.  These validators are the oracles every
executor in this package is tested against, so they read the conditions
directly off adjacency bitmasks: the point conditions are a scan over
position pairs (a, b) whose candidates for c, and the c that violate the
clause, are found with mask operations instead of a loop over every c.

An ordering is a tuple of vertex indices.  Each public function checks
once, on entry, that the ordering it is given is a permutation of the
graph's vertices, and hands the checked tuple to private deciders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .graphs import Graph, bits, require_connected
from .searches import SearchKind


@dataclass(frozen=True)
class PointViolation:
    """A triple a <s b <s c with ac an edge, ab a non-edge, and no vertex d
    satisfying the paradigm's clause."""

    a: int
    b: int
    c: int
    kind: SearchKind
    reason: str

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c,
                "kind": self.kind.value, "reason": self.reason}


Witness = Union[PointViolation, int, None]


def _as_ordering(g: Graph, sigma: Sequence[int]) -> tuple[int, ...]:
    """sigma as a tuple, or ValueError unless it is a permutation of g's
    vertices."""
    order = tuple(sigma)
    if len(order) != g.n:
        raise ValueError(f"ordering length {len(order)} != vertex count {g.n}")
    if sorted(order) != list(range(g.n)):
        raise ValueError(f"not a permutation of 0..{g.n - 1}: {order}")
    return order


def is_generic_order(g: Graph, sigma) -> tuple[bool, Optional[int]]:
    """Every non-first vertex must have an earlier neighbor.

    Returns (verdict, first offending vertex or None).
    """
    return _generic(g, _as_ordering(g, sigma))


def _generic(g: Graph, order: tuple[int, ...]) -> tuple[bool, Optional[int]]:
    seen = 0
    for i, v in enumerate(order):
        if i > 0 and not g.adj[v] & seen:
            return False, v
        seen |= 1 << v
    return True, None


# The point condition of each kind: for a <s b <s c with ac an edge and ab
# a non-edge, some d in X with db an edge (and, for the Lex kinds and MNS,
# dc a non-edge) must exist.  X is a prefix of sigma given by where it ends
# (at a or at b) and whether it starts after a.  Per kind: (X ends at b,
# X starts after a, the clause also needs dc a non-edge, the clause's text).
_CLAUSES = {
    SearchKind.BFS: (False, False, False, "no d before a with db an edge"),
    SearchKind.DFS: (True, True, False, "no d between a and b with db an edge"),
    SearchKind.LEXBFS: (False, False, True,
                        "no d before a with db an edge and dc a non-edge"),
    SearchKind.LEXDFS: (True, True, True,
                        "no d between a and b with db an edge and dc a non-edge"),
    SearchKind.MNS: (True, False, True,
                     "no d before b with db an edge and dc a non-edge"),
}


def check_point_condition(g: Graph, sigma,
                          kind: SearchKind) -> tuple[bool, Optional[PointViolation]]:
    """Scan the position pairs i < j for a violation of the kind's
    three-point condition.  The first violation in (pos a, pos b, pos c)
    order is reported."""
    return _point(g, _as_ordering(g, sigma), kind)


def _point(g: Graph, order: tuple[int, ...],
           kind: SearchKind) -> tuple[bool, Optional[PointViolation]]:
    clause = _CLAUSES.get(kind)
    if clause is None:
        raise ValueError(f"{kind} has no point condition; use is_search_ordering")
    upto_b, after_a, needs_non_edge, reason = clause
    # When X is "before b" (MNS), D depends only on b, so the common
    # neighbourhood of D is cached per position of b.
    per_b = upto_b and not after_a
    n = g.n
    adj = g.adj
    # prefix[i] = bitmask of the first i vertices of sigma
    prefix = [0] * (n + 1)
    for i, v in enumerate(order):
        prefix[i + 1] = prefix[i] | 1 << v
    common_of_b = [None] * n
    for i in range(n):
        a = order[i]
        na = adj[a]
        x_start = ~prefix[i + 1] if after_a else -1
        before_a = prefix[i]
        for j in range(i + 1, n):
            # cs = the neighbours of a after b: the candidates for c
            cs = na & ~prefix[j + 1]
            if not cs:
                break
            b = order[j]
            if na >> b & 1:
                continue
            ds = adj[b] & x_start & (prefix[j] if upto_b else before_a)
            # c violates iff no d in D = {d in X : db an edge} satisfies the
            # clause: iff D is empty (BFS, DFS), or iff c is adjacent to
            # every d in D (the Lex kinds and MNS)
            if not needs_non_edge:
                bad = 0 if ds else cs
            elif per_b:
                common = common_of_b[j]
                if common is None:
                    common = -1
                    for d in bits(ds):
                        common &= adj[d]
                        if not common:
                            break
                    common_of_b[j] = common
                bad = cs & common
            else:
                bad = cs
                for d in bits(ds):
                    bad &= adj[d]
                    if not bad:
                        break
            if bad:
                # the violating c that comes first in sigma
                for k in range(j + 1, n):
                    c = order[k]
                    if bad >> c & 1:
                        return False, PointViolation(a, b, c, kind, reason)
    return True, None


def _is_mcs_order(g: Graph, order: tuple[int, ...]) -> tuple[bool, Optional[int]]:
    """Simulate maximum-cardinality selection; witness is the first vertex
    chosen while another unvisited vertex had strictly more visited
    neighbors."""
    visited = 0
    unvisited = set(range(g.n))
    for v in order:
        count = (g.adj[v] & visited).bit_count()
        best = max((g.adj[u] & visited).bit_count() for u in unvisited)
        if count < best:
            return False, v
        visited |= 1 << v
        unvisited.remove(v)
    return True, None


def is_search_ordering(g: Graph, sigma,
                       kind: SearchKind) -> tuple[bool, Witness]:
    """Decide membership of sigma in the paradigm's set of orderings."""
    require_connected(g)
    order = _as_ordering(g, sigma)
    generic_ok, offender = _generic(g, order)
    if kind is SearchKind.GENERIC:
        return generic_ok, offender
    if not generic_ok:
        return False, offender
    if kind is SearchKind.MCS:
        return _is_mcs_order(g, order)
    return _point(g, order, kind)
