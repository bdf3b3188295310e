"""Executable search paradigms and exhaustive enumeration of their orderings.

Each paradigm is realized by a per-step candidate rule; an ordering is
produced by repeatedly picking one candidate.  The rules here find each
candidate set with a few bitmask operations and are *not* trusted: the
test suite checks them exhaustively against the point-condition
validators and against a reference that compares labels.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

from .graphs import Graph, bits, require_connected


class SearchKind(Enum):
    GENERIC = "generic"
    BFS = "bfs"
    DFS = "dfs"
    LEXBFS = "lexbfs"
    LEXDFS = "lexdfs"
    MNS = "mns"
    MCS = "mcs"

    @classmethod
    def from_name(cls, name: str) -> "SearchKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown search kind {name!r}; one of: {valid}") from None


class InconsistentStateError(RuntimeError):
    pass


class SearchState:
    """Visited prefix of a search, with kind-independent bookkeeping.

    Labels are derived from the visited sequence on demand; besides the
    prefix, only its vertex mask and the union of its neighbourhoods are
    stored, so states stay cheap to copy and compare.
    """

    __slots__ = ("graph", "visited", "visited_mask", "reached_mask")

    def __init__(self, graph: Graph, visited: tuple[int, ...] = ()):
        mask = reached = 0
        for v in visited:
            if not 0 <= v < graph.n:
                raise InconsistentStateError(f"visited vertex {v} out of range")
            if mask >> v & 1:
                raise InconsistentStateError(f"vertex {v} visited twice")
            mask |= 1 << v
            reached |= graph.adj[v]
        self.graph = graph
        self.visited = tuple(visited)
        self.visited_mask = mask
        self.reached_mask = reached

    def extend(self, v: int) -> "SearchState":
        state = SearchState.__new__(SearchState)
        state.graph = self.graph
        state.visited = self.visited + (v,)
        state.visited_mask = self.visited_mask | 1 << v
        state.reached_mask = self.reached_mask | self.graph.adj[v]
        return state

    def key(self) -> tuple[int, ...]:
        """The unvisited mask, then the unvisited neighbourhood of each
        visited vertex that still has one, in visiting order.

        Every paradigm's candidates, at this state and after any extension
        of it, depend only on this key, so states with equal keys root
        identical search trees.  Generic, MNS and MCS read only the sets or
        counts of visited neighbours of unvisited vertices.  BFS, DFS,
        LexBFS and LexDFS read only the relative order of the visiting
        positions of those neighbours.  A visited vertex without unvisited
        neighbours is nobody's visited neighbour now or later, so it can
        never matter again.
        """
        rest = ~self.visited_mask
        adj = self.graph.adj
        return (rest, *[a for u in self.visited if (a := adj[u] & rest)])


# Candidate rules: each maps (adjacency masks, visited sequence, visited
# mask, fringe) to the mask of permitted next vertices; the fringe is the
# unvisited vertices with a visited neighbour.

def _generic(adj, visited, mask, fringe):
    return fringe


def _first_active(adj, order, fringe):
    """The unvisited neighbourhood of the first vertex in ``order`` that
    still has one: the head of BFS's queue, or the top of DFS's stack."""
    for u in order:
        if adj[u] & fringe:
            return adj[u] & fringe
    return 0


def _bfs(adj, visited, mask, fringe):
    return _first_active(adj, visited, fringe)


def _dfs(adj, visited, mask, fringe):
    return _first_active(adj, reversed(visited), fringe)


def _refine(adj, order, fringe):
    """Partition refinement: each vertex of ``order`` in turn keeps its
    neighbours among the best so far, unless it has none there."""
    best = fringe
    for u in order:
        if best & (best - 1) == 0:
            break
        if adj[u] & best:
            best &= adj[u]
    return best


def _lexbfs(adj, visited, mask, fringe):
    return _refine(adj, visited, fringe)


def _lexdfs(adj, visited, mask, fringe):
    return _refine(adj, reversed(visited), fringe)


def _mns(adj, visited, mask, fringe):
    """Fringe vertices grouped by visited neighbourhood; the groups whose
    neighbourhood is not strictly inside another one."""
    groups: dict[int, int] = {}
    for v in bits(fringe):
        label = adj[v] & mask
        groups[label] = groups.get(label, 0) | 1 << v
    best = 0
    for label, group in groups.items():
        if not any(label != other and label | other == other
                   for other in groups):
            best |= group
    return best


def _mcs(adj, visited, mask, fringe):
    """Fringe vertices with the most visited neighbours."""
    best = 0
    top = -1
    for v in bits(fringe):
        count = (adj[v] & mask).bit_count()
        if count > top:
            best, top = 1 << v, count
        elif count == top:
            best |= 1 << v
    return best


_RULES = {
    SearchKind.GENERIC: _generic,
    SearchKind.BFS: _bfs,
    SearchKind.DFS: _dfs,
    SearchKind.LEXBFS: _lexbfs,
    SearchKind.LEXDFS: _lexdfs,
    SearchKind.MNS: _mns,
    SearchKind.MCS: _mcs,
}


def candidate_mask(g: Graph, kind: SearchKind, state: SearchState) -> int:
    """The exact set of vertices the paradigm permits as the next choice,
    as a bitmask; 0 once every vertex is visited."""
    if state.graph is not g:
        if state.graph != g:
            raise InconsistentStateError("state belongs to a different graph")
    if not state.visited_mask:
        return (1 << g.n) - 1
    rule = _RULES.get(kind)
    if rule is None:
        raise ValueError(f"unhandled search kind {kind}")
    mask = state.visited_mask
    return rule(g.adj, state.visited, mask, state.reached_mask & ~mask)


def candidates(g: Graph, kind: SearchKind, state: SearchState) -> set[int]:
    """The exact set of vertices the paradigm permits as the next choice."""
    return set(bits(candidate_mask(g, kind, state)))


# -- tie breaking ------------------------------------------------------

@dataclass(frozen=True)
class TieBreak:
    """Resolves ties among candidates; the search paradigms leave them free.

    ``pick`` takes the candidates as a bitmask.  ``seed is None`` picks the
    smallest; otherwise an RNG keyed by (seed, step, ascending candidates)
    picks, so equal seeds give equal choices on identical states.
    """

    seed: Optional[int] = None

    @classmethod
    def min_index(cls) -> "TieBreak":
        return cls()

    @classmethod
    def seeded(cls, seed: int) -> "TieBreak":
        return cls(seed)

    def pick(self, mask: int, step: int) -> int:
        if self.seed is None:
            return (mask & -mask).bit_length() - 1
        ordered = list(bits(mask))
        return random.Random(f"{self.seed}:{step}:{ordered}").choice(ordered)


def complete_prefix(g: Graph, kind: SearchKind, state: SearchState,
                    tiebreak: TieBreak = TieBreak()) -> tuple[int, ...]:
    """Extend the visited prefix to a complete ordering, resolving every
    tie with the given tie-break."""
    while len(state.visited) < g.n:
        state = state.extend(tiebreak.pick(candidate_mask(g, kind, state),
                                           len(state.visited)))
    return state.visited


def run_search(g: Graph, kind: SearchKind, tiebreak: TieBreak = TieBreak(),
               start: Optional[int] = None) -> tuple[int, ...]:
    """Execute one search, resolving every tie with the given tie-break."""
    require_connected(g)
    if g.n < 1:
        raise ValueError("run_search requires at least one vertex")
    if start is not None and not 0 <= start < g.n:
        raise ValueError(f"start vertex {start} out of range")
    state = SearchState(g)
    if start is not None:
        state = state.extend(start)
    return complete_prefix(g, kind, state, tiebreak)


# -- exhaustive enumeration --------------------------------------------

DEFAULT_CAP = 10_000_000


class EnumerationResult(NamedTuple):
    orderings: tuple[tuple[int, ...], ...]  # sorted lexicographically
    truncated: bool

    def __contains__(self, item) -> bool:
        item = tuple(item)
        i = bisect_left(self.orderings, item)
        return i < len(self.orderings) and self.orderings[i] == item


def enumerate_orderings(g: Graph, kind: SearchKind,
                        cap: int = DEFAULT_CAP) -> EnumerationResult:
    """All orderings the paradigm can produce, by branching on every tie.

    Every tie's candidates, the start included, are tried in ascending
    order, so the orderings come out lexicographically sorted.
    Intended for small graphs (n <= 8 or so); hitting ``cap`` is reported
    via the truncation flag, never silently.
    """
    require_connected(g)
    if cap <= 0:
        raise ValueError("cap must be positive")
    found: list[tuple[int, ...]] = []
    truncated = False
    n = g.n
    if n == 0:
        return EnumerationResult((), False)

    def recurse(state: SearchState) -> bool:
        nonlocal truncated
        if len(state.visited) == n:
            found.append(state.visited)
            if len(found) >= cap:
                truncated = True
                return False
            return True
        for v in bits(candidate_mask(g, kind, state)):
            if not recurse(state.extend(v)):
                return False
        return True

    recurse(SearchState(g))
    return EnumerationResult(tuple(found), truncated)
