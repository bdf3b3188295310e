"""Executable search paradigms and exhaustive enumeration of their orderings.

Each paradigm is realized by a per-step candidate rule; an ordering is
produced by repeatedly picking one candidate.  The rules here are the
standard executor realizations and are *not* trusted: the test suite
checks them exhaustively against the point-condition validators.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

from .graphs import Graph, VertexOrdering, bits, require_connected


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

    def visited_neighbor_set(self, v: int) -> int:
        """MNS label: bitmask of visited neighbors of v."""
        return self.graph.adj[v] & self.visited_mask


def candidates(g: Graph, kind: SearchKind, state: SearchState) -> set[int]:
    """The exact set of vertices the paradigm permits as the next choice."""
    if state.graph is not g:
        if state.graph != g:
            raise InconsistentStateError("state belongs to a different graph")
    if not state.visited:
        return set(range(g.n))
    mask = state.visited_mask
    fringe = state.reached_mask & ~mask
    if kind is SearchKind.GENERIC:
        return set(bits(fringe))

    if kind is SearchKind.BFS:
        # FIFO layer heads: minimal rank of the earliest visited neighbor.
        best_rank = None
        best: set[int] = set()
        pos = {u: i for i, u in enumerate(state.visited)}
        for v in bits(fringe):
            rank = min(pos[u] for u in bits(g.adj[v] & mask))
            if best_rank is None or rank < best_rank:
                best_rank, best = rank, {v}
            elif rank == best_rank:
                best.add(v)
        return best

    if kind is SearchKind.DFS:
        # Unvisited neighbors of the deepest visited vertex that has any.
        for u in reversed(state.visited):
            unvisited = g.adj[u] & ~mask
            if unvisited:
                return set(bits(unvisited))
        return set()

    if kind is SearchKind.LEXBFS or kind is SearchKind.LEXDFS:
        n = g.n
        labels = {}
        for v in bits(fringe):
            steps = [i for i, u in enumerate(state.visited) if g.adj[v] >> u & 1]
            if kind is SearchKind.LEXBFS:
                # earlier discoverers carry more weight
                labels[v] = tuple(n - i for i in steps)
            else:
                # most recent discoverers carry more weight
                labels[v] = tuple(i + 1 for i in reversed(steps))
        top = max(labels.values())
        return {v for v, lab in labels.items() if lab == top}

    if kind is SearchKind.MNS:
        labs = {v: state.visited_neighbor_set(v) for v in bits(fringe)}
        out = set()
        for v, lv in labs.items():
            if not any(lv != lu and lv | lu == lu for lu in labs.values()):
                out.add(v)
        return out

    if kind is SearchKind.MCS:
        counts = {v: (g.adj[v] & mask).bit_count() for v in bits(fringe)}
        top = max(counts.values())
        return {v for v, c in counts.items() if c == top}

    raise ValueError(f"unhandled search kind {kind}")


# -- tie breaking ------------------------------------------------------

@dataclass(frozen=True)
class TieBreak:
    """Resolves ties among candidates; the search paradigms leave them free.

    ``seed is None`` with policy "min"/"max" picks the extreme index;
    "random" hashes (seed, step, candidates) so equal seeds give equal
    choices on identical states.
    """

    policy: str = "min"
    seed: Optional[int] = None

    @classmethod
    def min_index(cls) -> "TieBreak":
        return cls("min")

    @classmethod
    def max_index(cls) -> "TieBreak":
        return cls("max")

    @classmethod
    def seeded(cls, seed: int) -> "TieBreak":
        return cls("random", seed)

    def pick(self, options: set[int], step: int) -> int:
        ordered = sorted(options)
        if self.policy == "min":
            return ordered[0]
        if self.policy == "max":
            return ordered[-1]
        if self.policy == "random":
            rng = random.Random(f"{self.seed}:{step}:{ordered}")
            return rng.choice(ordered)
        raise ValueError(f"unknown tie-break policy {self.policy!r}")


def run_search(g: Graph, kind: SearchKind, tiebreak: TieBreak = TieBreak(),
               start: Optional[int] = None) -> VertexOrdering:
    """Execute one search, resolving every tie with the given policy."""
    require_connected(g)
    if g.n < 1:
        raise ValueError("run_search requires at least one vertex")
    if start is not None and not 0 <= start < g.n:
        raise ValueError(f"start vertex {start} out of range")
    state = SearchState(g)
    order = []
    for step in range(g.n):
        options = candidates(g, kind, state)
        if step == 0 and start is not None:
            choice = start
        else:
            choice = tiebreak.pick(options, step)
        order.append(choice)
        state = state.extend(choice)
    return VertexOrdering(order)


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

    Starts are tried in ascending order and every tie's candidates in
    ascending order, so the orderings come out lexicographically sorted.
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

    adj = g.adj

    def recurse(state: SearchState) -> bool:
        nonlocal truncated
        if len(state.visited) == n:
            found.append(state.visited)
            if len(found) >= cap:
                truncated = True
                return False
            return True
        for v in sorted(candidates(g, kind, state)):
            if not recurse(state.extend(v)):
                return False
        return True

    root = SearchState(g)
    for start in range(n):
        if not recurse(root.extend(start)):
            break
    return EnumerationResult(tuple(found), truncated)
