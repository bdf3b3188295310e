"""Executable search paradigms and exhaustive enumeration of their orderings.

Each paradigm is realized by a per-step candidate rule; an ordering is
produced by repeatedly picking one candidate.  The rules here find each
candidate set with a few bitmask operations and are *not* trusted: the
test suite checks them exhaustively against the point-condition
validators and against a reference that compares labels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional

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

    It stores its graph, the prefix, the prefix's vertex mask and the union of
    its neighbourhoods, no more, so states stay cheap to copy and compare.
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

        The inclusion walk in ``equivalence`` relies on this: it expands
        each key once.  ``enumerate_orderings`` uses each kind's own, coarser
        key instead (``_STEPS``).
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


# State keys, one per kind: what the kind's candidates read of a state, at
# it and after any extension of it.  Each step maps (adjacency masks, key,
# vertex) to the key after visiting the vertex, so keys are carried from
# parent to child.  Equal keys leave the same vertices unvisited and give
# the same candidates, and a step reads only the key, so states with equal
# keys root identical search trees.

def _visit(adj, key, v):
    """Generic, MNS and MCS read only the visited mask."""
    return key | 1 << v


def _bfs_step(adj, key, v):
    """(unreached vertices, fringe classes by first visited neighbour,
    oldest first): BFS takes the first class."""
    keep = ~(1 << v)
    new = adj[v] & key[0]
    parts = [r for c in key[1:] if (r := c & keep)]
    if new:
        parts.append(new)
    return ((key[0] ^ new) & keep, *parts)


def _dfs_step(adj, key, v):
    """(unvisited vertices, fringe classes by last visited neighbour,
    newest first): DFS takes the first class."""
    unvisited = key[0] & ~(1 << v)
    new = adj[v] & unvisited
    keep = ~(new | 1 << v)
    parts = [r for c in key[1:] if (r := c & keep)]
    return (unvisited, new, *parts) if new else (unvisited, *parts)


def _split(adj, key, v, ins, outs):
    """Append each class's part in N(v) to ``ins`` and the rest, v dropped,
    to ``outs``.  A class that neither meets N(v) nor holds v goes whole,
    so on sparse graphs most classes cost one test."""
    inside = adj[v]
    touched = inside | 1 << v
    outside = ~touched
    for c in key:
        if c & touched:
            if c & inside:
                ins.append(c & inside)
            if c & outside:
                outs.append(c & outside)
        else:
            outs.append(c)


def _lexbfs_step(adj, key, v):
    """Label classes of the unvisited vertices, best label first: v splits
    each class into its part in N(v), then the rest."""
    parts = []
    _split(adj, key, v, parts, parts)
    return tuple(parts)


def _lexdfs_step(adj, key, v):
    """Label classes as for LexBFS, but v is the most significant neighbour:
    every class's part in N(v) comes before every class's rest."""
    ins = []
    outs = []
    _split(adj, key, v, ins, outs)
    return (*ins, *outs)


_STEPS = {
    SearchKind.GENERIC: _visit,
    SearchKind.BFS: _bfs_step,
    SearchKind.DFS: _dfs_step,
    SearchKind.LEXBFS: _lexbfs_step,
    SearchKind.LEXDFS: _lexdfs_step,
    SearchKind.MNS: _visit,
    SearchKind.MCS: _visit,
}


def _root_key(kind: SearchKind, n: int):
    """The key with nothing visited: the visited mask 0, or every vertex
    unreached (BFS), unvisited (DFS) or in one label class (LexBFS,
    LexDFS)."""
    return 0 if _STEPS[kind] is _visit else ((1 << n) - 1,)


def candidate_mask(kind: SearchKind, state: SearchState) -> int:
    """The exact set of vertices the paradigm permits as the next choice
    from ``state``, as a bitmask; 0 once every vertex is visited."""
    g = state.graph
    if not state.visited_mask:
        return (1 << g.n) - 1
    rule = _RULES.get(kind)
    if rule is None:
        raise ValueError(f"unhandled search kind {kind}")
    mask = state.visited_mask
    return rule(g.adj, state.visited, mask, state.reached_mask & ~mask)


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
    def seeded(cls, seed: int) -> "TieBreak":
        return cls(seed)

    def pick(self, mask: int, step: int) -> int:
        if self.seed is None:
            return (mask & -mask).bit_length() - 1
        ordered = list(bits(mask))
        return random.Random(f"{self.seed}:{step}:{ordered}").choice(ordered)


def complete_prefix(kind: SearchKind, state: SearchState,
                    tiebreak: TieBreak = TieBreak()) -> tuple[int, ...]:
    """Extend the visited prefix to a complete ordering, resolving every
    tie with the given tie-break."""
    n = state.graph.n
    while len(state.visited) < n:
        state = state.extend(tiebreak.pick(candidate_mask(kind, state),
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
    return complete_prefix(kind, state, tiebreak)


# -- exhaustive enumeration --------------------------------------------

DEFAULT_CAP = 10_000_000  # orderings an enumeration returns
# Search states (distinct ``SearchState.key()``s) an inclusion walk expands.
# No graph with n <= 8 has more than 69,281 (the proper prefixes of 8!
# orderings); at n = 24 a million states take about 30 s and 0.5 GB.
DEFAULT_WALK_CAP = 1_000_000


@dataclass(frozen=True)  # not a tuple: ask ``o in result.orderings``
class EnumerationResult:
    orderings: tuple[tuple[int, ...], ...]  # sorted lexicographically
    truncated: bool  # more than ``cap`` orderings exist


def enumerate_orderings(g: Graph, kind: SearchKind,
                        cap: int = DEFAULT_CAP) -> EnumerationResult:
    """All orderings the paradigm can produce, by branching on every tie.

    Every tie's candidates, the start included, are tried in ascending
    order, so the orderings come out lexicographically sorted.  Each kind
    has its own state key (``_STEPS``): the visited mask for Generic, MNS
    and MCS, an ordered partition of the unvisited vertices for BFS, DFS,
    LexBFS and LexDFS.  A child's key is stepped from its parent's.  States
    with equal keys root identical subtrees, so the orderings below a
    repeated key are copied from the first state walked with that key,
    with the prefix swapped, not walked again.  With one vertex left, it is
    every kind's only candidate, so that ordering is appended at once.
    What limits n is then the size of the output, not the walk: K_n has n!
    orderings of every kind.  If there are more than ``cap`` orderings, the
    first ``cap`` are returned and the truncation flag says so, never
    silently.
    """
    require_connected(g)
    if cap <= 0:
        raise ValueError("cap must be positive")
    found: list[tuple[int, ...]] = []
    n = g.n
    if n == 0:
        return EnumerationResult((), False)
    adj = g.adj
    step = _STEPS[kind]
    everyone = (1 << n) - 1
    # key -> (first, end): found[first:end] are the orderings through the
    # first state walked with that key
    walked: dict[int | tuple[int, ...], tuple[int, int]] = {}
    root = SearchState(g)
    # one frame per depth: a state, its candidates not yet tried, its key
    # and where its orderings start in ``found``; popped with no candidates
    # left, its subtree is done
    stack = [(root, candidate_mask(kind, root), _root_key(kind, n), 0)]
    while stack:
        state, rest, key, first = stack.pop()
        if not rest:
            walked[key] = (first, len(found))
            continue
        low = rest & -rest
        # a frame left with no candidates needs no state, only its span
        stack.append((state if rest != low else None, rest ^ low, key, first))
        v = low.bit_length() - 1
        prefix = state.visited + (v,)
        depth = len(prefix)
        if depth >= n - 1:
            # one vertex left at most: every kind's only candidate
            if len(found) == cap:
                return EnumerationResult(tuple(found), True)
            last = everyone ^ state.visited_mask ^ low
            found.append(prefix + (last.bit_length() - 1,) if last else prefix)
            continue
        key = step(adj, key, v)
        span = walked.get(key)
        if span is None:
            state = state.extend(v)
            stack.append((state, candidate_mask(kind, state), key, len(found)))
            continue
        # an equal key leaves the same vertices unvisited, so the span's
        # orderings complete this prefix from the same depth on
        first, end = span
        stop = min(end, first + cap - len(found))
        found += [prefix + o[depth:] for o in found[first:stop]]
        if stop < end:
            return EnumerationResult(tuple(found), True)
    return EnumerationResult(tuple(found), False)
