"""Executable search paradigms and exhaustive enumeration of their orderings.

Each paradigm is realized once, by a state key stepped from parent to
child (``_STEPS``) and a candidate rule that reads it; an ordering is
produced by repeatedly picking one candidate.  BFS, DFS, LexBFS and LexDFS
keep an ordered partition of the unvisited vertices whose first fringe
class is the candidate set, as in partition refinement; Generic, MNS and
MCS keep the visited mask and read the fringe.  The rules are *not*
trusted: the test suite checks them exhaustively against the
point-condition validators and against a reference that compares labels.
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

    # Members are singletons compared by identity, so the identity hash
    # agrees with equality; Enum's own hashes the name in Python code.
    __hash__ = object.__hash__

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
    each class into its part in N(v), then the rest.  LexBFS takes the
    first class."""
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


# Candidate rules: each maps (adjacency masks, key, fringe) to the mask of
# permitted next vertices; the fringe is the unvisited vertices with a
# visited neighbour.  A partition key holds its kind's candidates as its
# first fringe class; Generic, MNS and MCS read the fringe and the visited
# mask, which is their key.

def _generic(adj, key, fringe):
    return fringe


def _first_fringe_class(adj, key, fringe):
    """BFS and DFS: the class after the unreached or unvisited vertices."""
    return key[1] if len(key) > 1 else 0


def _first_label_class(adj, key, fringe):
    """LexBFS and LexDFS: the best label."""
    return key[0] if key else 0


def _mns(adj, mask, fringe):
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


def _mcs(adj, mask, fringe):
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
    SearchKind.BFS: _first_fringe_class,
    SearchKind.DFS: _first_fringe_class,
    SearchKind.LEXBFS: _first_label_class,
    SearchKind.LEXDFS: _first_label_class,
    SearchKind.MNS: _mns,
    SearchKind.MCS: _mcs,
}


def candidate_mask(kind: SearchKind, state: SearchState, key) -> int:
    """The exact set of vertices the paradigm permits as the next choice
    from ``state``, whose key for ``kind`` is ``key``, as a bitmask; 0 once
    every vertex is visited."""
    g = state.graph
    if not state.visited_mask:
        return (1 << g.n) - 1
    rule = _RULES.get(kind)
    if rule is None:
        raise ValueError(f"unhandled search kind {kind}")
    return rule(g.adj, key, state.reached_mask & ~state.visited_mask)


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


def complete_prefix(kind: SearchKind, state: SearchState, key,
                    tiebreak: TieBreak = TieBreak()) -> tuple[int, ...]:
    """Extend the visited prefix, whose key for ``kind`` is ``key``, to a
    complete ordering, resolving every tie with the given tie-break."""
    g = state.graph
    step = _STEPS[kind]
    while len(state.visited) < g.n - 1:
        v = tiebreak.pick(candidate_mask(kind, state, key), len(state.visited))
        state = state.extend(v)
        key = step(g.adj, key, v)
    # one vertex left at most: every kind's only candidate
    last = ((1 << g.n) - 1) ^ state.visited_mask
    return state.visited + (last.bit_length() - 1,) if last else state.visited


def run_search(g: Graph, kind: SearchKind, tiebreak: TieBreak = TieBreak(),
               start: Optional[int] = None) -> tuple[int, ...]:
    """Execute one search, resolving every tie with the given tie-break."""
    require_connected(g)
    if g.n < 1:
        raise ValueError("run_search requires at least one vertex")
    if start is not None and not 0 <= start < g.n:
        raise ValueError(f"start vertex {start} out of range")
    state = SearchState(g)
    key = _root_key(kind, g.n)
    if start is not None:
        state = state.extend(start)
        key = _STEPS[kind](g.adj, key, start)
    return complete_prefix(kind, state, key, tiebreak)


# -- exhaustive enumeration --------------------------------------------

DEFAULT_CAP = 10_000_000  # orderings an enumeration returns
# Search states an inclusion walk expands: distinct pairs of the two kinds'
# keys.  No graph with n <= 8 has more than 69,281 (the proper prefixes of
# 8! orderings); on a G(24, 0.15) a million take 14-16 s and 0.2-0.6 GB
# (Generic or DFS within itself, 2-vCPU VM).
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
    key = _root_key(kind, n)
    # one frame per depth: a state, its candidates not yet tried, its key
    # and where its orderings start in ``found``; popped with no candidates
    # left, its subtree is done
    stack = [(root, candidate_mask(kind, root, key), key, 0)]
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
            stack.append((state, candidate_mask(kind, state, key), key,
                          len(found)))
            continue
        # an equal key leaves the same vertices unvisited, so the span's
        # orderings complete this prefix from the same depth on
        first, end = span
        stop = min(end, first + cap - len(found))
        found += [prefix + o[depth:] for o in found[first:stop]]
        if stop < end:
            return EnumerationResult(tuple(found), True)
    return EnumerationResult(tuple(found), False)
