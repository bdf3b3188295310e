"""Executable search paradigms, exhaustive enumeration of their orderings,
and the inclusion walk between two paradigms' orderings.

Each paradigm is realized once, as a selection rule on the unvisited
vertices, one row of ``_KINDS``: a state key, an ordered partition of
those vertices stepped from parent to child, and a candidate rule that
reads it; an ordering is produced by repeatedly picking one candidate.
Generic, BFS, DFS, LexBFS and LexDFS take the key's first class, as in
partition refinement; MNS and MCS take from it, the fringe, the vertices
whose visited neighbourhood is maximal.  The rules are *not* trusted: the
test suite checks them exhaustively against the point-condition validators
and against a reference that compares labels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .graphs import Graph, bits, require_connected, twin_classes


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


# State keys: an ordered partition of the unvisited vertices, one per
# kind, whose first class is the kind's candidate set or, for MNS and MCS,
# the fringe they choose from.  Every key starts as the one class of all
# vertices (``_root_key``).  Each step maps (adjacency masks, key, vertex)
# to the key after visiting the vertex, so keys are carried from parent to
# child.  Equal keys leave the same vertices unvisited and give the same
# candidates, and a step reads only the key, so prefixes with equal keys
# root identical search trees.

def _root_key(n: int) -> tuple[int, ...]:
    """Nothing visited: every vertex unreached, in one class."""
    return ((1 << n) - 1,)


def _reach_step(adj, key, v):
    """(fringe, unreached vertices): Generic takes the fringe, MNS and MCS
    choose from it.  The unvisited set is the union of the first and the
    last class, the root's one class included."""
    unvisited = (key[0] | key[-1]) & ~(1 << v)
    unreached = key[-1] & ~adj[v] & unvisited
    return unvisited ^ unreached, unreached


def _bfs_step(adj, key, v):
    """(fringe classes by first visited neighbour, oldest first, unreached
    vertices): BFS takes the first class."""
    keep = ~(1 << v)
    unreached = key[-1] & keep
    new = adj[v] & unreached
    parts = [r for c in key[:-1] if (r := c & keep)]
    if new:
        parts.append(new)
    parts.append(unreached ^ new)
    return tuple(parts)


def _dfs_step(adj, key, v):
    """Fringe classes by last visited neighbour, newest first, then the
    unreached vertices while any are left: v's unvisited neighbours, from
    every class, merge into one new first class.  DFS takes the first
    class."""
    ins = []
    outs = []
    _split(adj, key, v, ins, outs)
    return (sum(ins), *outs) if ins else tuple(outs)


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


# Candidate rules: each maps (adjacency masks, key) to the mask of
# permitted next vertices, 0 once every vertex is visited.  Generic, BFS,
# DFS, LexBFS and LexDFS take the key's first class.  MNS and MCS choose
# among the fringe, the first class, by visited neighbourhood: a visited
# vertex is in neither the first nor the last class, so ~(key[0] | key[-1])
# masks a neighbourhood to the visited set.

def _first_class(adj, key):
    return key[0] if key else 0


def _mns(adj, key):
    """Fringe vertices grouped by visited neighbourhood; the groups whose
    neighbourhood is not strictly inside another one."""
    visited = ~(key[0] | key[-1])
    groups: dict[int, int] = {}
    for v in bits(key[0]):
        label = adj[v] & visited
        groups[label] = groups.get(label, 0) | 1 << v
    best = 0
    for label, group in groups.items():
        for other in groups:
            if label != other and label | other == other:
                break
        else:
            best |= group
    return best


def _mcs(adj, key):
    """Fringe vertices with the most visited neighbours."""
    visited = ~(key[0] | key[-1])
    best = 0
    top = -1
    for v in bits(key[0]):
        count = (adj[v] & visited).bit_count()
        if count > top:
            best, top = 1 << v, count
        elif count == top:
            best |= 1 << v
    return best


# kind -> (step, rule): a walk unpacks its kind's row once per call
_KINDS = {
    SearchKind.GENERIC: (_reach_step, _first_class),
    SearchKind.BFS: (_bfs_step, _first_class),
    SearchKind.DFS: (_dfs_step, _first_class),
    SearchKind.LEXBFS: (_lexbfs_step, _first_class),
    SearchKind.LEXDFS: (_lexdfs_step, _first_class),
    SearchKind.MNS: (_reach_step, _mns),
    SearchKind.MCS: (_reach_step, _mcs),
}


# -- tie breaking ------------------------------------------------------

@dataclass(frozen=True)
class TieBreak:
    """Resolves ties among candidates; the search paradigms leave them free.

    ``pick`` takes the candidates as a bitmask.  ``seed is None`` picks the
    smallest; otherwise an RNG keyed by (seed, step, ascending candidates)
    picks, so equal seeds give equal choices on identical states.  A step
    with one candidate takes it without consulting the RNG: a choice from
    one element is that element, so the ordering is the one the RNG gives.
    """

    seed: Optional[int] = None

    @classmethod
    def seeded(cls, seed: int) -> "TieBreak":
        return cls(seed)

    def pick(self, mask: int, step: int) -> int:
        if self.seed is None or not mask & (mask - 1):
            return (mask & -mask).bit_length() - 1
        ordered = list(bits(mask))
        return random.Random(f"{self.seed}:{step}:{ordered}").choice(ordered)


def complete_prefix(kind: SearchKind, adj: tuple[int, ...],
                    prefix: tuple[int, ...], key,
                    tiebreak: TieBreak = TieBreak()) -> tuple[int, ...]:
    """Extend the visited prefix, whose key for ``kind`` is ``key``, to a
    complete ordering, resolving every tie with the given tie-break."""
    step, rule = _KINDS[kind]
    while len(prefix) < len(adj):
        v = tiebreak.pick(rule(adj, key), len(prefix))
        prefix += (v,)
        key = step(adj, key, v)
    return prefix


def run_search(g: Graph, kind: SearchKind, tiebreak: TieBreak = TieBreak(),
               start: Optional[int] = None) -> tuple[int, ...]:
    """Execute one search, resolving every tie with the given tie-break."""
    require_connected(g)
    if g.n < 1:
        raise ValueError("run_search requires at least one vertex")
    if start is not None and not 0 <= start < g.n:
        raise ValueError(f"start vertex {start} out of range")
    prefix = ()
    key = _root_key(g.n)
    if start is not None:
        prefix = (start,)
        key = _KINDS[kind][0](g.adj, key, start)
    return complete_prefix(kind, g.adj, prefix, key, tiebreak)


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
    keeps an ordered partition of the unvisited vertices as its state key
    (``_KINDS``): (fringe, unreached) for Generic, MNS and MCS, fringe
    classes then the unreached class for BFS and DFS, label classes for
    LexBFS and LexDFS.  A child's key is stepped from its parent's.
    Prefixes with equal keys root identical subtrees, so the orderings
    below a repeated key are copied from the first prefix walked with that
    key, with the prefix swapped, not walked again.  With one vertex left,
    it is every kind's only candidate, so that ordering is appended at
    once.  What limits n is then the size of the output, not the walk: K_n
    has n! orderings of every kind.  If there are more than ``cap``
    orderings, the first ``cap`` are returned and the truncation flag says
    so, never silently.
    """
    require_connected(g)
    if cap <= 0:
        raise ValueError("cap must be positive")
    found: list[tuple[int, ...]] = []
    n = g.n
    adj = g.adj
    step, rule = _KINDS[kind]
    # key -> (first, end): found[first:end] are the orderings through the
    # first prefix walked with that key
    walked: dict[tuple[int, ...], tuple[int, int]] = {}
    key = _root_key(n)
    # one frame per depth: a prefix, its unvisited vertices (at the root,
    # the key's one class), its candidates not yet tried, its key and where
    # its orderings start in ``found``; popped with no candidates left, its
    # subtree is done
    stack = [((), key[0], rule(adj, key), key, 0)]
    while stack:
        prefix, unvisited, rest, key, first = stack.pop()
        if not rest:
            walked[key] = (first, len(found))
            continue
        low = rest & -rest
        # a frame left with no candidates needs no prefix, only its span
        stack.append((prefix if rest != low else None, unvisited, rest ^ low,
                      key, first))
        v = low.bit_length() - 1
        prefix += (v,)
        unvisited ^= low
        depth = len(prefix)
        if depth >= n - 1:
            # one vertex left at most: every kind's only candidate
            if len(found) == cap:
                return EnumerationResult(tuple(found), True)
            found.append(prefix + (unvisited.bit_length() - 1,)
                         if unvisited else prefix)
            continue
        key = step(adj, key, v)
        span = walked.get(key)
        if span is None:
            stack.append((prefix, unvisited, rule(adj, key), key, len(found)))
            continue
        # an equal key leaves the same vertices unvisited, so the span's
        # orderings complete this prefix from the same depth on
        first, end = span
        stop = min(end, first + cap - len(found))
        found += [prefix + o[depth:] for o in found[first:stop]]
        if stop < end:
            return EnumerationResult(tuple(found), True)
    return EnumerationResult(tuple(found), False)


# -- inclusion walk ----------------------------------------------------

def first_outside(g: Graph, kind_x: SearchKind, kind_y: SearchKind,
                  cap: float) -> tuple[Optional[tuple[int, ...]], bool]:
    """The lexicographically first kind_x ordering of g that is not a kind_y
    ordering (None if there is none), and whether the walk stopped at the cap.
    Raises DisconnectedGraphError unless g is connected: past the first
    vertex's component the rules allow no vertex, and the walk would give
    a wrong ordering or fail.

    kind_x orderings lie within kind_y orderings iff, at every prefix both
    can reach, kind_x's candidates are a subset of kind_y's.  The walk
    visits those prefixes depth-first, trying kind_x's candidates in
    ascending order.  The first candidate v that kind_y does not allow
    makes every kind_x ordering through prefix + v a counterexample, and
    completing it with min-index kind_x choices gives the first of them.

    Each kind's candidates, here and below, depend only on its state key
    (``_KINDS``), and either key fixes the unvisited vertices, so prefixes
    with equal pairs (kind_x's key, kind_y's key) root identical
    walk subtrees, and a pair walked before is not walked again.  A pair
    never recurs inside its own subtree, whose unvisited sets are smaller,
    so a pair met again roots a subtree already walked to the end without
    a counterexample.  ``cap`` bounds the distinct pairs walked; the walk
    stops before the next one, and then its verdict is not established.

    Twins are walked once.  If v < w are unvisited twins (N(v) - {w} =
    N(w) - {v}, ``graphs.twin_classes``), swapping them is an automorphism
    of g that fixes the prefix.  Every kind's orderings are closed under
    automorphisms, so kind_y allows w iff it allows v, and the subtree
    below prefix + w is the image of the one below prefix + v.  A
    counterexample returns at once, so when the frame holding w is popped
    again, v's subtree has held none, and neither does w's: taking v
    drops its twins from the frame's remaining candidates.  The first
    counterexample stays the same.
    """
    require_connected(g)
    if cap <= 0:
        raise ValueError("cap must be positive")
    n = g.n
    if n == 0 or kind_x is kind_y:
        return None, False  # a set lies within itself; nothing to walk
    adj = g.adj
    step_x, rule_x = _KINDS[kind_x]
    step_y, rule_y = _KINDS[kind_y]
    root = _root_key(n)
    walked = {(root, root)}
    # one frame per depth: a prefix, kind_x's candidates not yet tried
    # there, kind_y's candidates and the two keys
    stack = [((), rule_x(adj, root), rule_y(adj, root), root, root)]
    twins = twin_classes(adj)
    while stack:
        prefix, rest, allowed, key_x, key_y = stack.pop()
        low = rest & -rest
        v = low.bit_length() - 1
        rest &= ~twins[v]  # v and its twins
        if rest:
            stack.append((prefix, rest, allowed, key_x, key_y))
        prefix += (v,)
        if not allowed & low:
            return complete_prefix(kind_x, adj, prefix,
                                   step_x(adj, key_x, v)), False
        if len(prefix) == n:
            continue
        pair = key_x, key_y = step_x(adj, key_x, v), step_y(adj, key_y, v)
        if pair in walked:
            continue
        if len(walked) >= cap:
            return None, True
        walked.add(pair)
        stack.append((prefix, rule_x(adj, key_x), rule_y(adj, key_y),
                      key_x, key_y))
    return None, False
