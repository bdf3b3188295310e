"""Membership tests for vertex orderings in each search paradigm.

BFS, DFS, LexBFS, LexDFS and MNS are decided by their three-point
characterizations (plus the generic prefix condition); generic search by
the prefix condition alone; MCS, which has no point condition here, by
buckets of the unvisited vertices per count of visited neighbours.  These
validators are the oracles every executor in this package is tested
against, so they read the conditions directly off adjacency bitmasks.
BFS and DFS are decided by one mask of violating b per a.  LexBFS, LexDFS
and MNS differ only in where the d of their shared clause may lie, so one
sweep decides all three, shrinking a mask of candidate c per b at each d.
The first violation in (pos a, pos b, pos c) order is reported, its c
found by bisecting the prefix masks.

An ordering is a tuple of vertex indices.  Each public function checks
once, on entry, that the ordering it is given is a permutation of the
graph's vertices, and hands the checked tuple to private deciders.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence, Union

from .graphs import Graph, require_connected
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
    offender, _ = _generic(g, _as_ordering(g, sigma))
    return offender is None, offender


def _generic(g: Graph, order: tuple[int, ...]) -> tuple[Optional[int], list[int]]:
    """The first non-first vertex with no earlier neighbour (None if there
    is none), and prefix[i] = bitmask of the first i vertices of the
    ordering, filled up to that vertex."""
    adj = g.adj
    prefix = [0] * (len(order) + 1)
    seen = 0
    for i, v in enumerate(order):
        if i and not adj[v] & seen:
            return v, prefix
        seen |= 1 << v
        prefix[i + 1] = seen
    return None, prefix


def _first(prefix: list[int], mask: int) -> int:
    """The first position of sigma whose vertex is in ``mask``, found by
    bisecting the prefix masks."""
    lo, hi = 0, len(prefix) - 2
    while lo < hi:
        mid = (lo + hi) // 2
        if prefix[mid + 1] & mask:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _label_violation(span, adj, order, prefix):
    """The clause shared by LexBFS, LexDFS and MNS: some d with db an edge
    and dc a non-edge, before a, between a and b, or before b (the span).
    For each b, s starts as the vertices after b and shrinks to s & N(d) at
    each such d; (a, b, c) violates iff a is an earlier non-neighbour of b
    and c is in N(a) & s.  MNS shrinks s by every earlier neighbour of b
    first; LexBFS walks the positions before b upward and LexDFS downward,
    so each d shrinks s before the a it serves.  Sweeping b in order, the
    earliest a found so far bounds the a looked for, and only the a with a
    neighbour after b are looked for: on a star, whose s are long, that
    leaves none."""
    n = len(order)
    # later[j] = the vertices with a neighbour after position j
    later = [0] * n
    for j in range(n - 1, 0, -1):
        later[j - 1] = later[j] | adj[order[j]]
    before = prefix[n]    # the a still worth finding
    hit = None
    down = span == "between a and b"
    for j in range(1, n):
        ahead = before & later[j]
        if not ahead:
            break    # later[j] only shrinks as j grows
        nb = adj[order[j]]
        others = prefix[j] & ahead & ~nb
        if not others:
            continue
        s = prefix[n] ^ prefix[j + 1]
        if span == "before b":
            ds = nb & prefix[j]
            while ds and s:
                low = ds & -ds
                s &= adj[low.bit_length() - 1]
                ds ^= low
            if not s:
                continue
        for i in range(j - 1, -1, -1) if down else range(j):
            x = order[i]
            if others >> x & 1:
                if adj[x] & s:
                    before = prefix[i]
                    hit = i, j, adj[x] & s
                    if not down:
                        break
                others ^= 1 << x
                if not others:
                    break
            elif nb >> x & 1:
                s &= adj[x]
                if not s:
                    break
    if hit is None:
        return None
    i, j, cs = hit
    return order[i], order[j], order[_first(prefix, cs)]


def _bfs_violation(adj, order, prefix):
    """For each a, bs = the vertices after a adjacent neither to a nor to
    any vertex before a.  a takes part in a violation iff the first b in bs
    comes before a's last neighbour, and then every neighbour of a after
    that b is a violating c."""
    n = len(order)
    reach = 0    # the vertices adjacent to a or to a vertex before a
    for i in range(n):
        a = order[i]
        reach |= adj[a]
        after = prefix[n] ^ prefix[i + 1]
        bs = after & ~reach
        if bs and adj[a] & after:
            j = _first(prefix, bs)
            cs = adj[a] & ~prefix[j + 1]
            if cs:
                return a, order[j], order[_first(prefix, cs)]
    return None


def _dfs_violation(adj, order, prefix):
    """For each a, bs = the vertices after a that are not adjacent to a and
    have no neighbour between a and themselves.  a takes part in a violation
    iff the first b in bs comes before a's last neighbour, and then every
    neighbour of a after that b is a violating c."""
    n = len(order)
    # free[i] = the vertices after position i with no earlier neighbour
    # after position i
    free = [0] * n
    for i in range(n - 1, 0, -1):
        v = order[i]
        free[i - 1] = 1 << v | free[i] & ~adj[v]
    for i in range(n):
        a = order[i]
        bs = free[i] & ~adj[a]
        if bs:
            j = _first(prefix, bs)
            cs = adj[a] & ~prefix[j + 1]
            if cs:
                return a, order[j], order[_first(prefix, cs)]
    return None


# The point condition of each kind: for a <s b <s c with ac an edge and ab
# a non-edge, some vertex d with db an edge must exist in the kind's range
# (and, for the Lex kinds and MNS, with dc a non-edge).  Per kind: the
# clause's text, and the function of (adj, order, prefix) that finds its
# first violation.
_CLAUSES = {
    SearchKind.BFS: ("no d before a with db an edge", _bfs_violation),
    SearchKind.DFS: ("no d between a and b with db an edge", _dfs_violation),
    SearchKind.LEXBFS: ("no d before a with db an edge and dc a non-edge",
                        partial(_label_violation, "before a")),
    SearchKind.LEXDFS: ("no d between a and b with db an edge and dc a non-edge",
                        partial(_label_violation, "between a and b")),
    SearchKind.MNS: ("no d before b with db an edge and dc a non-edge",
                     partial(_label_violation, "before b")),
}


def check_point_condition(g: Graph, sigma,
                          kind: SearchKind) -> tuple[bool, Optional[PointViolation]]:
    """Decide the kind's three-point condition, for any permutation (the
    generic prefix condition is not checked); on failure, report the first
    violation in (pos a, pos b, pos c) order."""
    order = _as_ordering(g, sigma)
    # prefix[i] = bitmask of the first i vertices of the ordering
    prefix = [0] * (len(order) + 1)
    for i, v in enumerate(order):
        prefix[i + 1] = prefix[i] | 1 << v
    return _point(g, order, prefix, kind)


def _point(g: Graph, order: tuple[int, ...], prefix: list[int],
           kind: SearchKind) -> tuple[bool, Optional[PointViolation]]:
    clause = _CLAUSES.get(kind)
    if clause is None:
        raise ValueError(f"{kind} has no point condition; use is_search_ordering")
    reason, find = clause
    hit = find(g.adj, order, prefix)
    if hit is None:
        return True, None
    return False, PointViolation(*hit, kind, reason)


def _is_mcs_order(g: Graph, order: tuple[int, ...]) -> tuple[bool, Optional[int]]:
    """Maximum-cardinality selection: buckets[k] holds the unvisited
    vertices with k visited neighbours, and the last bucket is never empty.
    The witness is the first vertex visited outside the last bucket."""
    adj = g.adj
    buckets = [(1 << g.n) - 1]
    for v in order:
        if not buckets[-1] >> v & 1:
            return False, v
        buckets[-1] ^= 1 << v
        # every unvisited neighbour of v moves up one bucket
        up = 0
        for k, bucket in enumerate(buckets):
            moved = bucket & adj[v]
            buckets[k] = bucket ^ moved | up
            up = moved
        if up:
            buckets.append(up)
        while buckets and not buckets[-1]:
            buckets.pop()
    return True, None


def is_search_ordering(g: Graph, sigma,
                       kind: SearchKind) -> tuple[bool, Witness]:
    """Decide membership of sigma in the paradigm's set of orderings."""
    require_connected(g)
    order = _as_ordering(g, sigma)
    offender, prefix = _generic(g, order)
    if offender is not None or kind is SearchKind.GENERIC:
        return offender is None, offender
    if kind is SearchKind.MCS:
        return _is_mcs_order(g, order)
    return _point(g, order, prefix, kind)
