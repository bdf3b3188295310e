"""Simple undirected graphs on dense integer vertices, with graph6 and
edge-list ingestion.

Adjacency is kept as one bitmask per vertex (graphs here never exceed a
few dozen vertices), which makes the candidate-set intersections in the
search executors and the mask sweeps in the validators cheap.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterator, Optional, Sequence


class Graph6ParseError(ValueError):
    """Malformed graph6 input; carries the offending byte offset."""

    def __init__(self, message: str, offset: Optional[int] = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class EdgeListParseError(ValueError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class UnsupportedSizeError(ValueError):
    pass


class DisconnectedGraphError(ValueError):
    pass


def bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Sequence[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop edge ({u}, {u}) not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)

    # -- basic queries -------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return bits(self.adj[v])

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n)
                for v in range(u + 1, self.n) if self.has_edge(u, v)]

    @property
    def edge_count(self) -> int:
        return sum(self.adj[v].bit_count() for v in range(self.n)) // 2

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


# -- graph6 ------------------------------------------------------------

_G6_HEADER = ">>graph6<<"
_SIX_BITS = {63 + v: f"{v:06b}" for v in range(64)}  # body char -> its bits


def _upper_triangle(n: int) -> Iterator[tuple[int, int]]:
    """graph6's pair order, one body bit each: (0,1), (0,2), (1,2), (0,3), ..."""
    return ((u, v) for v in range(1, n) for u in range(v))


def parse_graph6(line: str) -> Graph:
    """Decode one short-form graph6 record (n <= 62, nauty bit layout)."""
    text = line.strip()
    if text.startswith(_G6_HEADER):
        text = text[len(_G6_HEADER):]
    if not text:
        raise Graph6ParseError("empty graph6 record", offset=0)
    for i, char in enumerate(text):
        if not "?" <= char <= "~":
            # an undecodable input byte arrives as a lone surrogate
            raw = char.encode("utf-8", "surrogateescape"
                              if "\udc80" <= char <= "\udcff" else "surrogatepass")
            raise Graph6ParseError(f"non-printable graph6 byte {raw[0]}", offset=i)
    if text[0] == "~":
        raise Graph6ParseError("long-form graph6 (n > 62) not supported", offset=0)
    n = ord(text[0]) - 63
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    body = text[1:]
    if len(body) < nbytes:
        raise Graph6ParseError(
            f"graph6 body too short: need {nbytes} bytes, got {len(body)}",
            offset=len(text))
    if len(body) > nbytes:
        raise Graph6ParseError("trailing garbage after graph6 body",
                               offset=1 + nbytes)
    bitstring = body.translate(_SIX_BITS)
    # nauty pads with zero bits
    pad = bitstring.find("1", npairs)
    if pad >= 0:
        raise Graph6ParseError("nonzero padding bit in graph6 body",
                               offset=1 + pad // 6)
    return Graph(n, [pair for pair, bit in zip(_upper_triangle(n), bitstring)
                     if bit == "1"])


def emit_graph6(g: Graph) -> str:
    """Encode a graph as a short-form graph6 string (n <= 62)."""
    if g.n > 62:
        raise UnsupportedSizeError(f"graph6 short form requires n <= 62, got {g.n}")
    adj = g.adj
    bitstring = "".join(["1" if adj[u] >> v & 1 else "0"
                         for u, v in _upper_triangle(g.n)])
    bitstring += "0" * (-len(bitstring) % 6)
    return chr(63 + g.n) + "".join([chr(63 + int(bitstring[i:i + 6], 2))
                                    for i in range(0, len(bitstring), 6)])


# -- edge lists --------------------------------------------------------

# Far more vertices than any search here can handle, and few enough that a
# mistyped index cannot make ``Graph`` allocate gigabytes.
EDGE_LIST_MAX_VERTICES = 4096


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated vertex pairs, one edge per line.

    An optional leading line ``n <count>`` declares the vertex count;
    otherwise it is max index + 1.  Lines starting with ``#`` are
    comments.  Duplicate edges collapse; loops are rejected.  Every error
    names its line.
    """
    limit = EDGE_LIST_MAX_VERTICES
    declared_n = None
    edges = []
    max_vertex = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if declared_n is None and not edges and tokens[0] == "n":
            if len(tokens) != 2:
                raise EdgeListParseError("malformed vertex-count line", line=lineno)
            try:
                declared_n = int(tokens[1])
            except ValueError:
                raise EdgeListParseError(
                    f"non-integer vertex count {tokens[1]!r}", line=lineno) from None
            if declared_n < 0:
                raise EdgeListParseError("negative vertex count", line=lineno)
            if declared_n > EDGE_LIST_MAX_VERTICES:
                raise EdgeListParseError(
                    f"vertex count {declared_n} exceeds the limit "
                    f"{EDGE_LIST_MAX_VERTICES}", line=lineno)
            limit = declared_n
            continue
        if len(tokens) % 2:
            raise EdgeListParseError("odd number of vertex tokens", line=lineno)
        for i in range(0, len(tokens), 2):
            pair = []
            for token in tokens[i:i + 2]:
                try:
                    vertex = int(token)
                except ValueError:
                    raise EdgeListParseError(
                        f"non-integer vertex token {token!r}", line=lineno) from None
                if vertex < 0:
                    raise EdgeListParseError(
                        f"negative vertex index {token!r}", line=lineno)
                pair.append(vertex)
            u, v = pair
            if u == v:
                raise EdgeListParseError(f"loop edge ({u} {u}) rejected", line=lineno)
            top = max(u, v)
            if top >= limit:
                bound = "declared count" if declared_n is not None else "limit"
                raise EdgeListParseError(
                    f"vertex {top} exceeds {bound} {limit}", line=lineno)
            edges.append((u, v))
            max_vertex = max(max_vertex, top)
    n = declared_n if declared_n is not None else max_vertex + 1
    return Graph(n, edges)


# -- structural helpers ------------------------------------------------

def balls(g: Graph, start: int, within: int = -1) -> Iterator[int]:
    """Breadth-first layers from ``start``: yield the vertices of ``within``
    (a bitmask that contains ``start``) at distance at most 0, 1, 2, ...
    from ``start`` inside ``within``, until the ball stops growing."""
    seen = frontier = 1 << start
    yield seen
    while True:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= g.adj[low.bit_length() - 1]
            m ^= low
        frontier = nxt & within & ~seen
        if not frontier:
            return
        seen |= frontier
        yield seen


def component_mask(g: Graph, start: int, within: int = -1) -> int:
    """Bitmask of the vertices reachable from ``start`` without leaving the
    vertex set ``within`` (a bitmask that contains ``start``): the last of
    its ``balls``."""
    for seen in balls(g, start, within):
        pass
    return seen


@lru_cache(maxsize=1)
def twin_classes(adj: tuple[int, ...]) -> tuple[int, ...]:
    """For each vertex v, the bitmask of v and its twins: the vertices w
    with N(v) - {w} = N(w) - {v}, so that swapping v and w is an
    automorphism.  Remembered for the last adjacency: a theorem check
    walks one graph up to ten times.  Regeneration asks once per parent
    and derives each augmentation's classes from the parent's.

    A twin shares v's open neighbourhood (not adjacent to v) or its closed
    one (adjacent).  No open neighbourhood N(u) equals a closed one N[x],
    or x would be a neighbour of u and u would lie in N(u), so one table
    groups both kinds, and being twins is an equivalence.
    """
    groups: dict[int, int] = {}
    for v, mask in enumerate(adj):
        bit = 1 << v
        groups[mask] = groups.get(mask, 0) | bit
        mask |= bit
        groups[mask] = groups.get(mask, 0) | bit
    return tuple([groups[mask] | groups[mask | 1 << v]
                  for v, mask in enumerate(adj)])


@lru_cache(maxsize=1)
def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0 (vacuous for n <= 1).

    Remembered for the last graph: callers ask many questions about one
    graph in a row, and each of them requires it connected."""
    return g.n <= 1 or component_mask(g, 0) == (1 << g.n) - 1


def require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise DisconnectedGraphError("operation requires a connected graph")


def induced_subgraph(g: Graph, keep: Sequence[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on ``keep`` plus the old->new index mapping."""
    kept = sorted(set(keep))
    for v in kept:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    mapping = {old: new for new, old in enumerate(kept)}
    edges = [(mapping[u], mapping[v])
             for u, v in combinations(kept, 2) if g.has_edge(u, v)]
    return Graph(len(kept), edges), mapping
