"""Simple undirected graphs on dense integer vertices, with graph6 and
edge-list ingestion.

Adjacency is kept as one bitmask per vertex (graphs here never exceed a
few dozen vertices), which makes the candidate-set intersections in the
search executors and the pair scans in the validators cheap.
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


def parse_graph6(line: str) -> Graph:
    """Decode one short-form graph6 record (n <= 62, nauty bit layout)."""
    text = line.strip()
    if text.startswith(_G6_HEADER):
        text = text[len(_G6_HEADER):]
    if not text:
        raise Graph6ParseError("empty graph6 record", offset=0)
    for i, byte in enumerate(map(ord, text)):
        if not 63 <= byte <= 126:
            raise Graph6ParseError(f"non-printable graph6 byte {byte}", offset=i)
    data = text.encode("ascii")
    if data[0] == 126:
        raise Graph6ParseError("long-form graph6 (n > 62) not supported", offset=0)
    n = data[0] - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[1:]
    if len(body) < nbytes:
        raise Graph6ParseError(
            f"graph6 body too short: need {nbytes} bytes, got {len(body)}",
            offset=len(data))
    if len(body) > nbytes:
        raise Graph6ParseError("trailing garbage after graph6 body",
                               offset=1 + nbytes)
    bits = 0
    for byte in body:
        bits = bits << 6 | (byte - 63)
    total = 6 * nbytes
    # Upper triangle in column order: (0,1), (0,2), (1,2), (0,3), ...
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits >> (total - 1 - idx) & 1:
                edges.append((u, v))
            idx += 1
    # nauty pads with zero bits
    for pad in range(idx, total):
        if bits >> (total - 1 - pad) & 1:
            raise Graph6ParseError("nonzero padding bit in graph6 body",
                                   offset=1 + pad // 6)
    return Graph(n, edges)


def emit_graph6(g: Graph) -> str:
    """Encode a graph as a short-form graph6 string (n <= 62)."""
    if g.n > 62:
        raise UnsupportedSizeError(f"graph6 short form requires n <= 62, got {g.n}")
    n = g.n
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if g.has_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(63 + n)]
    for i in range(0, len(bits), 6):
        value = 0
        for b in bits[i:i + 6]:
            value = value << 1 | b
        out.append(chr(63 + value))
    return "".join(out)


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
    saw_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if not saw_content and tokens[0] == "n":
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
            saw_content = True
            continue
        saw_content = True
        if len(tokens) % 2:
            raise EdgeListParseError("odd number of vertex tokens", line=lineno)
        for i in range(0, len(tokens), 2):
            try:
                u, v = int(tokens[i]), int(tokens[i + 1])
            except ValueError:
                raise EdgeListParseError(
                    f"non-integer vertex token on line", line=lineno) from None
            if u < 0 or v < 0:
                raise EdgeListParseError(f"negative vertex index", line=lineno)
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

def component_mask(g: Graph, start: int, within: int = -1) -> int:
    """Bitmask of the vertices reachable from ``start`` without leaving the
    vertex set ``within`` (a bitmask that contains ``start``)."""
    seen = frontier = 1 << start
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= g.adj[low.bit_length() - 1]
            m ^= low
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


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
