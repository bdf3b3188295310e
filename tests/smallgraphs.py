"""Named small graphs used throughout the test suite.

Vertices are integers; where a graph is traditionally drawn with letter
labels a, b, c, ... the tests map a=0, b=1, c=2, d=3, e=4.
"""

from searchorder import Graph


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def grid(rows: int, cols: int) -> Graph:
    """Vertex r * cols + c at row r and column c, joined to its right and
    lower neighbours."""
    return Graph(rows * cols,
                 [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
                 + [(v, v + cols) for v in range((rows - 1) * cols)])


def star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def complete_multipartite(*parts: int) -> Graph:
    n = sum(parts)
    bounds = []
    start = 0
    for p in parts:
        bounds.append(range(start, start + p))
        start += p
    edges = [(u, v)
             for i, pu in enumerate(bounds) for pv in bounds[i + 1:]
             for u in pu for v in pv]
    return Graph(n, edges)


def hypercube(d: int) -> Graph:
    """Vertices 0..2^d - 1, joined when they differ in one bit."""
    return Graph(1 << d, [(v, v | 1 << i) for v in range(1 << d)
                          for i in range(d) if not v >> i & 1])


def petersen() -> Graph:
    """Outer 5-cycle 0..4, spokes i-(i+5), inner pentagram on 5..9."""
    return Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def relabeled(g: Graph, perm) -> Graph:
    """The graph with vertex v renamed perm[v]."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def pan(k: int) -> Graph:
    """k-cycle 0..k-1 plus pendant vertex k attached to vertex 0."""
    return Graph(k + 1, [(i, (i + 1) % k) for i in range(k)] + [(0, k)])


def paw() -> Graph:
    """Triangle a, b, c with pendant d attached to c."""
    return Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])


def diamond() -> Graph:
    """K4 minus the edge b-d (edges ab, bc, cd, da, ac)."""
    return Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])


def bull() -> Graph:
    """Triangle a, b, c with pendants d on b and e on c."""
    return Graph(5, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 4)])


def sixcycle_with_handle() -> Graph:
    """6-cycle v1..v6 (0..5) plus a path v3-v-u-v1 (v=7, u=6): removing u
    leaves a 6-pan."""
    return Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                     (2, 7), (7, 6), (6, 0)])


# Every connected five-vertex graph that has an ordering which is MNS-valid
# and MCS-invalid, one per isomorphism class, each paired with such an
# ordering (letters a..e = 0..4).  No graph on four or fewer vertices has
# one.
MNS_NOT_MCS_EXAMPLES = [
    (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 2)]),
     (1, 2, 3, 0, 4)),
    (Graph(5, [(2, 0), (0, 1), (1, 2), (2, 3), (3, 4)]),
     (3, 2, 1, 4, 0)),
    (Graph(5, [(2, 0), (0, 1), (1, 3), (3, 2), (2, 4)]),
     (2, 0, 3, 4, 1)),
    (Graph(5, [(2, 0), (0, 1), (1, 3), (3, 2), (2, 4), (3, 0)]),
     (0, 3, 2, 4, 1)),
    (Graph(5, [(1, 4), (4, 0), (0, 1), (1, 2), (2, 3), (3, 0), (2, 4)]),
     (4, 1, 0, 3, 2)),
    (Graph(5, [(2, 3), (3, 1), (1, 4), (4, 2), (2, 0), (0, 1)]),
     (3, 1, 4, 0, 2)),
]

# A seventh candidate example, the gem: the path 0-1-3-4 plus vertex 2
# adjacent to all four.  It has no MNS-valid, MCS-invalid ordering (all 120
# permutations checked), and the paired ordering is not even MNS-valid:
# after the prefix (0, 2), MNS must take 1, labelled {0, 2}, not 4,
# labelled {2}.  Kept so these facts stay pinned.
MNS_NOT_MCS_BROKEN_EXAMPLE = (
    Graph(5, [(1, 2), (2, 3), (3, 1), (1, 0), (0, 2), (2, 4), (4, 3)]),
    (0, 2, 4, 3, 1),
)


def threshold(creation: str) -> Graph:
    """The threshold graph whose vertex v is added isolated where
    creation[v] is '0' and joined to every earlier vertex where it is '1'."""
    return Graph(len(creation), [(u, v) for v, c in enumerate(creation)
                                 if c == "1" for u in range(v)])
