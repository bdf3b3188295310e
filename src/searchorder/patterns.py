"""Forbidden-subgraph detectors and structural class recognition.

The 4-vertex detectors walk the pairs b < c of the radius-3 ball around
each vertex a, over the vertices from a on, and find the first d by one
mask per table row, so sparse graphs cost little; no 4-subset scan,
which is O(n^4) when the pattern is absent.  The four patterns of one
graph share the balls, each built by the first search that reaches its
vertex.  Dense pattern-free graphs
stay cubic: K100,100 takes 0.8-1.5 s per absent pattern.  The k-pan
detector first tries the triangles through each vertex in turn, one mask
of pendants per triangle.  Without a 3-pan (a paw), each component is
triangle-free or complete multipartite (Olariu 1988), which holds no
pan, so over the vertices on no triangle it finds the shortest pan cycle
k* by breadth-first search, then lists only the chordless cycles that
can still close at length k*, so it stays fast where listing every
chordless cycle is exponential, as on grids.  The structural
recognizers use no detector, and the test suite cross-checks the two
paths exhaustively; a connected graph is a tree iff it has n - 1 edges,
so only disconnected input needs a component count for ``forest``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import combinations, islice, permutations
from typing import Optional

from .graphs import (Graph, DisconnectedGraphError, balls, bits,
                     component_mask, is_connected)

P4 = "P4"
C4 = "C4"
PAW = "paw"
DIAMOND = "diamond"
PAN = "pan"

# Edge sets on canonical positions 0..3.  Paw: triangle 0,1,2 with the
# pendant 3 hanging off 2.  Diamond: 4-cycle 0-1-2-3 plus chord 0-2.
_SMALL_PATTERN_EDGES = {
    P4: frozenset({(0, 1), (1, 2), (2, 3)}),
    C4: frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}),
    PAW: frozenset({(0, 1), (1, 2), (0, 2), (2, 3)}),
    DIAMOND: frozenset({(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)}),
}


def _embedding_table(edges: frozenset) -> dict[int, tuple[tuple, ...]]:
    """The rows that complete the first three vertices a < b < c of a
    sorted 4-subset a, b, c, d to the pattern, keyed by the adjacencies
    among them: bit 0 is ab, bit 1 ac and bit 2 bc.  A row
    ``(fa, fb, fc, perm)`` gives the adjacencies ad, bd and cd as masks to
    XOR a neighbourhood with, 0 for adjacent and -1 for not, and ``perm``
    the lexicographically first permutation such that position ``i`` of
    the pattern maps to the subset's ``perm[i]``-th vertex."""
    first: dict[tuple[bool, ...], tuple[int, ...]] = {}
    for perm in permutations(range(4)):
        image = {frozenset((perm[i], perm[j])) for i, j in edges}
        first.setdefault(tuple(frozenset(pair) in image
                               for pair in combinations(range(4), 2)), perm)
    table: dict[int, list[tuple]] = {}
    for (ab, ac, ad, bc, bd, cd), perm in first.items():
        table.setdefault(ab | ac << 1 | bc << 2, []).append(
            (ad - 1, bd - 1, cd - 1, perm))  # True - 1 == 0, False - 1 == -1
    return {key: tuple(rows) for key, rows in table.items()}


_EMBEDDINGS = {name: _embedding_table(edges)
               for name, edges in _SMALL_PATTERN_EDGES.items()}


@dataclass(frozen=True)
class PatternHit:
    """An induced embedding; vertices are listed in canonical pattern order
    (for a k-pan: cycle in cyclic order starting at the attachment vertex,
    then the pendant)."""

    pattern: str
    vertices: tuple[int, ...]
    k: Optional[int] = None  # cycle length, pans only

    def to_dict(self) -> dict:
        d = {"pattern": self.pattern, "vertices": list(self.vertices)}
        if self.k is not None:
            d["k"] = self.k
        return d


@lru_cache(maxsize=1)
def _radius3_balls(g: Graph) -> list[int]:
    """g's radius-3 balls so far: at index a, the ball around a over the
    vertices from a on, for each a that ``find_induced_small`` has reached
    on g; it appends the rest as it reaches them.  Remembered for the last
    graph: a classification asks for all four patterns in a row."""
    return []


def find_induced_small(g: Graph, pattern: str) -> Optional[PatternHit]:
    """Lexicographically first induced embedding of a 4-vertex pattern.

    Every pattern is connected with diameter at most 3, so the first hit
    a < b < c < d, as a sorted 4-subset, has b, c and d in the radius-3
    ball around a over the vertices from a on.  For each b < c in that
    ball, the adjacencies ab, ac and bc pick rows of ``_EMBEDDINGS``; a
    row's d-mask is the ball after c, ANDed with N(a), N(b), N(c) or
    their complements, and the least lowest bit over the rows is the
    first d.  Rows with different adjacencies have disjoint d-masks, so
    d picks the row, and with it the vertex order.  The balls come from
    ``_radius3_balls``, so the four patterns of one graph build each ball
    once.
    """
    try:
        table = _EMBEDDINGS[pattern]
    except KeyError:
        raise ValueError(f"unknown 4-vertex pattern {pattern!r}") from None
    adj = g.adj
    known = _radius3_balls(g)
    for a in range(g.n - 3):
        na = adj[a]
        if a < len(known):
            ball = known[a]
        else:
            *_, ball = islice(balls(g, a, -1 << a), 4)
            known.append(ball)
        rest_b = ball ^ 1 << a
        while rest_b:
            low_b = rest_b & -rest_b
            rest_b ^= low_b
            nb = adj[low_b.bit_length() - 1]
            ab = 1 if na & low_b else 0
            rest_c = ball & -(low_b << 1)
            while rest_c:
                low_c = rest_c & -rest_c
                rest_c ^= low_c  # now the ball after c
                rows = table.get(ab | (2 if na & low_c else 0)
                                 | (4 if nb & low_c else 0))
                if not rows:
                    continue
                nc = adj[low_c.bit_length() - 1]
                d = found = 0
                for fa, fb, fc, perm in rows:
                    mask = rest_c & (na ^ fa) & (nb ^ fb) & (nc ^ fc)
                    low = mask & -mask
                    if low and (not d or low < d):
                        d, found = low, perm
                if d:
                    quad = (a, low_b.bit_length() - 1, low_c.bit_length() - 1,
                            d.bit_length() - 1)
                    return PatternHit(pattern, tuple(quad[i] for i in found))
    return None


def _least_3_pan(adj: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """The smallest 3-pan tuple: a triangle in cyclic order from its least
    vertex, rotated to start at the attachment a, then the least pendant.
    Every tuple starts with its a, so the first a with any 3-pan gives
    it.  A triangle a, u, v with u < v has the pendants
    N(a) - N[u] - N[v]; a u with N(a) inside N[u] has none, which keeps
    cliques quadratic."""
    for a, na in enumerate(adj):
        best = None
        rest_u = na
        while rest_u:
            low_u = rest_u & -rest_u
            rest_u ^= low_u
            nu = adj[low_u.bit_length() - 1]
            outside = na & ~nu & ~low_u  # N(a) - N[u]
            if not outside:
                continue
            rest_v = na & nu & -(low_u << 1)  # the v > u
            while rest_v:
                low_v = rest_v & -rest_v
                rest_v ^= low_v
                pendants = outside & ~adj[low_v.bit_length() - 1]
                if pendants:
                    u, v = low_u.bit_length() - 1, low_v.bit_length() - 1
                    hit = ((a, v, u) if u < a < v else (a, u, v)) + (
                        (pendants & -pendants).bit_length() - 1,)
                    if best is None or hit < best:
                        best = hit
        if best is not None:
            return best
    return None


def _shortest_pan_cycle(g: Graph, free: int) -> Optional[int]:
    """The shortest cycle of any induced pan of g, or None if g has none;
    ``free`` must be triangle-free components of g that hold every pan.

    A k-pan with pendant p on a is a chordless cycle through a that avoids
    N[p] except at a.  Through a's neighbours b and c other than p, which
    are outside N(p) and not adjacent (no triangle), the cycle's shortest
    length is 2 plus the distance from b to c over vertices outside N[a]
    and N[p] (a shortest path is chordless, and its interior misses N(a)).
    The ends b are walked from the top down, so the c > b are met by one
    mask, the union of their neighbourhoods.
    """
    adj = g.adj
    best = None
    for a in bits(free):
        for p in bits(adj[a]):
            ends = adj[a] & ~(1 << p)
            inner = ~(adj[a] | adj[p])
            touch = 0  # N(c) over the ends c above b
            while ends:
                b = ends.bit_length() - 1
                ends ^= 1 << b
                if touch:
                    # the ball of radius r around b closes cycles of length r + 3
                    for r, ball in enumerate(balls(g, b, inner | 1 << b)):
                        if best is not None and r + 3 >= best:
                            break
                        if touch & ball:
                            if r == 1:
                                return 4  # nothing shorter remains
                            best = r + 3
                            break
                touch |= adj[b]
    return best


def find_induced_pan(g: Graph) -> Optional[PatternHit]:
    """An induced k-pan (k >= 3), if one exists: a chordless cycle plus a
    vertex adjacent to exactly one cycle vertex.  Of all of them, it is
    the one with the shortest cycle, and among those the one whose
    ``vertices`` tuple is lexicographically smallest.

    Three steps.  First the 3-pans, by ``_least_3_pan``: one mask per
    triangle a, u, v through each a, and none past the first a that has
    one.  Without a 3-pan, each component of g is paw-free, so by Olariu
    (1988) triangle-free or complete multipartite, and one of the latter
    with a triangle has every vertex on a triangle and holds no pan: the
    rest starts only from the vertices on no triangle, the triangle-free
    components.  Next the shortest pan cycle k*, by at most one
    breadth-first search per (a, p, b) of ``_shortest_pan_cycle``: about
    m * maxdeg searches of O(n + m) each.  Then the chordless cycles of
    length k*, each listed once (smallest vertex s first, second vertex
    smaller than the last) by extending chordless paths from s over the
    vertices after s, and each tried with every pendant.  A path is cut
    as soon as it can no longer close at length k*: when its length plus
    the next vertex's distance back to s exceeds k*.  Those distances
    come from one search per s, stopped at depth k* // 2.  Only paths of
    fewer than k* vertices are ever extended, so the listing is
    polynomial for a fixed k*, though it can still grow exponentially
    with k*.
    """
    adj = g.adj
    triangle = _least_3_pan(adj)
    if triangle is not None:
        return PatternHit(PAN, triangle, k=3)
    free = 0  # the vertices on no triangle: their neighbourhood is independent
    for v, nv in enumerate(adj):
        rest = nv  # v's neighbours from the first on a triangle with v
        while rest and not adj[(rest & -rest).bit_length() - 1] & nv:
            rest &= rest - 1
        if not rest:
            free |= 1 << v
    k = _shortest_pan_cycle(g, free)
    if k is None:
        return None
    best = None  # the smallest (rotated cycle + pendant) tuple so far
    for s in bits(free):
        if best is not None and best[0] < s:
            break  # every later cycle, and its attachment, lies past s
        later = -(2 << s)
        # radii[r]: the vertices within r of s, over s and the vertices
        # after it.  A budget past them cuts nothing: either the path then
        # holds fewer than k / 2 vertices, so the next one lies within its
        # budget of s, or the last ball already holds all s can reach.
        radii = list(islice(balls(g, s, later | 1 << s), k // 2 + 1))
        path = [s]  # a chordless path from s
        path_mask = 1 << s
        stack = [adj[s] & later]  # per path vertex: the next vertices to try
        while stack:
            rest = stack[-1]
            if not rest:
                stack.pop()
                path_mask ^= 1 << path.pop()
                continue
            low = rest & -rest
            stack[-1] = rest ^ low
            w = low.bit_length() - 1
            # w touches the path s = p_0, ..., p_m (at most k* - 1
            # vertices) at p_m, and elsewhere only at s: were p_i the last
            # interior vertex it touched (i <= m - 2, no triangle), then
            # p_i, ..., p_m, w would be a chordless cycle of at most k* - 1
            # vertices with the pendant p_(i-1), since touching w would
            # close a triangle: a pan shorter than k*.
            if adj[w] & path_mask & ~(1 << path[-1]):
                # w closes the cycle; one orientation per cycle, length k*
                if len(path) + 1 == k and path[1] < w:
                    best = _best_pendant(adj, (*path, w), path_mask | low, best)
                continue  # extending past w would leave the sw chord
            path.append(w)
            path_mask |= low
            budget = k - len(path)  # the most the next vertex may lie from s
            stack.append(adj[w] & later & ~path_mask
                         & (radii[budget] if budget < len(radii) else -1))
    return PatternHit(PAN, best, k=k)


def _best_pendant(adj: tuple[int, ...], cycle: tuple[int, ...],
                  cycle_mask: int,
                  best: Optional[tuple[int, ...]]) -> Optional[tuple[int, ...]]:
    """The smaller of ``best`` and the smallest tuple ``cycle`` gives: the
    cycle rotated to start at a pendant's attachment vertex, then that
    pendant, over every vertex adjacent to exactly one cycle vertex.  Such
    a tuple starts with its attachment, so the cycle's smallest comes from
    its least attachment with a pendant and that attachment's least
    pendant, and attachments past ``best[0]`` cannot win."""
    once = twice = 0  # the vertices adjacent to at least one, two cycle vertices
    for v in cycle:
        twice |= once & adj[v]
        once |= adj[v]
    pendants = once & ~twice & ~cycle_mask
    for v in bits(cycle_mask):
        if best is not None and v > best[0]:
            break
        mine = adj[v] & pendants
        if mine:
            i = cycle.index(v)
            hit = cycle[i:] + cycle[:i] + ((mine & -mine).bit_length() - 1,)
            return hit if best is None or hit < best else best
    return best


# class flag -> its forbidden induced subgraphs (Theorems A, B and C), in
# the order find_forbidden tries them; PAN stands for every k-pan, k >= 3
FORBIDDEN = {
    "class_a": (P4, C4, PAW, DIAMOND),
    "class_b": (PAN, DIAMOND),
    "class_c": (P4, C4),
}


def find_forbidden(g: Graph, flag: str) -> Optional[PatternHit]:
    """The first of ``FORBIDDEN[flag]``, in that order, that g contains
    as an induced subgraph, or None if it contains none of them."""
    for pattern in FORBIDDEN[flag]:
        hit = (find_induced_pan(g) if pattern == PAN
               else find_induced_small(g, pattern))
        if hit:
            return hit
    return None


# -- structural recognizers --------------------------------------------

@dataclass(frozen=True)
class ClassLabel:
    """Structural flags; the class-* flags require connectivity and are
    None for disconnected input."""

    star: Optional[bool]
    clique: Optional[bool]
    cycle_ge4: Optional[bool]
    tree: Optional[bool]
    forest: bool
    complete_bipartite: Optional[bool]
    complete_multipartite: Optional[bool]
    triangle_free: bool
    trivially_perfect: Optional[bool]
    class_a: Optional[bool]
    class_b: Optional[bool]
    class_c: Optional[bool]

    def to_dict(self) -> dict:
        return asdict(self)


def is_forest(g: Graph) -> bool:
    # acyclic iff every component has |edges| = |vertices| - 1
    components = 0
    rest = (1 << g.n) - 1
    while rest:
        rest &= ~component_mask(g, (rest & -rest).bit_length() - 1)
        components += 1
    return g.edge_count == g.n - components


def is_complete_multipartite(g: Graph) -> bool:
    """Non-adjacent vertices have equal neighbourhoods.  Non-adjacency is
    then transitive, so the complement is a disjoint union of cliques."""
    adj = g.adj
    return all(adj[u] == adj[v] for v in range(g.n)
               for u in bits(~adj[v] & ((1 << v) - 1)))


def is_triangle_free(g: Graph) -> bool:
    adj = g.adj
    return not any(adj[u] & adj[v] for u in range(g.n)
                   for v in bits(adj[u] & -(2 << u)))


def is_trivially_perfect(g: Graph) -> bool:
    """Every edge uv has N[u] inside N[v] or N[v] inside N[u] (Golumbic
    1978): the closed neighbourhoods along each edge are nested."""
    closed = [mask | 1 << v for v, mask in enumerate(g.adj)]
    for u, cu in enumerate(closed):
        for v in bits(cu & -(2 << u)):
            both = cu & closed[v]
            if both != cu and both != closed[v]:
                return False
    return True


@lru_cache(maxsize=1)
def recognize_structure(g: Graph) -> ClassLabel:
    """All structural flags at once; connectivity-dependent flags are None
    on disconnected input.  Remembered for the last graph: a scan checks
    every theorem on one graph before it moves to the next."""
    connected = is_connected(g)
    # a connected graph is a tree iff it has n - 1 edges; the empty graph
    # is a forest with 0 != -1 edges
    forest = (g.edge_count == g.n - 1 if connected and g.n
              else is_forest(g))
    triangle_free = is_triangle_free(g)
    if not connected:
        return ClassLabel(star=None, clique=None, cycle_ge4=None, tree=None,
                          forest=forest, complete_bipartite=None,
                          complete_multipartite=None,
                          triangle_free=triangle_free,
                          trivially_perfect=None, class_a=None, class_b=None,
                          class_c=None)
    # connected: a tree with a vertex of degree n - 1 is a star, and a
    # 2-regular graph is one cycle
    n = g.n
    degrees = {mask.bit_count() for mask in g.adj}
    clique = degrees <= {n - 1}
    star = n <= 2 or (forest and n - 1 in degrees)
    cycle = n >= 4 and degrees == {2}
    tree = forest
    multipartite = is_complete_multipartite(g)
    # a complete multipartite graph without a triangle has at most two
    # parts, and it is connected
    bipartite = multipartite and triangle_free
    tp = is_trivially_perfect(g)
    return ClassLabel(
        star=star, clique=clique, cycle_ge4=cycle, tree=tree, forest=forest,
        complete_bipartite=bipartite, complete_multipartite=multipartite,
        triangle_free=triangle_free, trivially_perfect=tp,
        class_a=star or clique,
        class_b=tree or cycle or clique or bipartite,
        class_c=tp,
    )


@dataclass(frozen=True)
class PawFreeVerdict:
    verdict: str  # "triangle-free" | "complete-multipartite" | "contains-paw"
    hit: Optional[PatternHit] = None


def paw_free_decomposition(g: Graph) -> PawFreeVerdict:
    """Olariu's trichotomy for connected graphs."""
    if not is_connected(g):
        raise DisconnectedGraphError("paw_free_decomposition requires a connected graph")
    hit = find_induced_small(g, PAW)
    if hit is not None:
        return PawFreeVerdict("contains-paw", hit)
    if is_triangle_free(g):
        return PawFreeVerdict("triangle-free")
    if not is_complete_multipartite(g):
        raise AssertionError("paw-free graph neither triangle-free nor "
                             "complete multipartite; recognizer bug")
    return PawFreeVerdict("complete-multipartite")
