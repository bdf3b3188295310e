"""Forbidden-subgraph detectors and structural class recognition.

Detectors enumerate vertex subsets directly (trivial at n <= 12 and
obviously correct); the structural recognizers are independent of them,
and the test suite cross-checks the two paths exhaustively.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations, permutations
from typing import Optional

from .graphs import (Graph, DisconnectedGraphError, bits, component_mask,
                     is_connected)

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


def _embedding_table(edges: frozenset) -> dict[int, tuple[int, ...]]:
    """Induced-edge signature of a sorted 4-subset -> the lexicographically
    first permutation ``p`` such that position ``i`` of the pattern maps to
    the subset's ``p[i]``-th vertex.  Bit ``k`` of a signature is the
    ``k``-th pair of ``combinations(range(4), 2)``."""
    table: dict[int, tuple[int, ...]] = {}
    for perm in permutations(range(4)):
        image = {frozenset((perm[i], perm[j])) for i, j in edges}
        signature = sum(1 << k for k, pair in enumerate(combinations(range(4), 2))
                        if frozenset(pair) in image)
        table.setdefault(signature, perm)
    return table


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


def find_induced_small(g: Graph, pattern: str) -> Optional[PatternHit]:
    """Lexicographically first induced embedding of a 4-vertex pattern."""
    try:
        table = _EMBEDDINGS[pattern]
    except KeyError:
        raise ValueError(f"unknown 4-vertex pattern {pattern!r}") from None
    adj = g.adj
    for quad in combinations(range(g.n), 4):
        a, b, c, d = quad
        perm = table.get(adj[a] >> b & 1 | (adj[a] >> c & 1) << 1
                         | (adj[a] >> d & 1) << 2 | (adj[b] >> c & 1) << 3
                         | (adj[b] >> d & 1) << 4 | (adj[c] >> d & 1) << 5)
        if perm is not None:
            return PatternHit(pattern, tuple(quad[i] for i in perm))
    return None


def _induced_cycles(g: Graph):
    """Yield chordless cycles (length >= 3) as vertex tuples in cyclic order.

    Each cycle appears once: it starts at its smallest vertex and its
    second vertex is smaller than its last.
    """
    adj = g.adj
    for s in range(g.n):
        later = ~((2 << s) - 1)  # the vertices after s
        stack = [((s,), 1 << s)]  # chordless paths from s, with their masks
        while stack:
            path, path_mask = stack.pop()
            last = path[-1]
            for w in bits(adj[last] & later & ~path_mask):
                # w may touch the path only at `last`, plus s when closing
                others = adj[w] & path_mask & ~(1 << last)
                if others & ~(1 << s):
                    continue  # chord to an interior path vertex
                if others:
                    # w closes the cycle; one orientation per cycle
                    if path[1] < w:
                        yield path + (w,)
                    continue  # extending past w would leave the sw chord
                stack.append((path + (w,), path_mask | 1 << w))


def find_induced_pan(g: Graph) -> Optional[PatternHit]:
    """An induced k-pan (k >= 3), if one exists: a chordless cycle plus a
    vertex adjacent to exactly one cycle vertex.  Of all of them, it is
    the one with the shortest cycle, and among those the one whose
    ``vertices`` tuple is lexicographically smallest."""
    best = None
    for cycle in _induced_cycles(g):
        k = len(cycle)
        cycle_mask = 0
        for v in cycle:
            cycle_mask |= 1 << v
        for p in range(g.n):
            if cycle_mask >> p & 1:
                continue
            touched = g.adj[p] & cycle_mask
            if touched.bit_count() != 1:
                continue
            attach = touched.bit_length() - 1
            i = cycle.index(attach)
            rotated = cycle[i:] + cycle[:i]
            hit = PatternHit(PAN, rotated + (p,), k=k)
            if best is None or (hit.k, hit.vertices) < (best.k, best.vertices):
                best = hit
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


def is_star(g: Graph) -> bool:
    if g.n <= 2:
        return True
    centers = [v for v in range(g.n) if g.degree(v) == g.n - 1]
    return (len(centers) == 1
            and g.edge_count == g.n - 1)


def is_clique(g: Graph) -> bool:
    return all(g.degree(v) == g.n - 1 for v in range(g.n))


def is_cycle_ge4(g: Graph) -> bool:
    return (g.n >= 4 and is_connected(g)
            and all(g.degree(v) == 2 for v in range(g.n)))


def is_forest(g: Graph) -> bool:
    # acyclic iff every component has |edges| = |vertices| - 1
    components = 0
    rest = (1 << g.n) - 1
    while rest:
        rest &= ~component_mask(g, (rest & -rest).bit_length() - 1)
        components += 1
    return g.edge_count == g.n - components


def is_complete_bipartite(g: Graph) -> bool:
    """Vertex 0's neighbourhood is one side and the other vertices the
    other: every vertex must be adjacent to exactly the opposite side.
    Both sides are non-empty, so the graph is connected."""
    if g.n <= 1:
        return True
    side = g.adj[0]
    rest = ((1 << g.n) - 1) & ~side
    return side != 0 and all(g.adj[v] == (rest if side >> v & 1 else side)
                             for v in range(g.n))


def is_complete_multipartite(g: Graph) -> bool:
    """Non-adjacent vertices have equal neighbourhoods.  Non-adjacency is
    then transitive, so the complement is a disjoint union of cliques."""
    adj = g.adj
    return all(adj[u] == adj[v] for u, v in combinations(range(g.n), 2)
               if not adj[u] >> v & 1)


def is_triangle_free(g: Graph) -> bool:
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.adj[u] >> v & 1 and g.adj[u] & g.adj[v]:
                return False
    return True


def is_trivially_perfect(g: Graph) -> bool:
    """Universal-vertex peeling: every connected induced piece must have a
    universal vertex."""
    work = [(1 << g.n) - 1]  # vertex sets still to peel
    while work:
        mask = work.pop()
        rest = mask
        while rest:
            comp = component_mask(g, (rest & -rest).bit_length() - 1, mask)
            if comp.bit_count() > 1:
                universal = next((v for v in bits(comp)
                                  if g.adj[v] & comp == comp & ~(1 << v)), None)
                if universal is None:
                    return False
                work.append(comp & ~(1 << universal))
            rest &= ~comp
    return True


def recognize_structure(g: Graph) -> ClassLabel:
    """All structural flags at once; connectivity-dependent flags are None
    on disconnected input."""
    connected = is_connected(g)
    forest = is_forest(g)
    triangle_free = is_triangle_free(g)
    if not connected:
        return ClassLabel(star=None, clique=None, cycle_ge4=None, tree=None,
                          forest=forest, complete_bipartite=None,
                          complete_multipartite=None,
                          triangle_free=triangle_free,
                          trivially_perfect=None, class_a=None, class_b=None,
                          class_c=None)
    star = is_star(g)
    clique = is_clique(g)
    cycle = is_cycle_ge4(g)
    tree = forest
    bipartite = is_complete_bipartite(g)
    multipartite = is_complete_multipartite(g)
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
