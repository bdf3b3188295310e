"""Exhaustive inventories of small connected graphs, one per isomorphism
class, plus the canonical form used to deduplicate them.

The scan workload ships with a frozen graph6 inventory of all connected
graphs on 1..7 vertices (996 of them); this module can regenerate it and
extend to n=8 for the structural sweeps.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from itertools import permutations, product

from .graphs import Graph, parse_graph6

# number of connected graphs on n vertices up to isomorphism (n = 1..8)
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

INVENTORY_RESOURCE = "connected_1_7.g6"


def _refined_colors(g: Graph) -> list[int]:
    """Iterated neighbor-color refinement, seeded with degree and local
    triangle count; isomorphism-invariant by construction."""
    n = g.n
    colors = []
    for v in range(n):
        triangles = sum((g.adj[v] & g.adj[u]).bit_count()
                        for u in g.neighbors(v)) // 2
        colors.append((g.degree(v), triangles))
    ranks = {c: i for i, c in enumerate(sorted(set(colors)))}
    colors = [ranks[c] for c in colors]
    while True:
        refined = [(colors[v], tuple(sorted(colors[u] for u in g.neighbors(v))))
                   for v in range(n)]
        ranks = {c: i for i, c in enumerate(sorted(set(refined)))}
        new_colors = [ranks[c] for c in refined]
        if new_colors == colors:
            return colors
        colors = new_colors


def canonical_key(g: Graph) -> tuple:
    """Canonical invariant: the minimum upper-triangle bit pattern over all
    vertex relabelings that respect the refined color classes.  Two graphs
    are isomorphic iff their keys are equal."""
    n = g.n
    if n <= 1:
        return (n, 0)
    colors = _refined_colors(g)
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    ordered_classes = [classes[c] for c in sorted(classes)]
    best = None
    for perm_parts in product(*(permutations(cls) for cls in ordered_classes)):
        old_order = [v for part in perm_parts for v in part]
        pos = [0] * n
        for new, old in enumerate(old_order):
            pos[old] = new
        bits = 0
        for u in range(n):
            pu = pos[u]
            mask = g.adj[u]
            while mask:
                low = mask & -mask
                pv = pos[low.bit_length() - 1]
                if pu < pv:
                    bits |= 1 << (pu * n + pv)
                mask ^= low
        if best is None or bits < best:
            best = bits
    return (n, best)


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[Graph, ...]:
    """All connected graphs on n vertices, one per isomorphism class.

    Built by augmenting each (n-1)-vertex connected graph with one new
    vertex joined to every nonempty subset of the old vertices; every
    connected graph contains a non-cut vertex, so nothing is missed.
    """
    if n < 1:
        return ()
    if n == 1:
        return (Graph(1),)
    seen: dict[tuple, Graph] = {}
    new = n - 1
    for parent in connected_graphs(n - 1):
        base_edges = parent.edges()
        for subset in range(1, 1 << (n - 1)):
            edges = list(base_edges)
            m = subset
            while m:
                low = m & -m
                edges.append((low.bit_length() - 1, new))
                m ^= low
            g = Graph(n, edges)
            key = canonical_key(g)
            if key not in seen:
                seen[key] = g
    if n in CONNECTED_COUNTS and len(seen) != CONNECTED_COUNTS[n]:
        raise AssertionError(
            f"expected {CONNECTED_COUNTS[n]} connected graphs on {n} vertices, "
            f"generated {len(seen)}")
    return tuple(seen[key] for key in sorted(seen))


def load_packaged_inventory() -> list[str]:
    """The frozen graph6 inventory of all connected graphs on 1..7 vertices."""
    text = (resources.files("searchorder.data") / INVENTORY_RESOURCE).read_text()
    return [line for line in text.splitlines() if line.strip()]


def load_packaged_graphs() -> list[Graph]:
    return [parse_graph6(line) for line in load_packaged_inventory()]
