"""Exhaustive inventories of small connected graphs, one per isomorphism
class, plus the canonical form used to deduplicate them.

The scan workload ships with a frozen graph6 inventory of all connected
graphs on 1..7 vertices (996 of them); this module regenerates it and
goes on to n = 8 (11,117 graphs, used by the structural sweeps) and
n = 9 (261,080).  Each graph on n vertices is a graph on n - 1 with a
new vertex joined to a subset of the old ones, and subsets in one orbit
of the old graph's automorphism group give isomorphic graphs, so only
the least subset of each orbit is keyed: 4,159 augmentations for
n <= 7 where there are 7,815 subsets, and 67,141 for n = 8 where there
are 108,331.  The key, `canonical_key`, is a branch and bound over the
rows of the adjacency matrix that tries one vertex of each pair of
twins.  Where refinement leaves every color class inside one twin
class, every relabeling that respects the classes gives the key, so it
is read off one of them: 3,032 of the 4,159 keys up to n = 7, of which
955 have one vertex per class.  An augmentation's neighbour lists,
triangle counts and twin classes are derived from its parent's.  So
even symmetric graphs key fast: K9 in about 0.04 ms, the Petersen graph
in about 1.6 ms, and the 71,300 augmentations up to n = 8 in about
26 us each, on a 2-vCPU VM.  The relabelings the search ends with give
the automorphism group that the orbits are taken under."""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from .graphs import Graph, bits, parse_graph6, twin_classes

# number of connected graphs on n vertices up to isomorphism (n = 1..9,
# OEIS A001349)
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117,
                    9: 261080}

INVENTORY_RESOURCE = "connected_1_7.g6"

Invariants = tuple[list[list[int]], list[int], list[int]]


def _invariants(adj: tuple[int, ...]) -> Invariants:
    """What a key is computed from, read off the adjacency masks: each
    vertex's neighbours in ascending order, twice the triangles at it
    (each edge among its neighbours, counted from both ends), and its
    twin class (`graphs.twin_classes`)."""
    nbrs = []
    tri2 = []
    for mask in adj:
        nbr = []
        count = 0
        rest = mask
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            nbr.append(u)
            count += (mask & adj[u]).bit_count()
            rest ^= low
        nbrs.append(nbr)
        tri2.append(count)
    return nbrs, tri2, list(twin_classes(adj))


def _augmented_invariants(adj: tuple[int, ...], invariants: Invariants,
                          subset: int) -> Invariants:
    """`_invariants` of the graph whose masks are `adj` plus a new vertex
    joined to `subset`, derived from the parent's `invariants` in O(n)
    mask steps.

    The new vertex's neighbours are S, and it is appended to the lists of
    the vertices in S; the other lists are the parent's, shared.  A
    vertex v in S gains a triangle with the new vertex for each neighbour
    in S, and the new vertex has one for each edge inside S.  Two old
    vertices are twins in the child iff they were in the parent and lie
    on one side of S, since the new vertex tells the sides apart, and the
    new vertex is a twin of each w with N(w) = S or N[w] = S.  S is not
    both an open and a closed neighbourhood (`graphs.twin_classes`), so
    all such w are twins of one another, and the first found names the
    class.
    """
    nbrs, tri2, twins = invariants
    new = len(adj)
    nbrs = nbrs.copy()
    tri2 = tri2.copy()
    joined = []
    edges2 = 0
    rest = subset
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        common = (adj[v] & subset).bit_count()
        nbrs[v] = nbrs[v] + [new]
        tri2[v] += 2 * common
        edges2 += common
        joined.append(v)
        rest ^= low
    nbrs.append(joined)
    tri2.append(edges2)
    outside = ~subset
    twins = [mask & subset if subset >> v & 1 else mask & outside
             for v, mask in enumerate(twins)]
    own = 1 << new
    for w, mask in enumerate(adj):
        if mask == subset or mask | 1 << w == subset:
            own |= twins[w]
            for u in bits(twins[w]):
                twins[u] = own
            break
    twins.append(own)
    return nbrs, tri2, twins


def _refined_colors(nbrs: list[list[int]], tri2: list[int],
                    twins: list[int]) -> tuple[list[int], int]:
    """Iterated neighbor-color refinement, seeded with degree and local
    triangle count; isomorphism-invariant by construction.  Returns the
    colors and how many there are.

    Each round ranks (old color, sorted neighbor colors), so a round only
    splits classes and keeps their order.  A round that adds no class
    therefore changes no color, and it stops there.  Twins share every
    color (swapping them is an automorphism), so each class is a union of
    twin classes, and a class of twins never splits: it also stops once
    there are as many classes as twin classes (n, where no two vertices
    are twins).  The pair is one flat tuple, which sorts as the pair
    would, since the vertices of a class share a degree.  A vertex alone
    in its class cannot split, and its rank depends only on its old
    color, so its neighbor colors are not gathered.
    """
    n = len(nbrs)
    # the degree, then twice the triangles at v, as one number: twice the
    # triangles is at most deg(v) * (deg(v) - 1) < n * n
    square = n * n
    seeds = [len(nbr) * square + t for nbr, t in zip(nbrs, tri2)]
    ranks = {c: i for i, c in enumerate(sorted(set(seeds)))}
    colors = [ranks[c] for c in seeds]
    count = len(ranks)
    classes = len(set(twins))
    while count < classes:
        sizes = [0] * count
        for c in colors:
            sizes[c] += 1
        color = colors.__getitem__
        refined = [(c, *sorted(map(color, nbr))) if sizes[c] > 1 else (c,)
                   for c, nbr in zip(colors, nbrs)]
        ranks = {c: i for i, c in enumerate(sorted(set(refined)))}
        if len(ranks) == count:
            break
        colors = [ranks[c] for c in refined]
        count = len(ranks)
    return colors, count


def canonical_key(g: Graph) -> tuple:
    """Canonical invariant: the minimum upper-triangle bit pattern over all
    vertex relabelings that respect the refined color classes (class by
    class in color order, each class on a block of positions).  Two
    graphs are isomorphic iff their keys are equal.

    The edge between positions pu < pv is bit pu * n + pv, so row pu (the
    bits of the edges from pu up) outranks every row below it, and the
    minimum is the relabeling whose rows, read from the top, are least.
    Positions are filled from n - 1 down to 0.  At position k each kept
    partial relabeling tries each unplaced vertex x of the class owning k,
    whose row is the set of positions of x's placed neighbors; only the
    placements with the least row are kept, ties included, so every
    relabeling that attains the minimum survives, up to one swap: of two
    unplaced twins (N(x) - {y} = N(y) - {x}) only the lower is tried, since
    swapping them is an automorphism that fixes every placed vertex.  If
    refinement leaves every class inside one twin class (one vertex per
    class, say), any two relabelings differ by twin swaps, so they all
    give the key, and it is read off the one that orders each class by
    vertex.  `_key_and_automorphisms` is the same search, and also
    returns the automorphisms that the surviving relabelings give.
    """
    return _key_and_automorphisms(*_invariants(g.adj))[0]


def _key_and_automorphisms(nbrs: list[list[int]], tri2: list[int],
                           twins: list[int]
                           ) -> tuple[tuple, list[list[int]]]:
    """`canonical_key` of the graph g whose `_invariants` are given, and
    one automorphism of g, as a list mapping each vertex to its
    image, for each coset of the twin-swap group T other than T itself.

    Every relabeling that attains the key maps g onto the same graph, so
    for any two of them, lambda_0 and lambda_i, the map that sends the
    vertex lambda_i places at a position to the vertex lambda_0 places
    there is an automorphism, and every automorphism arises this way.
    The search keeps those relabelings that place each twin class's
    vertices in ascending order from the top position down, one per
    coset of T, so the survivors
    other than the first give the automorphisms returned; with T they
    generate the whole group.  If every class after refinement lies in
    one twin class, an automorphism keeps each class and so is a twin
    swap: the group is T.
    """
    n = len(nbrs)
    vertices = range(n)
    colors, count = _refined_colors(nbrs, tri2, twins)
    if count == len(set(twins)):  # every class is a twin class
        place = [0] * n  # v goes to position place[v]
        for p, v in enumerate(sorted(vertices, key=colors.__getitem__)):
            place[v] = p
        key = 0
        for v, nbr in enumerate(nbrs):
            pv = place[v]
            for u in nbr:
                if place[u] > pv:
                    key |= 1 << (pv * n + place[u])
        return (n, key), []
    blocks: list[list[int]] = [[] for _ in vertices]  # color -> its vertices
    for v, c in enumerate(colors):
        blocks[c].append(v)
    owners = sorted(colors)  # position -> the color of its block
    key = 0
    # each kept placement: its unplaced vertices, for every vertex the
    # positions of its placed neighbors, and the vertices placed so far,
    # from position n - 1 down
    states = [((1 << n) - 1, [0] * n, ())]
    for k in range(n - 1, -1, -1):
        block = blocks[owners[k]]
        least = 1 << n  # above every row
        chosen = []
        for unplaced, rows, order in states:
            for x in block:
                if (not unplaced >> x & 1
                        or twins[x] & unplaced & ((1 << x) - 1)):
                    continue
                row = rows[x]
                if row < least:
                    least = row
                    chosen = [(unplaced, rows, order, x)]
                elif row == least:
                    chosen.append((unplaced, rows, order, x))
        key |= least << (k * n)
        placed = 1 << k
        states = []
        for unplaced, rows, order, x in chosen:
            rows = rows.copy()
            for w in nbrs[x]:
                rows[w] |= placed
            states.append((unplaced & ~(1 << x), rows, order + (x,)))
    first = states[0][2]
    automorphisms = []
    for _, _, order in states[1:]:
        image = [0] * n
        for v, w in zip(order, first):
            image[v] = w
        automorphisms.append(image)
    return (n, key), automorphisms


def _twin_least(subset: int, lows: list[tuple[int, list[int]]]) -> int:
    """The least image of `subset` under twin swaps: in each twin class
    (mask, prefix), as many of its lowest vertices as the subset has
    there, where prefix[c] holds the class's lowest c vertices."""
    for mask, prefix in lows:
        subset = subset & ~mask | prefix[(subset & mask).bit_count()]
    return subset


def _orbit_minimal_subsets(nbrs: list[list[int]], tri2: list[int],
                           twins: list[int]) -> list[int]:
    """The nonempty vertex subsets of the graph whose `_invariants` are
    given, as masks in ascending order, that are the least member of
    their orbit under its automorphism group.

    The group is the twin-swap group T, which permutes each twin class
    freely, together with the automorphisms r from
    `_key_and_automorphisms`, one per coset of T other than T.  T is
    normal (an automorphism maps twins to twins), so the least member of
    S's orbit is the least of Tmin(S) and every Tmin(r(S)), where Tmin
    (`_twin_least`) is the least member of a T-orbit.
    """
    m = len(nbrs)
    _, automorphisms = _key_and_automorphisms(nbrs, tri2, twins)
    lows = []
    for mask in set(twins):
        if mask & (mask - 1):
            prefix = [0]
            for v in bits(mask):
                prefix.append(prefix[-1] | 1 << v)
            lows.append((mask, prefix))
    kept = []
    for subset in range(1, 1 << m):
        if _twin_least(subset, lows) != subset:
            continue
        for image in automorphisms:
            moved = sum([1 << image[v] for v in bits(subset)])
            if _twin_least(moved, lows) < subset:
                break
        else:
            kept.append(subset)
    return kept


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[Graph, ...]:
    """All connected graphs on n vertices, one per isomorphism class.

    Built by augmenting each (n-1)-vertex connected graph with one new
    vertex joined to a nonempty subset of the old vertices; every
    connected graph contains a non-cut vertex, so nothing is missed.
    Each graph kept is the first augmentation, in the order of parents
    and then of subsets as masks, with its key.  If an automorphism pi
    of the parent maps S to a lesser subset pi(S), then pi with the new
    vertex fixed is an isomorphism from parent + S onto parent + pi(S),
    which came first; so only the subsets least in their orbit under
    the parent's automorphisms (`_orbit_minimal_subsets`) are keyed, and
    the graphs kept are those that keying every subset would keep.  A
    parent's `_invariants` are computed once, each augmentation's are
    derived from them (`_augmented_invariants`), and a `Graph` is built
    only for a new key.
    """
    if n < 1:
        return ()
    if n == 1:
        return (Graph(1),)
    seen: dict[tuple, Graph] = {}
    new = n - 1
    for parent in connected_graphs(n - 1):
        base = parent.adj
        base_edges = parent.edges()
        invariants = _invariants(base)
        for subset in _orbit_minimal_subsets(*invariants):
            key = _key_and_automorphisms(
                *_augmented_invariants(base, invariants, subset))[0]
            if key not in seen:
                seen[key] = Graph(n, base_edges
                                  + [(v, new) for v in bits(subset)])
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
