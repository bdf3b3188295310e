"""Independent membership oracles used to cross-check the package.

Each search oracle decides whether an ordering can be produced by the
classic data-structure realization of a paradigm (FIFO queue, stack,
partition refinement, label sets, counters).  They deliberately share no
code with the package's point-condition validators or candidate-rule
executors.  ``reference_candidates`` is the label-comparing reference for
the candidates the package reads from its per-kind state keys,
``reference_point_condition`` the triple-scan reference for its
point-condition validators, ``reference_mcs_order`` the step-by-step
maximum-cardinality simulation behind its MCS validator's witness, and
``first_induced_small`` and
``first_induced_pan`` the brute-force references for its 4-vertex and
k-pan detectors; the latter lists every chordless cycle.
``reference_trivially_perfect`` peels a universal vertex off every
connected piece, and ``reference_complete_bipartite`` splits a connected
graph at vertex 0's neighbourhood.
``reference_canonical_key`` computes the inventory's canonical key by
trying every relabeling inside the refined color classes,
``reference_connected_graphs`` regenerates the inventory keying every
augmentation, and ``reference_first_outside`` is the inclusion walk
``searches.first_outside`` without twin pruning.
"""

from itertools import combinations, permutations, product

from searchorder import (C4, DIAMOND, P4, PAN, PAW, Graph, PatternHit,
                         PointViolation, SearchKind)
from searchorder.graphs import bits, component_mask
from searchorder.inventory import canonical_key
from searchorder.searches import _KINDS, _root_key, complete_prefix
from smallgraphs import cycle, diamond, path, paw


def _neighbors(g: Graph, v: int) -> set[int]:
    return set(g.neighbors(v))


def is_generic_sim(g: Graph, order) -> bool:
    seen: set[int] = set()
    for i, v in enumerate(order):
        if i > 0 and not (_neighbors(g, v) & seen):
            return False
        seen.add(v)
    return True


def is_bfs_sim(g: Graph, order) -> bool:
    """FIFO queue; when a vertex is visited its new neighbors are appended
    in the order the candidate sequence needs them (the only choice that
    can possibly reproduce it)."""
    order = list(order)
    pos = {v: i for i, v in enumerate(order)}
    queue = [order[0]]
    queued = {order[0]}
    for v in order:
        if not queue or queue[0] != v:
            return False
        queue.pop(0)
        fresh = sorted(_neighbors(g, v) - queued, key=pos.__getitem__)
        queue.extend(fresh)
        queued.update(fresh)
    return not queue


def is_dfs_sim(g: Graph, order) -> bool:
    """Stack of visited vertices; the next vertex must be adjacent to the
    deepest stack entry that still has unvisited neighbors."""
    order = list(order)
    visited: set[int] = set()
    stack: list[int] = []
    for i, v in enumerate(order):
        if i > 0:
            while stack and not (_neighbors(g, stack[-1]) - visited):
                stack.pop()
            if not stack or v not in _neighbors(g, stack[-1]):
                return False
        visited.add(v)
        stack.append(v)
    return True


def is_lexbfs_sim(g: Graph, order) -> bool:
    """Partition refinement: visiting u splits every class into neighbors
    followed by non-neighbors; the next vertex must lie in the first class."""
    order = list(order)
    classes: list[list[int]] = [list(range(g.n))]
    for v in order:
        if v not in classes[0]:
            return False
        classes[0].remove(v)
        if not classes[0]:
            classes.pop(0)
        nbr = _neighbors(g, v)
        refined: list[list[int]] = []
        for cls in classes:
            inside = [w for w in cls if w in nbr]
            outside = [w for w in cls if w not in nbr]
            if inside:
                refined.append(inside)
            if outside:
                refined.append(outside)
        classes = refined
    return not classes


def is_lexdfs_sim(g: Graph, order) -> bool:
    """Partition refinement with the depth-first promotion rule: all
    neighbor parts of the just-visited vertex move to the front."""
    order = list(order)
    classes: list[list[int]] = [list(range(g.n))]
    for v in order:
        if v not in classes[0]:
            return False
        classes[0].remove(v)
        if not classes[0]:
            classes.pop(0)
        nbr = _neighbors(g, v)
        front: list[list[int]] = []
        back: list[list[int]] = []
        for cls in classes:
            inside = [w for w in cls if w in nbr]
            outside = [w for w in cls if w not in nbr]
            if inside:
                front.append(inside)
            if outside:
                back.append(outside)
        classes = front + back
    return not classes


def is_mns_sim(g: Graph, order) -> bool:
    order = list(order)
    visited: set[int] = set()
    unvisited = set(range(g.n))
    for i, v in enumerate(order):
        if i > 0:
            label = _neighbors(g, v) & visited
            if not label:
                return False
            if any(label < (_neighbors(g, u) & visited) for u in unvisited):
                return False
        visited.add(v)
        unvisited.remove(v)
    return True


def is_mcs_sim(g: Graph, order) -> bool:
    order = list(order)
    visited: set[int] = set()
    unvisited = set(range(g.n))
    for i, v in enumerate(order):
        count = len(_neighbors(g, v) & visited)
        if i > 0 and count == 0:
            return False
        if count < max(len(_neighbors(g, u) & visited) for u in unvisited):
            return False
        visited.add(v)
        unvisited.remove(v)
    return True


def reference_mcs_order(g: Graph, order):
    """Simulate maximum-cardinality selection on a generic ordering:
    (verdict, the first vertex chosen while another unvisited vertex had
    strictly more visited neighbours, or None)."""
    visited = 0
    unvisited = set(range(g.n))
    for v in order:
        count = (g.adj[v] & visited).bit_count()
        best = max((g.adj[u] & visited).bit_count() for u in unvisited)
        if count < best:
            return False, v
        visited |= 1 << v
        unvisited.remove(v)
    return True, None


ORACLES = {
    SearchKind.GENERIC: is_generic_sim,
    SearchKind.BFS: is_bfs_sim,
    SearchKind.DFS: is_dfs_sim,
    SearchKind.LEXBFS: is_lexbfs_sim,
    SearchKind.LEXDFS: is_lexdfs_sim,
    SearchKind.MNS: is_mns_sim,
    SearchKind.MCS: is_mcs_sim,
}


def reference_candidates(g: Graph, kind: SearchKind, visited) -> set[int]:
    """The vertices the paradigm permits after the prefix ``visited``, found
    by building each fringe vertex's label and keeping the best ones."""
    visited = tuple(visited)
    if not visited:
        return set(range(g.n))
    seen = set(visited)
    fringe = {w for u in visited for w in _neighbors(g, u)} - seen
    if not fringe:
        return set()
    if kind is SearchKind.GENERIC:
        return fringe

    if kind is SearchKind.BFS:
        # FIFO layer heads: minimal rank of the earliest visited neighbor.
        rank = {v: min(i for i, u in enumerate(visited) if g.has_edge(u, v))
                for v in fringe}
        top = min(rank.values())
        return {v for v, r in rank.items() if r == top}

    if kind is SearchKind.DFS:
        # Unvisited neighbors of the deepest visited vertex that has any.
        for u in reversed(visited):
            if _neighbors(g, u) - seen:
                return _neighbors(g, u) - seen

    if kind is SearchKind.LEXBFS or kind is SearchKind.LEXDFS:
        labels = {}
        for v in fringe:
            steps = [i for i, u in enumerate(visited) if g.has_edge(u, v)]
            if kind is SearchKind.LEXBFS:
                # earlier discoverers carry more weight
                labels[v] = tuple(g.n - i for i in steps)
            else:
                # most recent discoverers carry more weight
                labels[v] = tuple(i + 1 for i in reversed(steps))
        top = max(labels.values())
        return {v for v, lab in labels.items() if lab == top}

    if kind is SearchKind.MNS:
        labs = {v: _neighbors(g, v) & seen for v in fringe}
        return {v for v, lv in labs.items()
                if not any(lv < lu for lu in labs.values())}

    if kind is SearchKind.MCS:
        counts = {v: len(_neighbors(g, v) & seen) for v in fringe}
        top = max(counts.values())
        return {v for v, c in counts.items() if c == top}

    raise ValueError(f"unhandled search kind {kind}")


_POINT_KINDS = (SearchKind.BFS, SearchKind.DFS, SearchKind.LEXBFS,
                SearchKind.LEXDFS, SearchKind.MNS)

_CLAUSE_TEXT = {
    SearchKind.BFS: "no d before a with db an edge",
    SearchKind.DFS: "no d between a and b with db an edge",
    SearchKind.LEXBFS: "no d before a with db an edge and dc a non-edge",
    SearchKind.LEXDFS: "no d between a and b with db an edge and dc a non-edge",
    SearchKind.MNS: "no d before b with db an edge and dc a non-edge",
}


def reference_point_condition(g: Graph, sigma, kind: SearchKind):
    """Scan all position triples i < j < k for a violation of the kind's
    three-point condition.  The first violation in (pos a, pos b, pos c)
    order is reported."""
    if kind not in _POINT_KINDS:
        raise ValueError(f"{kind} has no point condition; use is_search_ordering")
    order = tuple(sigma)
    n = g.n
    adj = g.adj
    # prefix[i] = bitmask of the first i vertices of sigma
    prefix = [0] * (n + 1)
    for i, v in enumerate(order):
        prefix[i + 1] = prefix[i] | 1 << v
    for i in range(n):
        a = order[i]
        before_a = prefix[i]
        for j in range(i + 1, n):
            b = order[j]
            if adj[a] >> b & 1:
                continue
            nb = adj[b]
            between = prefix[j] & ~prefix[i + 1]
            for k in range(j + 1, n):
                c = order[k]
                if not adj[a] >> c & 1:
                    continue
                if kind is SearchKind.BFS:
                    ok = nb & before_a
                elif kind is SearchKind.DFS:
                    ok = nb & between
                elif kind is SearchKind.LEXBFS:
                    ok = nb & before_a & ~adj[c]
                elif kind is SearchKind.LEXDFS:
                    ok = nb & between & ~adj[c]
                else:  # MNS
                    ok = nb & prefix[j] & ~adj[c]
                if not ok:
                    return False, PointViolation(a, b, c, kind, _CLAUSE_TEXT[kind])
    return True, None


SMALL_PATTERNS = {P4: path(4), C4: cycle(4), PAW: paw(), DIAMOND: diamond()}


def first_induced_small(g: Graph, pattern: str):
    """Lexicographically first induced embedding of a 4-vertex pattern:
    every ordering of every 4-subset, in lexicographic order, is compared
    pair by pair with the pattern on positions 0..3."""
    target = SMALL_PATTERNS[pattern]
    for subset in combinations(range(g.n), 4):
        for mapped in permutations(subset):
            if all(g.has_edge(mapped[i], mapped[j]) == target.has_edge(i, j)
                   for i, j in combinations(range(4), 2)):
                return PatternHit(pattern, mapped)
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


def first_induced_pan(g: Graph):
    """The k-pan with the shortest cycle, and among those the smallest
    vertex tuple (cycle from the attachment vertex, then the pendant):
    every chordless cycle is listed, and every vertex outside it that
    touches exactly one cycle vertex is tried as its pendant."""
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


def reference_trivially_perfect(g: Graph) -> bool:
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


def reference_complete_bipartite(g: Graph) -> bool:
    """For connected graphs: vertex 0's non-neighbors (plus 0 itself) must
    form one independent side, the neighbors the other, with every cross
    pair an edge."""
    side0 = {0} | {v for v in range(1, g.n) if not g.has_edge(0, v)}
    side1 = set(range(g.n)) - side0
    return (all(not g.has_edge(u, v) for u in side0 for v in side0 if u < v)
            and all(not g.has_edge(u, v) for u in side1 for v in side1 if u < v)
            and all(g.has_edge(u, v) for u in side0 for v in side1))


def _reference_refined_colors(g: Graph) -> list[int]:
    """Neighbor-color refinement seeded with degree and local triangle
    count, repeated until a round changes no color."""
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


def reference_canonical_key(g: Graph) -> tuple:
    """The minimum upper-triangle bit pattern (edge pu < pv at bit
    pu * n + pv) over every relabeling that places the refined color
    classes, in color order, on consecutive blocks of positions: the
    product of the permutations of each class is tried in full."""
    n = g.n
    if n <= 1:
        return (n, 0)
    colors = _reference_refined_colors(g)
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
        key = 0
        for u, v in g.edges():
            pu, pv = sorted((pos[u], pos[v]))
            key |= 1 << (pu * n + pv)
        if best is None or key < best:
            best = key
    return (n, best)


def reference_connected_graphs(n: int) -> tuple:
    """All connected graphs on n vertices, one per isomorphism class, in
    key order: level by level, each graph on k - 1 vertices with a new
    vertex joined to every nonempty subset of its vertices in turn, the
    first augmentation with each key kept."""
    if n < 1:
        return ()
    level = (Graph(1),)
    for k in range(2, n + 1):
        seen = {}
        new = k - 1
        for parent in level:
            base_edges = parent.edges()
            for subset in range(1, 1 << new):
                g = Graph(k, base_edges + [(u, new) for u in range(new)
                                           if subset >> u & 1])
                seen.setdefault(canonical_key(g), g)
        level = tuple(seen[key] for key in sorted(seen))
    return level


def reference_first_outside(g: Graph, kind_x: SearchKind, kind_y: SearchKind,
                            cap: float):
    """The first kind_x ordering of g outside kind_y, or None, and whether
    the walk stopped at the cap: ``searches.first_outside`` walking
    every candidate, twins included, memoized on the pair of state keys."""
    n = g.n
    if n == 0 or kind_x is kind_y:
        return None, False
    adj = g.adj
    step_x, rule_x = _KINDS[kind_x]
    step_y, rule_y = _KINDS[kind_y]
    root = _root_key(n)
    walked = {(root, root)}
    stack = [((), rule_x(adj, root), rule_y(adj, root), root, root)]
    while stack:
        prefix, rest, allowed, key_x, key_y = stack.pop()
        low = rest & -rest
        if rest != low:
            stack.append((prefix, rest ^ low, allowed, key_x, key_y))
        v = low.bit_length() - 1
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
