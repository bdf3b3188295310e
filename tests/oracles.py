"""Independent membership oracles used to cross-check the package.

Each search oracle decides whether an ordering can be produced by the
classic data-structure realization of a paradigm (FIFO queue, stack,
partition refinement, label sets, counters).  They deliberately share no
code with the package's point-condition validators or candidate-rule
executors.  ``reference_candidates`` is the label-comparing reference for
the package's bitmask candidate rules, ``reference_point_condition`` the
triple-scan reference for its pair-scan point-condition validator, and
``first_induced_small`` the brute-force reference for its 4-vertex
pattern detector.
"""

from itertools import combinations, permutations

from searchorder import (C4, DIAMOND, P4, PAW, Graph, PatternHit, PointViolation,
                         SearchKind)
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
