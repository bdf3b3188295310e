"""Seeded input generators for the benchmark workloads.

Every generator draws from a ``random.Random`` that the workload seeds from
``--seed``, so one seed fixes every input of a run.  Graphs come out as a
vertex count and an edge list; the workloads hand the package only their
graph6 lines.
"""

from __future__ import annotations

import random


def systematic_sample(items, k: int, rng: random.Random, key, weight=None):
    """k items, stratified on ``key``, by systematic sampling.

    The items are sorted by key (ties in seeded order) and laid end to end
    with lengths proportional to ``weight`` (1 when None); the sample is the
    items under k equally spaced points from a seeded offset.  Each stretch
    of 1/k of the total weight gives one item, so the sample keeps the key's
    distribution, and heavier items are proportionally likelier.
    """
    order = sorted(items, key=lambda item: (key(item), rng.random()))
    weights = [weight(item) if weight else 1.0 for item in order]
    step = sum(weights) / k
    point = rng.random() * step
    out = []
    reach = 0.0
    for item, w in zip(order, weights):
        reach += w
        while point < reach and len(out) < k:
            out.append(item)
            point += step
    out.extend(order[-1:] * (k - len(out)))  # float rounding at the end
    return out


def graph6_edge_count(line: str) -> int:
    """Edge count of a graph6 record: the set bits of its body."""
    return sum(bin(ord(ch) - 63).count("1") for ch in line.strip()[1:])


def random_connected(n: int, p: float, rng: random.Random):
    """G(n, p) plus a random spanning tree, so the graph is connected."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return n, sorted(edges)


def clique(n: int, rng: random.Random):
    return n, [(u, v) for u in range(n) for v in range(u + 1, n)]


def star(n: int, rng: random.Random):
    center = rng.randrange(n)
    return n, [(min(center, v), max(center, v)) for v in range(n) if v != center]


def complete_multipartite(n: int, rng: random.Random):
    """Between 2 and n - 1 nonempty parts; edges join different parts."""
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, n - 2)))
    part = {}
    for index, (lo, hi) in enumerate(zip([0] + cuts, cuts + [n])):
        for v in order[lo:hi]:
            part[v] = index
    return n, [(u, v) for u in range(n) for v in range(u + 1, n)
               if part[u] != part[v]]


def trivially_perfect(n: int, rng: random.Random):
    """Comparability graph of a random rooted tree: each vertex is joined to
    all its ancestors.  The root is universal, so the graph is connected."""
    order = list(range(n))
    rng.shuffle(order)
    ancestors = {order[0]: ()}
    for i in range(1, n):
        parent = order[rng.randrange(i)]
        ancestors[order[i]] = ancestors[parent] + (parent,)
    return n, sorted((min(u, a), max(u, a))
                     for u, up in ancestors.items() for a in up)


# ClassLabel flag -> generator of graphs that must have it
CLASS_GENERATORS = {
    "clique": clique,
    "star": star,
    "complete_multipartite": complete_multipartite,
    "trivially_perfect": trivially_perfect,
}
