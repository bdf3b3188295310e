"""Hypothesis strategies for graphs past the exhaustive sizes.

The edge density is drawn too, so sparse and dense graphs both occur.
"""

from itertools import combinations

from hypothesis import strategies as st

from searchorder import Graph
from searchorder.graphs import bits


@st.composite
def random_graphs(draw, min_n=8, max_n=13):
    """Any graph; sparse ones are often disconnected and dense ones often
    class members."""
    n = draw(st.integers(min_n, max_n))
    density = draw(st.integers(0, 100))
    rng = draw(st.randoms(use_true_random=False))
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2)
                     if rng.randrange(100) < density])


@st.composite
def random_connected_graphs(draw, min_n=8, max_n=14, min_density=0):
    """A random spanning tree plus edges at a drawn density, in percent."""
    n = draw(st.integers(min_n, max_n))
    density = draw(st.integers(min_density, 100))
    rng = draw(st.randoms(use_true_random=False))
    tree = [(rng.randrange(v), v) for v in range(1, n)]
    extra = [(u, v) for u, v in combinations(range(n), 2)
             if rng.randrange(100) < density]
    return Graph(n, tree + extra)


@st.composite
def rooted_forest_closures(draw, min_n=8, max_n=30):
    """A random rooted forest with each vertex joined to all its
    ancestors, which is trivially perfect, with or without one extra
    edge.  Each vertex's parent lies among the first ``span`` vertices,
    so a span of 1 with one root gives a star, which is complete
    bipartite."""
    n = draw(st.integers(min_n, max_n))
    roots = draw(st.integers(1, 3))
    span = draw(st.integers(1, n))
    rng = draw(st.randoms(use_true_random=False))
    ancestors = [0] * n
    for v in range(roots, n):
        parent = rng.randrange(min(v, span))
        ancestors[v] = ancestors[parent] | 1 << parent
    edges = [(u, v) for v in range(n) for u in bits(ancestors[v])]
    if draw(st.booleans()):
        edges.append(tuple(rng.sample(range(n), 2)))
    return Graph(n, edges)


@st.composite
def complete_bipartite_graphs(draw, max_small=4, max_large=20):
    """K_{p,q} with p <= max_small (p = 1 gives a star), its vertices
    relabelled at random, so each vertex of the large side has p
    neighbours and the parts are not blocks of consecutive labels."""
    p = draw(st.integers(1, max_small))
    q = draw(st.integers(max(p, 2), max_large))
    label = draw(st.permutations(range(p + q)))
    return Graph(p + q, [(label[u], label[v]) for u in range(p)
                         for v in range(p, p + q)])
