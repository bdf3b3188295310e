"""The canonical key against the product-of-permutations reference, and
its invariance under relabeling past the exhaustive sizes; the color
refinement against the reference that repeats every round; the
invariants an augmentation derives from its parent's against those
computed from its masks; the automorphisms it returns against brute force, and the inventory
regenerated from orbit-minimal augmentations against the loop that keys
every augmentation."""

from itertools import permutations
from math import factorial, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from searchorder import Graph
from searchorder.graphs import twin_classes
from searchorder.inventory import (_augmented_invariants, _invariants,
                                   _key_and_automorphisms,
                                   _orbit_minimal_subsets, _refined_colors,
                                   canonical_key, connected_graphs)
from oracles import (_reference_refined_colors, reference_canonical_key,
                     reference_connected_graphs)
from smallgraphs import (complete, complete_bipartite, complete_multipartite,
                         cycle, hypercube, petersen, relabeled, star,
                         threshold)
from strategies import random_graphs


def _augmentations(n):
    """Every graph `connected_graphs(n)` keys: each connected graph on
    n - 1 vertices with a new vertex joined to a nonempty subset, as
    (parent, subset, graph)."""
    new = n - 1
    for parent in connected_graphs(n - 1):
        base = parent.edges()
        for subset in range(1, 1 << new):
            yield parent, subset, Graph(n, base + [(u, new) for u in range(new)
                                                   if subset >> u & 1])


# refinement leaves every class of this graph inside one twin class, so
# its key is read off one relabeling: a 10-vertex threshold graph with
# the twin classes {0, 1, 2}, {3, 4}, {5, 6} and {7, 8, 9}
THRESHOLD_10 = threshold("0001100111")


def test_key_equals_the_reference_on_every_augmentation_up_to_7():
    graphs = [g for n in range(2, 8) for _, _, g in _augmentations(n)]
    assert len(graphs) == 7815
    mismatched = [g for g in graphs
                  if canonical_key(g) != reference_canonical_key(g)]
    assert not mismatched


def test_derived_invariants_equal_the_recomputed_on_every_augmentation_up_to_7():
    """An augmentation's invariants, derived from its parent's, equal
    those computed from its masks, and the lists of the vertices outside
    the subset are the parent's own."""
    count = 0
    for n in range(2, 8):
        for parent, subset, g in _augmentations(n):
            invariants = _invariants(parent.adj)
            derived = _augmented_invariants(parent.adj, invariants, subset)
            assert derived == _invariants(g.adj), (parent, subset)
            assert all(derived[0][v] is invariants[0][v]
                       for v in range(n - 1) if not subset >> v & 1)
            count += 1
    assert count == 7815


@pytest.mark.parametrize("g", [hypercube(3), cycle(8),
                               complete_bipartite(3, 4),
                               complete_multipartite(2, 3, 4), star(9),
                               THRESHOLD_10],
                         ids=["Q3", "C8", "K3,4", "K2,3,4", "K1,9",
                              "threshold10"])
def test_key_equals_the_reference_on_symmetric_graphs(g):
    assert canonical_key(g) == reference_canonical_key(g)


@given(random_graphs(8, 12), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_key_is_invariant_under_relabeling(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_key(relabeled(g, perm)) == canonical_key(g)


@given(random_graphs(8, 20))
@example(cycle(8))
@example(hypercube(3))
@example(petersen())
@example(Graph(11, complete(5).edges() + [(5, v) for v in range(6, 11)]))
@example(THRESHOLD_10)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_refined_colors_equal_the_reference(g):
    """Past the exhaustive sizes, skipping the classes of one vertex
    changes no color.  On the regular C8, Q3 and Petersen graph every
    vertex has one degree and triangle count, so the first round adds no
    class and refinement stops there, with one color.  Beside K5, the
    centre of a star K1,5 has the higher degree and K5's vertices the
    more triangles: degree ranks first.  In the threshold graph the seeds
    already give one class per twin class, so no round runs."""
    colors, count = _refined_colors(*_invariants(g.adj))
    assert colors == _reference_refined_colors(g)
    assert count == len(set(colors))


def _automorphisms(g):
    """Every automorphism of g, by trying every permutation."""
    edges = {frozenset(e) for e in g.edges()}
    return [perm for perm in permutations(range(g.n))
            if all(frozenset((perm[u], perm[v])) in edges
                   for u, v in g.edges())]


def _twin_swaps(g):
    """The order of the twin-swap group: the product of the factorials
    of the twin class sizes."""
    return prod(factorial(mask.bit_count()) for mask in set(twin_classes(g.adj)))


def _small_graphs():
    return [g for n in range(1, 7) for g in connected_graphs(n)]


@pytest.mark.parametrize("n", range(1, 8))
def test_inventory_equals_the_loop_that_keys_every_augmentation(n):
    assert connected_graphs(n) == reference_connected_graphs(n)


def _assert_automorphisms_cover_the_group(g, order):
    key, images = _key_and_automorphisms(*_invariants(g.adj))
    assert key == canonical_key(g)
    edges = {frozenset(e) for e in g.edges()}
    for image in images:
        assert sorted(image) == list(range(g.n))
        assert {frozenset((image[u], image[v])) for u, v in g.edges()} == edges
    assert (len(images) + 1) * _twin_swaps(g) == order


def test_key_automorphisms_cover_the_group_on_every_graph_up_to_6():
    for g in _small_graphs():
        _assert_automorphisms_cover_the_group(g, len(_automorphisms(g)))


@pytest.mark.parametrize("g, order", [(hypercube(3), 48), (cycle(8), 16),
                                      (complete_bipartite(3, 4), 144),
                                      (petersen(), 120),
                                      (complete_multipartite(2, 3, 4), 288),
                                      (star(9), factorial(9)),
                                      (THRESHOLD_10, 144)],
                         ids=["Q3", "C8", "K3,4", "Petersen", "K2,3,4",
                              "K1,9", "threshold10"])
def test_key_automorphisms_cover_the_group_on_symmetric_graphs(g, order):
    _assert_automorphisms_cover_the_group(g, order)


def test_keyed_subsets_are_the_orbit_minima_up_to_6():
    for g in _small_graphs():
        autos = _automorphisms(g)
        minima = {min(sum(1 << perm[v] for v in range(g.n) if subset >> v & 1)
                      for perm in autos)
                  for subset in range(1, 1 << g.n)}
        assert _orbit_minimal_subsets(*_invariants(g.adj)) == sorted(minima)


def test_keyed_subsets_per_level():
    keyed = [sum(len(_orbit_minimal_subsets(*_invariants(parent.adj)))
                 for parent in connected_graphs(n - 1)) for n in range(2, 8)]
    assert keyed == [1, 2, 8, 44, 333, 3771]
