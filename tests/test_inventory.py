"""The canonical key against the product-of-permutations reference, and
its invariance under relabeling past the exhaustive sizes."""

import pytest
from hypothesis import given, settings, strategies as st

from searchorder import Graph
from searchorder.inventory import canonical_key, connected_graphs
from oracles import reference_canonical_key
from smallgraphs import complete_bipartite, cycle, hypercube, relabeled
from strategies import random_graphs


def _augmentations(n):
    """Every graph `connected_graphs(n)` keys: each connected graph on
    n - 1 vertices with a new vertex joined to a nonempty subset."""
    new = n - 1
    for parent in connected_graphs(n - 1):
        base = parent.edges()
        for subset in range(1, 1 << new):
            yield Graph(n, base + [(u, new) for u in range(new)
                                   if subset >> u & 1])


def test_key_equals_the_reference_on_every_augmentation_up_to_7():
    graphs = [g for n in range(2, 8) for g in _augmentations(n)]
    assert len(graphs) == 7815
    mismatched = [g for g in graphs
                  if canonical_key(g) != reference_canonical_key(g)]
    assert not mismatched


@pytest.mark.parametrize("g", [hypercube(3), cycle(8),
                               complete_bipartite(3, 4)],
                         ids=["Q3", "C8", "K3,4"])
def test_key_equals_the_reference_on_symmetric_graphs(g):
    assert canonical_key(g) == reference_canonical_key(g)


@given(random_graphs(8, 12), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_key_is_invariant_under_relabeling(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_key(relabeled(g, perm)) == canonical_key(g)
