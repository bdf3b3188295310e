from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from searchorder import (
    PointViolation,
    SearchKind,
    TieBreak,
    check_point_condition,
    induced_subgraph,
    is_generic_order,
    is_search_ordering,
    run_search,
)
from oracles import ORACLES, reference_mcs_order, reference_point_condition
from smallgraphs import (
    MNS_NOT_MCS_BROKEN_EXAMPLE,
    MNS_NOT_MCS_EXAMPLES,
    complete,
    cycle,
    diamond,
    path,
    paw,
    sixcycle_with_handle,
)
from strategies import complete_bipartite_graphs, random_connected_graphs

POINT_KINDS = [SearchKind.BFS, SearchKind.DFS, SearchKind.LEXBFS,
               SearchKind.LEXDFS, SearchKind.MNS]


class TestGenericOrder:
    def test_path_ordering_with_connected_prefixes(self):
        ok, witness = is_generic_order(path(4), (1, 2, 3, 0))
        assert ok and witness is None

    def test_detached_vertex_is_witnessed(self):
        ok, witness = is_generic_order(path(3), (0, 2, 1))
        assert not ok
        assert witness == 2

    def test_complete_graph_accepts_everything(self):
        for p in permutations(range(4)):
            assert is_generic_order(complete(4), p) == (True, None)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            is_generic_order(path(3), (0, 1))


@pytest.mark.parametrize("sigma", [(0, 0, 1), (0, 3, 1), (0, -1, 1), (0, 1)])
def test_every_entry_point_rejects_non_permutations(sigma):
    with pytest.raises(ValueError):
        is_search_ordering(path(3), sigma, SearchKind.BFS)
    with pytest.raises(ValueError):
        is_generic_order(path(3), sigma)
    with pytest.raises(ValueError):
        check_point_condition(path(3), sigma, SearchKind.BFS)


class TestPointConditions:
    """Orderings traditionally drawn with letters use a=0, b=1, c=2, d=3."""

    def test_paw_bfs_but_not_lexbfs(self):
        g = paw()
        sigma = (2, 0, 3, 1)  # (c, a, d, b)
        assert check_point_condition(g, sigma, SearchKind.BFS) == (True, None)
        ok, violation = check_point_condition(g, sigma, SearchKind.LEXBFS)
        assert not ok
        assert isinstance(violation, PointViolation)

    def test_paw_dfs_but_not_lexdfs(self):
        g = paw()
        sigma = (1, 2, 3, 0)  # (b, c, d, a)
        assert check_point_condition(g, sigma, SearchKind.DFS)[0]
        assert not check_point_condition(g, sigma, SearchKind.LEXDFS)[0]

    def test_diamond_bfs_but_not_lexbfs(self):
        g = diamond()
        sigma = (0, 1, 3, 2)  # (a, b, d, c)
        assert check_point_condition(g, sigma, SearchKind.BFS)[0]
        assert not check_point_condition(g, sigma, SearchKind.LEXBFS)[0]

    def test_diamond_dfs_but_not_lexdfs(self):
        g = diamond()
        sigma = (1, 2, 3, 0)  # (b, c, d, a)
        assert check_point_condition(g, sigma, SearchKind.DFS)[0]
        assert not check_point_condition(g, sigma, SearchKind.LEXDFS)[0]

    @pytest.mark.parametrize("g", [path(4), cycle(4)], ids=["P4", "C4"])
    def test_mns_but_not_lex_variants(self, g):
        sigma1 = (1, 2, 3, 0)  # (b, c, d, a): MNS yes, LexBFS no
        sigma2 = (1, 2, 0, 3)  # (b, c, a, d): MNS yes, LexDFS no
        assert check_point_condition(g, sigma1, SearchKind.MNS)[0]
        assert not check_point_condition(g, sigma1, SearchKind.LEXBFS)[0]
        assert check_point_condition(g, sigma2, SearchKind.MNS)[0]
        assert not check_point_condition(g, sigma2, SearchKind.LEXDFS)[0]

    def test_violation_premise_holds(self):
        g = paw()
        _, v = check_point_condition(g, (2, 0, 3, 1), SearchKind.LEXBFS)
        assert g.has_edge(v.a, v.c)
        assert not g.has_edge(v.a, v.b)
        sigma_pos = {x: i for i, x in enumerate((2, 0, 3, 1))}
        assert sigma_pos[v.a] < sigma_pos[v.b] < sigma_pos[v.c]

    def test_first_violation_in_position_order(self):
        g = path(4)
        ok, v = check_point_condition(g, (3, 2, 1, 0), SearchKind.LEXBFS)
        assert ok  # reversal of a path is a valid LexBFS
        ok, v = check_point_condition(g, (1, 2, 3, 0), SearchKind.LEXBFS)
        assert not ok
        assert (v.a, v.b, v.c) == (1, 3, 0)

    def test_rejects_kinds_without_point_condition(self):
        with pytest.raises(ValueError):
            check_point_condition(path(3), (0, 1, 2), SearchKind.GENERIC)
        with pytest.raises(ValueError):
            check_point_condition(path(3), (0, 1, 2), SearchKind.MCS)


class TestIsSearchOrdering:
    def test_complete_graph_every_kind(self):
        g = complete(4)
        for kind in SearchKind:
            for p in permutations(range(4)):
                assert is_search_ordering(g, p, kind)[0]

    def test_c5_bfs_ordering(self):
        # (v1, v2, v5, v3, v4) with v1..v5 = 0..4
        assert is_search_ordering(cycle(5), (0, 1, 4, 2, 3), SearchKind.BFS)[0]

    def test_bfs_restriction_to_subgraph_can_fail(self):
        """Restricting a valid BFS ordering to an induced subgraph need not
        stay a BFS ordering: delete v2 from C5."""
        g = cycle(5)
        sigma = (0, 1, 4, 2, 3)
        assert is_search_ordering(g, sigma, SearchKind.BFS)[0]
        sub, mapping = induced_subgraph(g, [0, 2, 3, 4])
        restricted = tuple(mapping[v] for v in sigma if v in mapping)
        ok, witness = is_search_ordering(sub, restricted, SearchKind.BFS)
        assert not ok
        assert witness == mapping[2]  # v3 has no earlier neighbor

    def test_handle_graph_lexbfs_and_its_pan_restriction(self):
        g = sixcycle_with_handle()
        sigma = (0, 1, 5, 6, 2, 4, 7, 3)
        assert is_search_ordering(g, sigma, SearchKind.LEXBFS)[0]
        # dropping u (vertex 6) leaves a 6-pan where the restriction is
        # BFS-valid but no longer LexBFS-valid
        sub, mapping = induced_subgraph(g, [0, 1, 2, 3, 4, 5, 7])
        restricted = tuple(mapping[v] for v in sigma if v in mapping)
        assert is_search_ordering(sub, restricted, SearchKind.BFS)[0]
        assert not is_search_ordering(sub, restricted, SearchKind.LEXBFS)[0]

    def test_non_generic_ordering_fails_every_kind(self):
        for kind in SearchKind:
            ok, witness = is_search_ordering(path(3), (0, 2, 1), kind)
            assert not ok
            assert witness == 2

    def test_mns_not_mcs_examples(self):
        for g, sigma in MNS_NOT_MCS_EXAMPLES:
            assert is_search_ordering(g, sigma, SearchKind.MNS)[0], (g, sigma)
            ok, witness = is_search_ordering(g, sigma, SearchKind.MCS)
            assert not ok
            assert witness in sigma

    def test_seventh_example_graph_admits_no_witness(self):
        """This graph admits no ordering that is MNS-valid and MCS-invalid;
        the ordering paired with it is not even MNS-valid.  Pinned here so
        the fact stays visible."""
        g, sigma = MNS_NOT_MCS_BROKEN_EXAMPLE
        assert not is_search_ordering(g, sigma, SearchKind.MNS)[0]
        for p in permutations(range(g.n)):
            if is_search_ordering(g, p, SearchKind.MNS)[0]:
                assert is_search_ordering(g, p, SearchKind.MCS)[0]

    def test_rejects_disconnected(self):
        from searchorder import DisconnectedGraphError, Graph
        with pytest.raises(DisconnectedGraphError):
            is_search_ordering(Graph(2), (0, 1), SearchKind.BFS)

    def test_disconnected_is_reported_before_a_malformed_ordering(self):
        from searchorder import DisconnectedGraphError, Graph
        with pytest.raises(DisconnectedGraphError):
            is_search_ordering(Graph(4, [(0, 1), (2, 3)]), (0, 0, 1, 2),
                               SearchKind.BFS)


class TestAgainstSimulationOracles:
    @pytest.mark.parametrize("kind", list(SearchKind), ids=lambda k: k.value)
    def test_validator_matches_oracle(self, kind, graphs_upto_5):
        oracle = ORACLES[kind]
        for g in graphs_upto_5:
            for p in permutations(range(g.n)):
                assert is_search_ordering(g, p, kind)[0] == oracle(g, p), (g, p)

    def test_monotone_refinement(self, graphs_upto_5):
        """Hierarchy at the single-ordering level: a LexBFS ordering is a
        BFS and an MNS ordering, and so on down the refinement order."""
        V = is_search_ordering
        K = SearchKind
        implications = [(K.LEXBFS, K.BFS), (K.LEXBFS, K.MNS),
                        (K.LEXDFS, K.DFS), (K.LEXDFS, K.MNS),
                        (K.MCS, K.MNS),
                        (K.BFS, K.GENERIC), (K.DFS, K.GENERIC),
                        (K.MNS, K.GENERIC)]
        for g in graphs_upto_5:
            for p in permutations(range(g.n)):
                for narrow, wide in implications:
                    if V(g, p, narrow)[0]:
                        assert V(g, p, wide)[0], (g, p, narrow, wide)


class TestAgainstReference:
    """The sweeps must give the same verdict and the same first violation
    as the triple scan, and the MCS buckets the same verdict and witness
    vertex as the step-by-step simulation."""

    def test_point_condition_matches_reference(self, graphs_upto_6):
        for g in graphs_upto_6:
            for p in permutations(range(g.n)):
                for kind in POINT_KINDS:
                    assert check_point_condition(g, p, kind) == \
                        reference_point_condition(g, p, kind), (g, p, kind)

    def test_mcs_witness_matches_reference(self, graphs_upto_6):
        for g in graphs_upto_6:
            for p in permutations(range(g.n)):
                if is_generic_order(g, p)[0]:
                    assert is_search_ordering(g, p, SearchKind.MCS) == \
                        reference_mcs_order(g, p), (g, p)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(random_connected_graphs(8, 48), st.randoms(use_true_random=False),
       st.integers(0, 2**32))
def test_point_condition_matches_reference_past_exhaustive_sizes(g, rng, seed):
    """A random permutation and the seeded search of every kind (Generic
    included), so rejected and accepted orderings both occur.  The seeded
    searches are generic, so their MCS verdict and witness are checked
    too."""
    shuffled = list(range(g.n))
    rng.shuffle(shuffled)
    seeded = [run_search(g, kind, TieBreak.seeded(seed)) for kind in SearchKind]
    for sigma in [shuffled] + seeded:
        for kind in POINT_KINDS:
            assert check_point_condition(g, sigma, kind) == \
                reference_point_condition(g, sigma, kind), (g, sigma, kind)
    for sigma in seeded:
        assert is_search_ordering(g, sigma, SearchKind.MCS) == \
            reference_mcs_order(g, sigma), (g, sigma)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(random_connected_graphs(8, 30, min_density=50),
                 complete_bipartite_graphs()),
       st.randoms(use_true_random=False), st.integers(0, 2**32))
def test_point_condition_on_dense_graphs_stars_and_complete_bipartite(g, rng, seed):
    """The sweeps' edge cases: dense graphs; stars and K_{p,q}, where every
    vertex of the large side has the same few neighbours, so MNS tails are
    long; and random permutations, about half of them not generic, which
    check_point_condition decides without the generic gate."""
    orderings = [run_search(g, kind, TieBreak.seeded(seed)) for kind in SearchKind]
    for _ in range(3):
        shuffled = list(range(g.n))
        rng.shuffle(shuffled)
        orderings.append(shuffled)
    for sigma in orderings:
        for kind in POINT_KINDS:
            assert check_point_condition(g, sigma, kind) == \
                reference_point_condition(g, sigma, kind), (g, sigma, kind)
