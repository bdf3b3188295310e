from itertools import permutations

import pytest

from searchorder import (
    DisconnectedGraphError,
    Graph,
    SearchKind,
    SearchState,
    TieBreak,
    candidates,
    enumerate_orderings,
    run_search,
)
from searchorder.searches import InconsistentStateError
from oracles import ORACLES
from smallgraphs import complete, complete_bipartite, cycle, pan, path, paw, star

ALL_KINDS = list(SearchKind)


class TestCandidates:
    def test_every_kind_offers_all_vertices_first(self):
        g = cycle(5)
        for kind in ALL_KINDS:
            assert candidates(g, kind, SearchState(g)) == set(range(5))

    def test_complete_graph_symmetry(self):
        g = complete(4)
        state = SearchState(g, (0,))
        for kind in ALL_KINDS:
            assert candidates(g, kind, state) == {1, 2, 3}

    def test_mns_incomparable_labels_on_path(self):
        # a-b-c-d visited (b,c): labels {b} and {c} are incomparable
        g = path(4)
        state = SearchState(g, (1, 2))
        assert candidates(g, SearchKind.MNS, state) == {0, 3}

    def test_lexbfs_on_paw(self):
        # triangle a,b,c + pendant d on c; after (c,a) only b has label {c,a}
        g = paw()
        state = SearchState(g, (2, 0))
        assert candidates(g, SearchKind.LEXBFS, state) == {1}

    def test_bfs_layer_heads(self):
        g = path(4)
        state = SearchState(g, (1, 0))
        # 2 was discovered by 1 (rank 0); it beats nothing else: only 2 in fringe
        assert candidates(g, SearchKind.BFS, state) == {2}

    def test_dfs_follows_deepest(self):
        g = star(3)
        state = SearchState(g, (1, 0))
        assert candidates(g, SearchKind.DFS, state) == {2, 3}

    def test_mcs_max_count(self):
        g = paw()
        state = SearchState(g, (0, 1))
        assert candidates(g, SearchKind.MCS, state) == {2}

    def test_rejects_duplicate_visit(self):
        g = path(3)
        with pytest.raises(InconsistentStateError):
            SearchState(g, (0, 0))

    def test_rejects_state_of_other_graph(self):
        state = SearchState(path(3), (0,))
        with pytest.raises(InconsistentStateError):
            candidates(cycle(4), SearchKind.BFS, state)


class TestRunSearch:
    def test_forced_chain(self):
        got = run_search(path(3), SearchKind.DFS, TieBreak.min_index(), start=0)
        assert tuple(got) == (0, 1, 2)

    def test_singleton(self):
        for kind in ALL_KINDS:
            assert tuple(run_search(Graph(1), kind)) == (0,)

    def test_respects_start(self):
        got = run_search(cycle(5), SearchKind.BFS, start=3)
        assert got[0] == 3

    def test_every_step_was_a_candidate(self):
        g = cycle(6)
        for kind in ALL_KINDS:
            got = run_search(g, kind, TieBreak.seeded(7))
            state = SearchState(g)
            for v in got:
                assert v in candidates(g, kind, state)
                state = state.extend(v)

    def test_seeded_runs_reproduce(self):
        g = cycle(6)
        for kind in ALL_KINDS:
            a = run_search(g, kind, TieBreak.seeded(123))
            b = run_search(g, kind, TieBreak.seeded(123))
            assert a == b

    def test_distinct_seeds_explore_distinct_orders(self):
        outcomes = {tuple(run_search(complete(5), SearchKind.BFS,
                                     TieBreak.seeded(s)))
                    for s in range(30)}
        assert len(outcomes) > 1

    def test_c5_queue_order_reachable(self):
        # visit both neighbors of the start, nearer side first
        results = {tuple(run_search(cycle(5), SearchKind.BFS, TieBreak.seeded(s),
                                    start=0))
                   for s in range(200)}
        assert (0, 1, 4, 2, 3) in results

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            run_search(Graph(2), SearchKind.BFS)

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            run_search(path(3), SearchKind.BFS, start=9)


class TestEnumerate:
    def test_k3_all_kinds_all_permutations(self):
        for kind in ALL_KINDS:
            result = enumerate_orderings(complete(3), kind)
            assert len(result.orderings) == 6
            assert not result.truncated

    def test_p3_bfs(self):
        result = enumerate_orderings(path(3), SearchKind.BFS)
        assert result.orderings == ((0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0))

    def test_star_generic_matches_permutation_filter(self):
        g = star(3)
        got = set(enumerate_orderings(g, SearchKind.GENERIC).orderings)
        expected = {p for p in permutations(range(4))
                    if ORACLES[SearchKind.GENERIC](g, p)}
        assert got == expected

    def test_orderings_are_sorted(self):
        for g in (cycle(6), path(6), pan(5), complete_bipartite(2, 4)):
            for kind in ALL_KINDS:
                result = enumerate_orderings(g, kind)
                assert result.orderings == tuple(sorted(result.orderings)), \
                    (g, kind)

    def test_membership(self):
        result = enumerate_orderings(path(3), SearchKind.BFS)
        assert (1, 2, 0) in result
        assert [1, 2, 0] in result
        assert (0, 2, 1) not in result
        assert (2, 1, 0, 3) not in result

    def test_cap_truncates_loudly(self):
        result = enumerate_orderings(complete(4), SearchKind.GENERIC, cap=5)
        assert result.truncated
        assert len(result.orderings) == 5

    def test_rejects_zero_cap(self):
        with pytest.raises(ValueError):
            enumerate_orderings(path(3), SearchKind.BFS, cap=0)

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            enumerate_orderings(Graph(3, [(0, 1)]), SearchKind.BFS)


class TestAgainstSimulationOracles:
    """The candidate rules must reproduce exactly the orderings accepted by
    the independent data-structure simulations, for every connected graph
    on up to 5 vertices and every permutation."""

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_enumeration_matches_oracle(self, kind, graphs_upto_5):
        oracle = ORACLES[kind]
        for g in graphs_upto_5:
            enumerated = set(enumerate_orderings(g, kind).orderings)
            accepted = {p for p in permutations(range(g.n)) if oracle(g, p)}
            assert enumerated == accepted, (g, kind)
