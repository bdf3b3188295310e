from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from searchorder import (
    DisconnectedGraphError,
    Graph,
    SearchKind,
    SearchState,
    TieBreak,
    candidates,
    enumerate_orderings,
    is_search_ordering,
    run_search,
)
from searchorder.graphs import bits
from searchorder.searches import InconsistentStateError
from oracles import ORACLES, reference_candidates
from smallgraphs import complete, complete_bipartite, cycle, pan, path, paw, star
from strategies import random_connected_graphs

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

    def test_complete_prefix_has_no_candidates(self):
        g = path(3)
        for kind in ALL_KINDS:
            assert candidates(g, kind, SearchState(g, (0, 1, 2))) == set()

    def test_rejects_duplicate_visit(self):
        g = path(3)
        with pytest.raises(InconsistentStateError):
            SearchState(g, (0, 0))

    def test_rejects_state_of_other_graph(self):
        state = SearchState(path(3), (0,))
        with pytest.raises(InconsistentStateError):
            candidates(cycle(4), SearchKind.BFS, state)


def _generic_prefixes(g):
    """Every incomplete state a generic search of g can reach, the root
    included."""
    stack = [SearchState(g)]
    while stack:
        state = stack.pop()
        if len(state.visited) < g.n:
            yield state
            stack.extend(state.extend(v)
                         for v in candidates(g, SearchKind.GENERIC, state))


def test_equal_keys_give_equal_candidates(graphs_upto_6):
    """The memo of the inclusion walk relies on this: states with equal
    keys offer equal candidates for every kind, and so do their equal
    extensions."""
    compared = 0
    for g in graphs_upto_6:
        first = {}
        for state in _generic_prefixes(g):
            seen = first.setdefault(state.key(), state)
            if seen is state:
                continue
            compared += 1
            for kind in ALL_KINDS:
                assert candidates(g, kind, state) == \
                    candidates(g, kind, seen), (g, state.visited, seen.visited)
            fringe = state.reached_mask & ~state.visited_mask
            for v in bits(fringe):
                assert state.extend(v).key() == seen.extend(v).key()
    assert compared > 10_000


def test_candidates_match_reference_rules(graphs_upto_6):
    """The bitmask rules give the label-comparing reference's sets for every
    kind at every incomplete prefix of a generic search, on every connected
    graph with n <= 6."""
    compared = 0
    for g in graphs_upto_6:
        for state in _generic_prefixes(g):
            compared += 1
            for kind in ALL_KINDS:
                assert candidates(g, kind, state) == \
                    reference_candidates(g, kind, state.visited), \
                    (g, kind, state.visited)
    assert compared == 63_162


class TestRunSearch:
    def test_forced_chain(self):
        got = run_search(path(3), SearchKind.DFS, TieBreak.min_index(), start=0)
        assert got == (0, 1, 2)

    def test_singleton(self):
        for kind in ALL_KINDS:
            assert run_search(Graph(1), kind) == (0,)

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

    def test_seeded_orderings_are_pinned(self):
        # a tie-break keyed by the ascending candidate list: changing how
        # the candidates are passed to it must not change a seeded run
        g = Graph(9, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 5), (4, 6),
                      (5, 6), (5, 7), (6, 8), (7, 8), (1, 2)])
        expected = {
            SearchKind.GENERIC: ((3, 5, 6, 8, 4, 2, 7, 0, 1),
                                 (4, 1, 2, 6, 8, 7, 0, 3, 5)),
            SearchKind.BFS: ((3, 5, 0, 6, 7, 2, 1, 8, 4),
                             (4, 1, 2, 6, 0, 5, 8, 3, 7)),
            SearchKind.DFS: ((3, 5, 7, 8, 6, 4, 1, 0, 2),
                             (4, 1, 0, 2, 3, 5, 6, 8, 7)),
            SearchKind.LEXBFS: ((3, 5, 0, 6, 7, 2, 1, 8, 4),
                                (4, 1, 2, 6, 0, 5, 8, 3, 7)),
            SearchKind.LEXDFS: ((3, 5, 7, 8, 6, 4, 1, 2, 0),
                                (4, 1, 2, 0, 3, 5, 6, 8, 7)),
            SearchKind.MNS: ((3, 5, 6, 8, 4, 2, 7, 0, 1),
                             (4, 1, 2, 6, 8, 7, 0, 3, 5)),
            SearchKind.MCS: ((3, 5, 6, 8, 7, 0, 2, 1, 4),
                             (4, 1, 2, 0, 6, 3, 5, 8, 7)),
        }
        tiebreak = TieBreak.seeded(2026)
        for kind, (free, started) in expected.items():
            assert run_search(g, kind, tiebreak) == free, kind
            assert run_search(g, kind, tiebreak, start=4) == started, kind

    def test_distinct_seeds_explore_distinct_orders(self):
        outcomes = {run_search(complete(5), SearchKind.BFS, TieBreak.seeded(s))
                    for s in range(30)}
        assert len(outcomes) > 1

    def test_c5_queue_order_reachable(self):
        # visit both neighbors of the start, nearer side first
        results = {run_search(cycle(5), SearchKind.BFS, TieBreak.seeded(s),
                              start=0)
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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(random_connected_graphs(), st.integers(0, 2**32))
def test_seeded_searches_past_exhaustive_sizes(g, seed):
    for kind in ALL_KINDS:
        order = run_search(g, kind, TieBreak.seeded(seed))
        assert is_search_ordering(g, order, kind)[0], (g, kind, order)
        assert ORACLES[kind](g, order), (g, kind, order)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(random_connected_graphs(), st.randoms(use_true_random=False))
def test_candidates_match_reference_past_exhaustive_sizes(g, rng):
    """Every prefix of a random generic search, the complete one included."""
    state = SearchState(g)
    while True:
        for kind in ALL_KINDS:
            assert candidates(g, kind, state) == \
                reference_candidates(g, kind, state.visited), \
                (g, kind, state.visited)
        if len(state.visited) == g.n:
            break
        options = sorted(candidates(g, SearchKind.GENERIC, state))
        state = state.extend(rng.choice(options))
