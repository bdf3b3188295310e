import hashlib
import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from searchorder import (
    DisconnectedGraphError,
    Graph,
    SearchKind,
    TieBreak,
    enumerate_orderings,
    is_search_ordering,
    run_search,
)
from searchorder.graphs import bits
from searchorder.searches import _KINDS, _root_key
from oracles import ORACLES, reference_candidates
from smallgraphs import complete, complete_bipartite, cycle, pan, path, paw, star
from strategies import random_connected_graphs

ALL_KINDS = list(SearchKind)


def kind_key(kind, g, prefix):
    """The kind's key of ``prefix``, stepped along it from the root."""
    key = _root_key(g.n)
    for v in prefix:
        key = _KINDS[kind][0](g.adj, key, v)
    return key


def candidate_mask(kind, adj, key):
    return _KINDS[kind][1](adj, key)


def candidates(kind, g, prefix):
    return set(bits(candidate_mask(kind, g.adj, kind_key(kind, g, prefix))))


class TestCandidates:
    def test_every_kind_offers_all_vertices_first(self):
        g = cycle(5)
        for kind in ALL_KINDS:
            assert candidates(kind, g, ()) == set(range(5))

    def test_complete_graph_symmetry(self):
        g = complete(4)
        for kind in ALL_KINDS:
            assert candidates(kind, g, (0,)) == {1, 2, 3}

    def test_mns_incomparable_labels_on_path(self):
        # a-b-c-d visited (b,c): labels {b} and {c} are incomparable
        assert candidates(SearchKind.MNS, path(4), (1, 2)) == {0, 3}

    def test_lexbfs_on_paw(self):
        # triangle a,b,c + pendant d on c; after (c,a) only b has label {c,a}
        assert candidates(SearchKind.LEXBFS, paw(), (2, 0)) == {1}

    def test_bfs_layer_heads(self):
        # 2 was discovered by 1 (rank 0); it beats nothing else: only 2 in fringe
        assert candidates(SearchKind.BFS, path(4), (1, 0)) == {2}

    def test_dfs_follows_deepest(self):
        assert candidates(SearchKind.DFS, star(3), (1, 0)) == {2, 3}

    def test_mcs_max_count(self):
        assert candidates(SearchKind.MCS, paw(), (0, 1)) == {2}

    def test_complete_prefix_has_no_candidates(self):
        g = path(3)
        for kind in ALL_KINDS:
            assert candidates(kind, g, (0, 1, 2)) == set()


def _keyed_prefixes(g):
    """Every incomplete prefix a generic search of g can reach, with each
    kind's key carried along it."""
    root = _root_key(g.n)
    stack = [((), {kind: root for kind in ALL_KINDS})]
    while stack:
        prefix, keys = stack.pop()
        if len(prefix) < g.n:
            yield prefix, keys
            generic = keys[SearchKind.GENERIC]
            for v in bits(candidate_mask(SearchKind.GENERIC, g.adj, generic)):
                stack.append((prefix + (v,),
                              {kind: _KINDS[kind][0](g.adj, key, v)
                               for kind, key in keys.items()}))


def _assert_partition(parts, whole):
    union = 0
    for part in parts:
        assert part and not part & union, parts
        union |= part
    assert union == whole, parts


_REACH_KINDS = (SearchKind.GENERIC, SearchKind.MNS, SearchKind.MCS)


def test_kind_keys_are_sound(graphs_upto_6):
    """enumerate_orderings and the inclusion walk rely on this: every key is
    an ordered partition of the unvisited vertices, so prefixes with equal
    keys for a kind leave the same vertices unvisited, and they offer equal
    candidates, which are read from the key alone.  Their equal extensions
    get equal keys, since a step reads only the key, and the walk compares
    those extensions in turn.  Generic, BFS, DFS, LexBFS and LexDFS take
    the key's first class; MNS and MCS choose from it, the fringe, and the
    visited set is what neither it nor the last class holds.  392,230
    prefixes repeat an earlier prefix's key, as many as with the visited
    mask as the key of Generic, MNS and MCS."""
    compared = 0
    for g in graphs_upto_6:
        everyone = (1 << g.n) - 1
        first = {}
        for prefix, keys in _keyed_prefixes(g):
            visited = reached = 0
            for v in prefix:
                visited |= 1 << v
                reached |= g.adj[v]
            unvisited = everyone & ~visited
            fringe = reached & unvisited
            for kind, key in keys.items():
                got = candidate_mask(kind, g.adj, key)
                if not prefix:
                    assert key == (everyone,)
                elif kind in _REACH_KINDS:
                    assert key == (fringe, unvisited ^ fringe)
                elif kind is SearchKind.BFS:
                    assert key[-1] == unvisited ^ fringe
                    _assert_partition(key[:-1], fringe)
                else:
                    _assert_partition(key, unvisited)
                if kind in _REACH_KINDS:
                    assert everyone & ~(key[0] | key[-1]) == visited
                    assert got & ~key[0] == 0 < got
                else:
                    assert got == key[0]
                seen = first.setdefault((kind, key), (prefix, visited))
                if seen[0] is prefix:
                    continue
                compared += 1
                assert seen[1] == visited, (g, kind, prefix, seen[0])
    assert compared == 392_230


def test_candidates_match_reference_rules(graphs_upto_6):
    """The candidates read from each kind's key are the label-comparing
    reference's sets for every kind at every incomplete prefix of a generic
    search, on every connected graph with n <= 6."""
    compared = 0
    for g in graphs_upto_6:
        for prefix, keys in _keyed_prefixes(g):
            compared += 1
            for kind, key in keys.items():
                assert set(bits(candidate_mask(kind, g.adj, key))) == \
                    reference_candidates(g, kind, prefix), (g, kind, prefix)
    assert compared == 63_162


class TestRunSearch:
    def test_forced_chain(self):
        got = run_search(path(3), SearchKind.DFS, TieBreak(), start=0)
        assert got == (0, 1, 2)

    def test_singleton(self):
        for kind in ALL_KINDS:
            assert run_search(Graph(1), kind) == (0,)

    def test_empty_graph_rejected(self):
        for kind in ALL_KINDS:
            with pytest.raises(ValueError, match="at least one vertex"):
                run_search(Graph(0), kind)

    def test_respects_start(self):
        got = run_search(cycle(5), SearchKind.BFS, start=3)
        assert got[0] == 3

    def test_every_step_was_a_candidate(self):
        g = cycle(6)
        for kind in ALL_KINDS:
            got = run_search(g, kind, TieBreak.seeded(7))
            for depth, v in enumerate(got):
                assert v in candidates(kind, g, got[:depth])

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

    def test_seeded_runs_are_pinned_at_scale(self):
        """Seeded runs of every kind, from no start and from n - 1, on
        random connected graphs with n = 16..48, where fringes hold many
        label groups and real ties are common: the digest of every
        ordering is fixed."""
        rng = random.Random(16)
        digest = hashlib.sha256()
        for n in (16, 24, 32, 40, 48):
            for p in (0.1, 0.3):
                tree = [(rng.randrange(v), v) for v in range(1, n)]
                extra = [(u, v) for u in range(n) for v in range(u + 1, n)
                         if rng.random() < p]
                g = Graph(n, tree + extra)
                for kind in ALL_KINDS:
                    for seed in (1, 7, 2026):
                        for start in (None, n - 1):
                            order = run_search(g, kind, TieBreak.seeded(seed),
                                               start)
                            digest.update(repr(order).encode())
        assert digest.hexdigest() == ("20c3d3229e7c3edded71913b1e5fd30a"
                                      "8c9be69fecee27a0dbec9b39cc0f042a")

    def test_forced_steps_draw_no_rng(self, monkeypatch):
        """A step with one candidate takes it without building an RNG; a
        step with two or more builds exactly one."""
        made = []

        class CountingRandom(random.Random):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr("searchorder.searches.random.Random",
                            CountingRandom)
        for kind in ALL_KINDS:
            assert run_search(path(30), kind, TieBreak.seeded(7), start=0) \
                == tuple(range(30)), kind
        assert made == []
        g = complete(5)
        order = run_search(g, SearchKind.BFS, TieBreak.seeded(7))
        ties = sum(len(candidates(SearchKind.BFS, g, order[:depth])) > 1
                   for depth in range(g.n))
        assert len(made) == ties == 4

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

    def test_empty_graph_has_no_orderings(self):
        for kind in ALL_KINDS:
            result = enumerate_orderings(Graph(0), kind)
            assert (result.orderings, result.truncated) == ((), False)

    def test_membership(self):
        result = enumerate_orderings(path(3), SearchKind.BFS)
        assert (1, 2, 0) in result.orderings
        assert (0, 2, 1) not in result.orderings
        assert (2, 1, 0, 3) not in result.orderings

    def test_membership_is_asked_of_the_orderings(self):
        """``in`` on the result itself would test the pair (orderings,
        truncated), where False is a member and no ordering is."""
        result = enumerate_orderings(path(3), SearchKind.BFS)
        for probe in (False, (1, 2, 0)):
            with pytest.raises(TypeError):
                probe in result

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


class TestClosedFormCounts:
    """Ordering counts known in closed form, past the sizes the oracles
    reach.  Most of these orderings are copied from an earlier state with
    the same key, so the copies are checked for order and count."""

    @staticmethod
    def orderings(g, kind):
        result = enumerate_orderings(g, kind)
        assert not result.truncated
        found = result.orderings
        assert all(a < b for a, b in zip(found, found[1:])), (g, kind)
        return found

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_k8_gives_every_permutation(self, kind):
        assert self.orderings(complete(8), kind) == \
            tuple(permutations(range(8)))

    def test_path_p12_generic(self):
        assert len(self.orderings(path(12), SearchKind.GENERIC)) == 2 ** 11

    def test_cycle_c12_generic(self):
        assert len(self.orderings(cycle(12), SearchKind.GENERIC)) == \
            12 * 2 ** 10

    @pytest.mark.parametrize("kind", [SearchKind.BFS, SearchKind.GENERIC],
                             ids=lambda k: k.value)
    def test_star_k1_8(self, kind):
        assert len(self.orderings(star(8), kind)) == 2 * 40_320

    @pytest.mark.parametrize("cap", [7, 61, 119])
    def test_cap_inside_a_copied_span(self, cap):
        """K5's 7th and 61st Generic orderings each open a span of two
        copied from an earlier state with the same key, and its last six
        are one such span, so cap 119 stops one short of the last."""
        full = enumerate_orderings(complete(5), SearchKind.GENERIC).orderings
        result = enumerate_orderings(complete(5), SearchKind.GENERIC, cap=cap)
        assert (result.orderings, result.truncated) == (full[:cap], True)


def test_enumeration_expands_each_key_once(graphs_upto_6, monkeypatch):
    """A kind's rule runs once per distinct key among the root and the
    prefixes of length 1..n - 2 of its orderings, each key stepped along
    its ordering: a repeated key's orderings are copied, and a prefix with
    one vertex left or none is completed without a rule."""
    calls = [0]

    def counted(rule):
        def call(adj, key):
            calls[0] += 1
            return rule(adj, key)
        return call

    for kind, (step, rule) in list(_KINDS.items()):
        monkeypatch.setitem(_KINDS, kind, (step, counted(rule)))
    for g in graphs_upto_6:
        for kind in ALL_KINDS:
            calls[0] = 0
            orderings = enumerate_orderings(g, kind).orderings
            keys = {kind_key(kind, g, o[:depth]) for o in orderings
                    for depth in range(max(g.n - 1, 1))}
            assert calls[0] == len(keys), (g, kind)


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
    prefix = ()
    while True:
        for kind in ALL_KINDS:
            assert candidates(kind, g, prefix) == \
                reference_candidates(g, kind, prefix), (g, kind, prefix)
        if len(prefix) == g.n:
            break
        options = sorted(candidates(SearchKind.GENERIC, g, prefix))
        prefix += (rng.choice(options),)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(random_connected_graphs(min_n=16, max_n=32, min_density=40),
       st.integers(0, 2**32))
def test_mns_mcs_match_reference_on_dense_graphs(g, seed):
    """Dense graphs split the fringe into many visited-neighbourhood
    groups: MNS and MCS agree with the reference at every prefix of a
    seeded generic run, the empty and the complete one included."""
    order = run_search(g, SearchKind.GENERIC, TieBreak.seeded(seed))
    for depth in range(g.n + 1):
        for kind in (SearchKind.MNS, SearchKind.MCS):
            assert candidates(kind, g, order[:depth]) == \
                reference_candidates(g, kind, order[:depth]), \
                (g, kind, order[:depth])


def _unshared_orderings(g, kind, cap):
    """Depth-first over the candidates in ascending order, no memo, stopped
    once ``cap + 1`` orderings are found."""
    found = []
    stack = [((), _root_key(g.n))]
    while stack and len(found) <= cap:
        prefix, key = stack.pop()
        if len(prefix) == g.n:
            found.append(prefix)
            continue
        stack.extend((prefix + (v,), _KINDS[kind][0](g.adj, key, v)) for v in
                     sorted(bits(candidate_mask(kind, g.adj, key)),
                            reverse=True))
    return tuple(found[:cap]), len(found) > cap


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(random_connected_graphs())
def test_enumeration_matches_unshared_walk_past_exhaustive_sizes(g):
    """Subtrees shared below equal per-kind keys give what walking every
    subtree gives, orderings and truncation flag alike, at a large and a
    small cap."""
    for kind in ALL_KINDS:
        for cap in (300, 7):
            result = enumerate_orderings(g, kind, cap)
            assert (result.orderings, result.truncated) == \
                _unshared_orderings(g, kind, cap), (g, kind, cap)
