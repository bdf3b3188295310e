import json
import math
import random
from itertools import combinations

import pytest

from searchorder import (
    COROLLARY_A5A6,
    DisconnectedGraphError,
    EquivalenceReport,
    Graph,
    SearchKind,
    THEOREMS,
    THEOREM_A,
    THEOREM_B,
    THEOREM_C,
    check_theorem,
    enumerate_orderings,
    find_mns_not_mcs,
    is_search_ordering,
    orderings_equal,
    orderings_subset,
)
from searchorder import equivalence, searches
from searchorder.equivalence import (_THEOREMS, InconsistentStateError,
                                     _one_direction)
from searchorder.searches import (_KINDS, DEFAULT_WALK_CAP, _root_key,
                                  first_outside)
from searchorder.graphs import is_connected, twin_classes
from searchorder.patterns import recognize_structure
from searchorder.validators import PointViolation
from oracles import reference_first_outside
from smallgraphs import (
    MNS_NOT_MCS_BROKEN_EXAMPLE,
    MNS_NOT_MCS_EXAMPLES,
    complete,
    complete_bipartite,
    complete_multipartite,
    cycle,
    grid,
    pan,
    path,
    paw,
    star,
)


class TestOrderingsSubset:
    def test_paw_bfs_not_subset_of_lexbfs(self):
        report = orderings_subset(paw(), SearchKind.BFS, SearchKind.LEXBFS)
        assert not report.verdict
        assert report.witness_ordering == (2, 0, 3, 1)  # (c, a, d, b)
        assert report.witness_violation is not None
        assert not report.truncated

    def test_clique_any_pair(self):
        for kx in SearchKind:
            for ky in SearchKind:
                assert orderings_subset(complete(4), kx, ky).verdict

    def test_c6_dfs_subset_of_lexdfs(self):
        assert orderings_subset(cycle(6), SearchKind.DFS, SearchKind.LEXDFS).verdict

    def test_p4_mns_not_subset_of_lexbfs(self):
        report = orderings_subset(path(4), SearchKind.MNS, SearchKind.LEXBFS)
        assert not report.verdict
        assert report.witness_ordering == (1, 2, 3, 0)  # (b, c, d, a)

    def test_witness_is_x_valid_y_invalid(self):
        g = pan(6)
        report = orderings_subset(g, SearchKind.DFS, SearchKind.LEXDFS)
        assert not report.verdict
        assert is_search_ordering(g, report.witness_ordering, SearchKind.DFS)[0]
        assert not is_search_ordering(g, report.witness_ordering,
                                      SearchKind.LEXDFS)[0]

    def test_size_guard(self):
        """The library has no size guard: it decides at n = 9 unasked."""
        g = cycle(9)
        assert orderings_subset(g, SearchKind.BFS, SearchKind.LEXBFS).verdict
        report = orderings_subset(g, SearchKind.BFS, SearchKind.DFS)
        assert report.verdict is False
        assert is_search_ordering(g, report.witness_ordering, SearchKind.BFS)[0]
        assert not is_search_ordering(g, report.witness_ordering,
                                      SearchKind.DFS)[0]

    def test_a_kind_lies_within_itself_without_a_walk(self):
        """DFS within DFS holds by identity, even at cap 1 on the 8 x 8
        grid, where a walk stops at that cap."""
        g = grid(8, 8)
        assert orderings_subset(g, SearchKind.DFS, SearchKind.GENERIC,
                                cap=1).verdict is None
        assert orderings_subset(g, SearchKind.DFS, SearchKind.DFS,
                                cap=1).verdict is True

    def test_empty_graph_holds_vacuously(self):
        report = orderings_subset(Graph(0), SearchKind.GENERIC, SearchKind.DFS)
        assert (report.verdict, report.witness_ordering) == (True, None)

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError, match="cap must be positive"):
            orderings_subset(path(3), SearchKind.GENERIC, SearchKind.BFS,
                             cap=0)

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            orderings_subset(Graph(2), SearchKind.BFS, SearchKind.DFS)


class TestOrderingsEqual:
    def test_star_bfs_equals_dfs(self):
        assert orderings_equal(star(3), SearchKind.BFS, SearchKind.DFS).verdict

    def test_p4_bfs_not_equal_dfs(self):
        report = orderings_equal(path(4), SearchKind.BFS, SearchKind.DFS)
        assert not report.verdict
        assert report.witness_ordering is not None

    def test_c4_generic_equals_mns(self):
        assert orderings_equal(cycle(4), SearchKind.GENERIC, SearchKind.MNS).verdict

    def test_unknown_forward_does_not_hide_refuted_backward(self):
        # path 2-1-0-3: every BFS ordering is generic, but the walk needs
        # 11 search states to say so; after 3 it has found that the first
        # generic ordering (0, 1, 2, 3) is not BFS, which settles equality
        g = Graph(4, [(0, 1), (1, 2), (0, 3)])
        report = orderings_equal(g, SearchKind.BFS, SearchKind.GENERIC, cap=3)
        assert report.verdict is False
        assert report.witness_ordering == (0, 1, 2, 3)
        assert not report.truncated

    def test_both_directions_unknown_is_unknown(self):
        report = orderings_equal(complete(4), SearchKind.GENERIC,
                                 SearchKind.BFS, cap=1)
        assert report.verdict is None
        assert report.truncated

    def test_unknown_verdict_is_null_in_json(self):
        report = orderings_subset(complete(4), SearchKind.GENERIC,
                                  SearchKind.BFS, cap=1)
        payload = report.to_dict()
        assert payload["verdict"] is None and payload["truncated"] is True
        assert list(payload) == ["kind_x", "kind_y", "relation", "verdict",
                                 "witness_ordering", "witness_violation",
                                 "witness_vertex", "truncated"]

    def test_report_round_trips_through_json(self):
        report = orderings_subset(paw(), SearchKind.BFS, SearchKind.LEXBFS)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["kind_x"] == "bfs"
        assert payload["verdict"] is False
        assert payload["witness_ordering"] == [2, 0, 3, 1]
        assert payload["witness_violation"]["kind"] == "lexbfs"


class TestCheckTheorem:
    def test_star_theorem_a_consistent_true(self):
        report = check_theorem(star(3), THEOREM_A)
        assert report.structural_prediction
        assert all(value for _, value in report.items)
        assert report.consistent

    def test_6_pan_theorem_b_consistent_false(self):
        report = check_theorem(pan(6), THEOREM_B)
        assert not report.structural_prediction
        items = dict(report.items)
        assert items["B2: dfs subset-of lexdfs"] is False
        assert report.consistent

    def test_p4_theorem_c(self):
        report = check_theorem(path(4), THEOREM_C)
        assert not report.structural_prediction
        items = dict(report.items)
        assert items["C3: mns subset-of lexbfs"] is False
        c3 = report.reports[1]
        assert c3.witness_ordering == (1, 2, 3, 0)  # (b, c, d, a)
        assert report.consistent

    def test_corollary_on_clique(self):
        report = check_theorem(complete(4), COROLLARY_A5A6)
        assert report.structural_prediction and report.consistent

    def test_item_names(self):
        names = {theorem: [name for name, _ in
                           check_theorem(complete(3), theorem).items]
                 for theorem in THEOREMS}
        assert names == {
            "A": ["A2: generic subset-of dfs", "A3: generic subset-of bfs",
                  "A4: bfs equals dfs"],
            "B": ["B2: dfs subset-of lexdfs", "B3: bfs subset-of lexbfs",
                  "B4: generic subset-of mns"],
            "C": ["C2: mns subset-of lexdfs", "C3: mns subset-of lexbfs"],
            "corollary": ["A5: generic subset-of lexdfs",
                          "A6: generic subset-of lexbfs"],
        }

    def test_unknown_theorem_rejected(self):
        with pytest.raises(ValueError):
            check_theorem(path(3), "D")

    def test_to_dict_shape(self):
        payload = check_theorem(path(4), THEOREM_A).to_dict()
        assert payload["theorem"] == "A"
        assert isinstance(payload["consistent"], bool)
        assert all({"item", "holds"} <= set(entry) for entry in payload["items"])
        assert payload["truncated"] is False

    def test_cap_reached_is_truncated_not_consistent(self):
        report = check_theorem(complete(4), THEOREM_A, cap=1)
        assert report.structural_prediction
        assert all(value is None for _, value in report.items)
        assert report.truncated
        assert not report.consistent
        payload = report.to_dict()
        assert payload["truncated"] is True
        assert all(entry["holds"] is None for entry in payload["items"])
        assert all(r.verdict is None and r.truncated for r in report.reports)

    def test_counterexample_within_cap_is_conclusive(self):
        # path 2-1-0-3: its first generic ordering (0, 1, 2, 3) is DFS but
        # not BFS, so A3 is refuted after 3 search states, while A2 needs a
        # 4th to reach (0, 1, 3, 2) and stops at the cap
        report = check_theorem(Graph(4, [(0, 1), (1, 2), (0, 3)]), THEOREM_A,
                               cap=3)
        a2, a3 = report.reports[:2]
        assert a2.verdict is None and a2.truncated
        assert not a3.verdict and not a3.truncated
        assert a3.witness_ordering == (0, 1, 2, 3)
        assert report.truncated and not report.consistent

    def test_theorems_settled_past_n8_without_a_flag(self):
        """At the default cap every item is decided, and as predicted, on
        class members and near-misses with 9 to 12 vertices."""
        tree = Graph(12, [(i, (i - 1) // 2) for i in range(1, 12)])
        k10_minus_e = Graph(10, [(u, v) for u in range(10)
                                 for v in range(u + 1, 10) if (u, v) != (0, 1)])
        for g in (complete(9), complete(11), star(9), cycle(12),
                  complete_bipartite(5, 5), tree, k10_minus_e):
            for theorem in THEOREMS:
                report = check_theorem(g, theorem)
                assert all(value == report.structural_prediction
                           for _, value in report.items), (g, report)
        assert find_mns_not_mcs(complete(10)) is None


class TestFindMnsNotMcs:
    def test_known_positive_examples(self):
        for g, _ in MNS_NOT_MCS_EXAMPLES:
            hit = find_mns_not_mcs(g)
            assert hit is not None
            assert is_search_ordering(g, hit, SearchKind.MNS)[0]
            assert not is_search_ordering(g, hit, SearchKind.MCS)[0]

    def test_fourpan_listed_ordering_also_works(self):
        g, sigma = MNS_NOT_MCS_EXAMPLES[2]  # (c, a, d, e, b) on the 4-pan
        assert is_search_ordering(g, sigma, SearchKind.MNS)[0]
        assert not is_search_ordering(g, sigma, SearchKind.MCS)[0]

    def test_seventh_example_graph_has_no_witness(self):
        g, _ = MNS_NOT_MCS_BROKEN_EXAMPLE
        assert find_mns_not_mcs(g) is None

    def test_clique_and_star_have_none(self):
        assert find_mns_not_mcs(complete(4)) is None
        assert find_mns_not_mcs(star(3)) is None

    def test_matches_the_subset_report(self, graphs_upto_6):
        # among them DrW, whose witness (0, 1, 3, 4, 2) lies past a cap of 1
        for g in graphs_upto_6:
            assert find_mns_not_mcs(g) == \
                orderings_subset(g, SearchKind.MNS,
                                 SearchKind.MCS).witness_ordering, g

    def test_witness_is_lexicographically_first(self):
        g, _ = MNS_NOT_MCS_EXAMPLES[0]
        hit = find_mns_not_mcs(g)
        from searchorder import enumerate_orderings
        for ordering in enumerate_orderings(g, SearchKind.MNS).orderings:
            if ordering == hit:
                break
            assert is_search_ordering(g, ordering, SearchKind.MCS)[0]


def _enumerate_then_validate(g, kind_x, kind_y, relation):
    """The old decision: validate the kind_x orderings in lexicographic
    order against kind_y and stop at the first that fails."""
    for ordering in enumerate_orderings(g, kind_x).orderings:
        ok, witness = is_search_ordering(g, ordering, kind_y)
        if not ok:
            return EquivalenceReport(
                kind_x, kind_y, relation, False, witness_ordering=ordering,
                witness_violation=(witness if isinstance(witness, PointViolation)
                                   else None),
                witness_vertex=witness if isinstance(witness, int) else None,
            ).to_dict()
    return EquivalenceReport(kind_x, kind_y, relation, True).to_dict()


def test_walk_matches_enumerate_then_validate(graphs_upto_6):
    pairs = [(kx, ky, relation)
             for _, rows in _THEOREMS.values()
             for _, kx, ky, relation in rows]
    pairs += [(ky, kx, relation) for kx, ky, relation in pairs
              if relation == "equal"]
    pairs.append((SearchKind.MNS, SearchKind.MCS, "subset"))
    for g in graphs_upto_6:
        for kx, ky, relation in pairs:
            got = _one_direction(g, kx, ky, relation, cap=10_000_000).to_dict()
            assert got == _enumerate_then_validate(g, kx, ky, relation), \
                (g, kx, ky)


def test_enumeration_stops_at_every_cap(graphs_upto_5):
    """The enumeration capped at c keeps the first c orderings, and it is
    truncated iff more than c exist."""
    for g in graphs_upto_5:
        for kx in SearchKind:
            orderings = enumerate_orderings(g, kx).orderings
            m = len(orderings)
            for cap in range(1, m + 2):
                capped = enumerate_orderings(g, kx, cap)
                assert (capped.orderings, capped.truncated) == \
                    (orderings[:cap], m > cap), (g, kx, cap)


def _key_pairs(g, orderings, kx, ky):
    """The distinct (kx key, ky key) pairs among the proper prefixes of
    ``orderings``, each key stepped along its ordering."""
    pairs = set()
    for o in orderings:
        pair = (_root_key(g.n), _root_key(g.n))
        for v in o:
            pairs.add(pair)
            pair = (_KINDS[kx][0](g.adj, pair[0], v),
                    _KINDS[ky][0](g.adj, pair[1], v))
    return pairs


def test_walk_cap_is_a_threshold_in_search_states(graphs_upto_5):
    """With K the distinct key pairs among the proper prefixes of the
    kind_x orderings, counted from the enumeration, there is a T <= K such
    that every cap below T stops the walk unknown and every cap from T to
    K + 1 gives the first kind_x ordering that kind_y's validator
    rejects."""
    for g in graphs_upto_5:
        for kx in SearchKind:
            orderings = enumerate_orderings(g, kx).orderings
            for ky in SearchKind:
                k = len(_key_pairs(g, orderings, kx, ky))
                first = next((o for o in orderings
                              if not is_search_ordering(g, o, ky)[0]), None)
                got = [first_outside(g, kx, ky, cap)
                       for cap in range(1, k + 2)]
                t = next((cap for cap, result in enumerate(got, 1)
                          if result != (None, True)), k + 2)
                assert t <= k, (g, kx, ky)
                assert got[t - 1:] == [(first, False)] * (k + 2 - t), \
                    (g, kx, ky)


def test_clique_walks_each_search_state_once(monkeypatch):
    """Every item holds on K7, so each walk covers its whole tree; walking
    each distinct search state once keeps the four theorems within 5,000
    candidate rule calls, where walking every prefix takes 190,520.  The
    count must be positive, or the walk no longer reads the rows counted
    here."""
    calls = 0

    def counted(rule):
        def call(adj, key):
            nonlocal calls
            calls += 1
            return rule(adj, key)
        return call

    for kind, (step, rule) in list(_KINDS.items()):
        monkeypatch.setitem(searches._KINDS, kind, (step, counted(rule)))
    for theorem in (THEOREM_A, THEOREM_B, THEOREM_C, COROLLARY_A5A6):
        assert check_theorem(complete(7), theorem).consistent
    assert 0 < calls <= 5_000


def test_walk_equals_the_unpruned_reference_up_to_6(graphs_upto_6):
    """Twin pruning skips only subtrees that mirror one already walked, so
    every ordered pair gives the unpruned walk's first counterexample."""
    for g in graphs_upto_6:
        for kx in SearchKind:
            for ky in SearchKind:
                assert first_outside(g, kx, ky, math.inf) == \
                    reference_first_outside(g, kx, ky, math.inf), (g, kx, ky)


def _twin_rich_graphs(seed):
    """Connected graphs with 8 to 11 vertices from four families: K_n - e,
    complete multipartite, trivially perfect plus an edge, and G(n, p)
    over a random spanning tree."""
    rng = random.Random(seed)
    n = rng.randint(8, 11)
    e = rng.choice(list(combinations(range(n), 2)))
    yield Graph(n, [f for f in combinations(range(n), 2) if f != e])
    parts = [1] * rng.randint(2, 4)
    for _ in range(n - len(parts)):
        parts[rng.randrange(len(parts))] += 1
    yield complete_multipartite(*parts)
    # each vertex joined to every ancestor in a random rooted tree
    parent = [None] + [rng.randrange(v) for v in range(1, n)]
    edges = set()
    for v in range(1, n):
        u = parent[v]
        while u is not None:
            edges.add((u, v))
            u = parent[u]
    missing = [f for f in combinations(range(n), 2) if f not in edges]
    if missing:
        edges.add(rng.choice(missing))
    yield Graph(n, sorted(edges))
    p = rng.random()
    yield Graph(n, [(rng.randrange(v), v) for v in range(1, n)]
                + [e for e in combinations(range(n), 2) if rng.random() < p])


@pytest.mark.parametrize("seed", range(6))
def test_no_settled_verdict_differs_on_twin_rich_graphs(seed):
    """At the default cap the pruned walk walks no more key pairs than the
    unpruned one, so whatever the reference settles, it settles the same."""
    for g in _twin_rich_graphs(seed):
        for kx in SearchKind:
            for ky in SearchKind:
                expected = reference_first_outside(g, kx, ky,
                                                   DEFAULT_WALK_CAP)
                if not expected[1]:
                    assert first_outside(g, kx, ky, DEFAULT_WALK_CAP) == \
                        expected, (g, kx, ky)


@pytest.mark.parametrize("n", [8, 12, 30])
def test_clique_settles_every_pair_within_n_key_pairs(n):
    """All of K_n's vertices are twins, so each frame walks one candidate
    and a walk covers n - 1 key pairs; without twin pruning, Generic
    within DFS walks one pair per nonempty proper visited set."""
    g = complete(n)
    for kx in SearchKind:
        for ky in SearchKind:
            assert first_outside(g, kx, ky, n) == (None, False), (kx, ky)


def test_walk_rejects_a_disconnected_graph():
    """Past 2K2's component {0, 1} the rules allow no vertex: the walk
    refuses the graph rather than report vertex 2 as a counterexample
    (LexDFS within Generic) or fail on the empty fringe (MNS within
    BFS)."""
    g = Graph(4, [(0, 1), (2, 3)])
    for kx, ky in ((SearchKind.LEXDFS, SearchKind.GENERIC),
                   (SearchKind.MNS, SearchKind.BFS)):
        with pytest.raises(DisconnectedGraphError):
            first_outside(g, kx, ky, math.inf)


def test_key_pairs_settle_what_the_full_key_could_not():
    """The walk merges prefixes on which both kinds' keys agree, though the
    visited neighbourhoods differ: K6,6's Generic orderings lie within its
    MNS orderings, and K14 - e's MNS orderings within its LexDFS ones, and
    both are settled at these caps."""
    k14_minus_e = Graph(14, complete(14).edges()[1:])
    for g, kx, ky, cap in (
            (complete_bipartite(6, 6), SearchKind.GENERIC, SearchKind.MNS,
             5_000),
            (k14_minus_e, SearchKind.MNS, SearchKind.LEXDFS, 15_000)):
        assert orderings_subset(g, kx, ky, cap=cap).verdict is True, (kx, ky)


def test_validator_accepting_a_rejected_ordering_raises(monkeypatch):
    """Every refutation is confirmed by the validator: an ordering the
    candidate rule rejects but the validator accepts is a bug, never a
    verdict."""
    monkeypatch.setattr(equivalence, "is_search_ordering",
                        lambda g, ordering, kind: (True, None))
    with pytest.raises(InconsistentStateError, match="validator accepts"):
        _one_direction(paw(), SearchKind.BFS, SearchKind.LEXBFS, "subset",
                       cap=100)


_MEMOS = (is_connected, twin_classes, recognize_structure)


def _memoized_results(g):
    """Everything the three memos feed: the four theorem checks, the 49
    walks, the class label and the twin classes."""
    return ([check_theorem(g, theorem) for theorem in THEOREMS],
            [first_outside(g, kx, ky, DEFAULT_WALK_CAP)
             for kx in SearchKind for ky in SearchKind],
            recognize_structure(g), twin_classes(g.adj))


def test_memos_hold_one_graph_and_never_leak_between_graphs():
    """is_connected, twin_classes and recognize_structure remember the last
    graph only.  Interleaving two trees with equal vertex and edge counts
    and a new graph equal to the first gives every result that a cleared
    memo gives."""
    assert [memo.cache_info().maxsize for memo in _MEMOS] == [1, 1, 1]
    first = path(6)
    equal = Graph(6, first.edges())
    assert equal is not first and equal == first
    order = (first, star(5), equal, first, equal, star(5))
    remembered = [_memoized_results(g) for g in order]
    fresh = []
    for g in order:
        for memo in _MEMOS:
            memo.cache_clear()
        fresh.append(_memoized_results(g))
    assert remembered == fresh
