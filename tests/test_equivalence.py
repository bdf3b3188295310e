import json

import pytest

from searchorder import (
    COROLLARY_A5A6,
    DisconnectedGraphError,
    EquivalenceReport,
    Graph,
    SearchKind,
    SizeGuardError,
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
from searchorder import equivalence
from searchorder.equivalence import (_THEOREM_ITEMS, _first_outside,
                                     _one_direction)
from searchorder.validators import PointViolation
from smallgraphs import (
    MNS_NOT_MCS_BROKEN_EXAMPLE,
    MNS_NOT_MCS_EXAMPLES,
    complete,
    cycle,
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
        with pytest.raises(SizeGuardError):
            orderings_subset(cycle(9), SearchKind.BFS, SearchKind.DFS)
        assert orderings_subset(cycle(9), SearchKind.BFS, SearchKind.LEXBFS,
                                allow_large=True).verdict

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
        # path 2-1-0-3: every BFS ordering is generic, but the walk stops at
        # the cap before it can say so; the first generic ordering
        # (0, 1, 2, 3) is not BFS, which settles equality
        g = Graph(4, [(0, 1), (1, 2), (0, 3)])
        report = orderings_equal(g, SearchKind.BFS, SearchKind.GENERIC, cap=1)
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
        # not BFS, so A2 stops at the cap while A3 is refuted before it
        report = check_theorem(Graph(4, [(0, 1), (1, 2), (0, 3)]), THEOREM_A,
                               cap=1)
        a2, a3 = report.reports[:2]
        assert a2.verdict is None and a2.truncated
        assert not a3.verdict and not a3.truncated
        assert a3.witness_ordering == (0, 1, 2, 3)
        assert report.truncated and not report.consistent


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
             for items in _THEOREM_ITEMS.values()
             for _, kx, ky, relation in items]
    pairs += [(ky, kx, relation) for kx, ky, relation in pairs
              if relation == "equal"]
    pairs.append((SearchKind.MNS, SearchKind.MCS, "subset"))
    for g in graphs_upto_6:
        for kx, ky, relation in pairs:
            got = _one_direction(g, kx, ky, relation, cap=10_000_000).to_dict()
            assert got == _enumerate_then_validate(g, kx, ky, relation), \
                (g, kx, ky)


def test_walk_stops_at_every_cap_as_the_enumeration_does(graphs_upto_5):
    """With o_j the first kind_x ordering that kind_y rejects, a walk capped
    at c finds o_j iff the j - 1 orderings before it fit under c; without
    such an ordering it is truncated iff the m orderings exceed c."""
    for g in graphs_upto_5:
        for kx in SearchKind:
            orderings = enumerate_orderings(g, kx).orderings
            m = len(orderings)
            for ky in SearchKind:
                j, first = next(
                    ((j, o) for j, o in enumerate(orderings, 1)
                     if not is_search_ordering(g, o, ky)[0]), (None, None))
                for cap in range(1, m + 2):
                    if first is None:
                        expected = (None, m > cap)
                    elif j - 1 < cap:
                        expected = (first, False)
                    else:
                        expected = (None, True)
                    assert _first_outside(g, kx, ky, cap) == expected, \
                        (g, kx, ky, cap)


def test_clique_walks_each_search_state_once(monkeypatch):
    """Every item holds on K7, so each walk covers its whole tree; walking
    each distinct search state once keeps the four theorems within 5,000
    candidate calls, where walking every prefix takes 190,520.  The count
    must be positive, or the walk no longer calls the name counted here."""
    calls = 0
    real = equivalence.candidate_mask

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(equivalence, "candidate_mask", counted)
    for theorem in (THEOREM_A, THEOREM_B, THEOREM_C, COROLLARY_A5A6):
        assert check_theorem(complete(7), theorem).consistent
    assert 0 < calls <= 5_000
