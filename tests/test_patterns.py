import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from searchorder import (
    C4,
    DIAMOND,
    DisconnectedGraphError,
    Graph,
    P4,
    PAN,
    PAW,
    PatternHit,
    find_induced_pan,
    find_induced_small,
    induced_subgraph,
    parse_graph6,
    paw_free_decomposition,
    recognize_structure,
)
from searchorder import patterns
from searchorder.patterns import (FORBIDDEN, find_forbidden,
                                  is_complete_multipartite, is_forest,
                                  is_trivially_perfect)
from oracles import (SMALL_PATTERNS, first_induced_pan, first_induced_small,
                     reference_complete_bipartite,
                     reference_trivially_perfect)
from smallgraphs import (
    complete,
    complete_bipartite,
    complete_multipartite,
    cycle,
    pan,
    paw,
    sixcycle_with_handle,
    star,
)
from strategies import random_graphs, rooted_forest_closures


class TestSmallPatternDetector:
    @pytest.mark.parametrize("pattern", [P4, C4, PAW, DIAMOND])
    def test_identity_embedding(self, pattern):
        hit = find_induced_small(SMALL_PATTERNS[pattern], pattern)
        assert hit is not None
        assert sorted(hit.vertices) == [0, 1, 2, 3]

    def test_c5_contains_p4(self):
        hit = find_induced_small(cycle(5), P4)
        assert hit is not None
        a, b, c, d = hit.vertices
        g = cycle(5)
        assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
        assert not (g.has_edge(a, c) or g.has_edge(a, d) or g.has_edge(b, d))

    def test_k4_has_no_diamond(self):
        assert find_induced_small(complete(4), DIAMOND) is None

    def test_c4_has_no_p4(self):
        assert find_induced_small(cycle(4), P4) is None

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            find_induced_small(cycle(4), "house")

    @pytest.mark.parametrize("pattern", [P4, C4, PAW, DIAMOND])
    def test_hits_induce_the_pattern(self, pattern, graphs_upto_6):
        """Every reported embedding really induces the named pattern."""
        reference = SMALL_PATTERNS[pattern]
        for g in graphs_upto_6:
            hit = find_induced_small(g, pattern)
            if hit is None:
                continue
            sub, mapping = induced_subgraph(g, hit.vertices)
            relabeled = {tuple(sorted((mapping[hit.vertices[i]],
                                       mapping[hit.vertices[j]])))
                         for i, j in reference.edges()}
            assert {tuple(e) for e in sub.edges()} == relabeled


def _all_graphs(n: int):
    """Every labelled graph on n vertices, disconnected ones included."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


class TestFirstHitAgainstOracle:
    """The reported embedding is the lexicographically first one, as the
    24-permutation scan in ``oracles.first_induced_small`` finds it."""

    @pytest.mark.parametrize("pattern", [P4, C4, PAW, DIAMOND])
    def test_connected_upto_7(self, pattern, graphs_upto_7):
        for g in graphs_upto_7:
            assert find_induced_small(g, pattern) == first_induced_small(g, pattern), g

    @pytest.mark.parametrize("pattern", [P4, C4, PAW, DIAMOND])
    def test_every_labelled_graph_upto_5(self, pattern):
        """n < 4 (no 4-subset) and disconnected inputs included."""
        for n in range(6):
            for g in _all_graphs(n):
                assert find_induced_small(g, pattern) == first_induced_small(g, pattern), g


class TestPanDetector:
    def test_paw_is_a_3_pan(self):
        hit = find_induced_pan(paw())
        assert hit is not None
        assert hit.pattern == PAN
        assert hit.k == 3

    def test_6_pan(self):
        hit = find_induced_pan(pan(6))
        assert hit is not None and hit.k == 6

    def test_handle_graph_minus_u_is_a_6_pan(self):
        g, _ = induced_subgraph(sixcycle_with_handle(), [0, 1, 2, 3, 4, 5, 7])
        hit = find_induced_pan(g)
        assert hit is not None and hit.k == 6

    def test_plain_cycle_has_no_pan(self):
        assert find_induced_pan(cycle(6)) is None

    def test_shortest_cycle_wins(self):
        """A 4-cycle and a triangle joined by the edge 3-4 hold a 4-pan and
        a 3-pan."""
        hit = find_induced_pan(parse_graph6("FlCGW"))
        assert hit == PatternHit(PAN, (4, 5, 6, 3), k=3)

    def test_smallest_vertex_tuple_breaks_ties(self):
        """A 4-cycle with pendants on 2 and 3 holds two 4-pans."""
        hit = find_induced_pan(parse_graph6("ElGO"))
        assert hit == PatternHit(PAN, (2, 3, 0, 1, 4), k=4)

    def test_3_pan_attached_at_the_least_triangle_vertex(self):
        """Pendant 0 on 2, in the triangles 1, 2, 4 and 2, 3, 5: the tuples
        (2, 4, 1, 0) and (2, 3, 5, 0), both from 2."""
        g = Graph(6, [(0, 2), (1, 2), (1, 4), (2, 4), (2, 3), (2, 5), (3, 5)])
        hit = find_induced_pan(g)
        assert hit == PatternHit(PAN, (2, 3, 5, 0), k=3) == first_induced_pan(g)

    def test_3_pan_attached_at_the_middle_triangle_vertex(self):
        """Pendant 0 on 3, in the triangles 1, 3, 4 and 3, 5, 6: rotated to
        start at 3, the first reads (3, 4, 1), before (3, 5, 6)."""
        g = Graph(7, [(0, 2), (0, 3), (1, 3), (1, 4), (3, 4), (3, 5), (3, 6),
                      (5, 6)])
        hit = find_induced_pan(g)
        assert hit == PatternHit(PAN, (3, 4, 1, 0), k=3) == first_induced_pan(g)

    def test_3_pan_attached_at_the_largest_triangle_vertex(self):
        """5 lies in the triangles 1, 2, 5, which reads (5, 1, 2) from 5,
        3, 5, 8 and 5, 6, 7; its least pendant off the first is 3.  The
        triangles 0, 1, 2 and 1, 2, 5 have no pendant on 0, 1 or 2."""
        g = Graph(9, [(0, 1), (0, 2), (1, 2), (1, 5), (2, 5), (3, 5), (3, 8),
                      (5, 8), (4, 5), (5, 6), (5, 7), (6, 7)])
        hit = find_induced_pan(g)
        assert hit == PatternHit(PAN, (5, 1, 2, 3), k=3) == first_induced_pan(g)

    def test_triangles_without_a_3_pan_and_a_4_pan(self):
        """A diamond on 0..3, whose triangles have no pendant, beside a
        4-cycle 4..7 with the pendant 8 on 4.  A connected graph with a
        triangle and no 3-pan is complete multipartite, hence pan-free
        (Olariu), so the two sit in separate components, and the search
        runs in the triangle-free one."""
        g = Graph(9, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3),
                      (4, 5), (5, 6), (6, 7), (4, 7), (4, 8)])
        hit = find_induced_pan(g)
        assert hit == PatternHit(PAN, (4, 5, 6, 7, 8), k=4) == first_induced_pan(g)

    def test_a_triangle_beside_a_4_pan(self):
        """K3 on 0..2 beside a 4-cycle 3..6 with the pendant 7 on 3: the
        graph has a triangle and no 3-pan, so by Olariu's theorem each
        component is triangle-free or complete multipartite, and the
        search is confined to the triangle-free one, 3..7."""
        g = Graph(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 3),
                      (3, 7)])
        hit = find_induced_pan(g)
        assert hit == PatternHit(PAN, (3, 4, 5, 6, 7), k=4) == first_induced_pan(g)

    def test_triangles_without_a_3_pan_and_a_5_pan(self):
        """K4 on 0..3 beside a 5-cycle 4..8 with the pendant 9 on 6: the
        search is confined to the triangle-free component 4..9, whose
        shortest pan cycle has 5 vertices, not 4."""
        g = Graph(10, list(combinations(range(4), 2))
                  + [(4, 5), (5, 6), (6, 7), (7, 8), (4, 8), (6, 9)])
        hit = find_induced_pan(g)
        assert hit == PatternHit(PAN, (6, 7, 8, 4, 5, 9), k=5) == first_induced_pan(g)

    def test_a_k222_beside_a_4_pan(self):
        """K2,2,2 (parts {0, 1}, {2, 3}, {4, 5}) beside a 4-cycle 6..9
        with the pendant 10 on 6.  Every vertex of K2,2,2 lies on a
        triangle, so no cycle through it is listed: there, a neighbour of
        a path's end could also touch the path's interior."""
        part = [v // 2 for v in range(6)]
        g = Graph(11, [(u, v) for v in range(6) for u in range(v)
                       if part[u] != part[v]]
                  + [(6, 7), (7, 8), (8, 9), (6, 9), (6, 10)])
        hit = find_induced_pan(g)
        assert hit == PatternHit(PAN, (6, 7, 8, 9, 10), k=4) == first_induced_pan(g)

    @pytest.mark.parametrize("g, free", [
        (Graph(15, complete_multipartite(3, 3, 3).edges()
               + [(9 + i, 9 + (i + 1) % 6) for i in range(6)]), 0x3f << 9),
        (Graph(101, complete_multipartite(33, 33, 34).edges()), 1 << 100),
        (complete_multipartite(3, 3, 3), 0)],
        ids=["K3,3,3+C6", "K33,33,34+K1", "K3,3,3"])
    def test_pan_cycles_are_sought_off_the_triangles(self, g, free,
                                                     monkeypatch):
        """The search for the shortest pan cycle starts only from the
        vertices on no triangle: every vertex of a complete multipartite
        component with a triangle lies on one, so the component is left
        out, whatever lies beside it."""
        frees = []
        search = patterns._shortest_pan_cycle

        def spy(g, free):
            frees.append(free)
            return search(g, free)

        monkeypatch.setattr(patterns, "_shortest_pan_cycle", spy)
        assert find_induced_pan(g) is None
        assert frees == [free]

    def test_first_hit_on_the_inventory(self, graphs_upto_7):
        """The whole hit, k and vertices, equals the one found over every
        chordless cycle, on all 996 connected graphs with n <= 7.  They
        hold shortest pan cycles of 3, 4, 5 and 6 vertices, and pan-free
        graphs."""
        ks = set()
        for g in graphs_upto_7:
            hit = find_induced_pan(g)
            assert hit == first_induced_pan(g), g
            ks.add(hit and hit.k)
        assert ks == {None, 3, 4, 5, 6}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(8, 16), st.sampled_from((0.1, 0.15, 0.3, 0.6)),
           st.randoms(use_true_random=False))
    def test_first_hit_on_random_graphs(self, n, p, rng):
        """G(n, p): sparse draws are often pan-free or have only long pan
        cycles, dense ones have triangles with pendants."""
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        assert find_induced_pan(g) == first_induced_pan(g)

    def test_hit_shape(self):
        g = pan(5)
        hit = find_induced_pan(g)
        cycle_part, pendant = hit.vertices[:-1], hit.vertices[-1]
        assert len(cycle_part) == hit.k
        # cyclic order with the pendant attached to the first cycle vertex
        for i, v in enumerate(cycle_part):
            assert g.has_edge(v, cycle_part[(i + 1) % hit.k])
        assert g.has_edge(pendant, cycle_part[0])
        assert sum(g.has_edge(pendant, v) for v in cycle_part) == 1


class TestRecognizers:
    def test_star(self):
        label = recognize_structure(star(3))
        assert label.star and label.tree and not label.clique
        assert label.class_a and label.class_b and label.class_c

    def test_clique(self):
        label = recognize_structure(complete(5))
        assert label.clique and label.class_a and label.class_b and label.class_c

    def test_c6(self):
        label = recognize_structure(cycle(6))
        assert label.cycle_ge4 and label.class_b
        assert not label.class_a and not label.class_c

    def test_c4(self):
        label = recognize_structure(cycle(4))
        assert label.complete_bipartite and label.class_b
        assert not label.class_c and not label.class_a

    def test_6_pan(self):
        label = recognize_structure(pan(6))
        assert not label.class_b

    def test_complete_multipartite(self):
        octahedron = complete_multipartite(2, 2, 2)
        label = recognize_structure(octahedron)
        assert label.complete_multipartite
        assert not label.complete_bipartite

    def test_trivially_perfect_peeling(self):
        # universal vertex over (K1 + P3): peels to a disconnected P3+K1
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3)])
        assert recognize_structure(g).trivially_perfect

    def test_disconnected_flags_unavailable(self):
        label = recognize_structure(Graph(4, [(0, 1), (2, 3)]))
        assert label.class_a is None and label.class_b is None
        assert label.class_c is None and label.star is None
        assert label.complete_bipartite is None
        assert label.forest is True

    def test_class_a_implies_class_b_and_c(self, graphs_upto_7):
        for g in graphs_upto_7:
            label = recognize_structure(g)
            if label.class_a:
                assert label.class_b and label.class_c, g


class TestStructuralAgainstDetectors:
    """The structural recognizers and the brute-force detectors are
    independent paths to the same classes; they must agree exhaustively."""

    def test_class_a_is_p4_c4_paw_diamond_free(self, graphs_upto_7):
        for g in graphs_upto_7:
            free = all(find_induced_small(g, p) is None
                       for p in (P4, C4, PAW, DIAMOND))
            assert free == recognize_structure(g).class_a, g

    def test_class_b_is_pan_diamond_free(self, graphs_upto_7):
        for g in graphs_upto_7:
            free = (find_induced_pan(g) is None
                    and find_induced_small(g, DIAMOND) is None)
            assert free == recognize_structure(g).class_b, g

    def test_class_c_is_p4_c4_free(self, graphs_upto_7):
        for g in graphs_upto_7:
            free = (find_induced_small(g, P4) is None
                    and find_induced_small(g, C4) is None)
            assert free == recognize_structure(g).trivially_perfect, g

    def test_paw_free_trichotomy(self, graphs_upto_7):
        for g in graphs_upto_7:
            verdict = paw_free_decomposition(g)
            if verdict.verdict == "contains-paw":
                assert verdict.hit is not None
                assert find_induced_small(g, PAW) is not None
            else:
                assert find_induced_small(g, PAW) is None


class TestFindForbidden:
    def test_none_exactly_on_class_members(self, graphs_upto_6):
        for g in graphs_upto_6:
            label = recognize_structure(g)
            for flag in FORBIDDEN:
                assert (find_forbidden(g, flag) is None) \
                    == getattr(label, flag), (g, flag)

    def test_first_pattern_in_table_order_wins(self):
        # a diamond 0-1-2-3 (chord 0-2) with pendant 4 on 1 holds a P4
        # (4-1-2-3), a paw, which is the 3-pan, and a diamond
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 4)])
        assert find_forbidden(g, "class_a").pattern == P4
        assert find_forbidden(g, "class_b").pattern == PAN
        assert find_forbidden(g, "class_c").pattern == P4
        assert find_forbidden(cycle(4), "class_c").pattern == C4


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(random_graphs())
def test_detectors_and_recognizers_past_exhaustive_sizes(g):
    hits = {p: find_induced_small(g, p) for p in (P4, C4, PAW, DIAMOND)}
    for pattern, hit in hits.items():
        assert hit == first_induced_small(g, pattern)
    label = recognize_structure(g)
    if label.class_a is None:
        return  # disconnected: the class flags are unavailable
    p4, c4, paw_, dia = (hits[p] is None for p in (P4, C4, PAW, DIAMOND))
    assert label.class_a == (p4 and c4 and paw_ and dia)
    assert label.class_b == (find_induced_pan(g) is None and dia)
    assert label.trivially_perfect == (p4 and c4)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(random_graphs(min_n=14, max_n=20))
def test_small_pattern_first_hits_past_13_vertices(g):
    """Sparse draws have radius-3 balls smaller than the graph, and first
    hits whose d lies past the first admissible row's."""
    for pattern in (P4, C4, PAW, DIAMOND):
        assert find_induced_small(g, pattern) == first_induced_small(g, pattern)


def test_remembered_balls_follow_the_graph():
    """``find_induced_small`` remembers the radius-3 balls of the last graph
    it searched.  Ask all four patterns in shuffled orders, graph by graph
    and then interleaved, over graphs of one n, equal but distinct copies,
    and graphs whose only hits lie past a K8 (a = 8); every hit must be
    the oracle's."""
    rng = random.Random(35)
    clique = list(combinations(range(8), 2))
    graphs = [Graph(12, clique + [(8 + u, 8 + v) for u, v in pattern.edges()])
              for pattern in SMALL_PATTERNS.values()]
    for n, density in ((12, 0.2), (12, 0.35), (12, 0.5), (12, 0.8), (9, 0.4)):
        graphs.append(Graph(n, [e for e in combinations(range(n), 2)
                                if rng.random() < density]))
    graphs += [Graph(g.n, g.edges()) for g in graphs]
    expected = {(i, pattern): first_induced_small(g, pattern)
                for i, g in enumerate(graphs) for pattern in SMALL_PATTERNS}
    queries = []
    for _ in range(3):
        order = list(range(len(graphs)))
        rng.shuffle(order)
        for i in order:
            names = list(SMALL_PATTERNS)
            rng.shuffle(names)
            queries += [(i, pattern) for pattern in names]
    interleaved = list(expected)
    rng.shuffle(interleaved)
    for i, pattern in queries + interleaved:
        assert find_induced_small(graphs[i], pattern) == expected[i, pattern], \
            (graphs[i], pattern)


class TestRecognizerEdgeCases:
    def test_forest_flag_is_is_forest(self, graphs_upto_7):
        """A connected graph is a forest iff m = n - 1, except the empty
        graph, a forest with 0 != -1 edges; disconnected graphs with
        m = n - 1 need not be forests (a triangle plus a vertex)."""
        assert recognize_structure(Graph(0)).forest
        extra = [Graph(0), Graph(1), Graph(2), Graph(4, [(0, 1), (1, 2), (0, 2)]),
                 Graph(6, [(0, 1), (1, 2), (3, 4)]),
                 Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4)])]
        for g in [*graphs_upto_7, *extra, *_all_graphs(5)]:
            assert recognize_structure(g).forest == is_forest(g), g

    def test_disconnected_forest(self):
        assert is_forest(Graph(6, [(0, 1), (1, 2), (3, 4)]))

    def test_disconnected_non_forest(self):
        assert not is_forest(Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4)]))

    def test_edgeless_graph_is_complete_multipartite(self):
        assert is_complete_multipartite(Graph(4))


class TestPawFreeDecomposition:
    def test_c5_triangle_free(self):
        assert paw_free_decomposition(cycle(5)).verdict == "triangle-free"

    def test_octahedron_complete_multipartite(self):
        verdict = paw_free_decomposition(complete_multipartite(2, 2, 2))
        assert verdict.verdict == "complete-multipartite"

    def test_paw_contains_paw(self):
        verdict = paw_free_decomposition(paw())
        assert verdict.verdict == "contains-paw"
        assert sorted(verdict.hit.vertices) == [0, 1, 2, 3]

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            paw_free_decomposition(Graph(2))


def test_complete_bipartite_recognizer(graphs_upto_6):
    for g in graphs_upto_6:
        assert (recognize_structure(g).complete_bipartite
                == reference_complete_bipartite(g)), g


def test_trivially_perfect_against_the_peel_on_every_labelled_graph_upto_6():
    """About 34,000 graphs, disconnected ones included."""
    for n in range(7):
        for g in _all_graphs(n):
            assert is_trivially_perfect(g) == reference_trivially_perfect(g), g


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rooted_forest_closures())
def test_trivially_perfect_and_complete_bipartite_past_exhaustive_sizes(g):
    """A forest's closure is trivially perfect, a one-root closure of
    depth one is a star, and one extra edge may break either."""
    assert is_trivially_perfect(g) == reference_trivially_perfect(g)
    bipartite = recognize_structure(g).complete_bipartite
    if bipartite is not None:  # connected
        assert bipartite == reference_complete_bipartite(g)
