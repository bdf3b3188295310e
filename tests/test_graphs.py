import pytest

from searchorder import (
    DisconnectedGraphError,
    EdgeListParseError,
    Graph,
    Graph6ParseError,
    UnsupportedSizeError,
    VertexOrdering,
    emit_graph6,
    induced_subgraph,
    is_connected,
    parse_edge_list,
    parse_graph6,
)
from searchorder.graphs import bits, require_connected
from smallgraphs import complete, cycle, path


class TestGraph:
    def test_adjacency_is_symmetric_and_loop_free(self):
        g = Graph(4, [(0, 1), (2, 3), (1, 2)])
        for u in range(4):
            assert not g.has_edge(u, u)
            for v in range(4):
                assert g.has_edge(u, v) == g.has_edge(v, u)

    def test_duplicate_edges_collapse(self):
        assert Graph(2, [(0, 1), (1, 0), (0, 1)]).edge_count == 1

    def test_rejects_loops_and_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_neighbors_are_the_set_bits_ascending(self):
        assert list(bits(0)) == []
        assert list(bits(0b101001)) == [0, 3, 5]
        g = Graph(4, [(2, 0), (2, 3), (2, 1)])
        assert list(g.neighbors(2)) == [0, 1, 3]
        assert list(g.neighbors(0)) == [2]

    def test_complement(self):
        g = path(3).complement()
        assert g.edges() == [(0, 2)]

    def test_equality_and_hash(self):
        assert path(3) == Graph(3, [(1, 2), (0, 1)])
        assert hash(path(3)) == hash(Graph(3, [(1, 2), (0, 1)]))
        assert path(3) != cycle(3)


class TestVertexOrdering:
    def test_positions_invert_order(self):
        sigma = VertexOrdering((2, 0, 1))
        assert sigma.position[2] == 0
        assert all(sigma.position[sigma[i]] == i for i in range(3))

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            VertexOrdering((0, 0, 1))
        with pytest.raises(ValueError):
            VertexOrdering((0, 3))


class TestGraph6:
    def test_k2(self):
        assert parse_graph6("A_") == complete(2)
        assert emit_graph6(complete(2)) == "A_"

    def test_single_vertex(self):
        assert parse_graph6("@") == Graph(1)
        assert emit_graph6(Graph(1)) == "@"

    def test_header_accepted(self):
        assert parse_graph6(">>graph6<<A_") == complete(2)

    def test_known_star_string_round_trips(self):
        assert emit_graph6(parse_graph6("D?{")) == "D?{"
        assert parse_graph6("D?{").edges() == [(0, 4), (1, 4), (2, 4), (3, 4)]

    def test_round_trip_exhaustive_small(self, graphs_upto_6):
        for g in graphs_upto_6:
            assert parse_graph6(emit_graph6(g)) == g

    def test_c5_round_trips(self):
        encoded = emit_graph6(cycle(5))
        assert len(encoded) == 3
        assert parse_graph6(encoded) == cycle(5)

    def test_rejects_non_printable_byte_with_offset(self):
        with pytest.raises(Graph6ParseError) as exc:
            parse_graph6("A\x07")
        assert exc.value.offset == 1

    def test_rejects_truncated_body(self):
        with pytest.raises(Graph6ParseError, match="too short"):
            parse_graph6("D?")

    def test_rejects_trailing_garbage(self):
        with pytest.raises(Graph6ParseError, match="trailing"):
            parse_graph6("A__")

    def test_rejects_nonzero_padding(self):
        # K2 body with a stray low-order padding bit set
        with pytest.raises(Graph6ParseError, match="padding"):
            parse_graph6("A" + chr(63 + 0b100001))

    def test_rejects_long_form(self):
        with pytest.raises(Graph6ParseError, match="long-form"):
            parse_graph6("~??")

    def test_rejects_empty(self):
        with pytest.raises(Graph6ParseError):
            parse_graph6("")

    def test_emit_rejects_oversized(self):
        with pytest.raises(UnsupportedSizeError):
            emit_graph6(Graph(63))


class TestEdgeList:
    def test_p3(self):
        assert parse_edge_list("0 1\n1 2") == path(3)

    def test_declared_count_and_comments(self):
        text = "# a square\nn 4\n0 1\n1 2\n2 3\n3 0"
        assert parse_edge_list(text) == cycle(4)

    def test_duplicate_edge_collapses(self):
        assert parse_edge_list("0 1\n0 1") == complete(2)

    def test_multiple_pairs_per_line(self):
        assert parse_edge_list("0 1 1 2") == path(3)

    def test_rejects_loop_with_line_number(self):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list("0 1\n2 2")
        assert exc.value.line == 2

    def test_rejects_non_integer_token(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("0 x")

    def test_rejects_negative_vertex(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("0 -1")

    def test_rejects_vertex_beyond_declared_count(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("n 2\n0 5")


class TestConnectivity:
    def test_cycle_connected(self):
        assert is_connected(cycle(5))

    def test_two_disjoint_edges_disconnected(self):
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))

    def test_empty_and_singleton_connected(self):
        assert is_connected(Graph(0))
        assert is_connected(Graph(1))

    def test_require_connected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            require_connected(Graph(2))


class TestInducedSubgraph:
    def test_c5_minus_vertex_is_p4(self):
        sub, mapping = induced_subgraph(cycle(5), [0, 1, 2, 3])
        assert sub == path(4)
        assert mapping == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_keep_all_is_identity(self):
        g = cycle(6)
        sub, _ = induced_subgraph(g, range(6))
        assert sub == g

    def test_keep_empty(self):
        sub, mapping = induced_subgraph(cycle(4), [])
        assert sub == Graph(0)
        assert mapping == {}

    def test_adjacency_preserved(self):
        g = cycle(6)
        keep = [0, 2, 3, 5]
        sub, mapping = induced_subgraph(g, keep)
        for u in keep:
            for v in keep:
                if u != v:
                    assert sub.has_edge(mapping[u], mapping[v]) == g.has_edge(u, v)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            induced_subgraph(cycle(4), [0, 7])
