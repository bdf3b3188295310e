import pytest
from hypothesis import given, settings, strategies as st

from searchorder import (
    DisconnectedGraphError,
    EdgeListParseError,
    Graph,
    Graph6ParseError,
    UnsupportedSizeError,
    emit_graph6,
    induced_subgraph,
    is_connected,
    parse_edge_list,
    parse_graph6,
)
from searchorder.graphs import (EDGE_LIST_MAX_VERTICES, bits, component_mask,
                                require_connected)
from smallgraphs import complete, cycle, path
from strategies import random_graphs


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

    def test_equality_and_hash(self):
        assert path(3) == Graph(3, [(1, 2), (0, 1)])
        assert hash(path(3)) == hash(Graph(3, [(1, 2), (0, 1)]))
        assert path(3) != cycle(3)


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

    def test_rejects_non_ascii_with_offset(self):
        # would read as "A?" (the edgeless K2) if it were replaced by "?"
        with pytest.raises(Graph6ParseError) as exc:
            parse_graph6("A\u00e9")
        assert exc.value.offset == 1

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

    def test_vertex_beyond_declared_count_names_its_line(self):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list("n 3\n0 1\n1 7\n")
        assert exc.value.line == 3

    def test_rejects_vertex_count_beyond_limit(self):
        big = EDGE_LIST_MAX_VERTICES
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list(f"0 1\n1 {big}")
        assert exc.value.line == 2
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list(f"n {big + 1}")
        assert exc.value.line == 1
        assert parse_edge_list(f"n {big}").n == big


class TestConnectivity:
    def test_cycle_connected(self):
        assert is_connected(cycle(5))

    def test_two_disjoint_edges_disconnected(self):
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))

    def test_empty_and_singleton_connected(self):
        assert is_connected(Graph(0))
        assert is_connected(Graph(1))

    def test_remembered_answer_follows_the_graph(self):
        # is_connected remembers its last graph; an equal graph built anew
        # must get the same answer after a different graph came between
        assert is_connected(cycle(5))
        assert not is_connected(Graph(5, [(0, 1), (2, 3), (3, 4)]))
        assert is_connected(cycle(5))
        assert not is_connected(Graph(5, [(0, 1), (2, 3), (3, 4)]))

    def test_component_mask(self):
        g = Graph(5, [(0, 1), (2, 3), (3, 4)])
        assert component_mask(g, 0) == 0b00011
        assert component_mask(g, 4) == 0b11100
        assert component_mask(g, 2, within=0b01100) == 0b01100
        assert component_mask(g, 2, within=0b00100) == 0b00100

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


# -- parsers past the exhaustive sizes, and fuzzed ----------------------

PARSER_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                           database=None)


@PARSER_SETTINGS
@given(random_graphs(0, 62))
def test_graph6_round_trip_past_exhaustive_sizes(g):
    assert parse_graph6(emit_graph6(g)) == g


@st.composite
def damaged_graph6(draw):
    """A valid record with one character replaced, inserted or deleted."""
    record = emit_graph6(draw(random_graphs(0, 62)))
    i = draw(st.integers(0, len(record)))
    ch = draw(st.characters())
    return draw(st.sampled_from([record[:i] + ch + record[i + 1:],
                                 record[:i] + ch + record[i:],
                                 record[:i] + record[i + 1:]]))


@PARSER_SETTINGS
@given(st.one_of(st.text(), damaged_graph6()))
def test_graph6_fuzz(text):
    """Every input is either a record that re-emits to itself or rejected
    with the byte offset of the fault inside the record."""
    record = text.strip()
    if record.startswith(">>graph6<<"):
        record = record[len(">>graph6<<"):]
    try:
        g = parse_graph6(text)
    except Graph6ParseError as exc:
        assert exc.offset is not None and 0 <= exc.offset <= len(record), exc
    else:
        assert emit_graph6(g) == record


SMALL_OR_HUGE = st.one_of(st.integers(-3, 12), st.integers(-10**12, 10**12))
EDGE_LIST_TOKENS = st.one_of(
    SMALL_OR_HUGE.map(str),
    st.sampled_from(["n", "#", "x", "1.5", "0x1", "\t"]),
    st.text(max_size=3),
)


@st.composite
def edge_list_texts(draw):
    """Lines of good and bad tokens, sometimes after a vertex-count line."""
    lines = [" ".join(tokens) for tokens in
             draw(st.lists(st.lists(EDGE_LIST_TOKENS, max_size=5), max_size=6))]
    count = draw(st.none() | SMALL_OR_HUGE)
    if count is not None:
        lines.insert(0, f"n {count}")
    return "\n".join(lines)


@PARSER_SETTINGS
@given(st.one_of(st.text(), edge_list_texts()))
def test_edge_list_fuzz(text):
    """Every input is either a graph within the vertex limit or rejected
    with the number of the offending line."""
    try:
        g = parse_edge_list(text)
    except EdgeListParseError as exc:
        assert exc.line is not None and 1 <= exc.line <= len(text.splitlines()), exc
    else:
        assert g.n <= EDGE_LIST_MAX_VERTICES
