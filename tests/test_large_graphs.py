"""Graphs deeper than Python's recursion limit, with too many chordless
cycles to list, too many 4-subsets to scan, or too many automorphisms to
try or walk one by one.

Every traversal that follows the input's size is a loop, so a path or a
clique of a thousand vertices is walked like a small one.
"""

import inspect
import io
import json
import random
import sys
import tracemalloc

import pytest

from searchorder import (C4, DIAMOND, P4, PAW, THEOREM_C, THEOREMS, Graph,
                         SearchKind, check_theorem, enumerate_orderings,
                         find_induced_small, orderings_subset,
                         paw_free_decomposition)
from searchorder.cli import EXIT_OK, EXIT_TRUNCATED, main
from searchorder.inventory import canonical_key
from searchorder.patterns import PAN, PatternHit, find_induced_pan, recognize_structure
from searchorder.searches import DEFAULT_WALK_CAP, first_outside
from smallgraphs import (complete, complete_bipartite, complete_multipartite,
                         cycle, grid, path, petersen, relabeled, star)


def test_enumeration_of_a_1200_vertex_path_truncates():
    result = enumerate_orderings(path(1200), SearchKind.BFS, cap=3)
    assert result.truncated
    assert len(result.orderings) == 3


def test_inclusion_walk_refutes_bfs_in_dfs_on_a_1200_vertex_path():
    report = orderings_subset(path(1200), SearchKind.BFS, SearchKind.DFS)
    assert report.verdict is False
    assert report.witness_ordering == (1, 2, 0, *range(3, 1200))


def _enumerate_bfs(g):
    return enumerate_orderings(g, SearchKind.BFS, cap=3)


def _generic_within_dfs(g):
    return first_outside(g, SearchKind.GENERIC, SearchKind.DFS,
                         DEFAULT_WALK_CAP)


@pytest.mark.parametrize("walk, g, bytes_per_vertex", [
    (_enumerate_bfs, path(1200), 1_500),
    (_generic_within_dfs, complete(400), 1_000)],
    ids=["enumerate P1200", "first_outside K400"])
def test_walks_hold_linear_memory_in_depth(walk, g, bytes_per_vertex):
    """Each walk keeps one frame per depth, and a frame with no candidates
    left keeps no prefix: BFS from vertex 0 of P1200 suspends a chain of
    spent frames as deep as the path, and twin pruning spends each frame
    of Generic within DFS on K400 as it descends.  Keeping every prefix on
    the chain would take quadratic memory, about 5.4 and 2 KB per vertex
    here; the walks take about 0.6 and 0.4 KB."""
    tracemalloc.start()
    try:
        walk(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= g.n * bytes_per_vertex, peak


def test_a_1100_clique_is_trivially_perfect():
    assert recognize_structure(complete(1100)).class_c is True


def test_pan_search_runs_below_the_path_length_in_stack_depth():
    """A 1,200-vertex path with the chord (0, 2), searched with room for
    fewer than 1,200 more frames: a search recursing once per path vertex
    would fail here."""
    g = Graph(1200, path(1200).edges() + [(0, 2)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        hit = find_induced_pan(g)
    finally:
        sys.setrecursionlimit(limit)
    assert hit == PatternHit(PAN, (2, 0, 1, 3), k=3)


DETECTOR_GRAPHS = {"K40,40": complete_bipartite(40, 40),
                   "chord path": Graph(1200, path(1200).edges() + [(0, 2)]),
                   "8x8 grid": grid(8, 8)}


@pytest.mark.parametrize("name, pattern, vertices", [
    ("K40,40", P4, None), ("K40,40", C4, (0, 40, 1, 41)),
    ("K40,40", PAW, None), ("K40,40", DIAMOND, None),
    ("chord path", P4, (0, 2, 3, 4)), ("chord path", C4, None),
    ("chord path", PAW, (0, 1, 2, 3)), ("chord path", DIAMOND, None),
    ("8x8 grid", P4, (0, 1, 2, 3)), ("8x8 grid", C4, (0, 1, 9, 8)),
    ("8x8 grid", PAW, None), ("8x8 grid", DIAMOND, None)], ids=str)
def test_small_pattern_detectors_on_large_graphs(name, pattern, vertices):
    """K40,40 holds no P4, paw or diamond, the 1,200-vertex path with the
    chord (0, 2) no C4 or diamond, and the 8 x 8 grid no paw or diamond:
    a 4-subset scan would try 1.6 M, 8.6 * 10^10 and 0.6 M subsets.  The
    hits are the ones that scan gives where it finishes."""
    expected = vertices and PatternHit(pattern, vertices)
    assert find_induced_small(DETECTOR_GRAPHS[name], pattern) == expected


def test_k10_10_10_is_paw_free_and_complete_multipartite():
    verdict = paw_free_decomposition(complete_multipartite(10, 10, 10))
    assert verdict.verdict == "complete-multipartite"


def test_cli_enumerates_a_1200_vertex_path_from_stdin(capsys, monkeypatch):
    edges = "".join(f"{i} {i + 1}\n" for i in range(1199))
    monkeypatch.setattr("sys.stdin", io.StringIO(edges))
    code = main(["enumerate", "-", "--kind", "bfs", "--cap", "3"])
    assert code == EXIT_TRUNCATED
    assert "TRUNCATED" in capsys.readouterr().out


def test_pan_search_on_the_8x8_grid():
    """The grid holds more chordless cycles than the 65,772 of the 7 x 7
    grid, an induced subgraph of it, but its shortest pan cycles have 4
    vertices.  Vertex 0 lies only on the 4-cycle 0-1-9-8 and has no
    pendant there; vertex 1 lies on it, with pendant 2, and on 1-2-10-9,
    with pendant 0, and (1, 2, ...) is the smaller tuple."""
    assert find_induced_pan(grid(8, 8)) == PatternHit(PAN, (1, 2, 10, 9, 0), k=4)


@pytest.mark.parametrize("g", [
    complete_multipartite(33, 33, 34),
    Graph(101, complete_multipartite(33, 33, 34).edges()),
    complete_bipartite(40, 40), complete(200)],
    ids=["K33,33,34", "K33,33,34+K1", "K40,40", "K200"])
def test_dense_pan_free_graphs(g):
    """Complete multipartite graphs hold no pan, nor does an isolated
    vertex.  K200 costs O(n^2), as N(a) lies inside N[u] for every edge
    au, and K33,33,34 O(n^3) mask steps for its triangles; with no 3-pan,
    every vertex of both lies on a triangle, and the search stops (Olariu),
    with or without a component beside them.  Triangle-free K40,40 costs
    O(n^3) mask steps in the search for the shortest pan cycle."""
    assert find_induced_pan(g) is None


def test_cli_classifies_the_8x8_grid(capsys, monkeypatch):
    edges = "".join(f"{u} {v}\n" for u, v in grid(8, 8).edges())
    monkeypatch.setattr("sys.stdin", io.StringIO(edges))
    assert main(["classify", "-", "--json"]) == EXIT_OK
    hit = json.loads(capsys.readouterr().out)["class_b_hit"]
    assert (hit["pattern"], hit["k"]) == ("pan", 4)


@pytest.mark.parametrize("g", [complete(12), complete_bipartite(6, 6),
                               petersen(), grid(5, 5), cycle(9)],
                         ids=["K12", "K6,6", "Petersen", "5x5 grid", "C9"])
def test_canonical_key_of_a_symmetric_graph_survives_relabeling(g):
    """Their refined colors leave up to 12! relabelings, and every one
    gives the same key; twin pruning and the row bound keep each key to
    milliseconds."""
    perm = list(range(g.n))
    random.Random(g.n).shuffle(perm)
    assert canonical_key(relabeled(g, perm)) == canonical_key(g)


@pytest.mark.parametrize("g, class_c_only", [
    (star(20), False), (Graph(16, complete(16).edges()[1:]), True)],
    ids=["K1,20", "K16 - e"])
def test_twin_rich_graphs_settle_every_theorem_item(g, class_c_only):
    """K1,20 lies in every class, and K16 - e, whose missing edge makes
    diamonds, only in class C.  Their twins leave each walk a handful of
    key pairs, so every item settles at the default cap, as predicted;
    walking each twin's subtree, K1,20's walks stop unknown at 200,000."""
    for theorem in THEOREMS:
        report = check_theorem(g, theorem)
        predicted = theorem == THEOREM_C or not class_c_only
        assert report.structural_prediction is predicted
        assert all(value is predicted for _, value in report.items), report
