"""Acceptance gate: one test per acceptance criterion, each printing a
single PASS/FAIL line directly to the terminal.

Criteria 5 and 9 collect named sub-items and fail with the names of those
that do not hold.
"""

from importlib import resources
from itertools import permutations

import pytest

from searchorder import (
    C4,
    COROLLARY_A5A6,
    DIAMOND,
    P4,
    PAW,
    SearchKind,
    THEOREM_A,
    THEOREM_B,
    THEOREM_C,
    enumerate_orderings,
    find_induced_pan,
    find_induced_small,
    find_mns_not_mcs,
    induced_subgraph,
    is_search_ordering,
    parse_graph6,
    paw_free_decomposition,
    recognize_structure,
)
from searchorder.cli import EXIT_OK, main
from searchorder.inventory import (
    CONNECTED_COUNTS,
    INVENTORY_RESOURCE,
    canonical_key,
    connected_graphs,
    load_packaged_graphs,
)
from smallgraphs import (
    MNS_NOT_MCS_BROKEN_EXAMPLE,
    MNS_NOT_MCS_EXAMPLES,
    cycle,
    diamond,
    path,
    paw,
    sixcycle_with_handle,
)

V = is_search_ordering
K = SearchKind


def _report(capsys, number, description, ok):
    with capsys.disabled():
        print(f"\nCRITERION {number}: {'PASS' if ok else 'FAIL'} — {description}")
    return ok


def _scan_inventory(capsys, theorem):
    with resources.as_file(
            resources.files("searchorder.data") / INVENTORY_RESOURCE) as p:
        code = main(["scan", str(p), "--theorem", theorem])
    captured = capsys.readouterr()
    assert "996 graphs processed" in captured.err
    return code == EXIT_OK and captured.out == ""


def test_criterion_1_theorem_a_exhaustive(capsys):
    ok = _scan_inventory(capsys, THEOREM_A)
    assert _report(capsys, 1,
                   "scan of 996 connected graphs (n ≤ 7): 0 inconsistencies "
                   "for star∨clique ⇔ Generic⊆DFS ⇔ Generic⊆BFS ⇔ BFS=DFS",
                   ok)


def test_criterion_2_theorem_b_exhaustive(capsys):
    ok = _scan_inventory(capsys, THEOREM_B)
    # the structural class flag must also agree with the detector path
    detectors_agree = all(
        recognize_structure(g).class_b
        == (find_induced_pan(g) is None
            and find_induced_small(g, DIAMOND) is None)
        for g in load_packaged_graphs())
    ok = ok and detectors_agree
    assert _report(capsys, 2,
                   "scan of 996 graphs: 0 inconsistencies for pan∧diamond-free "
                   "⇔ DFS⊆LexDFS ⇔ BFS⊆LexBFS ⇔ Generic⊆MNS "
                   "(structural and detector paths agree)",
                   ok)


def test_criterion_3_theorem_c_exhaustive(capsys):
    ok = _scan_inventory(capsys, THEOREM_C)
    assert _report(capsys, 3,
                   "scan of 996 graphs: 0 inconsistencies for {P4,C4}-free "
                   "⇔ MNS⊆LexDFS ⇔ MNS⊆LexBFS",
                   ok)


def test_criterion_4_corollary_exhaustive(capsys):
    ok = _scan_inventory(capsys, COROLLARY_A5A6)
    assert _report(capsys, 4,
                   "scan of 996 graphs: 0 inconsistencies for star∨clique "
                   "⇔ Generic⊆LexDFS ⇔ Generic⊆LexBFS",
                   ok)


def test_criterion_5_ordering_regressions(capsys):
    checks = []

    g = paw()  # a..d = 0..3
    checks.append(("paw (c,a,d,b) BFS-valid",
                   V(g, (2, 0, 3, 1), K.BFS)[0]))
    checks.append(("paw (c,a,d,b) LexBFS-invalid",
                   not V(g, (2, 0, 3, 1), K.LEXBFS)[0]))
    checks.append(("paw (b,c,d,a) DFS-valid",
                   V(g, (1, 2, 3, 0), K.DFS)[0]))
    checks.append(("paw (b,c,d,a) LexDFS-invalid",
                   not V(g, (1, 2, 3, 0), K.LEXDFS)[0]))

    g = diamond()
    checks.append(("diamond (a,b,d,c) BFS-valid",
                   V(g, (0, 1, 3, 2), K.BFS)[0]))
    checks.append(("diamond (a,b,d,c) LexBFS-invalid",
                   not V(g, (0, 1, 3, 2), K.LEXBFS)[0]))
    checks.append(("diamond (b,c,d,a) DFS-valid",
                   V(g, (1, 2, 3, 0), K.DFS)[0]))
    checks.append(("diamond (b,c,d,a) LexDFS-invalid",
                   not V(g, (1, 2, 3, 0), K.LEXDFS)[0]))

    for name, g in (("P4", path(4)), ("C4", cycle(4))):
        checks.append((f"{name} (b,c,d,a) MNS-valid",
                       V(g, (1, 2, 3, 0), K.MNS)[0]))
        checks.append((f"{name} (b,c,d,a) LexBFS-invalid",
                       not V(g, (1, 2, 3, 0), K.LEXBFS)[0]))
        checks.append((f"{name} (b,c,a,d) MNS-valid",
                       V(g, (1, 2, 0, 3), K.MNS)[0]))
        checks.append((f"{name} (b,c,a,d) LexDFS-invalid",
                       not V(g, (1, 2, 0, 3), K.LEXDFS)[0]))

    g = sixcycle_with_handle()
    sigma = (0, 1, 5, 6, 2, 4, 7, 3)  # (v1,v2,v6,u,v3,v5,v,v4)
    checks.append(("handle graph σ LexBFS-valid", V(g, sigma, K.LEXBFS)[0]))
    sub, mapping = induced_subgraph(g, [0, 1, 2, 3, 4, 5, 7])
    restricted = tuple(mapping[v] for v in sigma if v in mapping)
    checks.append(("6-pan σ* BFS-valid", V(sub, restricted, K.BFS)[0]))
    checks.append(("6-pan σ* LexBFS-invalid",
                   not V(sub, restricted, K.LEXBFS)[0]))

    g = cycle(5)  # v1..v5 = 0..4
    sigma = (0, 1, 4, 2, 3)
    checks.append(("C5 (v1,v2,v5,v3,v4) BFS-valid", V(g, sigma, K.BFS)[0]))
    # deleting v2 leaves the path v3-v4-v5-v1, on which the restriction
    # visits v3 with no earlier neighbour while v4 is available
    sub, mapping = induced_subgraph(g, [0, 2, 3, 4])
    restricted = tuple(mapping[v] for v in sigma if v in mapping)
    checks.append(("C5−v2 restriction (v1,v5,v3,v4) BFS-invalid",
                   not V(sub, restricted, K.BFS)[0]))

    for i, (g, sigma) in enumerate(MNS_NOT_MCS_EXAMPLES, start=1):
        checks.append((f"MNS-not-MCS example {i}: σ MNS-valid",
                       V(g, sigma, K.MNS)[0]))
        checks.append((f"MNS-not-MCS example {i}: σ MCS-invalid",
                       not V(g, sigma, K.MCS)[0]))
    # the gem: after the prefix (0,2) MNS must take 1, labelled {0,2},
    # but σ takes 4, labelled {2}
    g, sigma = MNS_NOT_MCS_BROKEN_EXAMPLE
    checks.append(("MNS-not-MCS example 7: σ MNS-invalid",
                   not V(g, sigma, K.MNS)[0]))
    checks.append(("MNS-not-MCS example 7: σ MCS-invalid",
                   not V(g, sigma, K.MCS)[0]))

    failures = [name for name, ok in checks if not ok]
    _report(capsys, 5,
            f"named-ordering regression suite ({len(checks)} exact checks)",
            not failures)
    assert not failures, f"failing sub-items: {failures}"


def test_criterion_6_validator_executor_equivalence(capsys, graphs_upto_6):
    mismatches = 0
    for g in graphs_upto_6:
        for kind in SearchKind:
            enumerated = set(enumerate_orderings(g, kind).orderings)
            for perm in permutations(range(g.n)):
                if V(g, perm, kind)[0] != (perm in enumerated):
                    mismatches += 1
    ok = mismatches == 0
    assert _report(capsys, 6,
                   "validator membership = enumerator membership for all "
                   "7 kinds, all connected graphs n ≤ 6, all n! permutations",
                   ok)


def test_criterion_7_hierarchy_inclusions(capsys, graphs_upto_7):
    inclusions = [(K.LEXBFS, (K.BFS, K.MNS)),
                  (K.LEXDFS, (K.DFS, K.MNS)),
                  (K.MCS, (K.MNS,)),
                  (K.BFS, (K.GENERIC,)),
                  (K.DFS, (K.GENERIC,)),
                  (K.MNS, (K.GENERIC,))]
    violations = 0
    for g in graphs_upto_7:
        for narrow, wides in inclusions:
            for ordering in enumerate_orderings(g, narrow).orderings:
                for wide in wides:
                    if not V(g, ordering, wide)[0]:
                        violations += 1
    ok = violations == 0
    assert _report(capsys, 7,
                   "hierarchy inclusions LexBFS⊆BFS∩MNS, LexDFS⊆DFS∩MNS, "
                   "MCS⊆MNS, {BFS,DFS,MNS}⊆Generic on all connected n ≤ 7",
                   ok)


def test_criterion_8_structural_cross_checks(capsys):
    graphs = [g for n in range(1, 9) for g in connected_graphs(n)]
    assert len(graphs) == sum(CONNECTED_COUNTS[n] for n in range(1, 9))
    bad = 0
    for g in graphs:
        label = recognize_structure(g)
        p4 = find_induced_small(g, P4) is None
        c4 = find_induced_small(g, C4) is None
        paw_free = find_induced_small(g, PAW) is None
        dia = find_induced_small(g, DIAMOND) is None
        pan_free = find_induced_pan(g) is None
        if paw_free != (label.triangle_free or label.complete_multipartite):
            bad += 1
        if paw_free != (paw_free_decomposition(g).verdict != "contains-paw"):
            bad += 1
        if (pan_free and dia) != label.class_b:
            bad += 1
        if (p4 and c4 and paw_free and dia) != label.class_a:
            bad += 1
        if (p4 and c4) != label.trivially_perfect:
            bad += 1
    ok = bad == 0
    assert _report(capsys, 8,
                   "structural ⇔ detector agreement at n ≤ 8: Olariu, "
                   "pan∧diamond-free characterization, star∨clique, "
                   "universal-vertex peeling",
                   ok)


def test_criterion_9_mns_vs_mcs_sanity(capsys, graphs_upto_7):
    failures = []
    for g in graphs_upto_7:
        free = all(find_induced_small(g, p) is None
                   for p in (P4, C4, PAW, DIAMOND))
        if free and find_mns_not_mcs(g) is not None:
            failures.append(f"witness on a {{P4,C4,paw,diamond}}-free graph "
                            f"(n={g.n})")
    for i, (g, _) in enumerate(MNS_NOT_MCS_EXAMPLES, start=1):
        if find_mns_not_mcs(g) is None:
            failures.append(f"example {i} yields no witness")
    if find_mns_not_mcs(MNS_NOT_MCS_BROKEN_EXAMPLE[0]) is not None:
        failures.append("the gem (example 7) yields a witness")
    with_witness = {canonical_key(g) for g in graphs_upto_7
                    if g.n == 5 and find_mns_not_mcs(g) is not None}
    if with_witness != {canonical_key(g) for g, _ in MNS_NOT_MCS_EXAMPLES}:
        failures.append("the 5-vertex graphs with a witness are not "
                        "exactly examples 1-6")
    _report(capsys, 9,
            "no {P4,C4,paw,diamond}-free graph (n ≤ 7) yields an "
            "MNS-not-MCS witness; examples 1-6 are exactly the 5-vertex "
            "graphs that yield one, and the gem yields none",
            not failures)
    assert not failures, f"failing sub-items: {failures}"
