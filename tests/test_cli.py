import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import searchorder
from searchorder import (Graph, SearchKind, TieBreak, cli, emit_graph6,
                         is_generic_order, run_search)
from searchorder.inventory import load_packaged_inventory
from searchorder.cli import (
    EXIT_DISCONNECTED,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TRUNCATED,
    build_parser,
    main,
)
from oracles import reference_point_condition
from smallgraphs import complete, cycle, pan, path, paw, star


def write(tmp_path, name, text):
    target = tmp_path / name
    target.write_text(text)
    return str(target)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_star_all_classes(self, tmp_path, capsys):
        f = write(tmp_path, "g.g6", emit_graph6(star(3)))
        code, out, _ = run_cli(capsys, ["classify", f, "--json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["class_a"] and payload["class_b"] and payload["class_c"]

    def test_6_pan_reports_pan_hit(self, tmp_path, capsys):
        f = write(tmp_path, "g.g6", emit_graph6(pan(6)))
        code, out, _ = run_cli(capsys, ["classify", f, "--json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["class_b"] is False
        assert payload["class_b_hit"]["pattern"] == "pan"
        assert payload["class_b_hit"]["k"] == 6

    def test_c4_reports_its_own_hit(self, tmp_path, capsys):
        f = write(tmp_path, "g.g6", emit_graph6(cycle(4)))
        code, out, _ = run_cli(capsys, ["classify", f, "--json"])
        payload = json.loads(out)
        assert payload["class_c"] is False
        assert payload["class_c_hit"]["pattern"] == "C4"

    def test_disconnected_exits_3(self, tmp_path, capsys):
        f = write(tmp_path, "g.el", "0 1\n2 3")
        code, _, err = run_cli(capsys, ["classify", f])
        assert code == EXIT_DISCONNECTED
        assert "disconnected" in err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        f = write(tmp_path, "g.el", "0 x")
        code, _, err = run_cli(capsys, ["classify", f])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("text, fmt, place", [
        ("D?\x07", "graph6", "byte offset 2"),
        ("n 3\n0 1\n1 7\n", "edgelist", "line 3"),
    ], ids=["graph6", "edgelist"])
    def test_parse_error_names_its_place(self, tmp_path, capsys, text, fmt, place):
        f = write(tmp_path, "g", text)
        code, _, err = run_cli(capsys, ["classify", f, "--format", fmt])
        assert code == EXIT_PARSE
        assert place in err


class TestValidate:
    def test_valid_ordering(self, tmp_path, capsys):
        f = write(tmp_path, "g.g6", emit_graph6(cycle(5)))
        code, out, _ = run_cli(capsys, [
            "validate", f, "--kind", "bfs", "--ordering", "0,1,4,2,3", "--json"])
        assert code == EXIT_OK
        assert json.loads(out)["valid"] is True

    def test_invalid_ordering_prints_violation(self, tmp_path, capsys):
        f = write(tmp_path, "g.g6", emit_graph6(paw()))
        code, out, _ = run_cli(capsys, [
            "validate", f, "--kind", "lexbfs", "--ordering", "2 0 3 1", "--json"])
        assert code == EXIT_NEGATIVE
        payload = json.loads(out)
        assert payload["valid"] is False
        assert {"a", "b", "c", "kind", "reason"} <= set(payload["violation"])

    def test_violation_past_exhaustive_sizes_matches_reference(self, tmp_path, capsys):
        """A seeded generic ordering of a 40-vertex graph that is not BFS:
        the reported violation is the triple scan's first one."""
        rng = random.Random(40)
        g = Graph(40, [(rng.randrange(v), v) for v in range(1, 40)]
                  + [(u, v) for u in range(40) for v in range(u + 1, 40)
                     if rng.random() < 0.1])
        order = run_search(g, SearchKind.GENERIC, TieBreak.seeded(7))
        assert is_generic_order(g, order)[0]
        ok, expected = reference_point_condition(g, order, SearchKind.BFS)
        assert not ok
        f = write(tmp_path, "g.g6", emit_graph6(g))
        code, out, _ = run_cli(capsys, [
            "validate", f, "--kind", "bfs", "--json",
            "--ordering", ",".join(map(str, order))])
        assert code == EXIT_NEGATIVE
        assert json.loads(out)["violation"] == expected.to_dict()

    def test_label_mapping_file(self, tmp_path, capsys):
        f = write(tmp_path, "g.g6", emit_graph6(paw()))
        labels = write(tmp_path, "labels.txt", "a 0\nb 1\nc 2\nd 3\n")
        code, out, _ = run_cli(capsys, [
            "validate", f, "--kind", "bfs", "--ordering", "c,a,d,b",
            "--labels", labels, "--json"])
        assert code == EXIT_OK
        assert json.loads(out)["ordering"] == [2, 0, 3, 1]

    def test_non_permutation_exits_2(self, tmp_path, capsys):
        f = write(tmp_path, "g.g6", emit_graph6(path(3)))
        code, _, err = run_cli(capsys, [
            "validate", f, "--kind", "bfs", "--ordering", "0,0,1"])
        assert code == EXIT_PARSE
        assert err.startswith("error: ")

    def test_unknown_kind_exits_2(self, tmp_path, capsys):
        f = write(tmp_path, "g.g6", emit_graph6(path(3)))
        code, _, _ = run_cli(capsys, [
            "validate", f, "--kind", "zfs", "--ordering", "0,1,2"])
        assert code == EXIT_PARSE

    def test_disconnected_exits_3(self, tmp_path, capsys):
        f = write(tmp_path, "g.el", "0 1\n2 3")
        code, _, err = run_cli(capsys, [
            "validate", f, "--kind", "bfs", "--ordering", "0,1,2,3"])
        assert code == EXIT_DISCONNECTED
        assert err.startswith("error: ")
        assert "connected" in err


class TestRun:
    def test_deterministic_with_seed(self, tmp_path, capsys):
        f = write(tmp_path, "g.g6", emit_graph6(cycle(6)))
        argv = ["run", f, "--kind", "lexbfs", "--seed", "42"]
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    def test_start_vertex(self, tmp_path, capsys):
        f = write(tmp_path, "g.g6", emit_graph6(cycle(5)))
        code, out, _ = run_cli(capsys, ["run", f, "--kind", "bfs", "--start", "3"])
        assert code == EXIT_OK
        assert out.split()[0] == "3"

    def test_json_output_is_a_permutation(self, tmp_path, capsys):
        f = write(tmp_path, "g.g6", emit_graph6(complete(4)))
        code, out, _ = run_cli(capsys, ["run", f, "--kind", "mcs", "--json"])
        payload = json.loads(out)
        assert sorted(payload["ordering"]) == [0, 1, 2, 3]


class TestEnumerate:
    def test_p3_bfs_count(self, tmp_path, capsys):
        f = write(tmp_path, "g.el", "0 1\n1 2")
        code, out, _ = run_cli(capsys, ["enumerate", f, "--kind", "bfs"])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[-1] == "count: 4"
        assert len(lines) == 5

    def test_single_vertex(self, tmp_path, capsys):
        f = write(tmp_path, "g.g6", "@")
        code, out, _ = run_cli(capsys, ["enumerate", f, "--kind", "generic"])
        assert code == EXIT_OK
        assert out.strip().splitlines() == ["0", "count: 1"]

    def test_truncation_exits_4(self, tmp_path, capsys):
        f = write(tmp_path, "g.g6", emit_graph6(complete(4)))
        code, out, _ = run_cli(capsys, [
            "enumerate", f, "--kind", "generic", "--cap", "3"])
        assert code == EXIT_TRUNCATED
        assert "TRUNCATED" in out

    def test_json_round_trip(self, tmp_path, capsys):
        f = write(tmp_path, "g.el", "0 1\n1 2")
        code, out, _ = run_cli(capsys, ["enumerate", f, "--kind", "bfs", "--json"])
        payload = json.loads(out)
        assert payload["count"] == 4
        assert payload["truncated"] is False
        assert [0, 1, 2] in payload["orderings"]


class TestEquiv:
    def test_paw_bfs_vs_lexbfs(self, tmp_path, capsys):
        f = write(tmp_path, "g.g6", emit_graph6(paw()))
        code, out, _ = run_cli(capsys, [
            "equiv", f, "--kind-x", "bfs", "--kind-y", "lexbfs", "--json"])
        assert code == EXIT_NEGATIVE
        payload = json.loads(out)
        assert payload["verdict"] is False
        assert payload["witness_ordering"] == [2, 0, 3, 1]

    def test_clique_equal(self, tmp_path, capsys):
        f = write(tmp_path, "g.g6", emit_graph6(complete(5)))
        code, out, _ = run_cli(capsys, [
            "equiv", f, "--kind-x", "bfs", "--kind-y", "dfs",
            "--relation", "equal", "--json"])
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] is True

    def test_c6_dfs_subset_lexdfs(self, tmp_path, capsys):
        f = write(tmp_path, "g.g6", emit_graph6(cycle(6)))
        code, _, _ = run_cli(capsys, [
            "equiv", f, "--kind-x", "dfs", "--kind-y", "lexdfs"])
        assert code == EXIT_OK

    def test_cap_reached_without_counterexample_exits_4(self, tmp_path, capsys):
        f = write(tmp_path, "g.g6", emit_graph6(complete(4)))
        code, out, _ = run_cli(capsys, [
            "equiv", f, "--kind-x", "generic", "--kind-y", "bfs",
            "--cap", "1", "--json"])
        assert code == EXIT_TRUNCATED
        assert '"verdict": null' in out
        payload = json.loads(out)
        assert payload["verdict"] is None and payload["truncated"] is True

    def test_counterexample_within_cap_exits_1(self, tmp_path, capsys):
        # path 2-1-0-3: the first generic ordering (0, 1, 2, 3) visits 2
        # while 0's neighbor 3 is waiting, so it is not a BFS ordering
        f = write(tmp_path, "g.el", "0 1\n1 2\n0 3")
        code, out, _ = run_cli(capsys, [
            "equiv", f, "--kind-x", "generic", "--kind-y", "bfs",
            "--cap", "1", "--json"])
        assert code == EXIT_NEGATIVE
        payload = json.loads(out)
        assert payload["witness_ordering"] == [0, 1, 2, 3]
        assert payload["truncated"] is False


class TestScan:
    def test_small_inventory_all_theorems(self, tmp_path, capsys):
        lines = [emit_graph6(g) for g in
                 [path(2), path(3), cycle(3), path(4), star(3), cycle(4),
                  paw(), complete(4), pan(6)]]
        f = write(tmp_path, "batch.g6", "\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, ["scan", f])
        assert code == EXIT_OK
        assert out == ""
        assert "9 graphs processed, 0 inconsistencies" in err

    def test_empty_input(self, tmp_path, capsys):
        f = write(tmp_path, "empty.g6", "")
        code, _, err = run_cli(capsys, ["scan", f])
        assert code == EXIT_OK
        assert "0 graphs processed" in err

    def test_bad_and_disconnected_lines_skipped(self, tmp_path, capsys):
        disconnected = emit_graph6(__import__("searchorder").Graph(2))
        f = write(tmp_path, "batch.g6",
                  f"{emit_graph6(cycle(4))}\nnot-a-graph6-line!!\n{disconnected}\n")
        code, _, err = run_cli(capsys, ["scan", f])
        assert code == EXIT_OK
        assert "1 graphs processed" in err
        assert "2 lines skipped" in err

    def test_runs_as_module_without_install(self):
        lines = [line for line in load_packaged_inventory()
                 if searchorder.parse_graph6(line).n <= 4]
        src = str(Path(searchorder.__file__).parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "searchorder", "scan", "-"],
            input="\n".join(lines) + "\n", capture_output=True, text=True,
            env=env, timeout=120)
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout == ""
        assert f"{len(lines)} graphs processed, 0 inconsistencies" \
            in done.stderr

    def test_jobs_agree_with_serial(self, tmp_path, capsys):
        lines = [emit_graph6(g) for g in
                 [cycle(5), paw(), star(4), complete(3), pan(4)]]
        f = write(tmp_path, "batch.g6", "\n".join(lines) + "\n")
        code1, out1, _ = run_cli(capsys, ["scan", f, "--theorem", "A"])
        code2, out2, _ = run_cli(capsys, ["scan", f, "--theorem", "A",
                                          "--jobs", "2"])
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, jobs, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "-", "--jobs", jobs])
        assert exc.value.code == EXIT_PARSE
        assert "--jobs" in capsys.readouterr().err

    def test_jobs_clamped_to_cpu_count(self, tmp_path, capsys, monkeypatch):
        started = []

        class FakePool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, work):
                return [fn(item) for item in work]

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "Pool", FakePool)
        assert build_parser().parse_args(["scan", "--jobs", "64"]).jobs == 2
        f = write(tmp_path, "batch.g6", emit_graph6(cycle(4)) + "\n")
        code, _, err = run_cli(capsys, ["scan", f, "--jobs", "64"])
        assert code == EXIT_OK
        assert started == [2]
        assert "1 graphs processed" in err

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(emit_graph6(cycle(4)) + "\n"))
        code, _, err = run_cli(capsys, ["scan", "-"])
        assert code == EXIT_OK
        assert "1 graphs processed" in err


class TestFormatDetection:
    def test_auto_detects_graph6(self, tmp_path, capsys):
        f = write(tmp_path, "g", emit_graph6(cycle(4)))
        code, out, _ = run_cli(capsys, ["classify", f, "--json"])
        assert json.loads(out)["complete_bipartite"] is True

    def test_auto_detects_edge_list(self, tmp_path, capsys):
        f = write(tmp_path, "g", "0 1\n1 2\n2 3\n3 0")
        code, out, _ = run_cli(capsys, ["classify", f, "--json"])
        assert json.loads(out)["complete_bipartite"] is True

    def test_auto_detects_single_vertex_graph6(self, tmp_path, capsys):
        # "@" is K1 in graph6 and an odd token count as an edge list
        f = write(tmp_path, "g", "@")
        code, out, _ = run_cli(capsys, ["classify", f, "--json"])
        assert code == EXIT_OK
        assert json.loads(out)["clique"] is True

    @pytest.mark.parametrize("line, reason", [
        ("A" + chr(63 + 0b100001), "padding"),  # K2 with a stray bit
        ("~??~", "long-form"),
    ])
    def test_auto_rejects_malformed_graph6(self, tmp_path, capsys, line, reason):
        f = write(tmp_path, "g", line)
        code, _, err = run_cli(capsys, ["classify", f])
        assert code == EXIT_PARSE
        assert reason in err

    def test_explicit_format_override(self, tmp_path, capsys):
        # "@" is valid graph6 but would be an empty edge list
        f = write(tmp_path, "g", "@")
        code, _, _ = run_cli(capsys, ["classify", f, "--format", "graph6"])
        assert code == EXIT_OK

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["classify", "/nonexistent/graph.g6"])
        assert code == EXIT_PARSE
