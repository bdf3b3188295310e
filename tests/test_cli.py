import dataclasses
import io
import json
import os
import random
import re
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


def module_env():
    """The environment for ``python -m searchorder`` from this checkout."""
    src = str(Path(searchorder.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


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

    @pytest.mark.parametrize("text, place", [
        ("D?\x07", "byte offset 2"),
        ("n 3\n0 1\n1 7\n", "line 3"),
    ], ids=["graph6", "edgelist"])
    def test_parse_error_names_its_place(self, tmp_path, capsys, text, place):
        f = write(tmp_path, "g", text)
        code, _, err = run_cli(capsys, ["classify", f])
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

    @pytest.mark.parametrize("kind, ordering", [
        ("generic", "0,3,2,1"),  # 3 has no visited neighbour after 0
        ("mcs", "0,2,3,1"),      # after 0, 2: 1 has two visited neighbours, 3 one
    ])
    def test_vertex_failure_prints_violating_vertex(self, tmp_path, capsys,
                                                    kind, ordering):
        f = write(tmp_path, "g.g6", emit_graph6(paw()))
        code, out, _ = run_cli(capsys, [
            "validate", f, "--kind", kind, "--ordering", ordering, "--json"])
        assert code == EXIT_NEGATIVE
        payload = json.loads(out)
        assert payload["valid"] is False
        assert payload["violating_vertex"] == 3
        assert "violation" not in payload

    def test_label_mapping_file(self, tmp_path, capsys):
        f = write(tmp_path, "g.g6", emit_graph6(paw()))
        labels = write(tmp_path, "labels.txt", "a 0\nb 1\nc 2\nd 3\n")
        code, out, _ = run_cli(capsys, [
            "validate", f, "--kind", "bfs", "--ordering", "c,a,d,b",
            "--labels", labels, "--json"])
        assert code == EXIT_OK
        assert json.loads(out)["ordering"] == [2, 0, 3, 1]

    def test_duplicate_label_exits_2(self, tmp_path, capsys):
        """A repeated name would silently win: here ``x y 0`` would read as
        the valid BFS ordering [2, 1, 0]."""
        f = write(tmp_path, "g.g6", emit_graph6(path(3)))
        labels = write(tmp_path, "labels.txt", "x 0\ny 1\nx 2\n")
        code, out, err = run_cli(capsys, [
            "validate", f, "--kind", "bfs", "--ordering", "x y 0",
            "--labels", labels])
        assert (code, out) == (EXIT_PARSE, "")
        assert err == "error: labels file line 3: duplicate label 'x'\n"

    def test_labels_file_skips_blank_and_comment_lines(self, tmp_path,
                                                       capsys):
        f = write(tmp_path, "g.g6", emit_graph6(paw()))
        labels = write(tmp_path, "labels.txt",
                       "# name index\na 0\n\n  \nb 1\n# the rest\nc 2\nd 3\n")
        code, out, _ = run_cli(capsys, [
            "validate", f, "--kind", "bfs", "--ordering", "c,a,d,b",
            "--labels", labels, "--json"])
        assert code == EXIT_OK
        assert json.loads(out)["ordering"] == [2, 0, 3, 1]

    @pytest.mark.parametrize("text, message", [
        ("a 0\n# c\nb 1 2\n",
         "labels file line 3: expected 'name index'"),
        ("a 0\n\nb one\n", "labels file line 3: non-integer index 'one'")])
    def test_bad_labels_line_exits_2(self, tmp_path, capsys, text, message):
        f = write(tmp_path, "g.g6", emit_graph6(path(3)))
        labels = write(tmp_path, "labels.txt", text)
        code, out, err = run_cli(capsys, [
            "validate", f, "--kind", "bfs", "--ordering", "a b 2",
            "--labels", labels])
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"error: {message}\n"

    def test_unknown_ordering_token_exits_2(self, tmp_path, capsys):
        f = write(tmp_path, "g.g6", emit_graph6(path(3)))
        labels = write(tmp_path, "labels.txt", "a 0\n")
        code, out, err = run_cli(capsys, [
            "validate", f, "--kind", "bfs", "--ordering", "a,q,2",
            "--labels", labels])
        assert (code, out) == (EXIT_PARSE, "")
        assert err == ("error: ordering token 'q' is neither an integer "
                       "nor a known label\n")

    def test_labels_and_graph_both_from_stdin_exits_2(self, capsys,
                                                      monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n"))
        code, out, err = run_cli(capsys, [
            "validate", "-", "--labels", "-", "--kind", "bfs",
            "--ordering", "a,b,c"])
        assert (code, out) == (EXIT_PARSE, "")
        assert err == "error: the graph and --labels cannot both read stdin\n"

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

    def test_closed_output_pipe_exits_141_quietly(self, tmp_path):
        """As under ``| head``: the 40,320 orderings of K8 overfill the pipe
        after its reader has gone."""
        f = write(tmp_path, "k8.g6", emit_graph6(complete(8)))
        with subprocess.Popen(
                [sys.executable, "-m", "searchorder", "enumerate", f,
                 "--kind", "generic"], stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=module_env()) as proc:
            assert proc.stdout.readline() == b"0 1 2 3 4 5 6 7\n"
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (141, b"")

    def test_truncation_exits_4(self, tmp_path, capsys):
        f = write(tmp_path, "g.g6", emit_graph6(complete(4)))
        code, out, _ = run_cli(capsys, [
            "enumerate", f, "--kind", "generic", "--cap", "3"])
        assert code == EXIT_TRUNCATED
        assert "TRUNCATED" in out

    def test_cap_equal_to_the_count_is_complete(self, tmp_path, capsys):
        f = write(tmp_path, "g.g6", emit_graph6(path(2)))
        code, out, _ = run_cli(capsys, [
            "enumerate", f, "--kind", "generic", "--cap", "2"])
        assert code == EXIT_OK
        assert out.strip().splitlines() == ["0 1", "1 0", "count: 2"]

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
        # while 0's neighbor 3 is waiting, so it is not a BFS ordering; the
        # walk finds it after expanding 3 search states
        f = write(tmp_path, "g.el", "0 1\n1 2\n0 3")
        code, out, _ = run_cli(capsys, [
            "equiv", f, "--kind-x", "generic", "--kind-y", "bfs",
            "--cap", "3", "--json"])
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

    def test_size_guard_skips_large_graphs(self, tmp_path, capsys):
        f = write(tmp_path, "batch.g6", emit_graph6(complete(9)) + "\n")
        code, out, err = run_cli(capsys, ["scan", f])
        assert code == EXIT_OK
        assert out == ""
        assert "0 graphs processed, 0 inconsistencies, 1 lines skipped" in err
        assert "  skipped line 1: n=9 exceeds the size guard (8)\n" in err

    def test_disconnected_large_line_is_skipped_as_disconnected(
            self, tmp_path, capsys):
        f = write(tmp_path, "batch.g6", "H_?????\n")  # n = 9, one edge
        code, out, err = run_cli(capsys, ["scan", f])
        assert (code, out) == (EXIT_OK, "")
        assert "  skipped line 1: disconnected graph\n" in err

    def test_inconsistency_printed_as_json_and_exits_1(self, tmp_path, capsys,
                                                       monkeypatch):
        """With theorem A's last verdict flipped on the paw, scan prints
        one line naming the graph, the theorem, the item, the structural
        prediction and the flipped verdict."""
        real = cli.check_theorem

        def flipped(g, theorem):
            report = real(g, theorem)
            if theorem == "A":
                name, value = report.items[-1]
                report = dataclasses.replace(
                    report, items=report.items[:-1] + ((name, not value),))
            return report

        monkeypatch.setattr(cli, "check_theorem", flipped)
        f = write(tmp_path, "batch.g6", emit_graph6(paw()) + "\n")
        code, out, err = run_cli(capsys, ["scan", f])
        assert code == EXIT_NEGATIVE
        assert out == ('{"graph6": "Cx", "theorem": "A", '
                       '"item": "A4: bfs equals dfs", '
                       '"structural": false, "behavioral": true}\n')
        assert "1 graphs processed, 1 inconsistencies" in err

    def test_runs_as_module_without_install(self):
        lines = [line for line in load_packaged_inventory()
                 if searchorder.parse_graph6(line).n <= 4]
        done = subprocess.run(
            [sys.executable, "-m", "searchorder", "scan", "-"],
            input="\n".join(lines) + "\n", capture_output=True, text=True,
            env=module_env(), timeout=120)
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout == ""
        assert f"{len(lines)} graphs processed, 0 inconsistencies" \
            in done.stderr

    def test_jobs_agree_with_serial(self, tmp_path, capsys):
        """Skipped lines are reported in input order, pool or not."""
        disconnected = emit_graph6(Graph(2))
        lines = [emit_graph6(cycle(5)), "not-a-graph6-line!!", emit_graph6(paw()),
                 disconnected, emit_graph6(star(4)), emit_graph6(complete(9)),
                 emit_graph6(complete(3)), emit_graph6(pan(4))]
        f = write(tmp_path, "batch.g6", "\n".join(lines) + "\n")
        runs = []
        for jobs in ("1", "2"):
            code, out, err = run_cli(capsys, ["scan", f, "--theorem", "A",
                                              "--jobs", jobs])
            runs.append((code, out, re.sub(r"\d+ ms$", "N ms", err, flags=re.M)))
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert (code, out) == (EXIT_OK, "")
        assert err.splitlines() == [
            "scan: 5 graphs processed, 0 inconsistencies, 3 lines skipped, N ms",
            "  skipped line 2: parse error: non-printable graph6 byte 45 "
            "(byte offset 3)",
            "  skipped line 4: disconnected graph",
            "  skipped line 6: n=9 exceeds the size guard (8)"]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, jobs, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "-", "--jobs", jobs])
        assert exc.value.code == EXIT_PARSE
        assert "--jobs" in capsys.readouterr().err

    def test_non_integer_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "-", "--jobs", "x"])
        assert exc.value.code == EXIT_PARSE
        assert "--jobs: not an integer: 'x'" in capsys.readouterr().err

    def test_jobs_clamped_to_cpu_count(self, tmp_path, capsys, monkeypatch):
        started = []

        class FakePool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, work, chunksize):
                return map(fn, work)

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

    def test_serial_scan_judges_a_line_before_reading_the_rest(
            self, capsys, monkeypatch):
        lines = [emit_graph6(g) + "\n"
                 for g in (cycle(4), paw(), path(4), star(3))]
        handed_out = 0

        def stdin():
            nonlocal handed_out
            for line in lines:
                handed_out += 1
                yield line

        first_judged_after = []
        real = cli.check_theorem

        def recording(g, theorem):
            if not first_judged_after:
                first_judged_after.append(handed_out)
            return real(g, theorem)

        monkeypatch.setattr("sys.stdin", stdin())
        monkeypatch.setattr(cli, "check_theorem", recording)
        code, _, err = run_cli(capsys, ["scan", "-"])
        assert code == EXIT_OK
        assert "4 graphs processed" in err
        assert first_judged_after[0] < len(lines)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_lines_numbered_as_splitlines_numbers_them(
            self, source, jobs, tmp_path, capsys, monkeypatch):
        """\\r, \\x0c and \\x85 end a line too, as in str.splitlines()."""
        text = "A_\r\nBw\rBW\x0cCh\x85C~\n\nnot!!\nA?\nH~~~~~~~~~~\nCx"
        if source == "file":
            argv = ["scan", write(tmp_path, "batch.g6", text)]
        else:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            argv = ["scan", "-"]
        code, out, err = run_cli(capsys, argv + ["--jobs", jobs])
        assert (code, out) == (EXIT_OK, "")
        summary, *skips = err.splitlines()
        assert "6 graphs processed, 0 inconsistencies, 3 lines skipped" \
            in summary
        assert skips == [
            "  skipped line 7: parse error: non-printable graph6 byte 33 "
            "(byte offset 3)",
            "  skipped line 8: disconnected graph",
            "  skipped line 9: parse error: trailing garbage after graph6 "
            "body (byte offset 7)"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_file_and_stdin_agree_on_bad_bytes(
            self, source, jobs, tmp_path, capsys, monkeypatch):
        """Both are read as UTF-8 whatever the locale; a parse error names
        the first byte of the offending character.  The stdin is strict, as
        under a strict locale, so only its reconfiguration lets it pass."""
        def argv(command, data):
            if source == "file":
                target = tmp_path / "input"
                target.write_bytes(data)
                return [command, str(target)]
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
                io.BytesIO(data), encoding="utf-8", errors="strict"))
            return [command, "-"]

        code, out, err = run_cli(capsys, argv("scan", b"A_\n\xff\nBw\nB\xc3\xa9\n")
                                 + ["--jobs", jobs])
        assert (code, out) == (EXIT_OK, "")
        summary, *skips = err.splitlines()
        assert "2 graphs processed, 0 inconsistencies, 2 lines skipped" \
            in summary
        assert skips == [
            "  skipped line 2: parse error: non-printable graph6 byte 255 "
            "(byte offset 0)",
            "  skipped line 4: parse error: non-printable graph6 byte 195 "
            "(byte offset 1)"]
        code, _, err = run_cli(capsys, argv("classify", b"\xff"))
        assert code == EXIT_PARSE
        assert err == "error: non-printable graph6 byte 255 (byte offset 0)\n"


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

    def test_lone_token_is_read_as_graph6(self, tmp_path, capsys):
        # "@" is valid graph6 but would be an empty edge list; a lone "#"
        # would be an empty edge list too, and is rejected as graph6
        code, _, _ = run_cli(capsys, ["classify", write(tmp_path, "g", "@")])
        assert code == EXIT_OK
        code, _, err = run_cli(capsys, ["classify", write(tmp_path, "h", "#")])
        assert code == EXIT_PARSE
        assert "non-printable graph6 byte 35 (byte offset 0)" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["classify", "/nonexistent/graph.g6"])
        assert code == EXIT_PARSE
