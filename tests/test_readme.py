"""The README's Library example runs and its comments state true values."""

from pathlib import Path

from searchorder.validators import PointViolation

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first fenced python block under the ``## Library`` heading."""
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_library_example_states_true_values():
    ns: dict = {}
    exec(compile(library_example(), str(README), "exec"), ns)
    paw, kind = ns["paw"], ns["SearchKind"]
    assert ns["run_search"](paw, kind.BFS) == (0, 1, 2, 3)
    assert ns["is_search_ordering"](paw, (2, 0, 3, 1), kind.BFS) == (True, None)
    ok, violation = ns["is_search_ordering"](paw, (2, 0, 3, 1), kind.LEXBFS)
    assert not ok and isinstance(violation, PointViolation)
    report = ns["report"]
    assert report.verdict is False
    assert report.witness_ordering == (2, 0, 3, 1)
    assert ns["check_theorem"](paw, "A").consistent
