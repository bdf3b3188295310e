"""Write enum_counts.txt: for every packaged inventory graph on 6 or 7
vertices, the number of orderings each search kind produces.

enumerate_all checks its counts against this file, and theorem_scan
stratifies its sample on the Generic count.  Rewrite it only when the
meaning of an ordering set changes, never to make a check pass:

    PYTHONPATH=src python3 bench/make_enum_counts.py
"""

from pathlib import Path

from searchorder import SearchKind, enumerate_orderings, parse_graph6
from searchorder.inventory import load_packaged_inventory

OUT = Path(__file__).resolve().parent / "enum_counts.txt"


def main() -> None:
    rows = ["# graph6 " + " ".join(kind.value for kind in SearchKind)]
    for line in load_packaged_inventory():
        g = parse_graph6(line)
        if g.n in (6, 7):
            counts = [len(enumerate_orderings(g, kind).orderings)
                      for kind in SearchKind]
            rows.append(" ".join([line] + [str(c) for c in counts]))
    OUT.write_text("\n".join(rows) + "\n")


if __name__ == "__main__":
    main()
