"""Regenerate ``expected_counts.json``: the pinned reference counts.

Every (graph, pattern) pair a workload can draw is counted with the
brute-force oracle :func:`repro.baselines.reference.count_embeddings`,
never with the compiler under test.  The oracle takes minutes over the
whole set, so the counts are computed once and committed; ``run.py``
only reads them.

Usage, from the repository root::

    python3 perfbench/pin_counts.py [--jobs 2]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.baselines.reference import count_embeddings  # noqa: E402
from repro.graph.datasets import load  # noqa: E402
from repro.observe.ledger import graph_fingerprint  # noqa: E402
from repro.patterns.generation import all_connected_patterns  # noqa: E402
from repro.patterns.pattern import Pattern  # noqa: E402

OUT = HERE / "expected_counts.json"

#: Six-vertex patterns added to the cold-start pool: each compiles in
#: 100-250 ms and executes in 10-50 ms on ``mc``, so a first sighting is
#: compile-bound like the 3-5-vertex ones.
_COLD_SIX = (8, 12, 20, 28, 36, 48)


def _motifs() -> list[Pattern]:
    return [p for k in (3, 4, 5) for p in all_connected_patterns(k)]


def pattern_sets() -> dict[str, list[Pattern]]:
    """The drawable patterns per graph abbreviation."""
    six = all_connected_patterns(6)
    return {
        "mc": _motifs() + [six[i] for i in _COLD_SIX],
        "pt": _motifs(),
    }


def _count(task: tuple[str, str, int, list]) -> tuple[str, str, int, float]:
    graph_name, name, n, edges = task
    started = time.perf_counter()
    count = count_embeddings(load(graph_name), Pattern(n, edges, name=name))
    return graph_name, name, count, time.perf_counter() - started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    sets = pattern_sets()
    tasks = [
        (graph_name, p.name, p.n, [list(e) for e in sorted(p.edge_set)])
        for graph_name, patterns in sets.items() for p in patterns
    ]
    ctx = multiprocessing.get_context("spawn")
    counts: dict[tuple[str, str], int] = {}
    with ctx.Pool(args.jobs) as pool:
        for graph_name, name, count, seconds in pool.imap_unordered(
                _count, tasks):
            counts[graph_name, name] = count
            print(f"{graph_name} {name}: {count} ({seconds:.1f} s)",
                  flush=True)
    data = {
        "oracle": "repro.baselines.reference.count_embeddings",
        "semantics": "edge-induced embeddings",
        "graphs": {
            graph_name: {
                "fingerprint": graph_fingerprint(load(graph_name)),
                "patterns": [
                    {"name": name, "n": n, "edges": edges,
                     "count": counts[graph_name, name]}
                    for g, name, n, edges in tasks if g == graph_name
                ],
            }
            for graph_name in sets
        },
    }
    OUT.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
