#!/usr/bin/env python3
"""Small-query parallel overhead: warm executions at ``workers=1`` vs ``2``.

For each (graph, pattern) pair the plan is compiled once, executed twice
to warm every cache (plans, shared segments, worker pools), then timed
over :data:`REPEATS` executions per worker count on the vectorized
executor.  The median wall time of one ``execute_plan`` call is reported, with the ratio of the
parallel median to the serial one.  Small patterns finish in well under
a millisecond serially, so the parallel figure is almost entirely
fan-out cost (process start-up, graph attach, dispatch, merge)::

    PYTHONPATH=src python scripts/pool_overhead.py [--shared] [--json out.json] [--baseline FILE]

``--shared`` first places each graph in one shared-memory segment, as
the ``repro serve`` daemon does, so no run pays a per-run graph copy.
``--baseline FILE`` adds the ``--json`` output of an earlier run (say,
of the parent commit, with ``PYTHONPATH`` pointing at its checkout) as
"before" columns.

Counts are checked to be identical across worker counts; the exit code
is nonzero on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from repro.compiler.pipeline import compile_pattern
from repro.costmodel import profile_graph
from repro.graph import shared
from repro.graph.datasets import load
from repro.patterns import catalog
from repro.patterns.generation import all_connected_patterns
from repro.runtime.engine import EngineOptions, execute_plan

#: (graph abbreviation, pattern label, pattern factory)
CASES = (
    ("pt", "motif3_0", lambda: all_connected_patterns(3)[0]),
    ("pt", "motif5_0", lambda: all_connected_patterns(5)[0]),
    ("wk", "triangle", catalog.triangle),
    ("wk", "house", catalog.house),
)
#: Timed executions per (case, worker count); the median is reported.
REPEATS = 30
EXECUTOR = "vectorized"


def time_case(graph, plan, workers: int) -> tuple[float, int]:
    options = EngineOptions(workers=workers, executor=EXECUTOR)
    count = None
    for _ in range(2):
        count = execute_plan(plan, graph, options=options).embedding_count
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = execute_plan(plan, graph, options=options)
        samples.append(time.perf_counter() - started)
        if result.embedding_count != count:
            raise SystemExit(f"count drifted: {result.embedding_count} "
                             f"!= {count}")
    return statistics.median(samples), count


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shared", action="store_true",
                        help="share each graph once up front (daemon-like)")
    parser.add_argument("--json", metavar="FILE")
    parser.add_argument("--baseline", metavar="FILE",
                        help="--json output of an earlier run to compare")
    args = parser.parse_args(argv)
    before = {}
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            before = {(r["graph"], r["pattern"]): r
                      for r in json.load(fh)["rows"]}

    rows = []
    graphs: dict = {}
    handles = []
    ok = True
    for graph_name, label, factory in CASES:
        if graph_name not in graphs:
            graph = load(graph_name)
            if args.shared:
                handles.append(shared.share_graph(graph))
                graph = handles[-1].graph
            graphs[graph_name] = (graph, profile_graph(graph))
        graph, profile = graphs[graph_name]
        plan = compile_pattern(factory(), profile)
        serial_s, serial_count = time_case(graph, plan, 1)
        parallel_s, parallel_count = time_case(graph, plan, 2)
        ok &= serial_count == parallel_count
        rows.append({
            "graph": graph_name, "pattern": label, "count": serial_count,
            "workers1_ms": round(serial_s * 1e3, 3),
            "workers2_ms": round(parallel_s * 1e3, 3),
            "ratio": round(parallel_s / serial_s, 2) if serial_s else None,
        })
    head = f"{'graph':5} {'pattern':9} {'count':>12}"
    if before:
        head += f" {'before w=1':>10} {'before w=2':>10}"
    print(f"{head} {'w=1 ms':>9} {'w=2 ms':>9} {'w2/w1':>7}")
    for row in rows:
        line = f"{row['graph']:5} {row['pattern']:9} {row['count']:>12}"
        old = before.get((row["graph"], row["pattern"]))
        if before:
            line += (f" {old['workers1_ms']:>10.3f} {old['workers2_ms']:>10.3f}"
                     if old else f" {'-':>10} {'-':>10}")
        print(f"{line} {row['workers1_ms']:>9.3f} {row['workers2_ms']:>9.3f} "
              f"{row['ratio']:>7.2f}")
    for handle in handles:
        handle.close()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"executor": EXECUTOR, "repeats": REPEATS,
                       "shared": args.shared, "rows": rows}, fh, indent=2)
    if not ok:
        print("count mismatch between worker counts", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
