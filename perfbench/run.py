"""The repository benchmark: one workload per call, checked and measured.

    python3 perfbench/run.py --workload {cold-start,daemon-mix,all}
        --seed N --seconds S --trace {0,1}

Run from anywhere; it works on the checkout it lives in (``src/`` next
to this directory).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the workload untraced for half of ``--seconds``, then
traced for a fixed number of request blocks of the same sequence, and
prints the per-layer metrics plus the tracing overhead.  ``all`` runs
every workload in turn, each in its own process.  Every answer is
checked against ``expected_counts.json``; the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` and the
exit code is nonzero when any answer is wrong or any resource leaked.
The full record (host, commit, samples) goes to ``perfbench/results/``;
see ``README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

#: Directories the tree audit skips: build/run leftovers the root
#: ``.gitignore`` names, so ``git status`` never shows them either.
_IGNORED_DIRS = {".git", "__pycache__"}
_RUN_PREFIX = ".run-"

PER_LAYER_UNITS = {
    "graph.build_s": "s", "graph.share_s": "s",
    "costmodel.profile_s": "s", "costmodel.profile_calls": "count",
    "compiler.search_s": "s", "compiler.codegen_s": "s",
    "compiler.compile_s": "s", "compiler.compile_calls": "count",
    "compiler.candidates": "count",
    "plancache.load_s": "s", "plancache.store_s": "s",
    "plancache.hit_ratio": "ratio", "plancache.bytes": "bytes",
    "session.submit_s": "s", "session.self_s": "s",
    "engine.execute_s": "s", "engine.chunk_s": "s",
    "engine.overhead_s": "s", "engine.chunks": "count",
    "engine.aux_runs": "count", "engine.work_balance": "ratio",
    "engine.retries": "count",
    "setops.kernel_calls": "count", "setops.vector_calls": "count",
    "setops.cache_hit_ratio": "ratio",
    "batch.compile_s": "s", "batch.execute_s": "s",
    "batch.nodes": "count", "batch.eliminated_frac": "ratio",
    "serve.roundtrip_s": "s", "serve.server_s": "s", "serve.wait_s": "s",
    "serve.coalesced_ratio": "ratio", "serve.plan_hit_ratio": "ratio",
    "serve.rejections": "count",
    "trace.overhead_frac": "ratio", "trace.requests": "count",
}


# ----------------------------------------------------------------------
# Host, commit and audits
# ----------------------------------------------------------------------
def host_fingerprint() -> dict:
    import numpy

    model = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def source_identity() -> dict:
    """The measured checkout: git commit if it is a repository, and
    always a digest of ``src/`` (an exported checkout has no .git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def tree_snapshot() -> dict:
    """``{relative path: (size, mtime_ns)}`` of the checkout's files."""
    snapshot = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in _IGNORED_DIRS
                       and not d.startswith(_RUN_PREFIX)
                       and Path(dirpath, d) != RESULTS]
        for name in filenames:
            path = Path(dirpath, name)
            try:
                stat = path.stat()
            except OSError:
                continue
            snapshot[str(path.relative_to(ROOT))] = (stat.st_size,
                                                     stat.st_mtime_ns)
    return snapshot


def shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("psm_")}
    except OSError:
        return set()


def marked_processes(run_root: Path) -> list[int]:
    """Live processes whose environment points into ``run_root``."""
    from workloads import RUN_MARKER

    needle = f"{RUN_MARKER}={run_root}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            environ = Path("/proc", entry, "environ").read_bytes()
        except OSError:
            continue
        if any(var.startswith(needle) for var in environ.split(b"\0")):
            found.append(int(entry))
    return found


def audit(before_tree, before_shm, run_root: Path) -> list[str]:
    """Leaks after a run: shm segments, processes, changed files."""
    leaks = []
    new_shm = shm_segments() - before_shm
    if new_shm:
        leaks.append(f"{len(new_shm)} new /dev/shm segment(s): "
                     f"{sorted(new_shm)[:5]}")
    deadline = time.monotonic() + 5.0
    while (procs := marked_processes(run_root)) and time.monotonic() < deadline:
        time.sleep(0.05)
    if procs:
        leaks.append(f"leftover daemon/worker processes: {procs}")
    import multiprocessing

    if multiprocessing.active_children():
        leaks.append("leftover multiprocessing children")
    after = tree_snapshot()
    changed = sorted(
        path for path in set(before_tree) | set(after)
        if before_tree.get(path) != after.get(path)
    )
    if changed:
        leaks.append(f"checkout changed: {changed[:5]}")
    return leaks


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
def measure(args, run_root: Path):
    """Run the workload (twice when traced); returns the two outcomes
    and the tracer of the second run."""
    from tracer import Tracer
    from workloads import RUNNERS, Run

    # A traced call runs half of the time untraced, for the overhead
    # figure, then a fixed number of blocks of the same sequence traced.
    seconds = args.seconds / 2 if args.trace else args.seconds

    def once(name, tracer=None):
        run_dir = run_root / name
        run_dir.mkdir()
        run = Run(args.workload, args.seed, seconds, run_dir,
                  tracer=tracer)
        return RUNNERS[args.workload](run)

    plain = once("plain")
    if not args.trace:
        return plain, None, None
    with Tracer().install() as tracer:
        traced = once("traced", tracer)
    return plain, traced, tracer


def cross_checks(graph: str, plain, traced) -> list[str]:
    """Problems beyond wrong answers: traced counts that differ from
    untraced ones, and a graph that is not the one counts were pinned on."""
    from repro.graph import datasets
    from repro.observe.ledger import graph_fingerprint
    from workloads import EXPECTED

    problems = []
    if traced is not None:
        for name in sorted(set(plain.counts) & set(traced.counts)):
            if plain.counts[name] != traced.counts[name]:
                problems.append(f"{name}: traced counts {traced.counts[name]}"
                                f" differ from untraced {plain.counts[name]}")
    pinned = json.loads(EXPECTED.read_text())["graphs"][graph]
    if graph_fingerprint(datasets.load(graph)) != pinned["fingerprint"]:
        problems.append(f"graph {graph} differs from the one the reference "
                        "counts were pinned on")
    return problems


def per_layer(plain, traced, tracer) -> tuple[dict, dict, list]:
    """Per-layer metrics of the traced run, their absence notes, spans."""
    from tracer import layer_metrics

    spans = [dict(s, proc="client") for s in tracer.spans]
    counters = Counter(tracer.counters)
    for index, dump in enumerate(traced.daemon_traces):
        spans.extend(dict(s, proc=f"daemon{index}") for s in dump["spans"])
        counters.update(dump["counters"])
    layers, absent = layer_metrics(spans, counters, traced.server_stats)
    layers["trace.overhead_frac"] = (
        (plain.answers / plain.wall_s) / (traced.answers / traced.wall_s)
        - 1.0)
    layers["trace.requests"] = len(traced.latencies)
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit in PER_LAYER_UNITS.items()}
    return metrics, absent, spans


def run_all(args) -> int:
    """Every workload in its own process, one after the other; exits
    nonzero when any of them does."""
    from workloads import WORKLOADS

    code = 0
    for workload in WORKLOADS:
        code = max(code, subprocess.run([
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]).returncode)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("cold-start", "daemon-mix", "all"),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # Turn a termination request into SystemExit, so that the cleanup in
    # ``finally`` blocks (daemons, run directory) still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    os.chdir(ROOT)
    from workloads import GRAPH, end_to_end

    graph = GRAPH[args.workload]
    host = host_fingerprint()
    source = source_identity()
    before_tree = tree_snapshot()
    before_shm = shm_segments()
    run_root = HERE / f"{_RUN_PREFIX}{os.getpid()}-{os.urandom(4).hex()}"
    run_root.mkdir()
    try:
        plain, traced, tracer = measure(args, run_root)
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
    leaks = audit(before_tree, before_shm, run_root)

    outcomes = [o for o in (plain, traced) if o is not None]
    problems = cross_checks(graph, plain, traced)
    failures = [m for o in outcomes for m in o.failures] + problems
    correct = not failures
    attempted = sum(len(o.latencies) for o in outcomes)
    failed = sum(o.failed for o in outcomes) + len(problems) + len(leaks)

    e2e = end_to_end(plain, peak_rss_mb())
    record = {
        "workload": args.workload, "graph": graph, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host,
        **source, "correct": correct, "attempted": attempted,
        "failed": failed, "failures": (failures + leaks)[:50],
        "samples": {"setup": len(plain.setup_s),
                    "requests": len(plain.latencies),
                    "answers": plain.answers},
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in e2e.items()},
        "latencies_s": plain.latencies,
        "setup_samples_s": plain.setup_s,
        "server_stats": plain.server_stats,
    }
    print(f"workload {args.workload} on {graph}, seed {args.seed}, commit "
          f"{source['commit'] or '-'}, src {source['src_sha256'][:12]}")
    print(f"host {host['cpu_model']} x{host['cpu_count']}, python "
          f"{host['python']}, numpy {host['numpy']}")
    _print_end_to_end(e2e, plain, failed, attempted)
    metrics = record["end_to_end"]
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if traced is not None:
        metrics, absent, spans = per_layer(plain, traced, tracer)
        record["per_layer"] = metrics
        record["absent"] = absent
        _print_layers(metrics, absent)
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(
            {"spans": spans}))
    (RESULTS / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for message in (failures + leaks)[:20]:
        print(f"FAILED: {message}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and not failed else 1


def _print_end_to_end(e2e: dict, out, failed: int, attempted: int) -> None:
    from workloads import percentile

    n = len(out.latencies)
    notes = {
        "setup_s": f"median of {len(out.setup_s)} set-ups",
        "query_p50_ms": (f"n={n} requests, "
                         f"{percentile(out.latencies, 0.5)[1]} beyond"),
        "query_p90_ms": (f"n={n} requests, "
                         f"{percentile(out.latencies, 0.9)[1]} beyond"),
        "queries_per_s": f"{out.answers} answers in {out.wall_s:.2f} s",
        "peak_rss_mb": "this process + largest waited child",
    }
    for name, (value, unit) in e2e.items():
        print(f"  {name:<24} {value:>14.6g} {unit:<6} {notes[name]}")
    print(f"  {'failed_frac':<24} {failed / attempted:>14.6g} {'ratio':<6} "
          f"{failed} of {attempted} requests (leaks count as failures)")


def _print_layers(metrics: dict, absent: dict) -> None:
    print("  per-layer (traced run):")
    for name, entry in metrics.items():
        note = f"absent: {absent[name]}" if name in absent else ""
        print(f"  {name:<24} {entry['value']:>14.6g} {entry['unit']:<6} "
              f"{note}")


if __name__ == "__main__":
    raise SystemExit(main())
