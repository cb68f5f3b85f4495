"""The two workloads: request generation and the closed loops that send them.

Each workload turns ``--seed`` into a request sequence before anything
is timed; the program only ever sees that sequence.  A request is a
tuple of pattern names (one name: a single ``submit``; several: one
``submit_batch``).  Requests come in *blocks* of fixed composition (the
seed only orders them), and a run stops only at a block boundary, so
every run of a workload holds the same mix whatever the seed and however
fast the host.  Every answer is checked against the counts pinned in
``expected_counts.json``.

* ``cold-start`` (mico, ``mc``): one fresh ``DecoMine`` session per
  request, as one CLI call per query would open.  A block is a *pass*:
  one user's history on an empty persistent ``PlanCache`` directory,
  every pattern four times in seeded order.  The first sighting of a
  pattern misses (profile + search + codegen + store) and the three
  repeats hit (cache load + execution), so misses are 1 in 4.
* ``daemon-mix`` (patents, ``pt``): a ``repro serve`` subprocess
  (vectorized executor, 2 workers, ``--max-inflight 1``) and two
  closed-loop ``Client`` connections taking requests from one shared
  feed.  A block holds each 3-5-vertex pattern ``max(1, round(12 /
  rank))`` times (Zipf popularity over the pinned order), 54 draws sent
  as 40 singles and 5 batches of 2-4 patterns (11% of requests).  Two
  clients share one feed so that the requests of a run, though not
  which client sends each, are fixed by the seed.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import batch_request_id

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected_counts.json"

#: Timed requests per run at least, so that at least ten samples lie
#: beyond the nearest-rank p90.
MIN_REQUESTS = 100
#: Set-ups per run; ``setup_s`` is their median.  ``cold-start`` takes a
#: set-up sample before the first request and again after every
#: ``SETUP_EVERY``-th request; each sample is the mean of
#: ``BUILDS_PER_SAMPLE`` back-to-back graph builds, because the 9 ms build
#: flips between two host speeds several times a second and a single
#: build's median would jump between them.  ``daemon-mix`` starts
#: ``DAEMON_STARTS`` daemons one after the other; the last one serves.
SETUP_EVERY = 40
BUILDS_PER_SAMPLE = 25
DAEMON_STARTS = 7
GRAPH = {"cold-start": "mc", "daemon-mix": "pt"}
WORKLOADS = tuple(GRAPH)
#: Blocks generated per timed run; far more than any run consumes.
BLOCKS = {"cold-start": 30, "daemon-mix": 400}
#: Blocks of a traced run.  It runs a fixed number of blocks rather than
#: for a time, so its per-layer totals depend on the code alone (about
#: 25 s on the two-core reference host).
TRACED_BLOCKS = {"cold-start": 2, "daemon-mix": 8}

SIGHTINGS_PER_PASS = 4
ZIPF_TOP = 12
BATCH_SIZES = (2, 3, 4, 3, 2)
CLIENTS = 2
#: Environment variable naming the run directory, handed to the daemon;
#: its fork workers inherit it, which is how the leak audit finds them
#: after the daemon is gone.
RUN_MARKER = "PERFBENCH_RUN"


def load_expected(graph: str) -> dict:
    """``{name: (Pattern, count)}`` for one graph, in pinned order."""
    from repro.patterns.pattern import Pattern

    entry = json.loads(EXPECTED.read_text())["graphs"][graph]
    return {
        p["name"]: (Pattern(p["n"], [tuple(e) for e in p["edges"]],
                            name=p["name"]), p["count"])
        for p in entry["patterns"]
    }


# ----------------------------------------------------------------------
# Request sequences (pure functions of the seed)
# ----------------------------------------------------------------------
def _block_tokens(workload: str, names: list[str]) -> list[str]:
    if workload == "cold-start":
        return names * SIGHTINGS_PER_PASS
    return [name for rank, name in enumerate(names, 1)
            for _ in range(max(1, round(ZIPF_TOP / rank)))]


def _daemon_requests(tokens: list[str], block: int) -> list[tuple]:
    """Singles plus one batch per size.  Batch members are picked with a
    seed-independent generator, so every run sends the same batches
    (batch composition decides which census nodes fuse, and with them
    the daemon's memory peak); the run's seed only orders them."""
    fixed = random.Random(f"daemon-mix/batches/{block}")
    picked = fixed.sample(range(len(tokens)), sum(BATCH_SIZES))
    members = iter(picked)
    batches = [tuple(tokens[next(members)] for _ in range(size))
               for size in BATCH_SIZES]
    chosen = set(picked)
    singles = [(t,) for i, t in enumerate(tokens) if i not in chosen]
    return singles + batches


def request_blocks(workload: str, seed: int, names: list[str],
                   blocks: int | None = None) -> list[list[tuple]]:
    """The whole request sequence of a run, block by block."""
    rng = random.Random(f"{workload}/{seed}")
    out = []
    for block in range(blocks or BLOCKS[workload]):
        tokens = _block_tokens(workload, names)
        if workload == "daemon-mix":
            requests = _daemon_requests(tokens, block)
        else:
            requests = [(token,) for token in tokens]
        rng.shuffle(requests)
        out.append(requests)
    return out


class Feed:
    """Hands out requests in order and closes at a block boundary once
    the run has lasted ``seconds`` and timed ``MIN_REQUESTS``."""

    def __init__(self, blocks: list[list[tuple]], seconds: float) -> None:
        self._seconds = seconds
        self._items = [(b, i == 0, request) for b, block in enumerate(blocks)
                       for i, request in enumerate(block)]
        self._next = 0
        self._lock = threading.Lock()
        self.started = time.perf_counter()

    def take(self, completed: int) -> "tuple[int, int, tuple] | None":
        """``(block, index, request)``, or None when the run is over."""
        with self._lock:
            if self._next >= len(self._items):
                return None
            block, first, request = self._items[self._next]
            if (first and completed >= MIN_REQUESTS
                    and time.perf_counter() - self.started >= self._seconds):
                self._next = len(self._items)
                return None
            self._next += 1
            return block, self._next - 1, request


@contextlib.contextmanager
def rotating_cores():
    """Yield a function that moves the calling thread to the next core it
    may run on; the original affinity is restored on exit.

    A single-threaded caller stays on one core, and on a virtual machine
    each core's speed drifts with the load beside it on the host: on the
    two-core reference host by up to 1.5x for seconds at a time, with no
    correlation between the two cores.  Moving the caller to the other
    core before every timed request makes one run average both, as the
    two-core ``daemon-mix`` does by itself.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield lambda: None
        return
    allowed = os.sched_getaffinity(0)
    cores = itertools.cycle(sorted(allowed))
    try:
        yield lambda: os.sched_setaffinity(0, {next(cores)})
    finally:
        os.sched_setaffinity(0, allowed)


# ----------------------------------------------------------------------
# Outcome of one measured run
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    setup_s: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    answers: int = 0
    wall_s: float = 0.0
    #: requests with a wrong count, an error, a rejection or a cancel
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: pattern name -> every distinct count returned for it
    counts: dict = field(default_factory=dict)
    server_stats: dict | None = None
    #: ``Tracer.dump()`` of each traced daemon process
    daemon_traces: list = field(default_factory=list)

    def check(self, name: str, count, expected: dict) -> bool:
        self.counts.setdefault(name, set()).add(count)
        want = expected[name][1]
        if count != want:
            self.failures.append(f"{name}: got {count!r}, expected {want}")
            return False
        return True

    def record(self, latency: float, answers: list[tuple[str, object]],
               expected: dict) -> None:
        """One timed request and its ``(name, count)`` answers."""
        self.latencies.append(latency)
        self.answers += len(answers)
        results = [self.check(name, count, expected)
                   for name, count in answers]
        if not all(results):
            self.failed += 1


class Run:
    """What one workload run needs: seed, duration, scratch dir, tracer."""

    def __init__(self, workload, seed, seconds, run_dir, *, tracer=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.run_dir = Path(run_dir)
        self.tracer = tracer
        self.expected = load_expected(GRAPH[workload])
        self.names = list(self.expected)

    def request_scope(self, request_id: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.request(request_id)

    def build_graph(self):
        from repro.graph import datasets

        datasets.clear_cache()
        return datasets.load(GRAPH[self.workload])

    def feed(self) -> Feed:
        """An untraced run lasts ``seconds``; a traced one sends exactly
        ``TRACED_BLOCKS`` blocks."""
        if self.tracer is None:
            return Feed(request_blocks(self.workload, self.seed, self.names),
                        self.seconds)
        blocks = TRACED_BLOCKS[self.workload]
        return Feed(request_blocks(self.workload, self.seed, self.names,
                                   blocks), math.inf)


# ----------------------------------------------------------------------
# cold-start
# ----------------------------------------------------------------------
def run_cold_start(run: Run) -> Outcome:
    from repro import DecoMine
    from repro.api.messages import MiningRequest
    from repro.compiler.plancache import PlanCache
    from repro.runtime.engine import EngineOptions

    out = Outcome()

    def timed_build(next_core):
        elapsed = 0.0
        for _ in range(BUILDS_PER_SAMPLE):
            next_core()
            started = time.perf_counter()
            graph = run.build_graph()
            elapsed += time.perf_counter() - started
        out.setup_s.append(elapsed / BUILDS_PER_SAMPLE)
        return graph

    options = EngineOptions(workers=1, executor="codegen")
    with rotating_cores() as next_core:
        graph = timed_build(next_core)
        feed = run.feed()
        paused = 0.0
        while (item := feed.take(len(out.latencies))) is not None:
            block, index, (name,) = item
            if index % SETUP_EVERY == SETUP_EVERY - 1:
                # Further set-up samples, spread over the run as host
                # speed drifts.
                t0 = time.perf_counter()
                timed_build(next_core)
                paused += time.perf_counter() - t0
            rid = f"q{index}"
            next_core()
            t0 = time.perf_counter()
            with run.request_scope(rid):
                session = DecoMine(graph, engine=options,
                                   plan_cache=PlanCache(
                                       run.run_dir / f"plans-{block}"))
                response = session.submit(MiningRequest(
                    pattern=run.expected[name][0], request_id=rid))
            out.record(time.perf_counter() - t0, [(name, response.count)],
                       run.expected)
        out.wall_s = time.perf_counter() - feed.started - paused
    return out


# ----------------------------------------------------------------------
# daemon-mix
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` subprocess on a fresh plan-cache directory."""

    def __init__(self, run: Run, index: int) -> None:
        rel = run.run_dir.relative_to(ROOT)
        # Relative paths keep the socket under the AF_UNIX length limit
        # wherever the checkout lives; both ends run with cwd = ROOT.
        self.socket = str(rel / f"d{index}.sock")
        self.spans_path = run.run_dir / f"d{index}-spans.json"
        argv = [
            "serve", "--dataset", GRAPH[run.workload],
            "--socket", self.socket, "--executor", "vectorized",
            "--workers", "2", "--max-inflight", "1",
            "--plan-cache", str(rel / f"plans-d{index}"),
        ]
        if run.tracer is not None:
            cmd = [sys.executable, str(HERE / "launcher.py"),
                   "--spans", str(self.spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "repro", *argv]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env[RUN_MARKER] = str(run.run_dir)
        self.log_path = run.run_dir / f"d{index}.log"
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log)

    def wait_ready(self, timeout: float = 60.0) -> None:
        from repro.exceptions import ReproError
        from repro.serve import Client

        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode}: "
                    f"{self.log_path.read_text(errors='replace')[-2000:]}")
            try:
                with Client(self.socket, client_id="setup") as client:
                    client.ping()
                return
            except (ReproError, OSError):
                if time.monotonic() > deadline:
                    raise RuntimeError("daemon did not answer a ping")
                time.sleep(0.005)

    def stop(self) -> dict:
        """Shut the daemon down; returns its final stats snapshot."""
        from repro.serve import Client

        with Client(self.socket, client_id="control") as client:
            stats = client.ping()
            client.shutdown()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("daemon did not exit after shutdown")
        if self.proc.returncode != 0:
            raise RuntimeError(f"daemon exited with {self.proc.returncode}")
        return stats

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def trace(self) -> dict | None:
        if not self.spans_path.exists():
            return None
        return json.loads(self.spans_path.read_text())


def run_daemon_mix(run: Run) -> Outcome:
    from repro.exceptions import ReproError
    from repro.serve import Client

    out = Outcome()
    daemons = []
    try:
        for index in range(DAEMON_STARTS):
            started = time.perf_counter()
            daemon = Daemon(run, index)
            daemons.append(daemon)
            daemon.wait_ready()
            out.setup_s.append(time.perf_counter() - started)
            if index + 1 < DAEMON_STARTS:
                daemon.stop()
        daemon = daemons[-1]
        feed = run.feed()
        lock = threading.Lock()

        def client_loop(client_index: int) -> None:
            cid = f"c{client_index}"
            batches = 0
            with Client(daemon.socket, client_id=cid) as client:
                while (item := feed.take(len(out.latencies))) is not None:
                    _block, index, names = item
                    patterns = [run.expected[n][0] for n in names]
                    if len(names) == 1:
                        rid = f"q{index}"
                        call = functools.partial(client.submit, patterns[0],
                                                 request_id=rid)
                    else:
                        rid = batch_request_id(cid, batches)
                        batches += 1
                        call = functools.partial(client.submit_batch,
                                                 patterns)
                    error = None
                    t0 = time.perf_counter()
                    try:
                        with run.request_scope(rid):
                            replies = call()
                    except (ReproError, OSError) as exc:
                        replies, error = [], f"{type(exc).__name__}: {exc}"
                    latency = time.perf_counter() - t0
                    if not isinstance(replies, list):
                        replies = [replies]
                    with lock:
                        out.failures.extend(
                            f"{cid} {names}: {reply.error}"
                            for reply in replies if not reply.ok)
                        if error is not None:
                            out.failures.append(f"{cid} {names}: {error}")
                        answers = [(name, reply.count if reply.ok else None)
                                   for name, reply in zip(names, replies)]
                        out.record(latency, answers or [(names[0], None)],
                                   run.expected)
                    if error is not None:
                        return

        crashes = []

        def guarded(client_index: int) -> None:
            try:
                client_loop(client_index)
            except BaseException as exc:  # re-raised in the main thread
                crashes.append(exc)

        threads = [threading.Thread(target=guarded, args=(i,))
                   for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if crashes:
            raise crashes[0]
        out.wall_s = time.perf_counter() - feed.started
        out.server_stats = daemon.stop()
    finally:
        for daemon in daemons:
            daemon.kill()
    out.daemon_traces = [t for t in (d.trace() for d in daemons) if t]
    return out


RUNNERS = {
    "cold-start": run_cold_start,
    "daemon-mix": run_daemon_mix,
}


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
def percentile(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(samples)
    value = ordered[max(1, math.ceil(len(ordered) * q)) - 1]
    return value, sum(1 for s in ordered if s > value)


def end_to_end(out: Outcome, peak_rss_mb: float) -> dict:
    p90, _ = percentile(out.latencies, 0.9)
    return {
        "setup_s": (statistics.median(out.setup_s), "s"),
        "query_p50_ms": (statistics.median(out.latencies) * 1e3, "ms"),
        "query_p90_ms": (p90 * 1e3, "ms"),
        "queries_per_s": (out.answers / out.wall_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
