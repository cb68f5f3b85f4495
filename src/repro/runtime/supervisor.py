"""Chunk-level fault-tolerant execution supervisor.

The engine (paper §7.4) statically cuts the outermost loop into chunks
and the supervisor is its only parallel scheduler, dispatching them onto
the process's persistent worker pool (:mod:`repro.runtime.pool`);
because every chunk accumulates into associative/
commutative counters, any chunk is safely *re-executable*.  The
supervisor exploits that: it tracks per-chunk state
(pending → running → done/failed), re-dispatches chunks lost to worker
death or wedged workers, retries chunks that raised (capped exponential
backoff), enforces per-chunk timeouts and a whole-run deadline, and
checkpoints completed chunks so a killed run resumes by skipping them.

Recovery ladder, mildest first:

1. **Chunk exception** — the worker survives; the chunk is requeued
   with backoff until ``RunBudget.max_chunk_retries`` is exhausted.
2. **Memory casualty (bisection)** — a chunk that fails with
   :class:`MemoryError` (a ballooning frontier, an injected ``"oom"``
   fault) or a watchdog kill is **bisected**: split at its
   degree-weighted midpoint (the same prefix sums the engine cuts
   chunks by) into two fresh half-chunks and requeued, down to
   ``ResourceBudget.min_chunk_weight`` — finer-grained work instead of
   retrying the whole chunk until the budget burns out.
3. **Chunk timeout** — on a resource-governed run the supervisor flips
   the shared cancel token with reason ``"preempt"``: every in-flight
   chunk parks itself at its next poll, completed results are drained
   during ``RunBudget.drain_grace_s`` (healthy work is never thrown
   away), the wedged chunk is bisected, and a worker is killed and
   replaced only if it is still unresponsive after the grace window.
   Without a governor a running chunk cannot be cancelled, so the late
   chunk's worker is killed and replaced (one pool restart) and the
   chunk charged one attempt.
4. **Worker death** — the pool reports the loss of exactly the chunk
   the dead worker was running (and has already forked a replacement);
   that chunk is charged one attempt and re-dispatched, counting one
   pool restart.
5. **Pool failure cap** — after ``max_pool_restarts`` restarts the run
   stops using the pool and its remaining chunks degrade to in-process
   serial execution (still retried; ``"die"`` faults are simulated
   there).
6. **Retry exhaustion / deadline / retry budget / cancellation** — the
   chunk surfaces a structured :class:`ChunkFailure` on
   ``ExecutionResult.failures`` instead of crashing the run;
   ``embedding_count`` then refuses with an
   :class:`~repro.exceptions.ExecutionError`.  Deadline expiry and
   SIGINT on governed runs cancel cooperatively through the token —
   no worker teardown — and the outcome carries the completed work
   fraction (salvage) of everything that did finish.

Checkpointing writes one JSON line per completed chunk (accumulators,
chunk time, kernel stats, attempts) keyed by a plan fingerprint that
covers the plan source, executor, graph shape, and chunk count — aux
(global-shrinkage) plans recurse with the same store under their own
fingerprints, so resume is exact for decomposed counts too.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from queue import Empty, SimpleQueue

from repro.compiler.build import COUNT_ACC
from repro.exceptions import ExecutionError
from repro.observe.trace import graft_worker_spans, span
from repro.runtime.context import ExecutionContext
from repro.runtime.resources import ChunkCancelled, MemoryWatchdog

__all__ = [
    "RunBudget",
    "RunPolicy",
    "ChunkFailure",
    "CheckpointStore",
    "Supervisor",
    "SupervisorOutcome",
    "plan_fingerprint",
]


@dataclass(frozen=True)
class RunBudget:
    """Retry/deadline policy for one supervised execution.

    Parameters
    ----------
    deadline_s:
        Whole-run wall-clock deadline (spans aux-plan corrections);
        chunks not finished when it expires fail with reason
        ``"deadline"``.
    chunk_timeout_s:
        Per-chunk timeout on the pool path (unenforceable in-process,
        where a chunk cannot be preempted), from when a worker takes it.
        A late chunk is presumed wedged and its worker replaced.
    max_chunk_retries:
        Re-dispatches allowed per chunk before it fails permanently.
    max_retries:
        Optional global retry budget across all chunks of one plan.
    backoff_s / backoff_cap_s:
        Capped exponential backoff between retries of the same chunk:
        ``min(backoff_s * 2**(attempt-1), backoff_cap_s)``.
    max_pool_restarts:
        Worker replacements (deaths, kills of wedged workers) tolerated
        before the run degrades to serial execution.
    poll_interval_s:
        Longest wait for a chunk event before the pool path re-checks
        timeouts, deadlines and the cancel token.
    drain_grace_s:
        On resource-governed runs, how long to keep collecting results
        from token-cancelled in-flight chunks before giving up on them
        (cooperative preemption needs each worker to reach its next
        poll site; results that land inside the window are kept).
    """

    deadline_s: float | None = None
    chunk_timeout_s: float | None = None
    max_chunk_retries: int = 3
    max_retries: int | None = None
    backoff_s: float = 0.02
    backoff_cap_s: float = 1.0
    max_pool_restarts: int = 2
    poll_interval_s: float = 0.005
    drain_grace_s: float = 0.5

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ExecutionError("deadline_s must be >= 0")
        if self.chunk_timeout_s is not None and self.chunk_timeout_s <= 0:
            raise ExecutionError("chunk_timeout_s must be > 0")
        if self.drain_grace_s < 0:
            raise ExecutionError("drain_grace_s must be >= 0")
        if self.max_chunk_retries < 0:
            raise ExecutionError("max_chunk_retries must be >= 0")
        if self.max_retries is not None and self.max_retries < 0:
            raise ExecutionError("max_retries must be >= 0")
        if self.backoff_s < 0 or self.backoff_cap_s < 0:
            raise ExecutionError("backoff must be >= 0")
        if self.max_pool_restarts < 0:
            raise ExecutionError("max_pool_restarts must be >= 0")
        if self.poll_interval_s <= 0:
            raise ExecutionError("poll_interval_s must be > 0")

    def backoff_for(self, attempt: int) -> float:
        """Sleep before re-dispatching after failed ``attempt`` (1-based)."""
        return min(self.backoff_s * (2 ** max(0, attempt - 1)),
                   self.backoff_cap_s)


@dataclass(frozen=True)
class RunPolicy:
    """Session-level bundle: budget + checkpoint + supervision toggle.

    ``DecoMine(run_policy=...)`` accepts this (or a bare
    :class:`RunBudget`) and threads it into every counting execution.
    """

    budget: RunBudget | None = None
    checkpoint: "CheckpointStore | str | Path | None" = None
    supervised: bool | None = None
    #: Optional :class:`~repro.runtime.resources.ResourceBudget` turning
    #: the run into a resource-governed one (cancel token + watchdog +
    #: bisection ladder).
    resources: "object | None" = None


@dataclass(frozen=True)
class ChunkFailure:
    """A chunk that could not be completed, with its exception chain."""

    index: int
    bounds: tuple[int, int]
    attempts: int
    # "exception" | "timeout" | "worker-lost" | "deadline" | "retry-budget"
    # | "cancelled" | "memory" | "watchdog"
    reason: str
    error: str | None = None
    exc_chain: tuple[str, ...] = ()

    def describe(self) -> str:
        detail = f": {self.error}" if self.error else ""
        return (f"chunk {self.index} [{self.bounds[0]}, {self.bounds[1]}) "
                f"failed after {self.attempts} attempt(s) "
                f"({self.reason}){detail}")


def _exception_chain(exc: BaseException) -> tuple[str, ...]:
    """``repr`` of the exception and its ``__cause__``/``__context__`` chain."""
    chain: list[str] = []
    seen: set[int] = set()
    current: BaseException | None = exc
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        chain.append(repr(current))
        current = current.__cause__ or current.__context__
    return tuple(chain)


def plan_fingerprint(plan, graph, executor: str, num_chunks: int) -> str:
    """Stable identity of one (plan, graph, executor, chunking) run.

    Covers everything that determines a chunk's accumulator values, so a
    checkpoint recorded under this key is only ever replayed into an
    identical execution.  The plan is identified by its spec and pattern
    (code generation is a pure function of those, whereas ``plan.source``
    embeds gensym counter state that varies across compilations); chunk
    count is included because resume is per-chunk — a run re-chunked
    differently ignores old records and starts clean.
    """
    digest = hashlib.sha256()
    for part in (
        plan.mode, str(plan.info.divisor), executor,
        str(graph.num_vertices), str(graph.num_edges), str(num_chunks),
        repr(plan.pattern), repr(plan.spec),
    ):
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


class CheckpointStore:
    """Append-only JSON-lines log of completed chunks.

    One record per line::

        {"plan": <fingerprint>, "chunk": 3, "bounds": [120, 160],
         "accumulators": {...}, "seconds": 0.8, "stats": {...},
         "attempts": 2}

    Records are flushed per chunk, so a killed process loses at most the
    chunk it was writing; a torn final line is skipped on load.  Several
    plans (a decomposed plan and its aux corrections, or many patterns
    of one census) may share a store — records are filtered by
    fingerprint on load.
    """

    def __init__(self, path: str | os.PathLike, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._fh = None

    def load(self, plan_key: str) -> dict[int, dict]:
        """All well-formed records for ``plan_key``, keyed by chunk index."""
        records: dict[int, dict] = {}
        try:
            text = self.path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            return records
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn write from a killed run
            if not isinstance(record, dict) or record.get("plan") != plan_key:
                continue
            try:
                records[int(record["chunk"])] = record
            except (KeyError, TypeError, ValueError):
                continue
        return records

    def record(
        self,
        plan_key: str,
        index: int,
        bounds: tuple[int, int],
        accumulators: dict[str, int],
        seconds: float,
        stats: dict[str, int],
        attempts: int,
    ) -> None:
        if self._fh is None:
            if self.path.parent != Path("."):
                self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        line = json.dumps(
            {
                "plan": plan_key,
                "chunk": index,
                "bounds": [int(bounds[0]), int(bounds[1])],
                "accumulators": accumulators,
                "seconds": seconds,
                "stats": stats,
                "attempts": attempts,
            },
            sort_keys=True,
        )
        self._fh.write(line + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class SupervisorOutcome:
    """What one supervised chunk sweep produced."""

    accumulators: dict[str, int] = field(default_factory=dict)
    chunk_seconds: list[float] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)
    retries: int = 0
    failures: list[ChunkFailure] = field(default_factory=list)
    resumed_chunks: int = 0
    pool_restarts: int = 0
    #: Cancel-token reason that stopped the run early, or None if it
    #: ran to completion ("deadline" | "interrupt" | "watchdog").
    cancelled: str | None = None
    bisections: int = 0
    watchdog_kills: int = 0
    frontier_downshifts: int = 0
    # Salvage accounting: degree-weighted work and chunk tallies at the
    # moment the sweep ended (work_done/work_total is the completed
    # fraction a cancelled run still banked).
    work_done: int = 0
    work_total: int = 0
    chunks_done: int = 0
    chunks_total: int = 0

    def salvage(self) -> dict | None:
        """What a cancelled or incomplete sweep still banked (None when
        it ran to completion)."""
        if self.cancelled is None and not self.failures:
            return None
        return {
            "fraction": (round(self.work_done / self.work_total, 6)
                         if self.work_total else 1.0),
            "chunks_done": self.chunks_done,
            "chunks_total": self.chunks_total,
            "unfinished": [list(f.bounds) for f in self.failures[:32]],
        }


class Supervisor:
    """Drives one plan's chunks to completion despite partial failure.

    The caller (``execute_plan``) owns chunking, aux-plan recursion, and
    result assembly; the supervisor owns dispatch, recovery, and the
    checkpoint.  Chunks run on the persistent pool's workers, at most
    ``workers`` of them at a time; the in-process serial path mirrors
    them with ``allow_exit=False`` fault semantics and per-chunk
    contexts.
    """

    def __init__(
        self,
        plan,
        graph,
        ctx: ExecutionContext,
        ranges: list[tuple[int, int]],
        workers: int,
        executor: str,
        budget: RunBudget | None = None,
        checkpoint: CheckpointStore | None = None,
        deadline_at: float | None = None,
        cache: bool | int = True,
        progress=None,
        resources=None,
    ) -> None:
        self.plan = plan
        self.graph = graph
        self.predicates = list(ctx.predicates)
        self.faults = ctx.faults
        self.cache = cache
        self.bounds = dict(enumerate(ranges))
        self.workers = workers
        self.executor = executor
        self.budget = budget or RunBudget()
        self.checkpoint = checkpoint
        if deadline_at is None and self.budget.deadline_s is not None:
            deadline_at = time.monotonic() + self.budget.deadline_s
        self.deadline_at = deadline_at
        self.plan_key = plan_fingerprint(plan, graph, executor, len(ranges))
        # Per-chunk state: completed attempt counts, done accumulators.
        self.attempts: dict[int, int] = dict.fromkeys(self.bounds, 0)
        self.done: set[int] = set()
        self.out = SupervisorOutcome()
        # The resource governor (None on ungoverned runs): carries the
        # ResourceBudget and the shared cancel token.
        self.resources = (
            resources if resources is not None
            else getattr(ctx, "resources", None)
        )
        # Chunk weights from the degree-weighted prefix sums (the same
        # work proxy the oriented engine cuts chunk ranges by).  Always
        # computed: progress heartbeats advance by them, bisection cuts
        # at their midpoint, and salvage reports work_done/work_total.
        self.progress = progress
        self._started = time.monotonic()
        self._weights = {
            index: self._chunk_weight(bounds)
            for index, bounds in self.bounds.items()
        }
        self._work_total = sum(self._weights.values())
        self._work_done = 0
        # Bisected halves get fresh indices past the original chunking
        # so their checkpoint records never collide with the parents'.
        self._initial_chunks = len(ranges)
        self._next_index = len(ranges)
        # Chunks running on the worker pool: index -> pool.Task.
        self._inflight: dict[int, object] = {}

    def _chunk_weight(self, bounds: tuple[int, int]) -> int:
        """Degree-weighted work estimate for one chunk (out-degree on
        oriented graphs, total degree otherwise, plus the constant
        per-vertex loop overhead)."""
        start, stop = bounds
        prefix = getattr(self.graph, "out_degree_prefix", None)
        if prefix is None:
            prefix = self.graph.degree_prefix
        return int(prefix[stop]) - int(prefix[start]) + (stop - start)

    def _heartbeat(self) -> None:
        if self.progress is None:
            return
        from repro.observe.progress import ProgressEvent

        self.progress(ProgressEvent(
            chunks_done=len(self.done),
            chunks_total=len(self.bounds),
            work_done=self._work_done,
            work_total=self._work_total,
            embeddings=self.out.accumulators.get(COUNT_ACC, 0),
            elapsed_s=time.monotonic() - self._started,
        ))

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self) -> SupervisorOutcome:
        watchdog = self._start_watchdog()
        timer = self._start_deadline_timer()
        try:
            self._load_checkpoint()
            pending = [i for i in sorted(self.bounds) if i not in self.done]
            if pending and self.workers > 1 and hasattr(os, "fork"):
                pending = self._run_pool(pending)
            if pending:
                self._run_serial(pending)
        finally:
            if timer is not None:
                timer.cancel()
            if watchdog is not None:
                watchdog.stop()
                self.out.watchdog_kills = watchdog.kills
                self.out.frontier_downshifts = watchdog.downshifts
            self.out.work_done = self._work_done
            self.out.work_total = self._work_total
            self.out.chunks_done = len(self.done)
            self.out.chunks_total = len(self.bounds)
        return self.out

    # ------------------------------------------------------------------
    # Resource-governor plumbing (all no-ops on ungoverned runs)
    # ------------------------------------------------------------------
    def _token(self):
        gov = self.resources
        return gov.token if gov is not None else None

    def _token_reason(self) -> str | None:
        token = self._token()
        if token is None or not token.cancelled:
            return None
        return token.reason

    def _cancel(self, reason: str) -> None:
        token = self._token()
        if token is not None:
            token.cancel(reason)

    def _reset_token(self) -> None:
        token = self._token()
        if token is not None:
            token.reset()

    def _start_watchdog(self) -> MemoryWatchdog | None:
        gov = self.resources
        if gov is None or gov.token is None or gov.budget.max_rss_bytes is None:
            return None
        watchdog = MemoryWatchdog(gov.budget, gov.token, self._watched_pids)
        watchdog.start()
        return watchdog

    def _watched_pids(self) -> list[int]:
        """The workers running this run's chunks, plus this process."""
        return [task.worker.proc.pid for task in list(self._inflight.values())
                if task.worker is not None] + [os.getpid()]

    def _start_deadline_timer(self) -> threading.Timer | None:
        """Flip the cancel token when the deadline passes, so in-flight
        chunks stop cooperatively instead of running to completion and
        being discarded at the next supervisor poll."""
        token = self._token()
        if token is None or self.deadline_at is None:
            return None
        timer = threading.Timer(
            max(0.0, self.deadline_at - time.monotonic()),
            self._deadline_cancel,
        )
        timer.daemon = True
        timer.start()
        return timer

    def _deadline_cancel(self) -> None:
        token = self._token()
        if token is not None and not token.cancelled:
            token.cancel("deadline")

    # ------------------------------------------------------------------
    # Shared bookkeeping
    # ------------------------------------------------------------------
    def _deadline_expired(self, now: float | None = None) -> bool:
        if self.deadline_at is None:
            return False
        return (now if now is not None else time.monotonic()) >= self.deadline_at

    def _record_success(self, index, attempt, accumulators, seconds, stats,
                        spans=(), from_checkpoint: bool = False) -> None:
        if index in self.done:  # late duplicate after a pool restart
            return
        self.done.add(index)
        graft_worker_spans(list(spans))
        self.attempts[index] = max(self.attempts[index], attempt)
        for key, value in accumulators.items():
            self.out.accumulators[key] = (
                self.out.accumulators.get(key, 0) + value
            )
        self.out.chunk_seconds.append(seconds)
        for key, value in stats.items():
            self.out.stats[key] = self.out.stats.get(key, 0) + value
        if from_checkpoint:
            self.out.resumed_chunks += 1
        elif self.checkpoint is not None:
            self.checkpoint.record(
                self.plan_key, index, self.bounds[index], accumulators,
                seconds, stats, attempt,
            )
        self._work_done += self._weights.get(index, 0)
        if self.progress is not None:
            self._heartbeat()

    def _record_failure(self, index: int, attempt: int, reason: str,
                        exc: BaseException | None) -> bool:
        """Charge one failed attempt; True iff the chunk should retry."""
        self.attempts[index] = max(self.attempts[index], attempt)
        budget = self.budget
        exhausted = attempt > budget.max_chunk_retries
        over_budget = (
            budget.max_retries is not None
            and self.out.retries >= budget.max_retries
        )
        if exhausted or over_budget:
            self.out.failures.append(ChunkFailure(
                index=index,
                bounds=self.bounds[index],
                attempts=self.attempts[index],
                reason="retry-budget" if (over_budget and not exhausted)
                       else reason,
                error=repr(exc) if exc is not None else None,
                exc_chain=_exception_chain(exc) if exc is not None else (),
            ))
            return False
        self.out.retries += 1
        return True

    def _fail_remaining(self, indices, reason: str) -> None:
        for index in indices:
            if index in self.done:
                continue
            self.out.failures.append(ChunkFailure(
                index=index,
                bounds=self.bounds[index],
                attempts=self.attempts[index],
                reason=reason,
            ))

    def _load_checkpoint(self) -> None:
        if self.checkpoint is None:
            return
        leftovers: dict[int, dict] = {}
        for index, record in self.checkpoint.load(self.plan_key).items():
            bounds = self.bounds.get(index)
            if bounds is None or list(bounds) != record.get("bounds"):
                leftovers[index] = record
                continue
            self._replay_record(index, record)
        self._adopt_bisected(leftovers)

    def _replay_record(self, index: int, record: dict) -> None:
        self._record_success(
            index,
            int(record.get("attempts", 1)),
            {k: int(v) for k, v in record.get("accumulators", {}).items()},
            float(record.get("seconds", 0.0)),
            {k: int(v) for k, v in record.get("stats", {}).items()},
            from_checkpoint=True,
        )

    def _adopt_bisected(self, leftovers: dict[int, dict]) -> None:
        """Resume completed *bisected* chunks from a prior governed run.

        Bisected halves checkpoint under the same plan key with fresh
        indices (>= the initial chunk count) and bounds nested inside
        one original chunk.  For each pending parent whose recorded
        children tile part of its range without overlap, the parent is
        replaced by those children (replayed as done) plus fresh chunks
        covering the gaps, so resume is exact even mid-bisection.
        Overlapping or malformed records disqualify that parent's
        adoption and it stays pending whole — the torn-line tolerance
        of the store extends to torn *splits*.
        """
        if not leftovers:
            return
        # Reserve every recorded index up front so gap chunks added
        # below can never collide with a child adopted later.
        for index in leftovers:
            self._next_index = max(self._next_index, index + 1)
        by_parent: dict[int, list[tuple[int, dict]]] = {}
        for index, record in leftovers.items():
            if index < self._initial_chunks or index in self.bounds:
                continue
            rb = record.get("bounds")
            if (
                not isinstance(rb, list) or len(rb) != 2
                or not all(isinstance(v, int) for v in rb) or rb[0] >= rb[1]
            ):
                continue
            parent = next(
                (
                    p for p, (ps, pe) in self.bounds.items()
                    if p < self._initial_chunks and p not in self.done
                    and ps <= rb[0] and rb[1] <= pe
                ),
                None,
            )
            if parent is not None:
                by_parent.setdefault(parent, []).append((index, record))
        for parent, children in by_parent.items():
            children.sort(key=lambda item: item[1]["bounds"][0])
            accepted: list[tuple[int, dict]] = []
            cursor = None
            for index, record in children:
                lo, hi = record["bounds"]
                if cursor is not None and lo < cursor:
                    accepted = []  # overlap: stale records, replay none
                    break
                accepted.append((index, record))
                cursor = hi
            if not accepted:
                continue
            start, stop = self.bounds[parent]
            self._remove_chunk(parent)
            cursor = start
            for index, record in accepted:
                lo, hi = record["bounds"]
                if cursor < lo:
                    self._add_chunk((cursor, lo))
                self._install_chunk(index, (lo, hi))
                self._replay_record(index, record)
                cursor = hi
            if cursor < stop:
                self._add_chunk((cursor, stop))

    # ------------------------------------------------------------------
    # Chunk bisection (memory/timeout casualties on governed runs)
    # ------------------------------------------------------------------
    def _min_chunk_width(self) -> int:
        gov = self.resources
        return gov.budget.min_chunk_width if gov is not None else 1

    def _install_chunk(self, index: int, bounds: tuple[int, int]) -> int:
        if index not in self._weights:
            weight = self._chunk_weight(bounds)
            self._weights[index] = weight
            self._work_total += weight
        self.bounds[index] = bounds
        self.attempts.setdefault(index, 0)
        self._next_index = max(self._next_index, index + 1)
        return index

    def _add_chunk(self, bounds: tuple[int, int]) -> int:
        index = self._next_index
        self._next_index += 1
        return self._install_chunk(index, bounds)

    def _remove_chunk(self, index: int) -> None:
        self.bounds.pop(index, None)
        self.attempts.pop(index, None)
        self._work_total -= self._weights.pop(index, 0)

    def _weighted_midpoint(self, start: int, stop: int) -> int:
        """Vertex where the chunk's degree-weighted work halves (same
        ``prefix[x] + x`` proxy the engine cuts chunk ranges by),
        clamped so both halves keep the minimum width."""
        prefix = getattr(self.graph, "out_degree_prefix", None)
        if prefix is None:
            prefix = self.graph.degree_prefix

        def weight(x: int) -> int:
            return int(prefix[x]) + x

        target = (weight(start) + weight(stop)) // 2
        lo, hi = start + 1, stop - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if weight(mid) < target:
                lo = mid + 1
            else:
                hi = mid
        width = self._min_chunk_width()
        return max(start + width, min(lo, stop - width))

    def _bisect(self, index: int) -> list[int] | None:
        """Split a casualty chunk into two half-work chunks with fresh
        indices; None if it is already at minimum width."""
        start, stop = self.bounds[index]
        width = self._min_chunk_width()
        if stop - start < 2 * width:
            return None
        mid = self._weighted_midpoint(start, stop)
        self._remove_chunk(index)
        self.out.bisections += 1
        return [self._add_chunk((start, mid)), self._add_chunk((mid, stop))]

    def _handle_resource_failure(self, index, attempt, reason, exc,
                                 queue: dict) -> None:
        """Bisect a memory/watchdog/timeout casualty into the pool
        queue; only a minimum-width chunk falls back to whole-chunk
        retry (and eventually a structured failure)."""
        self.attempts[index] = max(self.attempts[index], attempt)
        children = self._bisect(index)
        if children is not None:
            now = time.monotonic()
            for child in children:
                queue[child] = now
            return
        if self._record_failure(index, attempt, reason, exc):
            queue[index] = time.monotonic() + self.budget.backoff_for(attempt)

    def _serial_resource_failure(self, index, attempt, reason, exc,
                                 queue: list) -> bool:
        """Serial-path twin of :meth:`_handle_resource_failure`; True
        iff ``index`` should be retried in place (children are pushed
        to the front of the serial queue instead)."""
        self.attempts[index] = max(self.attempts[index], attempt)
        children = self._bisect(index)
        if children is not None:
            queue[:0] = children
            return False
        if self._record_failure(index, attempt, reason, exc):
            self._backoff_sleep(attempt)
            return True
        return False

    def _backoff_sleep(self, attempt: int) -> None:
        pause = self.budget.backoff_for(attempt)
        if self.deadline_at is not None:
            pause = min(pause, max(0.0, self.deadline_at - time.monotonic()))
        if pause:
            time.sleep(pause)

    # ------------------------------------------------------------------
    # Pool path
    # ------------------------------------------------------------------
    def _run_pool(self, pending: list[int]) -> list[int]:
        """Run chunks on the process's persistent worker pool; returns
        chunks left for the in-process serial path."""
        from repro.graph import shared
        from repro.observe.trace import enabled as tracing
        from repro.runtime import pool as pool_mod

        pool = pool_mod.get_pool(self.workers)
        handle = None
        descriptor = getattr(self.graph, "shared_descriptor", None)
        if descriptor is None:
            # Workers attach the graph by name.  The run unlinks what it
            # shares on every exit path (the daemon's segment is reused).
            handle = shared.share_graph(self.graph)
            descriptor = handle.descriptor
        try:
            try:
                blob = pool_mod.frame_blob(
                    descriptor, self.executor, self.cache, self.predicates,
                    self.faults, self.resources, tracing(),
                )
            except (pickle.PicklingError, TypeError, AttributeError):
                return pending  # e.g. lambda predicates: run in-process
            return self._pool_loop(pool, blob, pending)
        finally:
            inflight, self._inflight = self._inflight, {}
            for task in inflight.values():
                pool.cancel(task)  # never leave this run's work behind
            if handle is not None:
                handle.close()

    def _pool_loop(self, pool, blob: bytes, pending: list[int]) -> list[int]:
        from repro.runtime.pool import Task

        budget = self.budget
        inflight = self._inflight
        events = SimpleQueue()
        waiting: dict[int, float] = dict.fromkeys(pending, 0.0)  # not-before
        while waiting or inflight:
            now = time.monotonic()
            run_cancel = self._token_reason()
            if (
                run_cancel in ("deadline", "interrupt")
                or self._deadline_expired(now)
            ):
                # Run-level stop: cancel cooperatively through the token,
                # keep whatever lands in the grace window (only what has
                # already landed on ungoverned runs), fail the rest.
                reason = run_cancel or "deadline"
                grace = 0.0
                if self._token() is not None:
                    self._cancel(reason)
                    grace = budget.drain_grace_s
                self._collect(events, inflight, waiting, grace, drain=True)
                self._fail_remaining(
                    list(waiting) + list(inflight),
                    "deadline" if reason == "deadline" else "cancelled",
                )
                self.out.cancelled = self.out.cancelled or reason
                return []
            if pool.closed or self.out.pool_restarts > budget.max_pool_restarts:
                return sorted({*waiting, *inflight})  # degrade to serial
            if run_cancel == "watchdog":
                # Hard RSS breach: every in-flight chunk parks at its next
                # poll and is bisected; idle workers are then replaced so
                # their bloated heaps actually go back to the OS (a
                # cancelled chunk frees objects, not the high-water mark).
                self._collect(events, inflight, waiting, budget.drain_grace_s,
                              drain=True)
                self._reset_token()
                self._abandon(pool, list(inflight.values()), waiting,
                              "watchdog")
                pool.recycle_idle()
                continue
            if run_cancel is None:
                for index in sorted(i for i, t in waiting.items() if t <= now):
                    if len(inflight) >= self.workers:
                        break
                    del waiting[index]
                    inflight[index] = pool.submit(Task(
                        self.plan, blob, index, self.attempts[index] + 1,
                        self.bounds[index], events,
                    ))
            limit = budget.chunk_timeout_s or math.inf
            late = [task for task in inflight.values()
                    if now - (task.started or now) > limit]
            if late:
                self._recover_timeouts(pool, events, inflight, waiting, late)
                continue
            timeout = min([budget.poll_interval_s,
                           *(t - now for t in waiting.values() if t > now)])
            if inflight:
                self._collect(events, inflight, waiting, timeout)
            else:
                time.sleep(timeout)  # only backoffs pending
        return []

    def _recover_timeouts(self, pool, events, inflight, waiting, late):
        """Chunks past ``chunk_timeout_s``.  Governed runs preempt through
        the token first (healthy chunks park, results landing in the
        grace window are kept, wedged chunks are bisected); workers still
        unresponsive then — or any late one on an ungoverned run — are
        killed and replaced."""
        stuck = late
        if self._token() is not None:
            self._cancel("preempt")
            self._collect(events, inflight, waiting,
                          self.budget.drain_grace_s, drain=True,
                          charge={task.index for task in late})
            self._reset_token()
            stuck = list(inflight.values())
        if stuck:
            self._abandon(pool, stuck, waiting, "timeout")

    def _abandon(self, pool, stuck: list, waiting: dict, reason: str) -> None:
        """Kill the workers running ``stuck`` tasks (one pool restart;
        the pool replaces them) and send each chunk down the recovery
        ladder: bisection on governed runs, a charged retry otherwise."""
        self.out.pool_restarts += 1
        for task in stuck:
            del self._inflight[task.index]
            pool.cancel(task)
            if self._token() is not None:
                self._handle_resource_failure(task.index, task.attempt,
                                              reason, None, waiting)
            elif self._record_failure(task.index, task.attempt, reason,
                                      None):
                waiting[task.index] = 0.0

    def _collect(self, events, inflight: dict, waiting: dict,
                 timeout: float, drain: bool = False,
                 charge=frozenset()) -> None:
        """Handle chunk events: wait up to ``timeout`` for the first,
        then take those already queued — or, with ``drain`` (a token
        cancellation's grace window), until nothing is in flight."""
        deadline = time.monotonic() + timeout
        while inflight:
            try:
                task, kind, payload = events.get(
                    timeout=max(0.0, deadline - time.monotonic()))
            except Empty:
                return
            if inflight.get(task.index) is task:
                del inflight[task.index]
                self._on_event(task, kind, payload, waiting, charge)
            if not drain and events.empty():
                return

    def _on_event(self, task, kind: str, payload, waiting: dict,
                  charge) -> None:
        index, attempt = task.index, task.attempt
        if kind == "ok":
            self._record_success(*payload)
        elif kind == "lost":
            # The worker died with the chunk (an OOM kill, a "die"
            # fault); the pool has already forked its replacement.
            self.out.pool_restarts += 1
            if self._record_failure(index, attempt, "worker-lost", None):
                waiting[index] = 0.0
        elif isinstance(payload, ChunkCancelled):
            reason = payload.reason
            if reason == "watchdog" or index in charge:
                self._handle_resource_failure(
                    index, attempt,
                    "watchdog" if reason == "watchdog" else "timeout",
                    payload, waiting,
                )
            else:
                # Parked cooperatively: requeued uncharged (a deadline or
                # interrupt stop then fails it with the rest).
                waiting[index] = 0.0
        elif isinstance(payload, MemoryError):
            self._handle_resource_failure(index, attempt, "memory", payload,
                                          waiting)
        elif self._record_failure(index, attempt, "exception", payload):
            waiting[index] = time.monotonic() + self.budget.backoff_for(attempt)

    # ------------------------------------------------------------------
    # In-process serial path (non-POSIX hosts, workers=1, degraded mode)
    # ------------------------------------------------------------------
    def _run_serial(self, pending: list[int]) -> None:
        from repro.runtime.engine import _merge_stats, _run_range

        queue = list(pending)  # mutable: bisection pushes halves front
        while queue:
            index = queue.pop(0)
            if index in self.done or index not in self.bounds:
                continue
            while True:
                if self._deadline_expired():
                    self.out.cancelled = self.out.cancelled or "deadline"
                    self._fail_remaining([index, *queue], "deadline")
                    return
                attempt = self.attempts[index] + 1
                chunk_ctx = ExecutionContext(
                    self.plan.root.num_tables,
                    predicates=self.predicates,
                    faults=self.faults,
                    cache=self.cache,
                    resources=self.resources,
                )
                started = time.perf_counter()
                try:
                    with span("chunk", index=index,
                              attempt=attempt) as chunk_span:
                        if self.resources is not None:
                            self.resources.check_cancel()
                        chunk_ctx.fire_faults(index, attempt,
                                              allow_exit=False)
                        accumulators = _run_range(
                            self.plan, self.graph, chunk_ctx,
                            self.bounds[index][0], self.bounds[index][1],
                            self.executor,
                        )
                except ChunkCancelled as exc:
                    reason = getattr(exc, "reason", "interrupt")
                    if reason in ("watchdog", "preempt"):
                        # Chunk-level casualty: clear the flag (there is
                        # no pool to recycle in-process) and bisect or
                        # retry; a preempt parks uncharged.
                        self._reset_token()
                        if reason == "preempt" or self._serial_resource_failure(
                            index, attempt, reason, exc, queue
                        ):
                            continue
                        break
                    self.out.cancelled = self.out.cancelled or reason
                    self.attempts[index] = max(self.attempts[index], attempt)
                    self._fail_remaining(
                        [index, *queue],
                        "deadline" if reason == "deadline" else "cancelled",
                    )
                    return
                except MemoryError as exc:
                    if self._serial_resource_failure(index, attempt, "memory",
                                                     exc, queue):
                        continue
                    break
                except Exception as exc:
                    if not self._record_failure(index, attempt, "exception",
                                                exc):
                        break
                    self._backoff_sleep(attempt)
                    continue
                # Kernel-dispatch counts are charged by the caller's
                # global STATS delta; merge only cache counters here.
                stats: dict[str, int] = {}
                _merge_stats(stats, chunk_ctx.cache_counters())
                # Under tracing the span window is the measurement (one
                # clock, so trace and chunk_seconds cannot disagree).
                self._record_success(
                    index, attempt, accumulators,
                    chunk_span.duration or (time.perf_counter() - started),
                    stats,
                )
                break
