"""One persistent fork-worker pool per process (paper §7.4 runtime).

Every parallel run dispatches its chunks onto the same long-lived
workers instead of forking a pool of its own.  The pool is forked once —
lazily by the first parallel run, or by
:class:`~repro.serve.server.MiningServer` before its accept thread
exists — grows to the largest ``EngineOptions.workers`` requested, and
replaces a worker only after losing it (a death, or a kill ordered by
the supervisor for a wedged chunk).

Nothing a task needs is fork-inherited.  A task names its plan by the
digest of the pickled IR root (:attr:`CompiledPlan.frozen_ir`); the
parent mirrors each worker's bounded plan memo (:data:`PLAN_MEMO`), so
the IR bytes ride along only on a worker's first sighting, and the
worker re-lowers codegen plans with ``compile_root`` once.  It carries
its run's frame, pickled once per run (:func:`frame_blob`: graph
descriptor, executor, cache policy, predicates, fault plan, resource
governor with its cancel token named by segment, tracing flag), and
the chunk's index, attempt and bounds.

Workers run one task at a time, so an idle worker takes the oldest
queued chunk — the dynamic drain of the paper's chunk queue.  One
collector thread delivers results, exceptions and worker losses to the
submitting run's event queue.  Idle workers poll their parent's pid and
exit when it dies, so a killed daemon leaves no orphans.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import pickle
import signal
import threading
import time
from collections import OrderedDict, deque
from functools import cached_property
from multiprocessing.connection import wait
from queue import SimpleQueue

from repro.graph import shared
from repro.observe.trace import begin_worker_trace, span, take_worker_spans
from repro.runtime import setops, vectorops
from repro.runtime.context import ExecutionContext

__all__ = ["PLAN_MEMO", "Task", "WorkerPool", "frame_blob", "get_pool",
           "shutdown_pool"]

#: Lowered plans each worker keeps (LRU); the parent mirrors the order.
PLAN_MEMO = 32
#: How often an idle worker checks that its parent is still alive.
PARENT_POLL_S = 0.25


def frame_blob(descriptor, executor, cache, predicates, faults, resources,
               trace: bool) -> bytes:
    """Pickle the per-run part of every task of one run (raises on
    unpicklable predicates; the caller then runs in-process)."""
    if isinstance(cache, setops.SetOpCache):
        cache = cache.capacity  # a memo cache never crosses processes
    return pickle.dumps((descriptor, executor, cache, list(predicates),
                         faults, resources, trace),
                        protocol=pickle.HIGHEST_PROTOCOL)


class Task:
    """One chunk attempt handed to the pool; the run's handle on it."""

    __slots__ = ("plan", "blob", "index", "attempt", "bounds", "events",
                 "started", "worker", "cancelled")

    def __init__(self, plan, blob, index, attempt, bounds, events) -> None:
        self.plan = plan
        self.blob = blob
        self.index = index
        self.attempt = attempt
        self.bounds = bounds
        #: Receives ``(task, kind, payload)``: kind "ok" (the chunk
        #: result tuple), "err" (the exception) or "lost" (worker died).
        self.events = events
        self.started: float | None = None  # set when a worker takes it
        self.worker = None
        self.cancelled = False


#: Placeholder task of a worker killed by :meth:`WorkerPool.recycle_idle`:
#: it keeps the worker busy (nothing is sent to it) until the collector
#: replaces it, and being cancelled, its loss reports to no run.
_RECYCLED = Task(None, None, -1, 0, None, None)
_RECYCLED.cancelled = True


class _Worker:
    __slots__ = ("proc", "conn", "task", "plans")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.task: Task | None = None
        self.plans: OrderedDict = OrderedDict()  # mirror of the memo


class WorkerPool:
    """Persistent fork workers plus the thread collecting their results."""

    def __init__(self, size: int) -> None:
        self._mp = mp.get_context("fork")
        self._lock = threading.Lock()
        self._workers: list[_Worker] = []
        self._backlog: deque[Task] = deque()
        self._wake_r, self._wake_w = self._mp.Pipe(duplex=False)
        #: Workers replaced after a loss, over the pool's lifetime.
        self.restarts = 0
        self.closed = False
        self.grow(size)
        self._collector = threading.Thread(
            target=self._collect, name="repro-pool-collector", daemon=True)
        self._collector.start()

    # ------------------------------------------------------------------
    # Parent API
    # ------------------------------------------------------------------
    def grow(self, size: int) -> None:
        with self._lock:
            if self.closed or len(self._workers) >= size:
                return
            while len(self._workers) < size:
                self._workers.append(self._spawn())
            self._wake_w.send_bytes(b"")  # the collector watches them

    def submit(self, task: Task) -> Task:
        """Queue a chunk attempt; it runs on the next idle worker (never,
        once the pool is closed — runs check :attr:`closed`)."""
        with self._lock:
            idle = next((w for w in self._workers if w.task is None), None)
            if idle is None:
                self._backlog.append(task)
            else:
                self._send(idle, task)
        return task

    def cancel(self, task: Task) -> None:
        """Abandon a task: dequeue it, or kill the worker running it (the
        collector then replaces that worker).  No event is delivered."""
        with self._lock:
            task.cancelled = True
            if task in self._backlog:
                self._backlog.remove(task)
            elif task.worker is not None and task.worker.task is task:
                task.worker.proc.kill()

    def recycle_idle(self) -> None:
        """Replace every idle worker (returns their heaps to the OS)."""
        with self._lock:
            for worker in self._workers:
                if worker.task is None:
                    worker.task = _RECYCLED
                    worker.proc.kill()

    def worker_state(self, timeout: float = 5.0) -> list[dict]:
        """Each idle worker's pid, attached segments and plan memo size."""
        events = SimpleQueue()
        with self._lock:
            idle = [w for w in self._workers if w.task is None]
            for worker in idle:
                worker.task = Task(None, None, -1, 0, None, events)
                worker.conn.send(("probe",))
        return [events.get(timeout=timeout)[2] for _ in idle]

    def close(self) -> None:
        """Stop every worker; tasks still queued or running are dropped
        (their runs see :attr:`closed` and finish in-process)."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            workers, self._workers = self._workers, []
            self._backlog.clear()
            for worker in workers:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
            self._wake_w.send_bytes(b"")
        self._collector.join(timeout=5.0)
        for worker in workers:
            worker.proc.join(timeout=2.0)
            if worker.proc.exitcode is None:
                worker.proc.kill()
                worker.proc.join()
            worker.conn.close()

    # ------------------------------------------------------------------
    # Internals (callers hold self._lock)
    # ------------------------------------------------------------------
    def _spawn(self) -> _Worker:
        parent_end, child_end = self._mp.Pipe()
        inherited = [w.conn for w in self._workers]
        inherited += [parent_end, self._wake_r, self._wake_w]
        proc = self._mp.Process(
            target=_worker_main, args=(child_end, os.getpid(), inherited),
            name="repro-pool-worker", daemon=True,
        )
        proc.start()
        child_end.close()
        return _Worker(proc, parent_end)

    def _send(self, worker: _Worker, task: Task) -> None:
        key, ir = task.plan.frozen_ir
        if key in worker.plans:
            worker.plans.move_to_end(key)
            ir = None
        else:
            worker.plans[key] = True
            if len(worker.plans) > PLAN_MEMO:
                worker.plans.popitem(last=False)
        worker.task = task
        task.worker = worker
        task.started = time.monotonic()
        try:
            worker.conn.send(("chunk", key, ir, task.blob, task.index,
                              task.attempt, *task.bounds))
        except OSError:
            pass  # the worker is dead; the collector reports the loss

    # ------------------------------------------------------------------
    # Collector thread
    # ------------------------------------------------------------------
    def _collect(self) -> None:
        while True:
            with self._lock:
                if self.closed:
                    return
                by_handle = {}
                for worker in self._workers:
                    by_handle[worker.conn] = worker
                    by_handle[worker.proc.sentinel] = worker
            ready = wait([self._wake_r, *by_handle])
            # Results before deaths: a worker may answer, then die.
            ready.sort(key=lambda h: not hasattr(h, "recv"))
            for handle in ready:
                if handle is self._wake_r:
                    while self._wake_r.poll():
                        self._wake_r.recv_bytes()
                    continue
                worker = by_handle[handle]
                if handle is worker.conn:
                    try:
                        reply = worker.conn.recv()
                    except (EOFError, OSError):
                        self._lost(worker)
                        continue
                    except Exception as exc:  # reply did not unpickle:
                        reply = ("err", exc)  # fail the chunk, keep going
                    self._finish(worker, reply)
                else:
                    self._lost(worker)

    def _finish(self, worker: _Worker, reply: tuple) -> None:
        with self._lock:
            task, worker.task = worker.task, None
            if self._backlog and worker in self._workers:
                self._send(worker, self._backlog.popleft())
        if task is not None and not task.cancelled:
            task.events.put((task, *reply))

    def _lost(self, worker: _Worker) -> None:
        with self._lock:
            if worker not in self._workers:
                return
            self._workers.remove(worker)
            worker.proc.kill()
            worker.proc.join()
            worker.conn.close()
            task = worker.task
            self.restarts += 1
            try:
                replacement = self._spawn()
            except OSError:  # fork failed (EAGAIN, ENOMEM): shrink
                self.closed = self.closed or not self._workers
            else:
                self._workers.append(replacement)
                if self._backlog:
                    self._send(replacement, self._backlog.popleft())
        if task is not None and not task.cancelled:
            task.events.put((task, "lost", None))


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _Lowered:
    """A plan as a worker holds it: the IR root, lowered on demand."""

    def __init__(self, root) -> None:
        self.root = root

    @cached_property
    def function(self):
        from repro.compiler.codegen import compile_root

        return compile_root(self.root)[0]


def _worker_main(conn, parent_pid: int, inherited) -> None:
    # Cancellation reaches chunks through the run's token; a terminal
    # Ctrl-C must not kill the pool under the parent.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for handle in inherited:
        handle.close()
    plans: OrderedDict = OrderedDict()
    frame: list = [None, None]  # (blob, unpickled) of the current run
    while True:
        while not conn.poll(PARENT_POLL_S):
            if os.getppid() != parent_pid:
                return  # orphaned: the parent died
            shared.release_unlinked()  # idle: unpin finished runs' graphs
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        if message[0] == "probe":
            conn.send(("ok", {"pid": os.getpid(), "plans": len(plans),
                              "attached": sorted(shared._ATTACHED)}))
            continue
        try:
            reply = ("ok", _run_chunk(message, plans, frame))
        except Exception as exc:
            reply = ("err", exc)
        try:
            conn.send(reply)
        except (pickle.PicklingError, TypeError, AttributeError):
            # The chunk's exception itself does not pickle.
            conn.send(("err", RuntimeError(repr(reply[1]))))


def _run_chunk(message, plans: OrderedDict, frame: list):
    from repro.runtime.engine import _merge_stats, _run_range

    _, key, ir, blob, index, attempt, start, stop = message
    if ir is not None:
        plans[key] = _Lowered(pickle.loads(ir))
        if len(plans) > PLAN_MEMO:
            plans.popitem(last=False)
    plans.move_to_end(key)
    plan = plans[key]
    if frame[0] != blob:
        previous = frame[1]
        frame[:] = [blob, pickle.loads(blob)]
        if previous is not None and previous[5] is not None:
            # The finished run's cancel token: drop the mapping.
            previous[5].token.close()
    descriptor, executor, cache, predicates, faults, governor, trace = frame[1]
    graph = shared.attach_cached(descriptor)
    ctx = ExecutionContext(plan.root.num_tables, predicates=predicates,
                           cache=cache, faults=faults, resources=governor)
    worker_trace = begin_worker_trace(f"chunk-{index}", trace)
    chunk_started = time.perf_counter()
    kernel_before = setops.STATS.snapshot()
    vec_before = vectorops.VSTATS.snapshot()
    with span("chunk", index=index, attempt=attempt,
              worker_pid=os.getpid()) as chunk_span:
        # Park immediately if the run was cancelled between dispatch and
        # pickup — no point starting a chunk the supervisor will discard.
        if governor is not None:
            governor.check_cancel()
        ctx.fire_faults(index, attempt)
        accumulators = _run_range(plan, graph, ctx, start, stop, executor)
    # One clock: under tracing the chunk's reported seconds ARE the span
    # window, so the parent's chunk-coverage accounting is exact.
    elapsed = chunk_span.duration or (time.perf_counter() - chunk_started)
    stats = setops.STATS.delta(kernel_before)
    _merge_stats(stats, vectorops.VSTATS.delta(vec_before))
    _merge_stats(stats, ctx.cache_counters())
    return (index, attempt, accumulators, elapsed, stats,
            take_worker_spans(worker_trace))


# ----------------------------------------------------------------------
# The process-wide pool
# ----------------------------------------------------------------------
_POOL: WorkerPool | None = None
_POOL_LOCK = threading.Lock()


def get_pool(workers: int) -> WorkerPool:
    """The process's pool, started (or grown) to at least ``workers``."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL.closed:
            _POOL = WorkerPool(workers)
        else:
            _POOL.grow(workers)
        return _POOL


def shutdown_pool() -> None:
    """Stop the process's pool (a later parallel run starts a new one)."""
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.close()


def _forget_pool() -> None:
    # A forked child owns neither the parent's workers nor its threads.
    global _POOL, _POOL_LOCK
    _POOL = None
    _POOL_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)
atexit.register(shutdown_pool)
