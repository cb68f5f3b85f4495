"""Resource-governed execution: budgets, cancellation, memory watchdog.

DecoMine's pattern decomposition keeps *compile-time* complexity low,
but run-time memory is workload-shaped: the vectorized executor's
frontiers and deep enumeration on skewed power-law graphs can outgrow
any fixed host.  This module is the governor the supervisor and all
three executors cooperate with so a run respects an explicit resource
envelope, stops when told, and degrades to finer-grained work instead of
dying:

* :class:`ResourceBudget` — the frozen envelope (``max_rss_bytes``,
  ``max_frontier_bytes``, poll/watchdog cadence, bisection floor),
  threaded through :class:`~repro.runtime.supervisor.RunPolicy`.
* :class:`CancelToken` — a two-byte POSIX shared-memory flag: byte 0 is
  the cancel reason, byte 1 a frontier *downshift level*.  The
  supervisor (deadline, timeout preemption, SIGINT via
  :func:`request_cancel`) and the watchdog flip it; executors poll it at
  loop boundaries, so chunks stop **cooperatively** — no pool teardown.
  Pool workers attach it by segment name (it rides in every chunk
  task's run frame); the parent alone unlinks it (:func:`active_tokens`
  exposes what has not drained).
* :class:`ChunkCancelled` — raised inside a chunk when the token is
  set; the supervisor turns it into salvage/bisection bookkeeping
  rather than a retry.
* :class:`ResourceGovernor` — the per-run handle the executors see
  (via ``ExecutionContext.resources``): cheap cancel polling every
  ``cancel_poll_interval`` iterations, and frontier-row accounting for
  the vectorized backend — the effective row cap shrinks by the
  token's downshift level and the byte budget, and a descend slice that
  cannot fit even at the floor raises :class:`MemoryError` (which the
  supervisor answers with chunk bisection).
* :class:`MemoryWatchdog` — a supervisor-side thread sampling worker
  RSS from ``/proc/<pid>/statm``: a soft-watermark breach bumps the
  downshift level, a hard breach cancels with reason ``"watchdog"``.

Like :mod:`repro.runtime.faults`, firing is deterministic given the
same schedule of flips; everything here is importable from any layer.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

from repro.exceptions import ExecutionError

__all__ = [
    "CANCEL_REASONS",
    "CancelToken",
    "ChunkCancelled",
    "FRONTIER_ROW_BYTES",
    "MemoryWatchdog",
    "ResourceBudget",
    "ResourceGovernor",
    "active_tokens",
    "request_cancel",
]

#: Approximate live bytes one vectorized frontier row costs across a
#: descend (parent map + values + one scalar column, all ``int64``, plus
#: child-side headroom).  The governor prices frontier slices with this.
FRONTIER_ROW_BYTES = 32

#: Cancel-reason wire codes (byte 0 of a token's segment).
CANCEL_REASONS = ("deadline", "interrupt", "watchdog", "preempt")
_REASON_CODE = {reason: code for code, reason in
                enumerate(CANCEL_REASONS, start=1)}


class ChunkCancelled(Exception):
    """A chunk stopped cooperatively because its run's token was set.

    Deliberately not a ``ReproError``: it is control flow between the
    executors and the supervisor, never a user-facing failure by itself.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(f"chunk cancelled ({reason})")
        self.reason = reason

    def __reduce__(self):
        # Default exception pickling would replay the formatted message
        # as the reason; the pool's result channel needs the real one.
        return (ChunkCancelled, (self.reason,))


@dataclass(frozen=True)
class ResourceBudget:
    """Resource envelope for one supervised execution.

    Parameters
    ----------
    max_rss_bytes:
        Hard per-worker resident-set ceiling, enforced by the
        supervisor's :class:`MemoryWatchdog`.  Crossing
        ``soft_watermark`` of it downshifts the vectorized frontier cap;
        crossing it outright cancels in-flight chunks (reason
        ``"watchdog"``), which the supervisor answers with bisection.
    max_frontier_bytes:
        Hard ceiling on one vectorized descend slice's frontier bytes
        (``rows * FRONTIER_ROW_BYTES``).  The effective row cap is
        clamped under it; a slice that cannot fit even after clamping
        (one oversized parent row) raises :class:`MemoryError`.
    cancel_poll_interval:
        Executors re-read the shared cancel flag every this many outer
        loop iterations (codegen/interpreter) — the cost knob of
        cooperative cancellation.  The vectorized executor polls every
        descend slice regardless (slices are coarse already).
    soft_watermark:
        Fraction of ``max_rss_bytes`` at which the watchdog starts
        downshifting instead of killing.
    watchdog_interval_s:
        RSS sampling period of the watchdog thread.
    min_chunk_width:
        Bisection floor: a failing chunk narrower than twice this is
        retried/failed whole instead of split further.
    max_downshifts:
        Cap on the downshift level (each level halves the effective
        frontier-row cap).
    """

    max_rss_bytes: int | None = None
    max_frontier_bytes: int | None = None
    cancel_poll_interval: int = 64
    soft_watermark: float = 0.8
    watchdog_interval_s: float = 0.05
    min_chunk_width: int = 1
    max_downshifts: int = 6

    def __post_init__(self) -> None:
        if self.max_rss_bytes is not None and self.max_rss_bytes <= 0:
            raise ExecutionError("max_rss_bytes must be > 0")
        if self.max_frontier_bytes is not None and self.max_frontier_bytes <= 0:
            raise ExecutionError("max_frontier_bytes must be > 0")
        if self.cancel_poll_interval < 1:
            raise ExecutionError("cancel_poll_interval must be >= 1")
        if not 0.0 < self.soft_watermark <= 1.0:
            raise ExecutionError("soft_watermark must be in (0, 1]")
        if self.watchdog_interval_s <= 0:
            raise ExecutionError("watchdog_interval_s must be > 0")
        if self.min_chunk_width < 1:
            raise ExecutionError("min_chunk_width must be >= 1")
        if self.max_downshifts < 0:
            raise ExecutionError("max_downshifts must be >= 0")

    def frontier_rows_for_bytes(self) -> int | None:
        """Row cap implied by ``max_frontier_bytes`` (None if unset)."""
        if self.max_frontier_bytes is None:
            return None
        return max(1, self.max_frontier_bytes // FRONTIER_ROW_BYTES)


#: Tokens created by THIS process and not yet unlinked: name -> token.
_CREATED: dict[str, "CancelToken"] = {}


def active_tokens() -> list[str]:
    """Segment names this process created and has not yet unlinked."""
    return sorted(_CREATED)


class CancelToken:
    """A two-byte cancellation/downshift flag shared with pool workers.

    Byte 0 holds the cancel-reason code (0 = not cancelled), byte 1 the
    frontier downshift level.  On hosts with POSIX shared memory the
    bytes live in a named ``multiprocessing.shared_memory`` segment that
    an unpickled copy maps by name; elsewhere (or when shared memory is
    unavailable) a plain in-process buffer backs the same API, which is
    all the serial execution path needs.

    Single-writer-per-byte discipline keeps this lock-free: only the
    supervising parent (and its watchdog thread) writes, workers only
    read, and one-byte loads/stores are atomic.
    """

    def __init__(self, buf, segment=None, name: str | None = None,
                 owner: bool = False) -> None:
        self._buf = buf
        self._segment = segment
        self.name = name
        self._owner = owner

    @classmethod
    def create(cls) -> "CancelToken":
        try:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(create=True, size=2)
        except (ImportError, OSError):
            return cls(bytearray(2))
        segment.buf[0] = 0
        segment.buf[1] = 0
        token = cls(segment.buf, segment, segment.name, owner=True)
        _CREATED[segment.name] = token
        return token

    # -------------- flag protocol --------------
    @property
    def cancelled(self) -> bool:
        return self._buf[0] != 0

    @property
    def reason(self) -> str | None:
        code = self._buf[0]
        if not code:
            return None
        return CANCEL_REASONS[code - 1] if code <= len(CANCEL_REASONS) else "?"

    def cancel(self, reason: str) -> None:
        """Flip the flag (first writer wins; later reasons are ignored)."""
        code = _REASON_CODE.get(reason)
        if code is None:
            raise ExecutionError(
                f"unknown cancel reason {reason!r}; use one of "
                f"{CANCEL_REASONS}"
            )
        if self._buf[0] == 0:
            self._buf[0] = code

    def reset(self) -> None:
        """Clear the cancel byte (the downshift level is sticky): used by
        the supervisor after a ``"preempt"`` drain so requeued chunks do
        not immediately cancel themselves."""
        self._buf[0] = 0

    @property
    def downshift(self) -> int:
        return self._buf[1]

    def bump_downshift(self, cap: int) -> int:
        """Raise the downshift level by one (up to ``cap``); returns it."""
        level = self._buf[1]
        if level < cap:
            level += 1
            self._buf[1] = level
        return level

    # -------------- lifecycle --------------
    def close(self) -> None:
        """Owner: unlink the segment. Attached copies: drop the mapping."""
        segment, self._segment = self._segment, None
        self._buf = bytearray(2)  # keep late polls harmless
        if segment is None:
            return
        try:
            segment.close()
        except (OSError, BufferError):
            pass
        if self._owner:
            _CREATED.pop(self.name, None)
            try:
                segment.unlink()
            except (FileNotFoundError, OSError):
                pass

    # -------------- pickling (how a token reaches pool workers) ----------
    def __getstate__(self):
        return {"name": self.name}

    def __setstate__(self, state):
        self.__init__(bytearray(2), name=state["name"])
        if self.name is None:
            return
        try:
            from repro.graph.shared import map_segment

            self._segment = self._buf = map_segment(self.name)
        except (ImportError, OSError):
            pass  # unlinked already, or no POSIX shm: a detached flag


class ResourceGovernor:
    """Per-run resource handle the executors cooperate with.

    Travels to chunk workers pickled in the run frame (the token by
    segment name) and reaches executors on the
    :class:`~repro.runtime.context.ExecutionContext`; the supervising
    parent keeps the owning side (token unlink, watchdog).
    """

    def __init__(self, budget: ResourceBudget | None = None,
                 token: CancelToken | None = None) -> None:
        self.budget = budget or ResourceBudget()
        self.token = token
        self._calls = 0
        self.frontier_peak_rows = 0

    # -------------- cooperative cancellation --------------
    def poll(self) -> None:
        """Loop-boundary hook: cheap counter tick, shared-byte read every
        ``cancel_poll_interval`` calls; raises :class:`ChunkCancelled`
        when the run's token has been flipped."""
        self._calls += 1
        if self._calls % self.budget.cancel_poll_interval:
            return
        self.check_cancel()

    def check_cancel(self) -> None:
        """Unconditional token check (coarse call sites: descend slices,
        chunk starts, the supervisor's own loops)."""
        token = self.token
        if token is not None and token.cancelled:
            raise ChunkCancelled(token.reason or "?")

    # -------------- frontier accounting (vectorized) --------------
    def frontier_rows_cap(self, default: int) -> int:
        """Effective frontier-row cap: the executor default, halved per
        downshift level, clamped under the frontier byte budget."""
        cap = default
        token = self.token
        if token is not None:
            cap = max(1, cap >> token.downshift)
        budget_cap = self.budget.frontier_rows_for_bytes()
        if budget_cap is not None:
            cap = min(cap, budget_cap)
        return max(1, cap)

    def note_frontier(self, rows: int) -> None:
        """Account one descend slice; hard-breaches the frontier byte
        budget with :class:`MemoryError` (the supervisor's bisection
        trigger) and polls the cancel token."""
        if rows > self.frontier_peak_rows:
            self.frontier_peak_rows = rows
        limit = self.budget.max_frontier_bytes
        if limit is not None and rows * FRONTIER_ROW_BYTES > limit:
            raise MemoryError(
                f"vectorized frontier slice of {rows} rows "
                f"(~{rows * FRONTIER_ROW_BYTES} bytes) exceeds "
                f"max_frontier_bytes={limit}"
            )
        self.check_cancel()

    # -------------- pickling --------------
    def __getstate__(self):
        return {"budget": self.budget, "token": self.token}

    def __setstate__(self, state):
        self.__init__(state["budget"], state["token"])


# ----------------------------------------------------------------------
# SIGINT bridge: the CLI flips whatever token is currently executing.
# ----------------------------------------------------------------------

_ACTIVE_TOKEN: CancelToken | None = None


def set_active_token(token: CancelToken | None) -> None:
    """Install the token of the currently-executing supervised run (the
    engine brackets each execution with set/clear)."""
    global _ACTIVE_TOKEN
    _ACTIVE_TOKEN = token


def request_cancel(reason: str = "interrupt") -> bool:
    """Flip the active run's cancel token (False when no run is active).

    Signal-handler safe: one byte write, no allocation, no locks.
    """
    token = _ACTIVE_TOKEN
    if token is None:
        return False
    token.cancel(reason)
    return True


# ----------------------------------------------------------------------
# Memory watchdog
# ----------------------------------------------------------------------

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def sample_rss(pid: int) -> int | None:
    """Resident-set bytes of one process from ``/proc/<pid>/statm``
    (None when the process is gone or /proc is unavailable)."""
    try:
        with open(f"/proc/{pid}/statm", "rb") as fh:
            fields = fh.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return None


class MemoryWatchdog:
    """Samples worker RSS and escalates: downshift, then cancel.

    ``pids_fn`` returns the pids to sample on each tick (the supervisor
    points it at the live pool's workers); ``sample_fn`` is injectable
    for deterministic tests.  Escalation ladder per tick, highest RSS
    across workers:

    * ``rss >= max_rss_bytes`` — flip the token with reason
      ``"watchdog"`` (once per cancel cycle) and count a kill;
    * ``rss >= soft_watermark * max_rss_bytes`` — bump the token's
      downshift level (bounded by ``max_downshifts``), shrinking the
      vectorized frontier cap in every worker.

    The sampled peak is published to the ``repro_resource_rss_bytes``
    gauge so operators can watch the envelope being approached.
    """

    def __init__(self, budget: ResourceBudget, token: CancelToken,
                 pids_fn, sample_fn=None) -> None:
        self.budget = budget
        self.token = token
        self.pids_fn = pids_fn
        self.sample_fn = sample_fn or sample_rss
        self.peak_rss = 0
        self.kills = 0
        self.downshifts = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def tick(self) -> int | None:
        """One sampling round (also the unit-test entry point)."""
        limit = self.budget.max_rss_bytes
        if limit is None:
            return None
        rss = 0
        for pid in tuple(self.pids_fn()):
            sampled = self.sample_fn(pid)
            if sampled is not None and sampled > rss:
                rss = sampled
        if not rss:
            return None
        if rss > self.peak_rss:
            self.peak_rss = rss
        from repro.observe import metrics as om

        om.gauge("repro_resource_rss_bytes",
                 "peak sampled worker RSS of the governed run").set(
            float(self.peak_rss))
        if rss >= limit:
            if not self.token.cancelled:
                self.kills += 1
                self.token.cancel("watchdog")
        elif rss >= self.budget.soft_watermark * limit:
            before = self.token.downshift
            if self.token.bump_downshift(self.budget.max_downshifts) > before:
                self.downshifts += 1
        return rss

    def start(self) -> None:
        if self.budget.max_rss_bytes is None or self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-mem-watchdog", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.budget.watchdog_interval_s):
            try:
                self.tick()
            except Exception:
                # A watchdog crash must never take the run down with it.
                return

    def stop(self) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=2.0)
