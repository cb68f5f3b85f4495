"""Deterministic fault injection for the execution supervisor.

The supervisor's crash-recovery machinery (retry, backoff, pool
restarts, checkpoint/resume) is only trustworthy if it can be exercised
on demand, so this module provides a seed-keyed :class:`FaultPlan` that
injects three fault kinds into chosen chunks of a chunked execution:

* ``"raise"`` — an :class:`InjectedFault` exception thrown inside the
  chunk, the analogue of a crashing user predicate/UDF or a poisoned
  chunk;
* ``"delay"`` — a ``time.sleep`` before the chunk body, used to trip
  per-chunk timeouts and deadlines;
* ``"die"``  — a hard ``os._exit`` of the worker process, the analogue
  of an OOM kill.  Outside a disposable worker (``allow_exit=False``,
  the supervisor's in-process serial path) the death is simulated with
  an :class:`InjectedFault` instead, so the harness never kills the
  test process itself;
* ``"oom"``  — a real :class:`MemoryError` raised inside the chunk, the
  analogue of an allocation failure on a ballooning chunk.  This is the
  deterministic trigger for the supervisor's chunk-bisection ladder:
  bisected halves get *fresh* chunk indices, so a first-attempt oom
  fault never follows them and the split ranges complete exactly.

Faults fire when a chunk *starts an attempt*: the plan travels into the
chunk worker on the :class:`~repro.runtime.context.ExecutionContext`
(``ExecutionContext(faults=...)``) and the worker calls
``ctx.fire_faults(chunk_index, attempt)`` before running the chunk
body.  By default a fault fires on attempt 1 only, so a retried chunk
succeeds and the fault-free count is recoverable — which is exactly
what the differential fault suite asserts.

Everything here is deterministic: :meth:`FaultPlan.seeded` draws from a
seeded ``random.Random``, and firing depends only on ``(chunk,
attempt)``.  The module has no intra-package imports so it can be used
from any layer.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

__all__ = ["Fault", "FaultPlan", "InjectedFault", "DEATH_EXIT_CODE"]

#: Exit status used by ``"die"`` faults — recognizable in worker reaping.
DEATH_EXIT_CODE = 73

_KINDS = ("raise", "delay", "die", "oom")


class InjectedFault(RuntimeError):
    """An artificial failure raised by a :class:`FaultPlan`.

    Deliberately *not* a ``ReproError``: the supervisor must recover
    from arbitrary exceptions, not only library ones.
    """


@dataclass(frozen=True)
class Fault:
    """One injected fault.

    ``attempts`` lists the attempt numbers (1-based) on which the fault
    fires; ``None`` means every attempt (a permanent fault — used to
    test retry exhaustion).
    """

    kind: str
    chunk: int
    attempts: tuple[int, ...] | None = (1,)
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; use {_KINDS}")
        if self.kind == "delay" and self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")

    def fires_on(self, attempt: int) -> bool:
        return self.attempts is None or attempt in self.attempts


@dataclass
class FaultPlan:
    """A deterministic schedule of faults keyed by chunk index."""

    faults: tuple[Fault, ...] = ()
    _by_chunk: dict[int, list[Fault]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        self.faults = tuple(self.faults)
        for fault in self.faults:
            self._by_chunk.setdefault(fault.chunk, []).append(fault)

    @classmethod
    def seeded(
        cls,
        seed: int,
        num_chunks: int,
        exception_rate: float = 0.0,
        death_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay_s: float = 0.01,
        oom_rate: float = 0.0,
        attempts: tuple[int, ...] | None = (1,),
    ) -> "FaultPlan":
        """Roll each fault kind independently per chunk from ``seed``."""
        import random

        rng = random.Random(seed)
        faults: list[Fault] = []
        for chunk in range(num_chunks):
            # Delay first so a raise/die in the same chunk still pays it.
            if rng.random() < delay_rate:
                faults.append(Fault("delay", chunk, attempts, delay_s=delay_s))
            if rng.random() < exception_rate:
                faults.append(Fault("raise", chunk, attempts))
            if rng.random() < death_rate:
                faults.append(Fault("die", chunk, attempts))
            # Guarded so a zero rate consumes no rng draw: schedules
            # produced by pre-oom seeds stay byte-identical.
            if oom_rate and rng.random() < oom_rate:
                faults.append(Fault("oom", chunk, attempts))
        return cls(tuple(faults))

    def fire(self, chunk: int, attempt: int, allow_exit: bool = True) -> None:
        """Inject this chunk's faults for one attempt.

        ``allow_exit`` is True only inside a disposable worker process;
        the supervisor's in-process serial path passes False, turning a
        ``"die"`` into a raised :class:`InjectedFault` so the harness
        cannot kill the host process.
        """
        for fault in self._by_chunk.get(chunk, ()):
            if not fault.fires_on(attempt):
                continue
            if fault.kind == "delay":
                time.sleep(fault.delay_s)
            elif fault.kind == "raise":
                raise InjectedFault(
                    f"injected exception in chunk {chunk} (attempt {attempt})"
                )
            elif fault.kind == "die":
                if allow_exit:
                    os._exit(DEATH_EXIT_CODE)
                raise InjectedFault(
                    f"injected worker death in chunk {chunk} "
                    f"(attempt {attempt}, simulated in-process)"
                )
            elif fault.kind == "oom":
                # A genuine MemoryError (not InjectedFault): the
                # supervisor's bisection ladder classifies on the real
                # exception type, exactly as a ballooning chunk raises.
                raise MemoryError(
                    f"injected allocation failure in chunk {chunk} "
                    f"(attempt {attempt})"
                )
