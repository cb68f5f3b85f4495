"""Zero-copy CSR graphs in POSIX shared memory for pool workers.

The engine's parallel path runs chunks on one persistent fork-worker
pool per process (:mod:`repro.runtime.pool`), whose workers outlive any
single run and so cannot inherit a run's graph.  This module puts the
graph's backing arrays (``indptr``, ``indices``, optional ``labels``,
and an :class:`~repro.graph.transform.OrientedGraph`'s row-split array)
into one ``multiprocessing.shared_memory`` segment:

* the parent calls :func:`share_graph` once per run (or once per daemon
  lifetime), getting a :class:`SharedGraphHandle` whose ``graph`` is a
  CSR view over the segment and whose ``descriptor`` is a tiny
  picklable address that every chunk task carries;
* workers call :func:`attach_cached` with the descriptor — a process-
  local cache attaches each segment at most once per worker.  The cache
  is bounded (:data:`ATTACH_LIMIT`) and drops attachments whose segment
  its owner has since unlinked (:func:`release_unlinked`, also run by
  idle workers), so a long-lived worker never pins finished runs'
  graphs.  Segments the parent created before forking a worker are
  inherited already mapped, as ordinary attachments: a fork child owns
  none of them;
* the parent — and only the parent — unlinks the segment when its run
  ends (:meth:`SharedGraphHandle.close`), so worker deaths can never
  leak it.  :func:`active_segments` exposes what this process currently
  has created-and-not-yet-unlinked; the lifecycle tests assert it
  drains.

CPython's ``resource_tracker`` would double-account segments attached by
name (every ``SharedMemory`` attach registers, every process exit
unlinks — a known wart fixed only in 3.13's ``track=False``); attaches
here map the segment directly (:func:`map_segment`), leaving exactly one
registered owner: the creating process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "GraphDescriptor",
    "SharedGraphHandle",
    "share_graph",
    "attach",
    "attach_cached",
    "active_segments",
    "map_segment",
    "release_unlinked",
]


@dataclass(frozen=True)
class GraphDescriptor:
    """Picklable address of a graph living in a shared-memory segment.

    ``arrays`` maps field name -> (byte offset, element count); every
    array is ``int64``.  ``orientation`` is ``None`` for a plain
    :class:`CSRGraph`, else the :class:`OrientedGraph` mode (the split
    array rides along under ``"split"``).
    """

    segment: str
    name: str
    arrays: tuple[tuple[str, int, int], ...]
    orientation: str | None = None


#: Segments created by THIS process and not yet unlinked: name -> handle.
_CREATED: dict[str, "SharedGraphHandle"] = {}

#: Process-local attach cache: segment name -> (mmap | None, graph),
#: least recently used first.  Seeded by the creator (with ``None`` — the
#: creator's mapping is owned by its handle), inherited by fork children,
#: filled by true attaches.
_ATTACHED: dict[str, tuple[object, CSRGraph]] = {}

#: Most segments :func:`attach_cached` keeps attached in one process.
ATTACH_LIMIT = 4


def active_segments() -> list[str]:
    """Names of segments this process created and has not unlinked."""
    return sorted(_CREATED)


def _graph_fields(graph: CSRGraph) -> list[tuple[str, np.ndarray]]:
    fields = [
        ("indptr", np.ascontiguousarray(graph.indptr, dtype=np.int64)),
        ("indices", np.ascontiguousarray(graph.indices, dtype=np.int64)),
    ]
    if graph.labels is not None:
        fields.append(
            ("labels", np.ascontiguousarray(graph.labels, dtype=np.int64))
        )
    split = getattr(graph, "_split", None)
    if split is not None:
        fields.append(("split", np.ascontiguousarray(split, dtype=np.int64)))
    return fields


def _build_graph(descriptor: GraphDescriptor, buf) -> CSRGraph:
    """Materialize a CSR view over a segment's buffer (no copies —
    ``CSRGraph.__init__``'s ``ascontiguousarray`` is the identity on the
    already-contiguous ``int64`` views)."""
    views = {}
    for field, offset, count in descriptor.arrays:
        views[field] = np.frombuffer(buf, dtype=np.int64, count=count,
                                     offset=offset)
    if descriptor.orientation is None:
        graph = CSRGraph(views["indptr"], views["indices"],
                         labels=views.get("labels"), name=descriptor.name)
        graph.shared_descriptor = descriptor
        return graph
    from repro.graph.transform import OrientedGraph

    # Bypass OrientedGraph.__init__: the split array is already in the
    # segment, so workers skip the O(E) recomputation (and need no
    # Reordering — only the session's id translation uses it).
    graph = OrientedGraph.__new__(OrientedGraph)
    CSRGraph.__init__(graph, views["indptr"], views["indices"],
                      labels=views.get("labels"), name=descriptor.name)
    graph.orientation = descriptor.orientation
    graph.reordering = None
    graph._split = views["split"]
    graph._out_views = None
    graph._in_views = None
    graph._out_degree_prefix = None
    graph.shared_descriptor = descriptor
    return graph


class SharedGraphHandle:
    """The creating process's ownership of one shared graph segment."""

    def __init__(self, shm, descriptor: GraphDescriptor,
                 graph: CSRGraph) -> None:
        self._shm = shm
        self.descriptor = descriptor
        self.graph = graph

    @property
    def name(self) -> str:
        return self.descriptor.segment

    def close(self) -> None:
        """Unlink and unmap the segment (idempotent).

        Safe while workers still hold mappings: POSIX keeps the memory
        alive until the last mapping closes; unlinking just removes the
        name so nothing can leak past the owning run.
        """
        handle = _CREATED.pop(self.name, None)
        if handle is None:
            return
        _ATTACHED.pop(self.name, None)
        self.graph = None
        try:
            self._shm.close()
        except BufferError:
            # A numpy view into the segment is still alive somewhere
            # (a stale ExecutionResult, a traceback).  The mapping then
            # stays until the views die, but the *name* must not: unlink
            # below is what prevents the leak.  Neutralize the handle so
            # SharedMemory.__del__ does not retry (and fail noisily) at
            # GC time — the live views keep the mmap alive themselves.
            if getattr(self._shm, "_fd", -1) >= 0:
                os.close(self._shm._fd)
                self._shm._fd = -1
            self._shm._buf = None
            self._shm._mmap = None
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "SharedGraphHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def share_graph(graph: CSRGraph) -> SharedGraphHandle:
    """Copy ``graph``'s backing arrays into a fresh shared segment.

    Returns a handle whose ``graph`` attribute is the shared-memory view
    (hand *that* to in-process users so parent and workers read the same
    physical pages) and whose ``descriptor`` travels to workers.
    """
    from multiprocessing import shared_memory

    fields = _graph_fields(graph)
    layout = []
    offset = 0
    for field, array in fields:
        layout.append((field, offset, int(array.size)))
        offset += array.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for (field, start, count), (_, array) in zip(layout, fields):
        if count:
            np.frombuffer(shm.buf, dtype=np.int64, count=count,
                          offset=start)[:] = array
    descriptor = GraphDescriptor(
        segment=shm.name,
        name=graph.name,
        arrays=tuple(layout),
        orientation=getattr(graph, "orientation", None),
    )
    shared = _build_graph(descriptor, shm.buf)
    handle = SharedGraphHandle(shm, descriptor, shared)
    _CREATED[shm.name] = handle
    # Seed the attach cache: fork children inherit this entry and reuse
    # the already-mapped graph with no attach syscall at all.
    _ATTACHED[shm.name] = (None, shared)
    return handle


def map_segment(name: str):
    """Map an existing segment by name as a read-write ``mmap``.

    Unlike ``SharedMemory(name=...)``, this does not register the
    segment with the resource tracker: only the creator is registered,
    and its ``unlink()`` balances that.  (Attach-then-unregister would
    race when several workers attach one segment, leaving the tracker
    to report unbalanced names.)
    """
    import mmap

    import _posixshmem

    fd = _posixshmem.shm_open("/" + name, os.O_RDWR, mode=0o600)
    try:
        return mmap.mmap(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)


def attach(descriptor: GraphDescriptor) -> tuple[object, CSRGraph]:
    """Map an existing segment by name (no cache; see :func:`attach_cached`).

    Returns ``(mapping, graph)`` — the caller keeps the mapping alive as
    long as the graph is in use and closes it afterwards.
    """
    mapping = map_segment(descriptor.segment)
    return mapping, _build_graph(descriptor, mapping)


def attach_cached(descriptor: GraphDescriptor) -> CSRGraph:
    """Worker-side entry: the segment's graph, attached at most once per
    process (fork children hit an inherited seed and attach nothing).

    A new segment first evicts attachments whose segment has been
    unlinked, then the least recently used beyond :data:`ATTACH_LIMIT`.
    """
    name = descriptor.segment
    entry = _ATTACHED.pop(name, None)
    if entry is None:
        release_unlinked()
        entry = attach(descriptor)
    _ATTACHED[name] = entry
    while len(_ATTACHED) > ATTACH_LIMIT:
        _detach(next(iter(_ATTACHED)))
    return entry[1]


def release_unlinked() -> None:
    """Drop every attachment whose segment its owner has unlinked (pool
    workers call this when they go idle, so a finished run's graph is
    not pinned for the worker's lifetime)."""
    for name in [n for n in _ATTACHED if not _linked(n)]:
        _detach(name)


def _linked(name: str) -> bool:
    """Whether a segment still has a name (Linux lists them in
    ``/dev/shm``; elsewhere every other segment counts as gone, which
    only costs a re-attach)."""
    return os.path.exists(os.path.join("/dev/shm", name))


def _detach(name: str) -> None:
    mapping = _ATTACHED.pop(name)[0]  # drops the graph's views first
    if mapping is not None:  # a seed's mapping belongs to its handle
        try:
            mapping.close()
        except BufferError:
            pass  # live views keep it mapped until they die


def _disown_after_fork() -> None:
    """In a fork child, turn the parent's segments into attachments: the
    child never unlinks them, and :func:`release_unlinked` unmaps each
    once its owner has."""
    for name, handle in _CREATED.items():
        _ATTACHED[name] = (handle._shm, handle.graph)
        handle.graph = None
    _CREATED.clear()


os.register_at_fork(after_in_child=_disown_after_fork)

