"""Adaptive sorted-array set-operation kernels.

Every DecoMine plan — generated code, the interpreter and the in-house
baselines alike — bottoms out in ordered-adjacency set operations inside
its nested matching loops.  This module is the single implementation all
of them share, so the executors cannot drift from one another; the
differential suite (``tests/test_differential_engines.py``) locks the
semantics in.

Two strategies are dispatched adaptively by operand size ratio
(thresholds below were measured on CPython 3.11 / NumPy 2.x; see
``benchmarks/bench_setops.py`` for the harness that re-derives them):

* **gallop** — each element of the smaller operand is located in the
  larger one by binary probing (the vectorized form of doubling-search
  galloping: ``searchsorted`` + ``take(mode="clip")``).  Cost
  ``|small| * log |large|``; wins whenever the sizes are skewed or both
  operands are small, which is the common case for neighbor
  intersections on power-law graphs.
* **merge** — a sort-based linear merge (``np.intersect1d`` /
  ``np.setdiff1d`` with ``assume_unique``).  Cost ``O(|a| + |b|)`` with
  sequential memory access; wins when both operands are large and of
  comparable size, where random probing thrashes the cache.

The bounded variants (``intersect_upto`` and friends) fuse a
symmetry-breaking trim (``v < u`` / ``v > u`` guards) into the operation
so the intermediate untrimmed set is never materialized; the compiler's
``fuse`` pass rewrites ``trim(intersect(a, b), u)`` chains into them.

Per-call dispatch counters are kept in the module-global :data:`STATS`
(the engine reports deltas per execution), and :class:`SetOpCache`
provides the per-chunk memo cache :class:`repro.runtime.context.ExecutionContext`
uses to reuse materialized intersections across loop iterations.

This module must stay importable with *no* intra-package dependencies
(NumPy only): it sits below the graph layer (``repro.graph.vertex_set``
re-exports these kernels) and the runtime layer.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DTYPE",
    "EMPTY",
    "GALLOP_RATIO",
    "MERGE_CUTOFF",
    "DEFAULT_CACHE_CAPACITY",
    "KernelStats",
    "STATS",
    "gallop_search",
    "intersect",
    "subtract",
    "intersect_size",
    "subtract_size",
    "intersect_upto",
    "intersect_from",
    "subtract_upto",
    "subtract_from",
    "SetOpCache",
]

DTYPE = np.int64

#: The canonical empty vertex set.  Read-only.
EMPTY = np.empty(0, dtype=DTYPE)
EMPTY.setflags(write=False)

#: Probe the small side into the large side whenever the larger operand is
#: at least this many times the smaller one (log-cost per element beats a
#: linear merge outright on skewed inputs).
GALLOP_RATIO = 8

#: Below this combined size the gallop path wins even for balanced
#: operands (the merge's sort cannot amortize its constant factors);
#: above it, comparable-size operands take the sequential merge path.
MERGE_CUTOFF = 4096

#: Default entry cap of :class:`SetOpCache`.
DEFAULT_CACHE_CAPACITY = 4096


# ----------------------------------------------------------------------
# Kernel-call counters
# ----------------------------------------------------------------------

class KernelStats:
    """Mutable per-process kernel-call counters.

    The engine snapshots :data:`STATS` around an execution and reports
    the delta on :class:`~repro.runtime.engine.ExecutionResult`, so the
    counters here only ever need to be monotone.
    """

    FIELDS = (
        "intersect_gallop",
        "intersect_merge",
        "subtract_gallop",
        "subtract_merge",
        "bounded",
        "size_only",
    )
    __slots__ = FIELDS

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.FIELDS}

    def delta(self, before: dict[str, int]) -> dict[str, int]:
        """Counter increments since a :meth:`snapshot`."""
        return {
            name: getattr(self, name) - before.get(name, 0)
            for name in self.FIELDS
        }

    @property
    def total_calls(self) -> int:
        return sum(getattr(self, name) for name in self.FIELDS)


STATS = KernelStats()


# ----------------------------------------------------------------------
# Scalar galloping primitive
# ----------------------------------------------------------------------

def gallop_search(arr, target: int, lo: int = 0) -> int:
    """Leftmost insertion point of ``target`` in sorted ``arr[lo:]``.

    Doubling (galloping) search: probe at exponentially growing offsets
    from ``lo``, then binary-search the final bracket.  ``O(log d)`` in
    the distance ``d`` between ``lo`` and the answer, which is what makes
    a gallop-merge linear when the operands interleave and logarithmic
    when they do not.  This is the scalar form of what the vectorized
    gallop kernels do; it is exercised directly by the kernel tests and
    by callers advancing a cursor through one array.
    """
    n = len(arr)
    if lo >= n or arr[lo] >= target:
        return lo
    step = 1
    prev = lo
    probe = lo + 1
    while probe < n and arr[probe] < target:
        prev = probe
        step <<= 1
        probe = lo + step
    hi = min(probe, n)
    lo = prev + 1
    while lo < hi:
        mid = (lo + hi) >> 1
        if arr[mid] < target:
            lo = mid + 1
        else:
            hi = mid
    return lo


# ----------------------------------------------------------------------
# Core kernels
# ----------------------------------------------------------------------

def intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Set intersection of two sorted duplicate-free vertex sets."""
    if a.size > b.size:
        a, b = b, a
    an = a.size
    if an == 0:
        return EMPTY
    bn = b.size
    if bn < an * GALLOP_RATIO and an + bn >= MERGE_CUTOFF:
        STATS.intersect_merge += 1
        return np.intersect1d(a, b, assume_unique=True)
    STATS.intersect_gallop += 1
    idx = b.searchsorted(a)
    return a[b.take(idx, mode="clip") == a]


def subtract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Set difference ``a - b`` of two sorted duplicate-free vertex sets."""
    an = a.size
    if an == 0:
        return EMPTY
    bn = b.size
    if bn == 0:
        return a
    small, large = (an, bn) if an < bn else (bn, an)
    if large < small * GALLOP_RATIO and small + large >= MERGE_CUTOFF:
        STATS.subtract_merge += 1
        return np.setdiff1d(a, b, assume_unique=True)
    STATS.subtract_gallop += 1
    idx = b.searchsorted(a)
    return a[b.take(idx, mode="clip") != a]


def intersect_size(a: np.ndarray, b: np.ndarray) -> int:
    """``len(intersect(a, b))`` without materializing the result."""
    if a.size > b.size:
        a, b = b, a
    if a.size == 0:
        return 0
    STATS.size_only += 1
    idx = b.searchsorted(a)
    return int(np.count_nonzero(b.take(idx, mode="clip") == a))


def subtract_size(a: np.ndarray, b: np.ndarray) -> int:
    """``len(subtract(a, b))`` without materializing the result."""
    if a.size == 0:
        return 0
    if b.size == 0:
        return int(a.size)
    STATS.size_only += 1
    idx = b.searchsorted(a)
    return int(np.count_nonzero(b.take(idx, mode="clip") != a))


# ----------------------------------------------------------------------
# Bounded variants (fused symmetry-breaking trims)
# ----------------------------------------------------------------------

def intersect_upto(a: np.ndarray, b: np.ndarray, bound: int) -> np.ndarray:
    """``{x in a ∩ b : x < bound}`` — a clique-style ``v < u`` guard.

    Equivalent to ``trim_below(intersect(a, b), bound)`` but trims the
    probing operand *first*, so the untrimmed intersection is never
    materialized and the probe count shrinks with the bound.
    """
    STATS.bounded += 1
    return intersect(a[: a.searchsorted(bound)], b)


def intersect_from(a: np.ndarray, b: np.ndarray, bound: int) -> np.ndarray:
    """``{x in a ∩ b : x > bound}`` — the mirrored ``v > u`` guard."""
    STATS.bounded += 1
    return intersect(a[a.searchsorted(bound, side="right"):], b)


def subtract_upto(a: np.ndarray, b: np.ndarray, bound: int) -> np.ndarray:
    """``{x in a - b : x < bound}``."""
    STATS.bounded += 1
    return subtract(a[: a.searchsorted(bound)], b)


def subtract_from(a: np.ndarray, b: np.ndarray, bound: int) -> np.ndarray:
    """``{x in a - b : x > bound}``."""
    STATS.bounded += 1
    return subtract(a[a.searchsorted(bound, side="right"):], b)


# ----------------------------------------------------------------------
# Per-chunk memo cache
# ----------------------------------------------------------------------

_INTERSECT = 0
_SUBTRACT = 1


class SetOpCache:
    """Memo cache of materialized set-op results, keyed by operand identity.

    Inside one execution chunk the same intersection recurs constantly —
    e.g. a 4-cycle plan recomputes ``N(a) ∩ N(c)`` once per common
    neighbor of ``a`` and ``c`` — and all operands are identity-stable:
    neighbor sets are cached CSR slices and intermediate sets are reused
    objects.  Keys are therefore ``(op, id(a), id(b))``, canonicalized by
    id order for the commutative intersect.

    Safety: an ``id`` is only unique while the object lives, so every
    entry pins strong references to its operands and a hit additionally
    verifies both with ``is``.  A pinned operand's id cannot be recycled,
    hence a key collision with dead operands is impossible and a stale
    ``get`` fails the identity check and recomputes.

    The cache is bounded (``capacity`` entries, FIFO eviction) and keeps
    hit/miss/eviction counters that the engine folds into
    ``ExecutionResult.metrics.kernel_stats``.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions", "_entries")

    COUNTER_FIELDS = ("cache_hits", "cache_misses", "cache_evictions")

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: dict[tuple[int, int, int], tuple] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def intersect(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if id(b) < id(a):  # commutative: canonical operand order
            a, b = b, a
        key = (_INTERSECT, id(a), id(b))
        entry = self._entries.get(key)
        if entry is not None and entry[0] is a and entry[1] is b:
            self.hits += 1
            return entry[2]
        self.misses += 1
        result = intersect(a, b)
        self._store(key, a, b, result)
        return result

    def subtract(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        key = (_SUBTRACT, id(a), id(b))
        entry = self._entries.get(key)
        if entry is not None and entry[0] is a and entry[1] is b:
            self.hits += 1
            return entry[2]
        self.misses += 1
        result = subtract(a, b)
        self._store(key, a, b, result)
        return result

    def _store(self, key, a, b, result) -> None:
        entries = self._entries
        if key not in entries and len(entries) >= self.capacity:
            entries.pop(next(iter(entries)))  # FIFO: oldest insertion
            self.evictions += 1
        entries[key] = (a, b, result)

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def counters(self) -> dict[str, int]:
        return {
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_evictions": self.evictions,
        }
