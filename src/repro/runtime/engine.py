"""Plan execution engine.

Runs compiled plans over graphs, with the parallel execution strategy of
paper section 7.4: the outermost loop is statically divided into chunks;
idle workers drain remaining chunks dynamically (the work-stealing
analogue of the paper's scheme — a shared queue of statically-cut chunks);
each chunk accumulates into privatized counters merged at the end, which
is correct because all accumulator updates are associative/commutative.

Each chunk runs with its own :class:`ExecutionContext`, hence its own
set-op memo cache; kernel dispatch counts (from
:data:`repro.runtime.setops.STATS`) and the cache counters are collected
per chunk and merged into ``ExecutionResult.metrics``, which is how the
benchmark reports surface kernel behaviour.  The same per-run deltas are
published into the :mod:`repro.observe` metrics registry, and — when
tracing is enabled — every chunk runs under a ``"chunk"`` span (worker
spans travel back through the per-chunk result channel).

Execution knobs are bundled in :class:`EngineOptions`; supervision knobs
(budget, checkpoint, supervision toggle) in
:class:`~repro.runtime.supervisor.RunPolicy`.  The pre-redesign kwargs
(``workers=``/``chunks_per_worker=``/``executor=`` and
``checkpoint=``/``supervised=``) were removed after their one-release
deprecation window; passing one raises :class:`ExecutionError` naming
the replacement.

Two paths, chosen per run.  **Inline**: ``workers=1`` with nothing to
supervise runs the whole outer loop as one chunk in this process.
**Supervised**: everything else goes through
:class:`repro.runtime.supervisor.Supervisor`, which dispatches chunks
onto the process's one persistent fork-worker pool
(:mod:`repro.runtime.pool`; forked once, reused by every run, aux
correction and batch node), retries chunks lost to worker crashes or
exceptions, honors ``RunBudget`` deadlines, and (opt-in) checkpoints
completed chunks for resume.  ``RunPolicy(supervised=False)`` is the
same scheduler with retries and pool restarts off and no heartbeats.
Hosts without ``fork`` run the supervisor's in-process serial path.

On a single-core host multiprocessing adds no wall-clock speedup; the
scalability benchmark therefore also reports the measured per-chunk work
balance, from which the multi-core speedup curve follows.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import InitVar, dataclass, replace

import numpy as np
from types import MappingProxyType
from typing import Mapping

from repro.compiler.build import COUNT_ACC
from repro.compiler.interpreter import run_interpreter
from repro.compiler.pipeline import CompiledPlan
from repro.exceptions import ExecutionError, ReproError
from repro.graph.csr import CSRGraph
from repro.graph.transform import ORIENTATIONS, OrientedGraph, orient
from repro.observe.trace import span
from repro.runtime import setops, vectorops
from repro.runtime.context import ExecutionContext
from repro.runtime.resources import (
    CancelToken,
    ResourceBudget,
    ResourceGovernor,
    set_active_token,
)
from repro.runtime.supervisor import (
    CheckpointStore,
    RunBudget,
    RunPolicy,
    Supervisor,
    SupervisorOutcome,
)
from repro.runtime.vectorized import run_vectorized

__all__ = [
    "EXECUTORS",
    "EngineOptions",
    "ExecutionMetrics",
    "ExecutionResult",
    "execute_plan",
    "chunk_ranges",
]

#: Valid ``EngineOptions.executor`` choices.
EXECUTORS = ("codegen", "interpreter", "vectorized")


@dataclass(frozen=True)
class EngineOptions:
    """How to execute a plan (everything except *what* and *on what*).

    Parameters
    ----------
    workers:
        Pool workers a run keeps busy (1 = in-process serial).  The
        process's persistent pool grows to the largest count requested.
    chunks_per_worker:
        Static chunking granularity: the outer loop is cut into
        ``workers * chunks_per_worker`` ranges drained dynamically.
    executor:
        ``"codegen"`` (default), ``"interpreter"`` or ``"vectorized"``
        (the array-at-a-time NumPy backend; counting plans only — see
        :mod:`repro.runtime.vectorized`).
    cache:
        Per-chunk set-op memo cache policy, as accepted by
        :class:`~repro.runtime.context.ExecutionContext`: ``True``
        (default capacity), an ``int`` capacity, or ``False`` to disable.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan` injected into
        every chunk context (deterministic fault-injection harness).
    orientation:
        ``"none"`` (default), ``"degree"`` or ``"degeneracy"``: execute
        counting plans on the orientation-relabeled graph (see
        :mod:`repro.graph.transform`).  Counts are unchanged (relabeling
        is an isomorphism); plans compiled with the matching orientation
        replace symmetry-trimmed adjacency with out-neighborhood
        lookups, and chunk ranges are cut by oriented-degree prefix
        sums so relabeled heavy hitters spread across chunks.
    progress:
        Optional :data:`~repro.observe.progress.ProgressReporter`
        callable.  Supervised executions fire it once per completed
        chunk with a :class:`~repro.observe.progress.ProgressEvent`
        (chunks/work done, embeddings so far, throughput, ETA) and
        refresh the ``repro_progress_*`` gauges.  Unsupervised runs
        (inline, or ``RunPolicy(supervised=False)``) emit no heartbeats.

    Parallel runs always share the graph with pool workers through
    :mod:`repro.graph.shared`; the removed ``shared_graph=`` opt-out
    raises :class:`ExecutionError`.
    """

    workers: int = 1
    chunks_per_worker: int = 4
    executor: str = "codegen"
    shared_graph: InitVar[None] = None  # removed; rejected below
    cache: bool | int = True
    faults: object | None = None
    orientation: str = "none"
    progress: object | None = None

    def __post_init__(self, shared_graph) -> None:
        if shared_graph is not None:
            raise ExecutionError(
                "EngineOptions(shared_graph=) was removed: persistent pool "
                "workers always attach the graph from shared memory"
            )
        if self.workers < 1:
            raise ExecutionError(f"workers must be >= 1, got {self.workers}")
        if self.chunks_per_worker < 1:
            raise ExecutionError(
                f"chunks_per_worker must be >= 1, got {self.chunks_per_worker}"
            )
        if self.executor not in EXECUTORS:
            raise ExecutionError(
                f"unknown executor {self.executor!r}; expected one of "
                f"{EXECUTORS}"
            )
        if self.orientation not in ORIENTATIONS:
            raise ExecutionError(
                f"unknown orientation {self.orientation!r}; expected one "
                f"of {ORIENTATIONS}"
            )


@dataclass(frozen=True)
class ExecutionMetrics:
    """Typed read-only telemetry view of one execution.

    Consolidates what PR 1 (kernel/cache counters) and PR 3 (supervisor
    counters) used to scatter across ``ExecutionResult`` attributes; the
    same values are published as per-run deltas into
    :data:`repro.observe.REGISTRY`.
    """

    kernel_stats: Mapping[str, int]
    retries: int = 0
    resumed_chunks: int = 0
    pool_restarts: int = 0
    failures: int = 0
    bisections: int = 0
    watchdog_kills: int = 0
    frontier_downshifts: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Set-op memo cache hit rate over this execution (0.0 if off)."""
        hits = self.kernel_stats.get("cache_hits", 0)
        lookups = hits + self.kernel_stats.get("cache_misses", 0)
        return hits / lookups if lookups else 0.0

    @property
    def kernel_calls(self) -> int:
        """Total set-op kernel invocations during this execution."""
        return sum(
            self.kernel_stats.get(name, 0) for name in setops.KernelStats.FIELDS
        )

    def as_dict(self) -> dict:
        """Plain-dict snapshot (JSON-ready)."""
        return {
            "kernel_stats": dict(self.kernel_stats),
            "kernel_calls": self.kernel_calls,
            "cache_hit_rate": self.cache_hit_rate,
            "retries": self.retries,
            "resumed_chunks": self.resumed_chunks,
            "pool_restarts": self.pool_restarts,
            "failures": self.failures,
            "bisections": self.bisections,
            "watchdog_kills": self.watchdog_kills,
            "frontier_downshifts": self.frontier_downshifts,
        }


class ExecutionResult:
    """Outcome of a plan execution.

    ``accumulators``/``seconds``/``divisor``/``chunk_seconds`` are the
    result proper; ``failures`` holds structured :class:`ChunkFailure`
    entries for chunks that exhausted recovery (empty on clean runs);
    all remaining telemetry lives on ``metrics``
    (an :class:`ExecutionMetrics` read-only view).  The pre-redesign
    flat telemetry attributes (``kernel_stats``, ``cache_hit_rate``,
    ``retries``, ...) were removed with the options redesign — read
    them off ``metrics``.
    """

    def __init__(
        self,
        accumulators: dict[str, int],
        seconds: float,
        divisor: int,
        chunk_seconds: list[float] | None = None,
        kernel_stats: dict[str, int] | None = None,
        failures: list | None = None,
        retries: int = 0,
        resumed_chunks: int = 0,
        pool_restarts: int = 0,
        cancelled: str | None = None,
        salvage: dict | None = None,
        bisections: int = 0,
        watchdog_kills: int = 0,
        frontier_downshifts: int = 0,
    ) -> None:
        self.accumulators = accumulators
        self.seconds = seconds
        self.divisor = divisor
        self.chunk_seconds = list(chunk_seconds) if chunk_seconds else []
        self.failures = list(failures) if failures else []
        #: Cancel reason that stopped the run early ("deadline" |
        #: "interrupt" | "watchdog"), or None for a run-to-completion.
        self.cancelled = cancelled
        #: Salvage state of a cancelled/incomplete run: completed work
        #: ``fraction`` (degree-weighted), ``chunks_done``/``chunks_total``
        #: and the ``unfinished`` chunk bounds; None on clean runs.
        self.salvage = salvage
        #: Ledger id of this execution's run record, or "" when no
        #: ledger was active (set by ``execute_plan`` after recording).
        self.run_id = ""
        self.metrics = ExecutionMetrics(
            kernel_stats=MappingProxyType(dict(kernel_stats or {})),
            retries=retries,
            resumed_chunks=resumed_chunks,
            pool_restarts=pool_restarts,
            failures=len(self.failures),
            bisections=bisections,
            watchdog_kills=watchdog_kills,
            frontier_downshifts=frontier_downshifts,
        )

    @property
    def ok(self) -> bool:
        """True when every chunk completed (counts are trustworthy)."""
        return not self.failures

    @property
    def raw_count(self) -> int:
        return self.accumulators.get(COUNT_ACC, 0)

    @property
    def embedding_count(self) -> int:
        if self.failures:
            summary = "; ".join(f.describe() for f in self.failures[:3])
            more = len(self.failures) - 3
            if more > 0:
                summary += f"; +{more} more"
            raise ExecutionError(
                f"execution incomplete — {len(self.failures)} chunk(s) "
                f"unrecovered, the partial count is not meaningful "
                f"({summary})"
            )
        raw = self.raw_count
        if raw % self.divisor != 0:
            raise ReproError(
                f"raw count {raw} not divisible by multiplicity "
                f"{self.divisor}: the plan's symmetry accounting is broken"
            )
        return raw // self.divisor

    def work_balance(self) -> float:
        """Mean/max chunk time: 1.0 is perfectly balanced."""
        if not self.chunk_seconds:
            return 1.0
        peak = max(self.chunk_seconds)
        if peak == 0:
            return 1.0
        return (sum(self.chunk_seconds) / len(self.chunk_seconds)) / peak

    def __repr__(self) -> str:
        m = self.metrics
        supervision = ""
        if m.retries or m.resumed_chunks or m.pool_restarts or self.failures:
            supervision = (
                f", retries={m.retries}, failures={len(self.failures)}, "
                f"resumed_chunks={m.resumed_chunks}, "
                f"pool_restarts={m.pool_restarts}"
            )
        return (
            f"ExecutionResult(raw_count={self.raw_count}, ok={self.ok}, "
            f"seconds={self.seconds:.4f}, chunks={len(self.chunk_seconds)}"
            f"{supervision})"
        )

    def describe(self) -> str:
        """Human-readable run summary, self-explanatory even on failure."""
        m = self.metrics
        salvage_lines = []
        if self.cancelled is not None or self.salvage is not None:
            salvage = self.salvage or {}
            salvage_lines.append(
                f"cancelled: {self.cancelled or 'no'} — salvaged "
                f"{salvage.get('fraction', 0.0):.1%} of the work "
                f"({salvage.get('chunks_done', 0)}/"
                f"{salvage.get('chunks_total', 0)} chunks)"
            )
        lines = [
            f"{'ok' if self.ok else 'INCOMPLETE'}: raw count "
            f"{self.raw_count:,} / divisor {self.divisor} in "
            f"{self.seconds:.3f}s over {len(self.chunk_seconds)} chunk(s) "
            f"(balance {self.work_balance():.2f})",
            f"supervision: {m.retries} retries, {len(self.failures)} "
            f"failed chunk(s), {m.resumed_chunks} resumed from checkpoint, "
            f"{m.pool_restarts} pool restarts",
            f"kernels: {m.kernel_calls:,} set-op calls, cache hit rate "
            f"{m.cache_hit_rate:.1%}",
        ]
        lines.extend(salvage_lines)
        if m.bisections:
            lines.append(
                f"resources: {m.bisections} bisection(s), "
                f"{m.watchdog_kills} watchdog kill(s), "
                f"{m.frontier_downshifts} frontier downshift(s)"
            )
        for failure in self.failures[:5]:
            lines.append(f"  {failure.describe()}")
        if len(self.failures) > 5:
            lines.append(f"  ... +{len(self.failures) - 5} more")
        return "\n".join(lines)


def chunk_ranges(total: int, chunks: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ``chunks`` contiguous ranges."""
    chunks = max(1, min(chunks, total)) if total else 1
    bounds = [round(i * total / chunks) for i in range(chunks + 1)]
    return [
        (bounds[i], bounds[i + 1])
        for i in range(chunks)
        if bounds[i] < bounds[i + 1]
    ]


def _plan_ranges(graph: CSRGraph, orientation: str,
                 chunks: int) -> list[tuple[int, int]]:
    """Chunk the outer vertex loop.

    Unoriented runs keep the historic even vertex split.  Oriented runs
    cut by oriented-degree prefix sums instead: relabeling sorts heavy
    hitters to one end of the id space, so equal-width vertex ranges
    would put nearly all the work into the chunks covering that end.
    Each vertex is weighted by its out-degree plus one (the constant
    loop overhead), so zero-out-degree tails still split.
    """
    if orientation == "none" or not isinstance(graph, OrientedGraph):
        return chunk_ranges(graph.num_vertices, chunks)
    total_vertices = graph.num_vertices
    chunks = max(1, min(chunks, total_vertices)) if total_vertices else 1
    weights = graph.out_degree_prefix + np.arange(
        total_vertices + 1, dtype=np.int64
    )
    total = int(weights[-1])
    targets = [round(i * total / chunks) for i in range(1, chunks)]
    cuts = np.searchsorted(weights, targets, side="left")
    bounds = [0, *(int(c) for c in cuts), total_vertices]
    return [
        (bounds[i], bounds[i + 1])
        for i in range(len(bounds) - 1)
        if bounds[i] < bounds[i + 1]
    ]


def _effective_orientation(plan: CompiledPlan, options: EngineOptions) -> str:
    """Resolve the orientation this execution runs under.

    A plan compiled for an orientation *requires* it (its ``oriented``
    ops read ``graph.out_neighbors``); a bare ``options.orientation``
    merely relabels the graph, which still pays off because symmetry
    trims then cut to out-neighborhood-sized suffixes.  Conflicting
    non-``"none"`` requests are an error rather than a silent pick.
    """
    plan_mode = getattr(plan, "orientation", "none")
    if (
        plan_mode != "none"
        and options.orientation != "none"
        and plan_mode != options.orientation
    ):
        raise ExecutionError(
            f"plan was compiled for orientation {plan_mode!r} but the "
            f"engine was configured with {options.orientation!r}; "
            "recompile the plan or align EngineOptions.orientation"
        )
    orientation = plan_mode if plan_mode != "none" else options.orientation
    if orientation == "none":
        return orientation
    if plan.mode == "emit":
        raise ExecutionError(
            "oriented execution relabels vertex ids, which emit-mode "
            "UDFs observe through partial embeddings; run emit plans "
            "with orientation='none'"
        )
    if getattr(plan.root, "num_preds", 0):
        raise ExecutionError(
            "oriented execution relabels vertex ids, which constraint "
            "predicates observe; run constrained plans with "
            "orientation='none'"
        )
    return orientation


def _merge_stats(into: dict[str, int], part: dict[str, int]) -> None:
    for key, value in part.items():
        into[key] = into.get(key, 0) + value


#: Keywords that predate the EngineOptions/RunPolicy redesign, with the
#: spelling that replaced each — kept only to produce a pointed error.
_REMOVED_KWARGS = {
    "workers": "EngineOptions(workers=...)",
    "chunks_per_worker": "EngineOptions(chunks_per_worker=...)",
    "executor": "EngineOptions(executor=...)",
    "cache": "EngineOptions(cache=...)",
    "faults": "EngineOptions(faults=...)",
    "checkpoint": "RunPolicy(checkpoint=...)",
    "supervised": "RunPolicy(supervised=...)",
}


def _reject_removed_kwargs(caller: str, removed: dict) -> None:
    if not removed:
        return
    unknown = sorted(set(removed) - set(_REMOVED_KWARGS))
    if unknown:
        raise TypeError(
            f"{caller}() got unexpected keyword argument(s): "
            + ", ".join(unknown)
        )
    replacements = "; ".join(
        f"{key}= -> {_REMOVED_KWARGS[key]}" for key in sorted(removed)
    )
    raise ExecutionError(
        f"{caller}({'/'.join(sorted(f'{k}=' for k in removed))}) was "
        f"removed with the options redesign: {replacements} "
        "(pass the bundle via the `options`/`policy` arguments)"
    )


def _resolve_policy(policy):
    """Normalize RunPolicy | RunBudget | None into the (budget,
    checkpoint, supervised, resources) tuple the engine works with."""
    budget = checkpoint = supervised = resources = None
    if isinstance(policy, RunBudget):
        budget = policy
    elif isinstance(policy, RunPolicy):
        budget = policy.budget
        checkpoint = policy.checkpoint
        supervised = policy.supervised
        resources = policy.resources
    elif policy is not None:
        raise ExecutionError(
            f"policy must be a RunPolicy or RunBudget, got {policy!r}"
        )
    if resources is not None and not isinstance(resources, ResourceBudget):
        raise ExecutionError(
            f"RunPolicy.resources must be a ResourceBudget, got "
            f"{resources!r}"
        )
    if checkpoint is not None and not hasattr(checkpoint, "record"):
        checkpoint = CheckpointStore(checkpoint)
    return budget, checkpoint, supervised, resources


def _publish_metrics(stats: dict[str, int], out, salvage) -> None:
    """Fold one execution's telemetry delta into the global registry.

    Batched per run (not per kernel call), so the cost is a handful of
    dictionary operations regardless of workload size.
    """
    from repro.observe import metrics as om

    om.counter(
        "repro_executions_total", "plan executions (aux plans counted)"
    ).inc()
    for key, value in stats.items():
        if not value:
            continue
        if key.startswith("cache_"):
            name = f"repro_setop_cache_{key[6:]}_total"
        elif key.startswith("vec_"):
            name = f"repro_vectorized_{key[4:]}_total"
        else:
            name = f"repro_setops_{key}_total"
        om.counter(name, "set-op kernel telemetry (per-run delta)").inc(value)
    for value, name, text in (
        (out.retries, "repro_chunk_retries_total",
         "chunk re-dispatches by the supervisor"),
        (out.resumed_chunks, "repro_checkpoint_resumed_chunks_total",
         "chunks replayed from a checkpoint"),
        (out.pool_restarts, "repro_pool_restarts_total",
         "pool workers replaced after a loss"),
        (len(out.failures), "repro_chunk_failures_total",
         "chunks that exhausted recovery"),
        (out.bisections, "repro_resource_bisections_total",
         "chunk bisections after memory/timeout casualties"),
        (out.watchdog_kills, "repro_resource_watchdog_kills_total",
         "hard-RSS cancellations by the memory watchdog"),
        (out.frontier_downshifts, "repro_resource_frontier_downshifts_total",
         "soft-watermark frontier-cap downshifts"),
        (int(out.cancelled is not None), "repro_resource_cancellations_total",
         "runs stopped early through the cancel token"),
    ):
        if value:
            om.counter(name, text).inc(value)
    if salvage is not None:
        om.gauge("repro_resource_salvage_fraction",
                 "completed work fraction of the last incomplete run"
                 ).set(float(salvage["fraction"]))
    chunk_hist = om.histogram("repro_chunk_seconds", "per-chunk wall time")
    for seconds in out.chunk_seconds:
        chunk_hist.observe(seconds)


#: Supervision counters an aux correction adds into its parent's result.
_AUX_SUMMED = ("retries", "resumed_chunks", "pool_restarts", "bisections",
               "watchdog_kills", "frontier_downshifts")


def execute_plan(
    plan: CompiledPlan,
    graph: CSRGraph,
    ctx: ExecutionContext | None = None,
    options: EngineOptions | None = None,
    policy=None,
    **removed,
) -> ExecutionResult:
    """Execute a compiled plan.

    ``options`` (an :class:`EngineOptions`) bundles the execution knobs:
    worker count, chunking, executor choice, set-op cache policy, fault
    plan.  With ``options.workers > 1`` the outer loop is chunked across
    the process's persistent worker pool; emit-mode plans (UDF callbacks
    hold user state) run single-process.

    ``policy`` (a :class:`~repro.runtime.supervisor.RunPolicy`, or a
    bare :class:`~repro.runtime.supervisor.RunBudget` for just the
    retry/deadline knobs) bundles supervision: retry caps, backoff,
    per-chunk timeouts, the whole-run deadline, the checkpoint store for
    killed-run resume, and the supervision toggle.  Supervision defaults
    to on whenever it can matter — parallel runs, or any run with a
    budget, checkpoint, or fault plan; ``RunPolicy(supervised=False)``
    turns retries, pool restarts, checkpoints, deadlines and heartbeats
    off (a lost chunk then fails the run).

    The keyword spellings predating :class:`EngineOptions` and the
    ``RunPolicy`` fold (``workers=``, ``chunks_per_worker=``,
    ``executor=``, ``checkpoint=``, ``supervised=``, ...) were removed
    after their deprecation release; passing one raises
    :class:`ExecutionError` naming the replacement spelling.
    """
    _reject_removed_kwargs("execute_plan", removed)
    options = options if options is not None else EngineOptions()
    policy_budget, checkpoint, supervised, resources = _resolve_policy(policy)
    if ctx is None:
        ctx = ExecutionContext(plan.root.num_tables, cache=options.cache,
                               faults=options.faults)
    if options.workers > 1 and plan.mode == "emit":
        raise ExecutionError(
            "emit-mode plans run single-process: user UDF state cannot be "
            "merged across workers; aggregate via counting accumulators "
            "instead"
        )
    if plan.mode == "emit" and (
        policy_budget is not None or checkpoint is not None
        or resources is not None
    ):
        raise ExecutionError(
            "supervised execution re-runs chunks and would re-deliver "
            "partial embeddings to the UDF; emit-mode plans run "
            "unsupervised"
        )
    if supervised is None:
        supervised = (
            options.workers > 1
            or policy_budget is not None
            or checkpoint is not None
            or resources is not None
            or ctx.faults is not None
        ) and plan.mode != "emit"
    if resources is not None and not supervised:
        raise ExecutionError(
            "resource-governed execution needs the supervisor (token "
            "lifecycle, bisection); drop RunPolicy(supervised=False) or "
            "the resource budget"
        )

    orientation = _effective_orientation(plan, options)
    # orient() memoizes per (graph, mode), so repeated executions — and
    # the aux-plan recursion below, which passes the *original* graph —
    # reuse one relabeled copy.
    exec_graph = orient(graph, orientation) if orientation != "none" else graph

    deadline_at = None
    if policy_budget is not None and policy_budget.deadline_s is not None:
        deadline_at = time.monotonic() + policy_budget.deadline_s

    run_span = span(
        "execute", pattern=plan.pattern.name or repr(plan.pattern),
        mode=plan.mode, workers=options.workers, executor=options.executor,
        supervised=bool(supervised), orientation=orientation,
    )
    with _governed(ctx, resources) as governor, run_span:
        started = time.perf_counter()
        kernel_before = setops.STATS.snapshot()
        vec_before = vectorops.VSTATS.snapshot()
        cache_before = ctx.cache_counters()
        if supervised or options.workers > 1:
            heartbeat = budget = run_checkpoint = None
            if supervised:
                budget, run_checkpoint = policy_budget, checkpoint
                if options.progress is not None:
                    from repro.observe.progress import as_heartbeat

                    heartbeat = as_heartbeat(options.progress)
            else:
                budget = RunBudget(max_chunk_retries=0, max_pool_restarts=0)
            ranges = _plan_ranges(
                exec_graph, orientation,
                options.workers * options.chunks_per_worker,
            )
            out = Supervisor(
                plan, exec_graph, ctx, ranges, options.workers,
                options.executor, budget=budget, checkpoint=run_checkpoint,
                deadline_at=deadline_at if supervised else None,
                cache=options.cache, progress=heartbeat, resources=governor,
            ).run()
        else:
            with span("chunk", index=0) as chunk_span:
                accumulators = _run_range(plan, exec_graph, ctx, None, None,
                                          options.executor)
            # When tracing, the span's clock is the measurement — a
            # second perf_counter pair could disagree with it (GC pause
            # between the two reads) and break trace/result accounting.
            out = SupervisorOutcome(
                accumulators=accumulators,
                chunk_seconds=[chunk_span.duration
                               or (time.perf_counter() - started)],
            )
        stats = out.stats
        _merge_stats(stats, setops.STATS.delta(kernel_before))
        _merge_stats(stats, vectorops.VSTATS.delta(vec_before))
        for key, value in ctx.cache_counters().items():
            stats[key] = stats.get(key, 0) + value - cache_before.get(key, 0)
        salvage = out.salvage()
        # This execution's own telemetry goes to the registry before the
        # aux-plan corrections below: each aux execution recurses through
        # execute_plan and publishes its own delta.
        _publish_metrics(stats, out, salvage)
        # Globally-counted shrinkage corrections (see
        # CompiledPlan.aux_plans): each quotient pattern's injective count
        # is subtracted once, instead of re-enumerating quotient
        # extensions per cutting-set match.  Aux plans share the
        # checkpoint store (under their own fingerprints) and inherit
        # whatever remains of the whole-run deadline, so resume and
        # deadline semantics are exact for decomposed counts.
        for aux_plan, multiplier in plan.aux_plans:
            aux_budget = policy_budget
            if deadline_at is not None:
                aux_budget = replace(
                    policy_budget,
                    deadline_s=max(0.0, deadline_at - time.monotonic()),
                )
            aux_policy = RunPolicy(budget=aux_budget, checkpoint=checkpoint,
                                   supervised=supervised, resources=resources)
            global _IN_AUX
            previous_aux, _IN_AUX = _IN_AUX, True
            try:
                aux_result = execute_plan(
                    aux_plan, graph, options=options, policy=aux_policy,
                )
            finally:
                _IN_AUX = previous_aux
            out.accumulators[COUNT_ACC] = (
                out.accumulators.get(COUNT_ACC, 0)
                - multiplier * aux_result.raw_count
            )
            _merge_stats(stats, aux_result.metrics.kernel_stats)
            for name in _AUX_SUMMED:
                setattr(out, name, getattr(out, name)
                        + getattr(aux_result.metrics, name))
            out.failures.extend(aux_result.failures)
            out.cancelled = out.cancelled or aux_result.cancelled
            salvage = salvage or aux_result.salvage
        elapsed = time.perf_counter() - started

    from repro.observe import metrics as om

    om.histogram("repro_execution_seconds",
                 "whole-execution wall time").observe(elapsed)
    result = ExecutionResult(
        out.accumulators, elapsed, plan.info.divisor, out.chunk_seconds,
        stats, failures=out.failures, retries=out.retries,
        resumed_chunks=out.resumed_chunks, pool_restarts=out.pool_restarts,
        cancelled=out.cancelled, salvage=salvage,
        bisections=out.bisections, watchdog_kills=out.watchdog_kills,
        frontier_downshifts=out.frontier_downshifts,
    )
    # Durable run history: one JSON line per execution when a ledger is
    # active (a single flag check otherwise).  Aux (global-shrinkage
    # correction) executions record under their own fingerprints.
    from repro.observe import ledger as ledger_mod

    record = ledger_mod.record_run(
        plan, graph, options, result, budget=policy_budget,
        checkpoint=checkpoint, supervised=supervised, aux=_IN_AUX,
    )
    if record is not None:
        result.run_id = record.run_id
    return result


#: True while an aux (shrinkage-correction) plan is being executed, so
#: its ledger record is distinguishable from the user-facing run's.
_IN_AUX = False


@contextlib.contextmanager
def _governed(ctx, resources):
    """The resource governor of one execution (None when ungoverned).

    One cancel token per governed execution, owned here and exposed to
    SIGINT handlers through the active-token slot.  On every exit path
    (success, ExecutionError, KeyboardInterrupt) the slot is cleared,
    the caller's context hooks are restored and the token is unlinked.
    """
    if resources is None:
        yield None
        return
    token = CancelToken.create()
    governor = ResourceGovernor(resources, token)
    saved = (ctx.resources, ctx.poll_cancel)
    set_active_token(token)
    ctx.resources, ctx.poll_cancel = governor, governor.poll
    try:
        yield governor
    finally:
        set_active_token(None)
        ctx.resources, ctx.poll_cancel = saved
        token.close()


def _run_range(plan, graph, ctx, start, stop, executor) -> dict[str, int]:
    if executor == "codegen":
        return plan.function(graph, ctx, start, stop)
    if executor == "interpreter":
        return run_interpreter(plan.root, graph, ctx, start, stop)
    if executor == "vectorized":
        return run_vectorized(plan.root, graph, ctx, start, stop)
    raise ExecutionError(
        f"unknown executor {executor!r}; expected one of {EXECUTORS}"
    )
