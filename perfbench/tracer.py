"""Span recorder for the benchmark's traced runs.

The program under test carries no tracing of its own for this purpose:
:meth:`Tracer.install` wraps each layer's public entry points from the
outside (module attributes and class methods), records one span per
call, and :meth:`Tracer.uninstall` puts the originals back.  A span is
``{id, name, parent, request, start, end, attrs}``; spans stay in memory
until the run writes them out.

The daemon side of ``daemon-mix`` installs the same wrappers through
``launcher.py``; its spans are merged with the client's before
:func:`layer_metrics` reduces them to the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import time
from collections import defaultdict

_SPAN = contextvars.ContextVar("perfbench_span", default=None)
_REQUEST = contextvars.ContextVar("perfbench_request", default="")


class Tracer:
    """In-memory spans plus counters, keyed by layer boundary name."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": _SPAN.get(),
            "request": _REQUEST.get(),
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        token = _SPAN.set(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            _SPAN.reset(token)
            self.spans.append(record)

    @staticmethod
    @contextlib.contextmanager
    def request(request_id: str):
        """Tag every span opened inside with ``request_id``."""
        token = _REQUEST.set(request_id)
        try:
            yield
        finally:
            _REQUEST.reset(token)

    # ------------------------------------------------------------------
    def _wrap(self, name, fn, annotate=None, request_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rid = request_of(*args, **kwargs) if request_of else None
            scope = (self.request(rid) if rid is not None
                     else contextlib.nullcontext())
            with scope, self.span(name) as record:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    annotate(record["attrs"], args, kwargs, result)
                return result

        return wrapper

    def _count_yields(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counters[name] += 1
                yield item

        return wrapper

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, *, server: bool = False) -> "Tracer":
        """Wrap every layer boundary; ``server`` adds the daemon side."""
        mod = importlib.import_module
        shared = mod("repro.graph.shared")
        datasets = mod("repro.graph.datasets")
        session = mod("repro.api.session")
        pipeline = mod("repro.compiler.pipeline")
        search = mod("repro.compiler.search")
        plancache = mod("repro.compiler.plancache")
        engine = mod("repro.runtime.engine")
        batchrun = mod("repro.runtime.batchrun")
        client = mod("repro.serve.client")

        self._patch(datasets, "load",
                    self._wrap("graph.build", datasets.load))
        self._patch(shared, "share_graph",
                    self._wrap("graph.share", shared.share_graph))
        self._patch(session, "profile_graph",
                    self._wrap("costmodel.profile", session.profile_graph))
        compile_pattern = self._wrap("compiler.compile",
                                     pipeline.compile_pattern)
        for owner in (pipeline, session, plancache):
            self._patch(owner, "compile_pattern", compile_pattern)
        self._patch(pipeline, "search",
                    self._wrap("compiler.search", pipeline.search))
        self._patch(pipeline, "compile_root",
                    self._wrap("compiler.codegen", pipeline.compile_root))
        self._patch(search, "enumerate_candidates",
                    self._count_yields("compiler.candidates",
                                       search.enumerate_candidates))
        cache = plancache.PlanCache
        self._patch(cache, "load",
                    self._wrap("plancache.load", cache.load, _note_load))
        self._patch(cache, "store",
                    self._wrap("plancache.store", cache.store, _note_store))
        decomine = session.DecoMine
        self._patch(decomine, "submit",
                    self._wrap("session.submit", decomine.submit))
        self._patch(decomine, "submit_batch",
                    self._wrap("session.submit", decomine.submit_batch))
        execute = self._wrap("engine.execute", engine.execute_plan,
                             _note_execute)
        for owner in (engine, session, batchrun):
            self._patch(owner, "execute_plan", execute)
        self._patch(session, "compile_batch",
                    self._wrap("batch.compile", session.compile_batch,
                               _note_batch_plan))
        self._patch(batchrun, "execute_batch",
                    self._wrap("batch.execute", batchrun.execute_batch))
        cls = client.Client
        self._patch(cls, "submit",
                    self._wrap("serve.roundtrip", cls.submit, _note_reply))
        self._patch(cls, "submit_batch",
                    self._wrap("serve.roundtrip", cls.submit_batch,
                               _note_reply))
        if server:
            server_cls = mod("repro.serve.server").MiningServer
            self._patch(server_cls, "handle_request", self._wrap(
                "serve.handle", server_cls.handle_request,
                request_of=lambda _self, request: request.request_id))
            batches = defaultdict(itertools.count)
            self._patch(server_cls, "handle_batch", self._wrap(
                "serve.handle", server_cls.handle_batch,
                request_of=lambda _self, requests: batch_request_id(
                    requests[0].client_id,
                    next(batches[requests[0].client_id]))))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def batch_request_id(client_id: str, index: int) -> str:
    """Request id of a client's ``index``-th batch.

    ``Client.submit_batch`` numbers the requests inside a batch from 0
    on every call, so a batch is named by its client and its position
    in that client's batch sequence; clients are closed loops, so both
    ends count the same batches in the same order.
    """
    return f"{client_id}:batch:{index}"


def _note_load(attrs, args, kwargs, result) -> None:
    attrs["hit"] = result is not None


def _note_store(attrs, args, kwargs, result) -> None:
    cache, key = args[0], args[1]
    attrs["stored"] = bool(result)
    attrs["bytes"] = cache.entry_path(key).stat().st_size if result else 0


def _note_execute(attrs, args, kwargs, result) -> None:
    options = kwargs.get("options")
    attrs["workers"] = options.workers if options is not None else 1
    attrs["chunk_s"] = sum(result.chunk_seconds)
    attrs["chunks"] = len(result.chunk_seconds)
    attrs["work_balance"] = result.work_balance()
    attrs["retries"] = result.metrics.retries
    attrs["kernel_calls"] = result.metrics.kernel_calls
    attrs["vector_calls"] = sum(
        value for key, value in result.metrics.kernel_stats.items()
        if key.startswith("vec_") and key.endswith("_calls"))
    attrs["cache_hits"] = result.metrics.kernel_stats.get("cache_hits", 0)
    attrs["cache_misses"] = result.metrics.kernel_stats.get(
        "cache_misses", 0)


def _note_batch_plan(attrs, args, kwargs, result) -> None:
    attrs["nodes"] = len(result.schedule)
    attrs["eliminated_frac"] = result.sharing.eliminated_fraction


def _note_reply(attrs, args, kwargs, result) -> None:
    responses = result if isinstance(result, list) else [result]
    attrs["answers"] = len(responses)
    attrs["server_s"] = responses[0].seconds
    attrs["plan_hits"] = sum(r.plan_cache_hit for r in responses)
    attrs["rejected"] = sum(
        "admission rejected" in (r.error or "") for r in responses)


# ----------------------------------------------------------------------
# Reduction to per-layer metrics
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _in_flight_overlaps(runs: list[dict]) -> bool:
    ordered = sorted(runs, key=lambda s: s["start"])
    return any(b["start"] < a["end"] for a, b in zip(ordered, ordered[1:]))


def layer_metrics(spans: list[dict], counters: dict,
                  server_stats: dict | None = None) -> tuple[dict, dict]:
    """Reduce spans to ``({metric: value}, {metric: why absent})``.

    Times are totals in seconds over the traced run (set-up included);
    counts are totals; ratios are over the whole run.  A traced run sends
    a fixed number of request blocks, so totals compare across commits.
    A layer the workload never calls reads 0 and gets a reason in the
    second dict.
    Spans from several processes may be mixed: ids are unique per
    process, so parent links are resolved within each ``proc`` tag.
    """
    def key(span, ident=None):
        return span.get("proc", ""), span["id"] if ident is None else ident

    def duration(span):
        return span["end"] - span["start"]

    by_name: dict[str, list[dict]] = defaultdict(list)
    children: dict = defaultdict(list)
    names = {}
    for span in spans:
        by_name[span["name"]].append(span)
        names[key(span)] = span["name"]
        if span["parent"] is not None:
            children[key(span, span["parent"])].append(span)

    def dur(name):
        return sum(duration(s) for s in by_name[name])

    def self_of(name):
        return sum(duration(s) - sum(duration(c) for c in children[key(s)])
                   for s in by_name[name])

    executes = by_name["engine.execute"]
    top_runs = [s for s in executes if s["parent"] is None
                or names[key(s, s["parent"])] != "engine.execute"]

    def subtree_chunk_per_worker(span):
        own = span["attrs"]["chunk_s"] / max(1, span["attrs"]["workers"])
        return own + sum(subtree_chunk_per_worker(c)
                         for c in children[key(span)]
                         if c["name"] == "engine.execute")

    loads = by_name["plancache.load"]
    stores = [s for s in by_name["plancache.store"] if s["attrs"]["stored"]]
    trips = by_name["serve.roundtrip"]
    answers = sum(s["attrs"]["answers"] for s in trips)
    hits = sum(s["attrs"]["cache_hits"] for s in top_runs)
    lookups = hits + sum(s["attrs"]["cache_misses"] for s in top_runs)
    kernel_ok = bool(top_runs) and not _in_flight_overlaps(top_runs)
    plans = by_name["batch.compile"]
    stats = server_stats or {}
    metrics = {
        "graph.build_s": dur("graph.build"),
        "graph.share_s": dur("graph.share"),
        "costmodel.profile_s": dur("costmodel.profile"),
        "costmodel.profile_calls": len(by_name["costmodel.profile"]),
        "compiler.search_s": dur("compiler.search"),
        "compiler.codegen_s": dur("compiler.codegen"),
        "compiler.compile_s": self_of("compiler.compile"),
        "compiler.compile_calls": len(by_name["compiler.compile"]),
        "compiler.candidates": counters.get("compiler.candidates", 0),
        "plancache.load_s": dur("plancache.load"),
        "plancache.store_s": dur("plancache.store"),
        "plancache.hit_ratio": _ratio(
            sum(s["attrs"]["hit"] for s in loads), len(loads)),
        "plancache.bytes": sum(s["attrs"]["bytes"] for s in stores),
        "session.submit_s": dur("session.submit"),
        "session.self_s": self_of("session.submit"),
        "engine.execute_s": sum(duration(s) for s in top_runs),
        "engine.chunk_s": sum(s["attrs"]["chunk_s"] for s in executes),
        "engine.overhead_s": sum(
            duration(s) - subtree_chunk_per_worker(s) for s in top_runs),
        "engine.chunks": sum(s["attrs"]["chunks"] for s in executes),
        "engine.aux_runs": len(executes) - len(top_runs),
        "engine.work_balance": _ratio(
            sum(s["attrs"]["work_balance"] for s in top_runs),
            len(top_runs)),
        # An aux run's retries are already added into its parent's.
        "engine.retries": sum(s["attrs"]["retries"] for s in top_runs),
        "setops.kernel_calls": (
            sum(s["attrs"]["kernel_calls"] for s in top_runs)
            if kernel_ok else 0),
        "setops.vector_calls": (
            sum(s["attrs"]["vector_calls"] for s in top_runs)
            if kernel_ok else 0),
        "setops.cache_hit_ratio": _ratio(hits, lookups) if kernel_ok else 0.0,
        "batch.compile_s": dur("batch.compile"),
        "batch.execute_s": dur("batch.execute"),
        "batch.nodes": sum(s["attrs"]["nodes"] for s in plans),
        "batch.eliminated_frac": _ratio(
            sum(s["attrs"]["eliminated_frac"] for s in plans), len(plans)),
        "serve.roundtrip_s": dur("serve.roundtrip"),
        "serve.server_s": sum(s["attrs"]["server_s"] for s in trips),
        "serve.wait_s": dur("serve.roundtrip") - sum(
            s["attrs"]["server_s"] for s in trips),
        "serve.coalesced_ratio": _ratio(stats.get("coalesced", 0),
                                        stats.get("requests", 0)),
        "serve.plan_hit_ratio": _ratio(
            sum(s["attrs"]["plan_hits"] for s in trips), answers),
        "serve.rejections": sum(s["attrs"]["rejected"] for s in trips),
    }
    absent_when = {  # metric prefix: (span it needs, why it is absent)
        "graph.share_s": ("graph.share", "no shared-memory graph segment "
                          "is created (workers=1, no daemon)"),
        "costmodel.": ("costmodel.profile", "no graph profile is computed"),
        "compiler.": ("compiler.compile", "no plan is compiled"),
        "plancache.": ("plancache.load",
                       "no persistent plan cache is attached"),
        "engine.": ("engine.execute", "no execution was traced"),
        "batch.": ("batch.compile", "the workload sends no batch"),
        "serve.": ("serve.roundtrip", "the workload does not cross the wire"),
    }
    absent = {}
    for prefix, (span_name, why) in absent_when.items():
        if not by_name[span_name]:
            absent.update({m: why for m in metrics if m.startswith(prefix)})
    if not kernel_ok:
        why = ("no execution was traced" if not top_runs else
               "executions overlapped: setops.STATS is process-global and "
               "would mix runs")
        absent.update({m: why for m in metrics if m.startswith("setops.")})
    return metrics, absent
