"""Unit tests for the execution supervisor and its building blocks.

Covers the policy object (`RunBudget`), the checkpoint log, argument
validation, run isolation on the shared worker pool, the
non-POSIX serial fallback, and the serial-path recovery ladder: retry
with backoff, retry exhaustion, deadlines, and checkpoint/resume.
Pool-path recovery under injected faults lives in
``test_supervisor_faults.py``.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.baselines import reference
from repro.compiler.pipeline import compile_pattern
from repro.costmodel import profile_graph
from repro.exceptions import ExecutionError, ReproError
from repro.graph.generators import erdos_renyi
from repro.patterns import catalog
from repro.runtime.context import ExecutionContext
from repro.runtime.engine import (
    EngineOptions,
    ExecutionResult,
    chunk_ranges,
    execute_plan,
)
from repro.runtime.faults import Fault, FaultPlan, InjectedFault
from repro.runtime.supervisor import (
    CheckpointStore,
    RunBudget,
    RunPolicy,
    plan_fingerprint,
)


@pytest.fixture(scope="module")
def case():
    graph = erdos_renyi(16, 0.35, seed=3)
    profile = profile_graph(graph, max_pattern_size=3, trials=60)
    plan = compile_pattern(catalog.house(), profile)
    expected = reference.count_embeddings(graph, catalog.house())
    return graph, plan, expected


class TestRunBudget:
    def test_defaults_are_finite(self):
        budget = RunBudget()
        assert budget.deadline_s is None
        assert budget.max_chunk_retries >= 1
        assert budget.max_pool_restarts >= 1

    @pytest.mark.parametrize("kwargs", [
        {"deadline_s": -1.0},
        {"chunk_timeout_s": 0.0},
        {"max_chunk_retries": -1},
        {"max_retries": -2},
        {"backoff_s": -0.1},
        {"max_pool_restarts": -1},
        {"poll_interval_s": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ExecutionError):
            RunBudget(**kwargs)

    def test_backoff_is_capped_exponential(self):
        budget = RunBudget(backoff_s=0.1, backoff_cap_s=0.5)
        assert budget.backoff_for(1) == pytest.approx(0.1)
        assert budget.backoff_for(2) == pytest.approx(0.2)
        assert budget.backoff_for(3) == pytest.approx(0.4)
        assert budget.backoff_for(4) == pytest.approx(0.5)  # capped
        assert budget.backoff_for(10) == pytest.approx(0.5)


class TestFaultPlan:
    def test_seeded_is_deterministic(self):
        a = FaultPlan.seeded(7, 8, exception_rate=0.5, death_rate=0.2,
                             delay_rate=0.3)
        b = FaultPlan.seeded(7, 8, exception_rate=0.5, death_rate=0.2,
                             delay_rate=0.3)
        assert a.faults == b.faults

    def test_fires_only_on_listed_attempts(self):
        plan = FaultPlan((Fault("raise", 0, attempts=(1, 3)),))
        with pytest.raises(InjectedFault):
            plan.fire(0, 1)
        plan.fire(0, 2)  # no fault
        with pytest.raises(InjectedFault):
            plan.fire(0, 3)
        plan.fire(1, 1)  # other chunks untouched

    def test_die_simulated_in_process(self):
        plan = FaultPlan((Fault("die", 0),))
        with pytest.raises(InjectedFault, match="death"):
            plan.fire(0, 1, allow_exit=False)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Fault("meltdown", 0)


class TestValidation:
    def test_workers_below_one(self, case):
        graph, plan, _ = case
        with pytest.raises(ExecutionError, match="workers"):
            execute_plan(plan, graph, options=EngineOptions(workers=0))

    def test_chunks_per_worker_below_one(self, case):
        graph, plan, _ = case
        with pytest.raises(ExecutionError, match="chunks_per_worker"):
            execute_plan(
                plan, graph, options=EngineOptions(chunks_per_worker=0))

    def test_execution_error_is_repro_error(self):
        assert issubclass(ExecutionError, ReproError)

    def test_emit_mode_rejects_supervision(self, case):
        graph, _, _ = case
        profile = profile_graph(graph, max_pattern_size=3, trials=60)
        plan = compile_pattern(catalog.chain(3), profile, mode="emit")
        with pytest.raises(ExecutionError, match="emit"):
            execute_plan(plan, graph, policy=RunBudget())


class TestCheckpointStore:
    def test_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.jsonl")
        store.record("k1", 0, (0, 4), {"acc_count": 7}, 0.5,
                     {"cache_hits": 1}, 2)
        store.record("k1", 3, (12, 16), {"acc_count": 9}, 0.1, {}, 1)
        store.record("k2", 0, (0, 4), {"acc_count": 99}, 0.1, {}, 1)
        store.close()
        loaded = CheckpointStore(tmp_path / "ck.jsonl").load("k1")
        assert sorted(loaded) == [0, 3]
        assert loaded[0]["accumulators"] == {"acc_count": 7}
        assert loaded[0]["attempts"] == 2
        assert loaded[3]["bounds"] == [12, 16]

    def test_missing_file_loads_empty(self, tmp_path):
        assert CheckpointStore(tmp_path / "nope.jsonl").load("k") == {}

    def test_torn_line_is_skipped(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        good = json.dumps({"plan": "k", "chunk": 1, "bounds": [0, 2],
                           "accumulators": {}, "seconds": 0.1, "stats": {},
                           "attempts": 1})
        path.write_text(good + "\n" + '{"plan": "k", "chunk": 2, "bo')
        loaded = CheckpointStore(path).load("k")
        assert sorted(loaded) == [1]

    def test_fingerprint_sensitivity(self, case):
        graph, plan, _ = case
        base = plan_fingerprint(plan, graph, "codegen", 8)
        assert base == plan_fingerprint(plan, graph, "codegen", 8)
        assert base != plan_fingerprint(plan, graph, "interpreter", 8)
        assert base != plan_fingerprint(plan, graph, "codegen", 4)
        other = erdos_renyi(18, 0.3, seed=4)
        assert base != plan_fingerprint(plan, other, "codegen", 8)


class TestSupervisedExecution:
    def test_serial_supervised_matches_unsupervised(self, case):
        graph, plan, expected = case
        result = execute_plan(plan, graph, policy=RunPolicy(
            budget=RunBudget(), supervised=True))
        assert result.embedding_count == expected
        assert result.ok
        assert result.metrics.retries == 0
        assert result.metrics.resumed_chunks == 0
        # One timing entry per chunk, not one for the whole run.
        assert len(result.chunk_seconds) == len(chunk_ranges(
            graph.num_vertices, 4))

    def test_pool_supervised_matches(self, case):
        graph, plan, expected = case
        result = execute_plan(plan, graph, options=EngineOptions(workers=2))
        assert result.embedding_count == expected
        assert result.metrics.pool_restarts == 0
        assert result.metrics.kernel_calls > 0

    def test_retry_recovers_exact_count(self, case):
        graph, plan, expected = case
        faults = FaultPlan((Fault("raise", 0), Fault("raise", 2)))
        ctx = ExecutionContext(plan.root.num_tables, faults=faults)
        result = execute_plan(plan, graph, ctx=ctx,
                              policy=RunBudget(backoff_s=0.001))
        assert result.embedding_count == expected
        assert result.metrics.retries == 2
        assert result.ok

    def test_retry_exhaustion_surfaces_chunk_failure(self, case):
        graph, plan, _ = case
        faults = FaultPlan((Fault("raise", 1, attempts=None),))
        ctx = ExecutionContext(plan.root.num_tables, faults=faults)
        result = execute_plan(
            plan, graph, ctx=ctx,
            policy=RunBudget(max_chunk_retries=2, backoff_s=0.001),
        )
        assert not result.ok
        [failure] = result.failures
        assert failure.index == 1
        assert failure.reason == "exception"
        assert failure.attempts == 3  # 1 try + 2 retries
        assert failure.bounds in chunk_ranges(graph.num_vertices, 4)
        assert "InjectedFault" in failure.error
        assert failure.exc_chain
        assert result.metrics.retries == 2
        with pytest.raises(ExecutionError, match="incomplete"):
            _ = result.embedding_count

    def test_global_retry_budget(self, case):
        graph, plan, _ = case
        faults = FaultPlan((Fault("raise", 0, attempts=None),
                            Fault("raise", 1, attempts=None)))
        ctx = ExecutionContext(plan.root.num_tables, faults=faults)
        result = execute_plan(
            plan, graph, ctx=ctx,
            policy=RunBudget(max_chunk_retries=10, max_retries=3,
                             backoff_s=0.001),
        )
        assert not result.ok
        assert result.metrics.retries <= 3
        assert any(f.reason == "retry-budget" for f in result.failures)

    def test_deadline_fails_remaining_chunks(self, case):
        graph, plan, _ = case
        faults = FaultPlan(tuple(
            Fault("delay", chunk, attempts=None, delay_s=0.05)
            for chunk in range(4)
        ))
        ctx = ExecutionContext(plan.root.num_tables, faults=faults)
        result = execute_plan(plan, graph, ctx=ctx,
                              policy=RunBudget(deadline_s=0.06))
        assert not result.ok
        assert {f.reason for f in result.failures} == {"deadline"}
        # Some chunks finished before the deadline, some did not.
        assert 0 < len(result.failures) < 4

    def test_zero_deadline_fails_everything_without_running(self, case):
        graph, plan, _ = case
        result = execute_plan(plan, graph, policy=RunBudget(deadline_s=0.0))
        assert not result.ok
        assert len(result.failures) == len(chunk_ranges(
            graph.num_vertices, 4))
        assert result.raw_count == 0


class TestCheckpointResume:
    def test_failed_then_resumed_run_is_exact(self, case, tmp_path):
        graph, plan, expected = case
        path = tmp_path / "run.jsonl"
        faults = FaultPlan((Fault("raise", 1, attempts=None),))
        ctx = ExecutionContext(plan.root.num_tables, faults=faults)
        with CheckpointStore(path) as store:
            first = execute_plan(
                plan, graph, ctx=ctx,
                policy=RunPolicy(
                    budget=RunBudget(max_chunk_retries=1, backoff_s=0.001),
                    checkpoint=store,
                ),
            )
        assert not first.ok
        # Resume without faults: only the failed chunk re-executes.
        with CheckpointStore(path) as store:
            second = execute_plan(plan, graph, policy=RunPolicy(
                checkpoint=store, supervised=True))
        assert second.embedding_count == expected
        assert second.metrics.resumed_chunks == 3
        assert second.metrics.retries == 0
        # A third run resumes everything.
        with CheckpointStore(path) as store:
            third = execute_plan(plan, graph,
                                 policy=RunPolicy(checkpoint=store))
        assert third.embedding_count == expected
        assert third.metrics.resumed_chunks == 4

    def test_checkpoint_accepts_path(self, case, tmp_path):
        graph, plan, expected = case
        path = tmp_path / "by-path.jsonl"
        first = execute_plan(plan, graph,
                             policy=RunPolicy(checkpoint=str(path)))
        assert first.embedding_count == expected
        second = execute_plan(plan, graph,
                              policy=RunPolicy(checkpoint=str(path)))
        assert second.embedding_count == expected
        assert second.metrics.resumed_chunks == 4

    def test_mismatched_chunking_ignores_records(self, case, tmp_path):
        graph, plan, expected = case
        path = tmp_path / "run.jsonl"
        execute_plan(plan, graph, policy=RunPolicy(checkpoint=str(path)))
        # Different chunk count -> different fingerprint -> clean re-run.
        result = execute_plan(
            plan, graph, options=EngineOptions(chunks_per_worker=8),
            policy=RunPolicy(checkpoint=str(path)),
        )
        assert result.embedding_count == expected
        assert result.metrics.resumed_chunks == 0

    def test_aux_plans_share_the_checkpoint(self, tmp_path):
        """Global-shrinkage corrections resume exactly too."""
        from repro.compiler.pipeline import compile_spec
        from repro.compiler.specs import DecompSpec
        from repro.patterns.decomposition import all_decompositions
        from repro.patterns.isomorphism import automorphism_count
        from repro.patterns.matching_order import extension_orders

        graph = erdos_renyi(16, 0.35, seed=3)
        profile = profile_graph(graph, max_pattern_size=3, trials=60)
        pattern = catalog.house()
        deco = next(
            d for d in all_decompositions(pattern) if d.shrinkages
        )
        ext = tuple(
            extension_orders(pattern, deco.cutting_set, s.component)[0]
            for s in deco.subpatterns
        )
        plan = compile_spec(DecompSpec(deco, deco.cutting_set, ext,
                                       include_shrinkages=False))
        aux = []
        for shrinkage in deco.shrinkages:
            qplan = compile_pattern(shrinkage.pattern, profile)
            aux.append((
                qplan,
                automorphism_count(shrinkage.pattern) // qplan.info.divisor,
            ))
        plan.aux_plans = tuple(aux)
        assert plan.aux_plans
        expected = reference.count_embeddings(graph, pattern)
        path = tmp_path / "aux.jsonl"
        first = execute_plan(plan, graph,
                             policy=RunPolicy(checkpoint=str(path)))
        assert first.embedding_count == expected
        second = execute_plan(plan, graph,
                              policy=RunPolicy(checkpoint=str(path)))
        assert second.embedding_count == expected
        # The second run resumes every chunk: the main plan's four plus
        # four per aux execution.  (Duplicate quotient plans share one
        # fingerprint, so even the *first* run may resume a repeated aux
        # plan's chunks — sound, because identical plans on the same
        # graph produce identical chunk accumulators.)
        assert second.metrics.resumed_chunks == 4 * (1 + len(plan.aux_plans))
        assert second.metrics.resumed_chunks > first.metrics.resumed_chunks


class TestPoolIsolation:
    """Runs share one persistent worker pool; each must still see only
    its own plan and its own results."""

    def test_concurrent_runs_never_mix_results(self, case):
        import threading

        graph, plan, expected = case
        profile = profile_graph(graph, max_pattern_size=3, trials=60)
        other = compile_pattern(catalog.triangle(), profile)
        other_expected = reference.count_embeddings(graph, catalog.triangle())
        results: dict = {}

        def run(name, which):
            results[name] = [
                execute_plan(which, graph, options=EngineOptions(workers=2))
                .embedding_count
                for _ in range(5)
            ]

        threads = [threading.Thread(target=run, args=(name, which))
                   for name, which in (("house", plan), ("triangle", other),
                                       ("house2", plan))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the runs' threads hard
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {"house": [expected] * 5,
                           "house2": [expected] * 5,
                           "triangle": [other_expected] * 5}

    def test_worker_runs_the_plan_its_task_names(self, case):
        from queue import SimpleQueue

        from repro.graph import shared
        from repro.runtime.pool import Task, frame_blob, get_pool

        graph, plan, expected = case
        profile = profile_graph(graph, max_pattern_size=3, trials=60)
        decoy = compile_pattern(catalog.triangle(), profile)
        plans = {"house": plan, "decoy": decoy}
        pool = get_pool(2)
        events = SimpleQueue()
        with shared.share_graph(graph) as handle:
            blob = frame_blob(handle.descriptor, "codegen", True, (), None,
                              None, False)
            tasks = [pool.submit(Task(plans[name], blob, index, 2,
                                      (0, graph.num_vertices), events))
                     for index, name in enumerate(
                         ["decoy", "house", "decoy", "house"])]
            replies = {}
            for _ in tasks:
                task, kind, payload = events.get(timeout=30)
                assert kind == "ok"
                replies[task.index] = payload
        for index in (1, 3):
            seen_index, attempt, accumulators, seconds, _stats, spans = (
                replies[index]
            )
            assert (seen_index, attempt) == (index, 2)
            assert accumulators["acc_count"] // plan.info.divisor == expected
            assert seconds > 0
            assert spans == []  # tracing disabled: no worker spans shipped
        triangles = reference.count_embeddings(graph, catalog.triangle())
        assert (replies[0][2]["acc_count"] // decoy.info.divisor
                == triangles)

    def test_plan_registrations_are_unique(self, case):
        import copy
        from dataclasses import replace

        graph, plan, _ = case
        profile = profile_graph(graph, max_pattern_size=3, trials=60)
        keys = {compile_pattern(p, profile).frozen_ir[0]
                for p in (catalog.triangle(), catalog.house(),
                          catalog.cycle(4), catalog.clique(4))}
        assert len(keys) == 4
        # Equal IR in another plan object is one registration: a worker
        # that has lowered it once is never shipped it again.
        twin = replace(plan, root=copy.deepcopy(plan.root))
        assert twin is not plan
        assert twin.frozen_ir[0] == plan.frozen_ir[0]


class TestNonPosixFallback:
    """The serial fallback for hosts without ``os.fork``."""

    def test_legacy_fallback_merges_stats_and_times(self, case, monkeypatch):
        graph, plan, expected = case
        serial = execute_plan(plan, graph)
        monkeypatch.delattr(os, "fork")
        result = execute_plan(plan, graph, options=EngineOptions(workers=3),
                              policy=RunPolicy(supervised=False))
        assert result.embedding_count == expected
        assert result.accumulators == serial.accumulators
        # One timing entry per chunk and merged kernel/cache counters.
        assert len(result.chunk_seconds) == len(chunk_ranges(
            graph.num_vertices, 12))
        assert result.metrics.kernel_calls > 0
        assert result.metrics.kernel_stats.get("cache_misses", 0) > 0

    def test_supervised_fallback_still_recovers(self, case, monkeypatch):
        graph, plan, expected = case
        monkeypatch.delattr(os, "fork")
        faults = FaultPlan((Fault("raise", 0), Fault("die", 2)))
        ctx = ExecutionContext(plan.root.num_tables, faults=faults)
        result = execute_plan(plan, graph, ctx=ctx,
                              options=EngineOptions(workers=3),
                              policy=RunBudget(backoff_s=0.001))
        assert result.embedding_count == expected
        assert result.metrics.retries == 2  # the die is simulated in-process
        assert result.metrics.pool_restarts == 0


class TestSessionPolicy:
    def test_run_policy_threads_through_session(self, case, tmp_path):
        from repro.api.session import DecoMine

        graph, _, expected = case
        policy = RunPolicy(budget=RunBudget(backoff_s=0.001),
                           checkpoint=str(tmp_path / "session.jsonl"),
                           supervised=True)
        session = DecoMine(graph, run_policy=policy)
        assert session.get_pattern_count(catalog.house()) == expected
        assert session.last_result is not None
        assert session.last_result.ok
        # Second session resumes from the first one's checkpoint.
        resumed = DecoMine(graph, run_policy=policy)
        assert resumed.get_pattern_count(catalog.house()) == expected
        assert resumed.last_result.metrics.resumed_chunks > 0

    def test_bare_budget_is_wrapped(self, case):
        from repro.api.session import DecoMine

        graph, _, expected = case
        session = DecoMine(graph, run_policy=RunBudget(deadline_s=30.0))
        assert session.get_pattern_count(catalog.house()) == expected
        assert isinstance(session.run_policy, RunPolicy)

    def test_emit_mode_ignores_run_policy(self, case):
        from repro.api.session import DecoMine

        graph, _, _ = case
        session = DecoMine(graph, run_policy=RunBudget())
        seen = []
        count = session.mine(catalog.triangle(), seen.append)
        assert count == reference.count_embeddings(graph, catalog.triangle())
        assert seen


class TestExecutionResultRecord:
    def test_new_fields_default_empty(self):
        result = ExecutionResult({"acc_count": 6}, 0.1, divisor=6)
        assert result.ok
        assert result.metrics.retries == 0
        assert result.metrics.resumed_chunks == 0
        assert result.metrics.pool_restarts == 0
        assert result.embedding_count == 1
