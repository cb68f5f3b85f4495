"""The persistent worker pool: one fork per process, bounded worker state.

Structural checks on :mod:`repro.runtime.pool` — after a warm-up run,
parallel runs over every executor, decomposed plans with aux
corrections and whole batches reuse the same worker processes (no fork
per run); worker-side caches stay bounded and never pin segments their
owner has unlinked; and a killed daemon leaves no orphaned workers.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api.messages import MiningRequest
from repro.api.session import DecoMine
from repro.baselines import reference
from repro.compiler.pipeline import compile_pattern, compile_spec
from repro.compiler.specs import DecompSpec
from repro.costmodel import profile_graph
from repro.exceptions import ReproError
from repro.graph import shared
from repro.graph.generators import erdos_renyi
from repro.patterns import catalog
from repro.patterns.decomposition import all_decompositions
from repro.patterns.generation import all_connected_patterns
from repro.patterns.isomorphism import automorphism_count
from repro.patterns.matching_order import extension_orders
from repro.runtime import resources
from repro.runtime.engine import EXECUTORS, EngineOptions, execute_plan
from repro.runtime.faults import Fault, FaultPlan
from repro.runtime.pool import PARENT_POLL_S, PLAN_MEMO, get_pool
from repro.runtime.supervisor import RunBudget, RunPolicy

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the worker pool needs fork")

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def env():
    graph = erdos_renyi(16, 0.35, seed=3)
    profile = profile_graph(graph, max_pattern_size=3, trials=60)
    return graph, profile


def decomposed_house(profile):
    """A house plan whose shrinkage corrections run as aux plans."""
    pattern = catalog.house()
    deco = next(d for d in all_decompositions(pattern) if d.shrinkages)
    ext = tuple(extension_orders(pattern, deco.cutting_set, s.component)[0]
                for s in deco.subpatterns)
    plan = compile_spec(DecompSpec(deco, deco.cutting_set, ext,
                                   include_shrinkages=False))
    aux = []
    for shrinkage in deco.shrinkages:
        qplan = compile_pattern(shrinkage.pattern, profile)
        aux.append((qplan, automorphism_count(shrinkage.pattern)
                    // qplan.info.divisor))
    plan.aux_plans = tuple(aux)
    return plan


def child_pids() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


class TestNoForkPerRun:
    def test_runs_aux_plans_and_batches_reuse_the_workers(self, env):
        graph, profile = env
        parallel = EngineOptions(workers=2)
        plans = [compile_pattern(p, profile)
                 for p in (catalog.triangle(), catalog.house(),
                           catalog.cycle(4), catalog.clique(4))]
        execute_plan(plans[0], graph, options=parallel)  # warm-up
        pool = get_pool(2)
        restarts, children = pool.restarts, child_pids()

        for run in range(10):
            plan = plans[run % len(plans)]
            executor = EXECUTORS[run % len(EXECUTORS)]
            serial = execute_plan(plan, graph,
                                  options=EngineOptions(executor=executor))
            result = execute_plan(
                plan, graph,
                options=EngineOptions(workers=2, executor=executor),
            )
            assert result.accumulators == serial.accumulators

        decomposed = decomposed_house(profile)
        assert decomposed.aux_plans
        result = execute_plan(decomposed, graph, options=parallel)
        assert result.embedding_count == reference.count_embeddings(
            graph, catalog.house())
        assert result.accumulators == execute_plan(
            decomposed, graph).accumulators

        requests = [MiningRequest(pattern=p) for p in
                    (catalog.triangle(), catalog.house(), catalog.cycle(4),
                     catalog.triangle())]
        batched = DecoMine(graph, engine=parallel).submit_batch(requests)
        serial = DecoMine(graph).submit_batch(requests)
        assert [r.count for r in batched] == [r.count for r in serial]

        assert child_pids() == children  # the same worker pids
        assert pool.restarts == restarts
        assert shared.active_segments() == []


class TestBoundedWorkerState:
    def test_attachments_and_plan_memo_stay_bounded(self, env):
        _, profile = env
        graphs = [erdos_renyi(14 + i, 0.35, seed=10 + i) for i in range(5)]
        patterns = [catalog.triangle(), catalog.house(), catalog.cycle(4),
                    catalog.clique(4)]
        for run in range(20):
            graph = graphs[run % 5]
            plan = compile_pattern(patterns[run % 4], profile)
            result = execute_plan(plan, graph,
                                  options=EngineOptions(workers=2))
            assert result.embedding_count == reference.count_embeddings(
                graph, patterns[run % 4])
        assert shared.active_segments() == []

        # More distinct plans than a worker memoizes.
        motifs = [compile_pattern(p, profile, orientation=orientation)
                  for orientation in ("none", "degree")
                  for k in (3, 4, 5) for p in all_connected_patterns(k)]
        keys = {plan.frozen_ir[0] for plan in motifs}
        keys |= {aux.frozen_ir[0] for plan in motifs
                 for aux, _ in plan.aux_plans}
        assert len(keys) > PLAN_MEMO
        for plan in motifs:
            assert execute_plan(
                plan, graphs[0], options=EngineOptions(workers=2),
            ).accumulators == execute_plan(plan, graphs[0]).accumulators

        time.sleep(0.6)  # idle workers drop unlinked segments
        states = get_pool(2).worker_state()
        assert states
        for state in states:
            assert len(state["attached"]) <= shared.ATTACH_LIMIT
            for name in state["attached"]:
                assert os.path.exists(os.path.join("/dev/shm", name))
            assert state["plans"] <= PLAN_MEMO

    @pytest.mark.skipif(not Path("/proc/self/maps").exists(),
                        reason="needs /proc to read worker mappings")
    def test_worker_forked_while_a_segment_lives_unmaps_it(self, env):
        graph, _ = env
        pool = get_pool(2)
        old = {state["pid"] for state in pool.worker_state()}
        handle = shared.share_graph(graph)
        try:
            pool.recycle_idle()  # replacements fork while it is live
            deadline = time.monotonic() + 10.0
            while True:
                pids = {state["pid"] for state in pool.worker_state()}
                if len(pids) == 2 and not pids & old:
                    break
                assert time.monotonic() < deadline, "workers not replaced"
                time.sleep(0.05)
            assert all(_maps_segment(pid, handle.name) for pid in pids)
        finally:
            handle.close()
        time.sleep(3 * PARENT_POLL_S)  # idle workers drop unlinked segments
        assert [pid for pid in pids if _maps_segment(pid, handle.name)] == []


class TestWatchdogOnPool:
    def test_rss_breach_recycles_idle_workers_once(self, env, monkeypatch):
        graph, profile = env
        plan = compile_pattern(catalog.house(), profile)
        breached = []

        def sample(pid):  # one breach, sampled from a busy worker
            if pid != os.getpid() and not breached:
                breached.append(pid)
                return 1 << 40
            return 1

        monkeypatch.setattr(resources, "sample_rss", sample)
        faults = FaultPlan(tuple(Fault("delay", chunk, delay_s=0.05)
                                 for chunk in range(8)))
        result = execute_plan(
            plan, graph, options=EngineOptions(workers=2, faults=faults),
            policy=RunPolicy(
                budget=RunBudget(backoff_s=0.001), supervised=True,
                resources=resources.ResourceBudget(
                    max_rss_bytes=1 << 30, watchdog_interval_s=0.005),
            ),
        )
        assert breached
        assert result.embedding_count == reference.count_embeddings(
            graph, catalog.house())
        assert result.metrics.watchdog_kills == 1
        # The recycle is the one restart: no chunk was sent to a worker
        # it killed, so the run never degraded to serial.
        assert result.metrics.pool_restarts == 1
        assert result.metrics.retries == 0
        assert shared.active_segments() == []


def _maps_segment(pid: int, name: str) -> bool:
    return name in Path(f"/proc/{pid}/maps").read_text()


def _parent_of(pid: int) -> int | None:
    """Parent pid of a live (non-zombie) process, else None."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = stat[stat.rindex(")") + 2:].split()
    return None if fields[0] == "Z" else int(fields[1])


def _children_of(pid: int) -> list[int]:
    return [int(entry) for entry in os.listdir("/proc")
            if entry.isdigit() and _parent_of(int(entry)) == pid]


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc to find the daemon's workers")
class TestNoOrphanedWorkers:
    def test_sigkilled_daemon_leaves_no_workers(self, tmp_path):
        from repro.serve import Client

        before = child_pids()
        sock = str(tmp_path / "d.sock")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--dataset", "mc",
             "--socket", sock, "--workers", "2"],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while True:
                try:
                    with Client(sock, client_id="t") as client:
                        reply = client.submit(catalog.triangle())
                    break
                except (ReproError, OSError):
                    assert daemon.poll() is None, "daemon exited early"
                    assert time.monotonic() < deadline, "daemon not ready"
                    time.sleep(0.05)
            assert reply.ok
            workers = _children_of(daemon.pid)
            assert len(workers) >= 2
        finally:
            daemon.send_signal(signal.SIGKILL)
            daemon.wait()
        deadline = time.monotonic() + 5.0
        while (alive := [p for p in workers if _parent_of(p) is not None]):
            assert time.monotonic() < deadline, f"orphaned workers {alive}"
            time.sleep(0.05)
        assert _children_of(daemon.pid) == []
        assert child_pids() <= before
