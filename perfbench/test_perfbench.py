"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench -q

The end-to-end cases run ``run.py`` with ``--seconds 1``; a run still
times at least 100 requests, so each takes tens of seconds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from tracer import layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    EXPECTED,
    GRAPH,
    TRACED_BLOCKS,
    WORKLOADS,
    load_expected,
    percentile,
    request_blocks,
)


def _run(*args: str, timeout: float = 170.0) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=timeout, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stdout + proc.stderr


_SEQUENCE_SCRIPT = """
import json, sys
sys.path[:0] = [{here!r}, {src!r}]
from workloads import GRAPH, load_expected, request_blocks
names = list(load_expected(GRAPH[{workload!r}]))
sys.stdout.write(json.dumps(request_blocks({workload!r}, 11, names)))
"""


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_sequence(workload):
    script = _SEQUENCE_SCRIPT.format(here=str(HERE), src=str(ROOT / "src"),
                                     workload=workload)
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        outputs.append(subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            check=True, env=env, timeout=60).stdout)
    assert outputs[0] == outputs[1]
    names = list(load_expected(GRAPH[workload]))
    other = json.dumps(request_blocks(workload, 12, names)).encode()
    assert other != outputs[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_block_has_the_same_mix(workload):
    names = list(load_expected(GRAPH[workload]))
    blocks = request_blocks(workload, 3, names, blocks=3)
    mixes = [sorted(name for request in block for name in request)
             for block in blocks]
    assert mixes[0] == mixes[1] == mixes[2]
    assert set(mixes[0]) == set(names)
    sizes = sorted(len(request) for request in blocks[0])
    assert sizes[-1] == (4 if workload == "daemon-mix" else 1)


def test_percentiles_have_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    for q in (0.5, 0.9):
        _, beyond = percentile(samples, q)
        assert beyond >= 10


def test_self_time_subtracts_direct_children():
    spans = [
        {"id": 1, "name": "session.submit", "parent": None, "request": "r",
         "start": 0.0, "end": 1.0, "attrs": {}},
        {"id": 2, "name": "compiler.compile", "parent": 1, "request": "r",
         "start": 0.1, "end": 0.5, "attrs": {}},
        {"id": 3, "name": "compiler.search", "parent": 2, "request": "r",
         "start": 0.1, "end": 0.4, "attrs": {}},
    ]
    metrics, absent = layer_metrics(spans, {})
    assert metrics["session.self_s"] == pytest.approx(0.6)
    assert metrics["compiler.compile_s"] == pytest.approx(0.1)
    assert "serve.roundtrip_s" in absent


def _copy_benchmark(tmp_path: Path) -> Path:
    """The benchmark's code alone in ``tmp_path/perfbench``."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracer.py"):
        (bench / name).write_bytes((HERE / name).read_bytes())
    return bench


def test_retries_count_outermost_runs_only():
    # execute_plan adds an aux run's retries into its parent's metrics.
    def execute(ident, parent, retries):
        return {"id": ident, "name": "engine.execute", "parent": parent,
                "request": "r", "start": 0.0, "end": 1.0,
                "attrs": {"workers": 1, "chunk_s": 0.5, "chunks": 1,
                          "work_balance": 1.0, "retries": retries,
                          "kernel_calls": 0, "vector_calls": 0,
                          "cache_hits": 0, "cache_misses": 0}}

    metrics, _ = layer_metrics([execute(2, 1, 1), execute(1, None, 3)], {})
    assert metrics["engine.retries"] == 3
    assert metrics["engine.aux_runs"] == 1


def test_corrupted_expected_count_fails_the_run(tmp_path):
    data = json.loads(EXPECTED.read_text())
    first = request_blocks("cold-start", 0, list(load_expected("mc")))[0][0][0]
    for entry in data["graphs"]["mc"]["patterns"]:
        if entry["name"] == first:
            entry["count"] += 1
    bench = _copy_benchmark(tmp_path)
    (bench / "expected_counts.json").write_text(json.dumps(data))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "cold-start",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    code, output = proc.returncode, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code != 0, output
    assert result is not None and result["correct"] is False
    assert result["failed"] >= 1


def test_traced_and_untraced_runs_agree_and_report_every_metric():
    code, result, output = _run("--workload", "cold-start", "--seed", "5",
                                "--seconds", "1", "--trace", "1")
    assert code == 0, output
    assert result["correct"] is True and result["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}
    # The traced half sends a fixed number of blocks, whatever the time.
    block = len(request_blocks("cold-start", 5, list(load_expected("mc")),
                               blocks=1)[0])
    expected_requests = TRACED_BLOCKS["cold-start"] * block
    assert result["metrics"]["trace.requests"]["value"] == expected_requests
    record = json.loads(
        (HERE / "results" / "cold-start-seed5-trace1.json").read_text())
    latencies = record["latencies_s"]
    for q in (0.5, 0.9):
        assert percentile(latencies, q)[1] >= 10


def test_audit_finds_processes_left_in_the_run_directory(tmp_path):
    from run import marked_processes
    from workloads import RUN_MARKER

    env = dict(os.environ, **{RUN_MARKER: str(tmp_path / "plain")})
    child = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(60)"], env=env)
    try:
        assert child.pid in marked_processes(tmp_path)
    finally:
        child.kill()
        child.wait(timeout=10)
    assert child.pid not in marked_processes(tmp_path)


def test_missing_program_exits_nonzero_without_result(tmp_path):
    bench = _copy_benchmark(tmp_path)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "cold-start",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
