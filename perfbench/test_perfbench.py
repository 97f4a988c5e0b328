"""Self-tests of the benchmark (smoke scale, ~20 s).

Run with ``PYTHONPATH=src python -m pytest perfbench``.  The smoke runs
go through the real command line, so they also cover argument parsing,
result files and exit codes.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pb_trace  # noqa: E402
import run as pb_run  # noqa: E402
from pb_workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 3


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bench(args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke_runs():
    """One traced smoke run per workload, with REPRO_OBS=on in the
    environment (the benchmark must still time with tracing off)."""
    env = dict(os.environ, REPRO_OBS="on")
    out = {}
    for name in WORKLOADS:
        proc = _bench(["--workload", name, "--seed", str(SEED), "--seconds", "1",
                       "--trace", "1", "--scale", "tiny"], env=env)
        path = os.path.join(HERE, "out", f"{name}_s{SEED}_smoke.json")
        with open(path) as fh:
            record = json.load(fh)
        out[name] = (proc, json.loads(proc.stdout.strip().splitlines()[-1]), record)
    return out


def test_metric_names_match_the_declaration():
    doc = _declared()
    declared = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    names = list(declared) + list(layer) + [w["name"] for w in doc["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert declared == pb_run.END_TO_END
    assert layer == pb_run.PER_LAYER
    # every declared workload exists; tables_small runs but is not gated
    assert {w["name"] for w in doc["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_emits_every_metric(smoke_runs, name):
    proc, last, record = smoke_runs[name]
    assert proc.returncode == 0, proc.stderr
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == pb_run.PER_LAYER
    assert {k: v["unit"] for k, v in record["end_to_end"].items()} == pb_run.END_TO_END
    assert all(isinstance(v["value"], (int, float)) for v in last["metrics"].values())
    # a smoke result is tagged and named so it cannot pass for a full run
    assert record["kind"] == "smoke" and record["provenance"]["scale"] == "tiny"
    for key in ("git_commit", "src_sha256", "seed", "params", "nproc", "python", "numpy"):
        assert key in record["provenance"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_setup_and_timed_section_do_not_overlap(smoke_runs, name):
    iv = smoke_runs[name][2]["intervals"]
    assert len(iv["setup"]) == pb_run.SETUP_REPEATS
    assert max(end for _, end in iv["setup"]) <= iv["timed"][0] < iv["timed"][1]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_timed_passes_run_with_the_tracer_off(smoke_runs, name):
    # the runner fails the run if any timed pass saw an enabled tracer
    _, last, record = smoke_runs[name]
    assert last["correct"] and not record["failures"]


def test_trace_file_renders_with_repro_obs(smoke_runs):
    from repro.obs import load_trace, summarize

    trace = load_trace(smoke_runs["sweep_noreuse"][2]["trace_file"])
    summary = summarize(trace)
    assert summary["n_spans"] > 0
    assert "bench.step" in summary["phases"]
    assert "core.executor" in summary["names"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_determines_the_inputs(name, tmp_path):
    def fingerprint(seed):
        wl = WORKLOADS[name](seed, "tiny", str(tmp_path))
        wl.make_inputs()
        return wl.fingerprint()

    assert fingerprint(5) == fingerprint(5)
    assert fingerprint(5) != fingerprint(6)


def test_probes_record_spans_and_restore_every_attribute():
    import repro.core.program as program
    from repro.machine.machine import Machine
    from repro.workloads.euler import euler_edge_loop, setup_euler_program
    from repro.workloads.mesh import generate_mesh

    before = (program.run_executor, Machine.exchange)
    rec = pb_trace.SpanRecorder()
    undo = pb_trace.install_probes(rec)
    try:
        assert program.run_executor is not before[0]
        mesh = generate_mesh(200, seed=0, cache=False)
        prog = setup_euler_program(Machine(4), mesh)
        prog.forall(euler_edge_loop(mesh), n_times=2)
    finally:
        pb_trace.restore_probes(undo)
    assert (program.run_executor, Machine.exchange) == before
    assert pb_trace.leftover_probes() == []
    times = pb_trace.layer_times(rec.spans)
    assert times["core.executor"]["calls"] == 2
    assert times["core.inspector"]["calls"] == 1
    for t in times.values():
        assert 0 <= t["self_s"] <= t["busy_s"]


def test_cpu_clock_counts_child_processes():
    from pb_workloads import CpuClock

    burn = ("import time\n"
            "t = time.process_time()\n"
            "while time.process_time() - t < 0.3: pass\n"
            "print('done', flush=True)\n"
            "time.sleep(60)\n")
    own, tree = CpuClock(), CpuClock(tree=True)
    c0, t0 = own.read(), tree.read()
    child = subprocess.Popen([sys.executable, "-c", burn], stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline().strip() == "done"
        c1, t1 = own.read(), tree.read()
    finally:
        child.kill()
        child.wait()
    assert t1 - t0 >= 0.3 + (c1 - c0) - 0.01
    assert c1 - c0 < 0.2


def test_self_time_subtracts_child_coverage():
    spans = [
        {"id": 1, "parent": None, "name": "a", "dur_ns": 100},
        {"id": 2, "parent": 1, "name": "b", "dur_ns": 30},
        {"id": 3, "parent": 1, "name": "b", "dur_ns": 20},
        {"id": 4, "parent": 2, "name": "c", "dur_ns": 10},
    ]
    t = pb_trace.layer_times(spans)
    assert t["a"]["self_s"] == pytest.approx(50e-9)
    assert t["b"] == {"calls": 2, "busy_s": pytest.approx(50e-9), "self_s": pytest.approx(40e-9)}


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(["--workload", "sweep_noreuse", "--seed", "0", "--seconds", "1",
                   "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
