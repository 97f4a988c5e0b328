"""Layered host-time benchmark of the CHAOS/PARTI simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep_noreuse --seed 0 --seconds 10 --trace 0

One process runs one workload (``sweep_noreuse``, ``tables_small``,
``adapt_churn`` or ``serve_mix``; see ``pb_workloads``):

1. **setup** -- input generation (mesh generation with the mesh disk
   cache bypassed; for ``serve_mix`` also service start and one warm-up
   job), repeated ``SETUP_REPEATS`` times; ``setup_s`` is the median;
2. **timed section** -- whole passes (at least one) until ``--seconds``
   have elapsed, with tracing off (``REPRO_OBS`` is removed from the
   environment and every pass checks that its machine carries the null
   tracer);
3. **oracles** -- every output checked against its pinned or computed
   reference;
4. with ``--trace 1``, a **traced pass** redoing pass 0 with every layer's
   entry points wrapped from outside (``pb_trace``); its simulated
   outputs must equal the timed pass 0's, and the wrappers are removed
   again before anything else runs.

Set-up, passes and steps are timed in CPU seconds of the benchmark
process and, for ``serve_mix``, of its worker processes
(``pb_workloads.CpuClock``): on a shared host the wall time of the same
work moves with whatever else runs.  Wall times are reported beside
them as per-layer metrics (``bench.wall_s``, ``bench.step_wall_ms_*``,
``bench.cpu_per_wall``).

The last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The full record (all metrics
with quartiles and sample counts, provenance, oracle messages) goes to
``perfbench/out/<workload>_s<seed>[_smoke|_partial].json``; the traced
run also writes ``<...>.trace.jsonl`` for ``python -m repro.obs report``.
The exit code is 0 only when every check passed; 2 when the checkout
lacks the program (``src/repro``) or an input the oracles need.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: set-ups per run; ``setup_s`` reports their median
SETUP_REPEATS = 3

#: end-to-end metrics (timed section, tracing off): name -> unit
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "step_cpu_ms_p50": "ms",
    "step_cpu_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (traced pass): name -> unit
PER_LAYER = {}
for _layer, _fields in (
    ("adapt.state_build", ("calls", "busy_s")),
    ("core.inspector", ("calls", "busy_s", "self_s")),
    ("chaos.localize", ("calls", "self_s")),
    ("chaos.dereference", ("calls", "self_s")),
    ("core.executor", ("calls", "busy_s", "self_s")),
    ("chaos.gather", ("calls", "self_s")),
    ("chaos.scatter", ("calls", "self_s")),
    ("machine.exchange", ("calls", "self_s")),
    ("machine.charge_compute_all", ("calls", "self_s")),
    ("partitioners.partition", ("calls", "busy_s")),
    ("chaos.remap", ("calls", "busy_s")),
    ("core.partition_iterations", ("calls", "busy_s")),
    ("adapt.patch", ("calls", "busy_s")),
    ("guard.verify", ("calls", "busy_s")),
):
    for _f in _fields:
        PER_LAYER[f"{_layer}.{_f}"] = "count" if _f == "calls" else "s"
PER_LAYER.update({
    "chaos.transcache.hits": "count",
    "chaos.transcache.misses": "count",
    "chaos.transcache.invalidations": "count",
    "chaos.transcache.hit_ratio": "ratio",
    "adapt.patch_hits": "count",
    "adapt.fallbacks": "count",
    "adapt.patch_ratio": "ratio",
    "core.reuse_hits": "count",
    "core.inspector_runs": "count",
    "core.reuse_ratio": "ratio",
    "serve.cold_ms_p50": "ms",
    "serve.warm_ms_p50": "ms",
    "serve.cache.hit_ratio": "ratio",
    "serve.worker_restarts": "count",
    "serve.attempts_per_job": "count",
    "machine.messages": "count",
    "machine.bytes": "bytes",
    "machine.sim_s": "sim_s",
    "machine.sim_inspector_s": "sim_s",
    "machine.sim_executor_s": "sim_s",
    "machine.sim_partition_s": "sim_s",
    "machine.sim_remap_s": "sim_s",
    "bench.wall_s": "s",
    "bench.step_wall_ms_p50": "ms",
    "bench.step_wall_ms_p90": "ms",
    "bench.cpu_per_wall": "ratio",
    "bench.traced_wall_s": "s",
    "bench.trace_overhead": "ratio",
    "bench.fail_ratio": "ratio",
})


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3, "n": len(values)}


def _percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _step_percentile(per_pass: list[list[float]], pct: int) -> float:
    """Median over the passes of each pass's step percentile.

    Every pass holds the same mix of steps, so a pass's percentile falls
    on the same kind of step each time (``adapt_churn``'s p90 between its
    5% and 25% steps).  Pooled over all steps of a run, a tail percentile
    would instead fall among the noisiest of ``sweep_noreuse``'s 19
    identical steps and follow the host's bursts."""
    return statistics.median(_percentile(steps, pct) for steps in per_pass)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit(root: str) -> str | None:
    """HEAD commit of the checkout when it is a git work tree, else None."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        with open(os.path.join(root, ".git", name)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    except OSError:
        pass
    return None


def src_digest(src: str) -> str:
    """sha256 over the program's Python sources (identifies the code
    when the checkout carries no git metadata)."""
    import hashlib

    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def provenance(wl, args, src: str) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": git_commit(ROOT),
        "src_sha256": src_digest(src),
        "workload": wl.name,
        "seed": wl.seed,
        "scale": wl.scale,
        "params": wl.params,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_kind(scale: str, seconds: float) -> str:
    """``full`` only at full scale and the declared run length."""
    if scale != "full":
        return "smoke"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["run_seconds"]
    return "full" if seconds >= declared else "partial"


def timed_section(wl, cpu, seconds: float, failures: list) -> tuple[list, int, int]:
    """Whole passes until ``seconds`` elapse; returns (passes, attempted, failed)."""
    from pb_workloads import StepClock

    passes, attempted, failed = [], 0, 0
    t_start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - t_start < seconds:
        # garbage of the previous pass must not be collected, or peak
        # memory counted, inside this one
        gc.collect()
        clock = StepClock(cpu)
        c0 = cpu.read()
        t0 = time.perf_counter()
        try:
            res = wl.run_pass(k, clock)
        except Exception as exc:  # a failed pass is counted, the run goes on
            traceback.print_exc()
            failures.append(f"pass {k} raised {type(exc).__name__}: {exc}")
            attempted += wl.planned_steps()
            failed += wl.planned_steps()
        else:
            res.wall_s = time.perf_counter() - t0
            res.cpu_s = cpu.read() - c0
            passes.append(res)
            attempted += len(res.step_s)
            if not res.detail.get("obs_off", False):
                failures.append(f"pass {k}: obs tracer was on in a timed pass")
        k += 1
    return passes, attempted, failed


def traced_pass(wl, cpu, failures: list):
    """Redo pass 0 with every layer probed; returns (pass, spans)."""
    from pb_trace import SpanRecorder, install_probes, leftover_probes, restore_probes
    from pb_workloads import StepClock

    wl.prepare_traced()
    gc.collect()
    rec = SpanRecorder()
    undo = install_probes(rec)
    t0 = time.perf_counter()
    try:
        res = wl.run_pass(0, StepClock(cpu, rec))
    finally:
        res_wall = time.perf_counter() - t0
        restore_probes(undo)
    res.wall_s = res_wall
    left = leftover_probes()
    if left:
        failures.append(f"probe wrappers left installed: {left}")
    return res, rec.spans


def layer_metrics(wl, traced, spans, wall: dict, fail_ratio: float) -> dict:
    from pb_trace import layer_times

    lt = layer_times(spans)
    m = {}
    for name in PER_LAYER:
        layer, _, f = name.rpartition(".")
        if f in ("calls", "busy_s", "self_s"):
            m[name] = lt.get(layer, {}).get(f, 0)
    sim = traced.sim
    for key in PER_LAYER:
        if key in sim:
            m[key] = sim[key]
    m["chaos.transcache.hit_ratio"] = _ratio(
        sim["chaos.transcache.hits"], sim["chaos.transcache.hits"] + sim["chaos.transcache.misses"])
    m["adapt.patch_ratio"] = _ratio(
        sim["adapt.patch_hits"], sim["adapt.patch_hits"] + sim["adapt.fallbacks"])
    m["core.reuse_ratio"] = _ratio(
        sim["core.reuse_hits"],
        sim["core.reuse_hits"] + sim["core.inspector_runs"] + sim["adapt.patch_hits"])
    for key in ("serve.cold_ms_p50", "serve.warm_ms_p50", "serve.cache.hit_ratio",
                "serve.worker_restarts", "serve.attempts_per_job"):
        m[key] = 0
    m.update(wl.layer_extras(traced))
    m.update(wall)
    m["bench.traced_wall_s"] = traced.wall_s
    m["bench.trace_overhead"] = traced.wall_s / wall["bench.wall_s"] - 1.0
    m["bench.fail_ratio"] = fail_ratio
    return m


def parse_args(argv=None):
    from pb_workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: smoke scale for the self-tests; results are tagged smoke")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources at {src}; run from the root of a "
              "full checkout", file=sys.stderr)
        return 2
    # end-to-end numbers are taken with tracing off, whatever the caller set
    os.environ.pop("REPRO_OBS", None)
    # one thread: no idle BLAS pool beside the single-threaded simulator
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, src)
    args = parse_args(argv)
    from pb_workloads import WORKLOADS, CpuClock

    os.makedirs(OUT_DIR, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.scale, OUT_DIR)
    cpu = CpuClock(tree=wl.spawns_processes)
    kind = run_kind(wl.scale, args.seconds)
    failures: list[str] = []
    setup_s, setup_iv = [], []
    try:
        for i in range(SETUP_REPEATS):
            if i:
                wl.teardown()
            gc.collect()
            c0 = cpu.read()
            t0 = time.perf_counter()
            wl.setup()
            t1 = time.perf_counter()
            setup_s.append(cpu.read() - c0)
            setup_iv.append((t0, t1))
        t_timed = time.perf_counter()
        passes, attempted, failed = timed_section(wl, cpu, args.seconds, failures)
        timed_iv = (t_timed, time.perf_counter())
        rss = peak_rss_mb()
        if passes:
            for msg, n in wl.check(passes):
                failures.append(msg)
                failed += n
            if wl.repeatable:
                for k, pr in enumerate(passes[1:], 1):
                    if pr.sim != passes[0].sim:
                        failures.append(f"pass {k} simulated outputs differ from pass 0")
                        failed += len(pr.step_s)
        failed = min(failed, attempted)
        traced = spans = None
        if args.trace and passes:
            traced, spans = traced_pass(wl, cpu, failures)
            attempted += len(traced.step_s)
            if traced.sim != passes[0].sim:
                failures.append("traced pass simulated outputs differ from the timed pass 0")
                failed += len(traced.step_s)
    except FileNotFoundError as exc:
        print(f"perfbench: missing input: {exc}", file=sys.stderr)
        return 2
    finally:
        wl.teardown()

    steps_ms = [1e3 * s for pr in passes for s in pr.step_s]
    cpus = [pr.cpu_s for pr in passes]
    walls = [pr.wall_s for pr in passes]
    e2e = wall = {}
    if passes:
        step_cpu = [[1e3 * s for s in pr.step_s] for pr in passes]
        step_wall = [[1e3 * s for s in pr.step_wall_s] for pr in passes]
        e2e = {
            "setup_s": statistics.median(setup_s),
            "cpu_s": statistics.median(cpus),
            "step_cpu_ms_p50": _step_percentile(step_cpu, 50),
            "step_cpu_ms_p90": _step_percentile(step_cpu, 90),
            "peak_rss_mb": rss,
        }
        wall = {
            "bench.wall_s": statistics.median(walls),
            "bench.step_wall_ms_p50": _step_percentile(step_wall, 50),
            "bench.step_wall_ms_p90": _step_percentile(step_wall, 90),
            "bench.cpu_per_wall": statistics.median([c / w for c, w in zip(cpus, walls)]),
        }
    fail_ratio = _ratio(failed, attempted)
    layer = {}
    if traced is not None:
        layer = layer_metrics(wl, traced, spans, wall, fail_ratio)
    correct = bool(passes) and failed == 0 and not failures

    stem = f"{wl.name}_s{wl.seed}" + ("" if kind == "full" else f"_{kind}")
    record = {
        "kind": kind,
        "provenance": provenance(wl, args, src),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()},
        "distributions": {
            "setup_s": _quartiles(setup_s),
            "cpu_s": _quartiles(cpus) if cpus else None,
            "step_cpu_ms": _quartiles(steps_ms) if steps_ms else None,
            "wall_s": _quartiles(walls) if walls else None,
        },
        "intervals": {"setup": setup_iv, "timed": timed_iv},
        "per_layer": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layer.items()},
        "simulated": passes[0].sim if passes else None,
        "passes": [{"cpu_s": pr.cpu_s, "wall_s": pr.wall_s,
                    "step_ms": [[i, 1e3 * c, 1e3 * w]
                                for i, c, w in zip(pr.step_ids, pr.step_s, pr.step_wall_s)]}
                   for pr in passes],
    }
    if spans is not None:
        from pb_trace import write_trace

        record["trace_file"] = write_trace(
            os.path.join(OUT_DIR, f"{stem}.trace.jsonl"), spans,
            {"benchmark": "perfbench", "kind": kind, **record["provenance"]}, layer)
    with open(os.path.join(OUT_DIR, f"{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    shown = layer if args.trace else e2e
    units = PER_LAYER if args.trace else END_TO_END
    print(f"# {wl.name} seed={wl.seed} scale={wl.scale} kind={kind} "
          f"passes={len(passes)} steps={len(steps_ms)}")
    for name, d in record["distributions"].items():
        if d:
            print(f"#   {name}: median {d['median']:.6g}  q1 {d['q1']:.6g}  q3 {d['q3']:.6g}  n {d['n']}")
    for name, value in shown.items():
        print(f"#   {name} = {value:.6g} {units[name]}")
    for msg in failures:
        print(f"# FAIL {msg}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
