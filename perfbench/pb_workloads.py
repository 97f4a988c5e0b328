"""The benchmark's four workloads: inputs from a seed, one pass, oracles.

Every workload is a closed loop with one caller.  A *pass* is the
workload's fixed unit of work (its ``cpu_s``); a *step* is the unit
timed for the step percentiles.  The seed only shapes the inputs --
the state fields, the churn stream, the job order and resubmissions --
never how many steps of each kind a pass holds, so runs with different
seeds measure the same mix.

* ``sweep_noreuse`` -- Euler edge sweep, 50k nodes, P=256, RCB, compiler
  path, ``reuse=False`` with coalescing, incremental inspection and the
  translation cache on (the simspeed scenario).  Step: one ``forall``
  iteration.  Read-only, big arrays: cache hits and the adapt-state
  build dominate, machine charging is light.
* ``tables_small`` -- the 42 experiments of Tables 1-4 at
  ``--scale small``, in paper order.  Step: one experiment.  Many
  small calls: executor, machine charging and the RSB partitioner
  dominate; the adapt state is never built.
* ``adapt_churn`` -- adaptive Euler refinement, 50k nodes, P=64,
  ``guard="cheap"``, one cycle of 1% / 5% / 25% edge-churn epochs.  Step:
  one adaptation plus its sweeps.  Writes beside reads: diff/patch,
  cache invalidation and guard verification.
* ``serve_mix`` -- ``SimulationService(workers=1)`` with one waiting
  client; per pass 6 cold jobs (sweep/adapt/rebalance), 5
  resubmissions (result-cache hits) and 1 job that crashes its worker
  and resumes from a checkpoint.  Step: one job, submit to result.
  The only workload that reaches serve dispatch, the result cache and
  guard checkpoint/restore.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from pb_trace import STEP_SPAN

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_PATH = os.path.join(HERE, "pinned.json")

#: machine phases every experiment reports (the harness's PHASE_NAMES)
PHASES = ("graph_generation", "partition", "remap", "inspector", "executor")

#: exact simulated counters summed over a pass; also per-layer metrics
SIM_KEYS = (
    "machine.sim_s",
    "machine.sim_inspector_s",
    "machine.sim_executor_s",
    "machine.sim_partition_s",
    "machine.sim_remap_s",
    "machine.messages",
    "machine.bytes",
    "core.inspector_runs",
    "core.reuse_hits",
    "adapt.patch_hits",
    "adapt.fallbacks",
    "chaos.transcache.hits",
    "chaos.transcache.misses",
    "chaos.transcache.invalidations",
)


_TICK_NS = 1e9 / os.sysconf("SC_CLK_TCK")


def _descendant_cpu_ns() -> dict[int, int]:
    """CPU nanoseconds of every live descendant process, by pid.

    Read from ``/proc/<pid>/task/*/schedstat`` (time on a CPU; time spent
    waiting for one, hypervisor steal included, is not in it), or at
    clock-tick resolution from ``/proc/<pid>/stat`` where a kernel lacks
    schedstat.  A process that ends between two readings takes its last
    part with it."""
    stat = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    fields = fh.read().rpartition(")")[2].split()
                # fields[1] is the parent pid, fields[11:13] utime and stime
                stat[int(entry)] = (int(fields[1]), int(fields[11]) + int(fields[12]))
            except (OSError, IndexError, ValueError):
                pass
    children: dict[int, list[int]] = {}
    for pid, (ppid, _) in stat.items():
        children.setdefault(ppid, []).append(pid)
    out, todo = {}, list(children.get(os.getpid(), ()))
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, ()))
        try:
            total = 0
            for tid in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                    total += int(fh.read().split()[0])
        except FileNotFoundError:
            if not os.path.exists(f"/proc/{pid}"):
                continue  # ended since the scan
            total = int(stat[pid][1] * _TICK_NS)
        except (OSError, IndexError, ValueError):
            continue
        out[pid] = total
    return out


class CpuClock:
    """CPU seconds of this process (every thread), and with ``tree`` also
    of its descendant processes, as a running total.

    The benchmark times CPU, not wall: on a shared host the wall time of
    the same work moves with whatever else runs, while CPU time counts
    only the time the program was running.  Wall time is kept beside it
    (``bench.wall_s`` and friends).  Each ``read`` adds what every live
    descendant ran since the previous one, so a process that ends loses
    only its part after the last ``read`` (the benchmark reads at every
    step boundary)."""

    def __init__(self, tree: bool = False):
        self.tree = tree
        self._kids_ns = 0
        self._last: dict[int, int] = {}
        #: CPU this clock spent reading ``/proc``, left out of the total
        self._own_reads_ns = 0

    def read(self) -> float:
        own = time.process_time_ns()
        total = own - self._own_reads_ns
        if self.tree:
            kids = _descendant_cpu_ns()
            for pid, ns in kids.items():
                before = self._last.get(pid, 0)
                # a smaller total is a new process under a reused pid
                self._kids_ns += ns - before if ns >= before else ns
            self._last = kids
            self._own_reads_ns += time.process_time_ns() - own
        return 1e-9 * (total + self._kids_ns)


class StepClock:
    """CPU and wall seconds per step; in the traced pass also each step's
    root span."""

    def __init__(self, cpu: CpuClock | None = None, recorder=None):
        self.cpu = cpu or CpuClock()
        self.recorder = recorder
        self.step_ids: list = []
        self.step_s: list[float] = []
        self.step_wall_s: list[float] = []

    @contextmanager
    def step(self, step_id):
        rec = self.recorder
        if rec is not None:
            rec.step = step_id
            rec.begin(STEP_SPAN)
        c0 = self.cpu.read()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.step_s.append(self.cpu.read() - c0)
            self.step_wall_s.append(t1 - t0)
            self.step_ids.append(step_id)
            if rec is not None:
                rec.end()
                rec.step = None


@dataclass
class PassResult:
    """One pass: per-step CPU and wall seconds and its exact simulated
    outputs."""

    step_ids: list
    step_s: list[float]
    step_wall_s: list[float]
    sim: dict
    cpu_s: float = 0.0
    wall_s: float = 0.0
    #: whatever the workload's oracle needs beyond ``sim``
    detail: dict = field(default_factory=dict)


def crc(arr) -> int:
    return zlib.crc32(np.ascontiguousarray(arr).tobytes())


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _sim_from(phases: dict, messages, nbytes, inspector_runs, reuse_hits,
              patch_hits, fallbacks, cache: dict) -> dict:
    return {
        "machine.sim_s": sum(phases.get(n, 0.0) for n in PHASES),
        "machine.sim_inspector_s": phases.get("inspector", 0.0),
        "machine.sim_executor_s": phases.get("executor", 0.0),
        "machine.sim_partition_s": phases.get("graph_generation", 0.0)
        + phases.get("partition", 0.0),
        "machine.sim_remap_s": phases.get("remap", 0.0),
        "machine.messages": int(messages),
        "machine.bytes": int(nbytes),
        "core.inspector_runs": int(inspector_runs),
        "core.reuse_hits": int(reuse_hits),
        "adapt.patch_hits": int(patch_hits),
        "adapt.fallbacks": int(fallbacks),
        "chaos.transcache.hits": int(cache.get("hits", 0)),
        "chaos.transcache.misses": int(cache.get("misses", 0)),
        "chaos.transcache.invalidations": int(cache.get("invalidations", 0)),
    }


def program_sim(prog) -> dict:
    """Exact simulated outputs and counters of one ``IrregularProgram``."""
    m = prog.machine
    cache = prog.translation_cache
    return _sim_from(
        {n: m.phase_time(n) for n in PHASES},
        m.counters.messages_sent.sum(),
        m.counters.bytes_sent.sum(),
        prog.inspector_runs,
        prog.reuse_hits,
        prog.patch_hits,
        len(prog.adapt.fallback_log) if prog.adapt is not None else 0,
        cache.stats() if cache is not None else {},
    )


def experiment_sim(res) -> dict:
    """The same record for a harness ``ExperimentResult``."""
    meta = res.meta
    return _sim_from(
        res.phases,
        meta["messages"],
        meta["bytes"],
        meta["inspector_runs"],
        meta["reuse_hits"],
        meta.get("patch_hits", 0),
        0,
        meta.get("translation_cache", {}),
    )


def sum_sims(sims) -> dict:
    out = {k: 0 for k in SIM_KEYS}
    for s in sims:
        for k in SIM_KEYS:
            out[k] += s[k]
    return out


def load_pinned(workload: str, scale: str, seed: int) -> dict | None:
    """Pinned simulated outputs for this workload, or None if none apply
    (``"seeds": "all"`` pins outputs that no workload seed changes)."""
    with open(PINNED_PATH) as fh:
        entry = json.load(fh).get(workload, {}).get(scale)
    if entry is None or (entry["seeds"] != "all" and seed not in entry["seeds"]):
        return None
    return entry["sim"]


class Workload:
    """Common shape: ``setup`` (timed as ``setup_s``), ``run_pass``, ``check``."""

    name = ""
    SCALES: dict = {}
    #: passes repeat identical work, so every pass must equal pass 0
    repeatable = True
    #: the work runs in child processes too, so CPU time sums the tree
    spawns_processes = False

    def __init__(self, seed: int, scale: str, workdir: str):
        if scale not in self.SCALES:
            raise ValueError(f"unknown scale {scale!r}; choose from {sorted(self.SCALES)}")
        self.seed = int(seed)
        self.scale = scale
        self.workdir = workdir
        self.params = dict(self.SCALES[scale])

    def make_inputs(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        """Everything before the first timed step (``setup_s``)."""
        self.make_inputs()

    def teardown(self) -> None:
        """Undo the parts of ``setup`` that hold resources."""

    def prepare_traced(self) -> None:
        """Make the next ``run_pass(0, ...)`` redo pass 0's work."""

    def fingerprint(self) -> str:
        raise NotImplementedError

    def planned_steps(self) -> int:
        raise NotImplementedError

    def run_pass(self, index: int, clock: StepClock) -> PassResult:
        raise NotImplementedError

    def check(self, passes: list[PassResult]) -> list[tuple[str, int]]:
        """Oracle failures as ``(message, failed steps)``; empty = correct."""
        return []

    def pinned_failures(self, sim: dict) -> list[tuple[str, int]]:
        pinned = load_pinned(self.name, self.scale, self.seed)
        if pinned is None:
            return []
        return [
            (f"{key} = {sim[key]!r}, pinned {want!r}", self.planned_steps())
            for key, want in pinned.items()
            if sim[key] != want
        ]

    def layer_extras(self, traced: PassResult) -> dict:
        """Workload-specific per-layer metrics of the traced pass."""
        return {}


# ---------------------------------------------------------------------------
def _mesh(params):
    """The workload's mesh, generated with every mesh cache bypassed.

    The 50k-node workloads keep the simspeed mesh (``mesh_seed`` 0) for
    every workload seed: simulated costs depend only on mesh, partition
    and churn, so the pinned references hold on every seed, and runs
    with different seeds time the same structure."""
    from repro.workloads.mesh import generate_mesh

    return generate_mesh(params["n_nodes"], seed=params["mesh_seed"], cache=False)


def _field(mesh, seed: int) -> np.ndarray:
    """Initial state ``x``, as ``setup_euler_program(seed=...)`` draws it."""
    return np.random.default_rng(seed).normal(size=mesh.n_nodes)


def _euler_program(machine, mesh, seed, **kwargs):
    """The Figure 4 program on a mesh, RCB-partitioned and remapped."""
    from repro.workloads.euler import setup_euler_program

    prog = setup_euler_program(machine, mesh, seed=seed, **kwargs)
    prog.construct("G", mesh.n_nodes, geometry=["xc", "yc", "zc"][: mesh.ndim])
    prog.set_distribution("distfmt", "G", "RCB")
    prog.redistribute("reg", "distfmt")
    return prog


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    # reduction order differs from the sequential reference, so allow
    # float64 rounding only
    return got.shape == want.shape and bool(
        np.allclose(got, want, rtol=1e-9, atol=1e-9 * float(np.abs(want).max(initial=1.0)))
    )


class SweepNoReuse(Workload):
    name = "sweep_noreuse"
    SCALES = {
        "full": dict(n_nodes=50000, mesh_seed=0, n_procs=256, iterations=20),
        "tiny": dict(n_nodes=2000, mesh_seed=0, n_procs=16, iterations=4),
    }

    def make_inputs(self):
        self.mesh = None  # one mesh alive at a time, so set-ups peak alike
        self.mesh = _mesh(self.params)
        self.x0 = _field(self.mesh, self.seed)

    def fingerprint(self):
        return digest(self.mesh.coords, self.mesh.edges, self.x0)

    def planned_steps(self):
        return self.params["iterations"]

    def run_pass(self, index, clock):
        from repro.bench.harness import COMPILER_EXECUTOR_OVERHEAD
        from repro.machine.machine import Machine
        from repro.obs.tracer import NULL_TRACER
        from repro.workloads.euler import euler_edge_loop

        p = self.params
        machine = Machine(p["n_procs"])
        prog = _euler_program(
            machine, self.mesh, self.seed, track=True, coalesce_patterns=True,
            incremental=True, executor_overhead=COMPILER_EXECUTOR_OVERHEAD,
        )
        loop = euler_edge_loop(self.mesh)
        for i in range(p["iterations"]):
            with clock.step(i):
                prog.forall(loop, n_times=1, reuse=False)
        y = prog.arrays["y"].to_global()
        sim = program_sim(prog)
        sim["y_crc"] = crc(y)
        return PassResult(clock.step_ids, clock.step_s, clock.step_wall_s, sim, detail={
            "y": y, "obs_off": machine.obs is NULL_TRACER,
        })

    def check(self, passes):
        from repro.workloads.euler import euler_sequential_reference

        d = passes[0].detail
        want = euler_sequential_reference(self.x0, self.mesh.edges, n_times=self.params["iterations"])
        out = []
        if not _close(d["y"], want):
            out.append(("y differs from the sequential reference sweep", self.planned_steps()))
        return out + self.pinned_failures(passes[0].sim)


class AdaptChurn(Workload):
    name = "adapt_churn"
    SCALES = {
        # one 1% / 5% / 25% cycle per pass: with an odd number of churn
        # levels the median step is the 5% one, not the gap between two
        "full": dict(n_nodes=50000, mesh_seed=0, n_procs=64, fractions=[0.01, 0.05, 0.25],
                     cycles=1, sweeps=2, guard="cheap"),
        "tiny": dict(n_nodes=2000, mesh_seed=0, n_procs=8, fractions=[0.01, 0.05, 0.25],
                     cycles=1, sweeps=1, guard="cheap"),
    }

    def make_inputs(self):
        from repro.workloads.adaptive import refine_edges

        p = self.params
        self.mesh = None  # one mesh alive at a time, so set-ups peak alike
        mesh = _mesh(p)
        self.x0 = _field(mesh, self.seed)
        rng = np.random.default_rng(self.seed)
        edges = mesh.edges
        self.updates, self.edges_after = [], []
        for fraction in p["fractions"] * p["cycles"]:
            upd = refine_edges(mesh, edges, fraction, rng)
            edges = edges.copy()
            edges[0, upd.positions] = upd.end1
            edges[1, upd.positions] = upd.end2
            self.updates.append(upd)
            self.edges_after.append(edges)
        self.mesh = mesh

    def fingerprint(self):
        return digest(self.mesh.coords, self.mesh.edges, self.x0,
                      *[u.positions for u in self.updates], *[u.end2 for u in self.updates])

    def planned_steps(self):
        return len(self.updates)

    def run_pass(self, index, clock):
        from repro.adapt.driver import AdaptiveExecutor
        from repro.machine.machine import Machine
        from repro.obs.tracer import NULL_TRACER
        from repro.workloads.adaptive import apply_adaptation
        from repro.workloads.euler import euler_edge_loop

        p = self.params
        machine = Machine(p["n_procs"])
        prog = _euler_program(machine, self.mesh, self.seed, incremental=True, guard=p["guard"])
        driver = AdaptiveExecutor(prog, euler_edge_loop(self.mesh))
        driver.run(p["sweeps"])
        for i, upd in enumerate(self.updates):
            with clock.step(i):
                apply_adaptation(prog, upd)
                driver.run(p["sweeps"])
        y = prog.arrays["y"].to_global()
        sim = program_sim(prog)
        sim["y_crc"] = crc(y)
        sim["modes"] = driver.mode_counts()
        return PassResult(clock.step_ids, clock.step_s, clock.step_wall_s, sim, detail={
            "y": y, "obs_off": machine.obs is NULL_TRACER,
        })

    def check(self, passes):
        from repro.workloads.euler import euler_sequential_reference

        d = passes[0].detail
        sweeps = self.params["sweeps"]
        want = euler_sequential_reference(self.x0, self.mesh.edges, n_times=sweeps)
        for edges in self.edges_after:
            want = euler_sequential_reference(self.x0, edges, n_times=sweeps, y0=want)
        out = []
        if not _close(d["y"], want):
            out.append(("y differs from the sequential reference over the churned edges",
                        self.planned_steps()))
        return out + self.pinned_failures(passes[0].sim)


# ---------------------------------------------------------------------------
#: Table 2's six variants (partitioner, path, reuse) at the large mesh
#: on 32 processors; the golden fixture pins this list's order
TABLE2_COLUMNS = (
    ("RCB", "compiler", True),
    ("RCB", "compiler", False),
    ("RCB", "hand", True),
    ("BLOCK", "hand", True),
    ("RSB", "hand", True),
    ("RSB", "compiler", True),
)


class TablesSmall(Workload):
    name = "tables_small"
    SCALES = {
        "full": dict(tables_scale="small"),
        "tiny": dict(tables_scale="tiny"),
    }
    GOLDEN = os.path.join("tests", "bench", "fixtures", "tables_golden_{}.json")

    def make_inputs(self):
        from repro.workloads import scale_config
        from repro.workloads.mesh import generate_mesh

        sc = scale_config(self.params["tables_scale"])
        root = os.path.dirname(HERE)
        with open(os.path.join(root, self.GOLDEN.format(sc.name))) as fh:
            self.golden = json.load(fh)
        # the golden tables fix the meshes (seeds 1 and 2) and the MD
        # system; the workload seed draws the Euler state fields, which
        # no simulated time depends on.  Experiments run in paper order,
        # as ``python -m repro.bench tables`` runs them.
        self.meshes = {
            "small": generate_mesh(sc.mesh_small, seed=1, cache=False),
            "large": generate_mesh(sc.mesh_large, seed=2, cache=False),
        }
        self.sc = sc
        self.experiments = self._experiments()

    @staticmethod
    def _experiments():
        configs = [("small", 4), ("small", 8), ("small", 16),
                   ("large", 16), ("large", 32), ("large", 64),
                   ("md", 4), ("md", 8), ("md", 16)]
        out = []
        for row, (spec, procs) in enumerate(configs):
            for reuse in (False, True):
                out.append(("table1", row, spec, procs, ("RCB", "compiler", reuse)))
        for row, variant in enumerate(TABLE2_COLUMNS):
            out.append(("table2", row, "large", 32, variant))
        for row, (spec, procs) in enumerate(configs):
            out.append(("table3", row, spec, procs, ("RCB", "compiler", True)))
        for row, (spec, procs) in enumerate(configs):
            out.append(("table4", row, spec, procs, ("BLOCK", "compiler", True)))
        return out

    def fingerprint(self):
        m = self.meshes
        return digest(m["small"].edges, m["large"].edges,
                      _field(m["small"], self.seed), _field(m["large"], self.seed))

    def planned_steps(self):
        return len(self.experiments)

    def _run(self, exp):
        from repro.bench.harness import run_euler_experiment, run_md_experiment

        _table, _row, spec, procs, (part, path, reuse) = exp
        kw = dict(partitioner=part, path=path, reuse=reuse, iterations=self.sc.sweep_iterations)
        if spec == "md":
            return run_md_experiment(n_atoms=self.sc.md_atoms, n_procs=procs, **kw)
        return run_euler_experiment(self.meshes[spec], procs, seed=self.seed, **kw)

    def run_pass(self, index, clock):
        results = {}
        for i, exp in enumerate(self.experiments):
            with clock.step(i):
                results[i] = self._run(exp)
        sims = [experiment_sim(results[i]) for i in range(len(self.experiments))]
        sim = sum_sims(sims)
        sim["experiments"] = sims
        return PassResult(clock.step_ids, clock.step_s, clock.step_wall_s, sim, detail={
            "results": results,
            "obs_off": all("obs" not in r.meta for r in results.values()),
        })

    def _fields(self, table, res) -> dict:
        ph = res.phase
        if table == "table1":
            return {("reuse" if res.reuse else "no_reuse"): ph("inspector") + ph("executor")}
        fields = {"inspector": ph("inspector"), "remap": ph("remap"),
                  "executor": ph("executor"), "total": res.total}
        if table == "table2":
            fields.update(graph_generation=ph("graph_generation"), partition=ph("partition"))
        elif table == "table3":
            fields["partition"] = ph("graph_generation") + ph("partition")
        return fields

    def check(self, passes):
        """Every experiment's row fields equal the golden tables exactly."""
        out = []
        for pr in passes:
            results = pr.detail["results"]
            loop_times: dict[int, dict] = {}
            for i, exp in enumerate(self.experiments):
                table, row = exp[0], exp[1]
                got = self._fields(table, results[i])
                want = self.golden[table][row]
                bad = {k: (v, want.get(k)) for k, v in got.items() if v != want.get(k)}
                if bad:
                    out.append((f"{table} row {row}: {bad}", 1))
                if table == "table1":
                    loop_times.setdefault(row, {}).update(got)
            for row, lt in loop_times.items():
                want = self.golden["table1"][row]["speedup"]
                if lt["no_reuse"] / lt["reuse"] != want:
                    out.append((f"table1 row {row}: speedup differs", 2))
        return out


# ---------------------------------------------------------------------------
class ServeMix(Workload):
    name = "serve_mix"
    SCALES = {
        "full": dict(n_nodes=2000, n_procs=8, steps=6, checkpoint_every=2,
                     cold=6, warm=5, crash=1, crash_scenario="adapt", crash_at_step=3),
        "tiny": dict(n_nodes=400, n_procs=4, steps=4, checkpoint_every=2,
                     cold=3, warm=1, crash=1, crash_scenario="adapt", crash_at_step=2),
    }
    #: jobs run different configs each pass, so passes are not compared
    repeatable = False
    #: jobs run in the worker process (CPU of a worker killed mid-job is
    #: lost with it: the crash job counts the resumed part only)
    spawns_processes = True
    JOB_TIMEOUT_S = 120.0

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.service = None
        self._n_services = 0

    def _config(self, index: int, scenario: str, crash: bool = False):
        from repro.serve import JobConfig

        p = self.params
        return JobConfig(
            scenario=scenario, n_nodes=p["n_nodes"], n_procs=p["n_procs"],
            steps=p["steps"], checkpoint_every=p["checkpoint_every"],
            # unique per job of a run, so every original is a cold job;
            # the workload seed shapes the order and the resubmissions
            seed=index,
            crash_at_step=p["crash_at_step"] if crash else None,
        )

    def job_stream(self, k: int) -> list[tuple[str, object, int | None]]:
        """Pass ``k``'s jobs as ``(kind, config, index of original)``."""
        from repro.serve.config import SCENARIOS

        p = self.params
        rng = np.random.default_rng([self.seed, k])
        base = 1 + k * 64
        originals = [("cold", self._config(base + j, SCENARIOS[j % len(SCENARIOS)]))
                     for j in range(p["cold"])]
        originals += [("crash", self._config(base + p["cold"] + j, p["crash_scenario"], True))
                      for j in range(p["crash"])]
        seq = [originals[i] for i in rng.permutation(len(originals))]
        for j in rng.choice(p["cold"], size=p["warm"], replace=False):
            cfg = originals[j][1]
            after = next(i for i, e in enumerate(seq) if e[1] is cfg)
            seq.insert(int(rng.integers(after + 1, len(seq) + 1)), ("warm", cfg))
        first: dict[int, int] = {}
        for i, (_, cfg) in enumerate(seq):
            first.setdefault(id(cfg), i)
        return [(kind, cfg, first[id(cfg)] if kind == "warm" else None) for kind, cfg in seq]

    def make_inputs(self):
        self.stream0 = self.job_stream(0)

    def _start_service(self):
        from repro.serve import SimulationService

        self._n_services += 1
        root = os.path.join(self.workdir, f"serve-{os.getpid()}-{self._n_services}")
        self._service_dir = root
        self.service = SimulationService(
            workers=1, cache_dir=os.path.join(root, "cache"),
            checkpoint_dir=os.path.join(root, "checkpoints"),
        )
        warm_up = self._config(0, "sweep")
        self.service.submit(warm_up).wait(self.JOB_TIMEOUT_S)
        self._health0 = self.service.health()["counts"]

    def setup(self):
        self.make_inputs()
        self._start_service()

    def teardown(self):
        if self.service is not None:
            self.service.shutdown()
            shutil.rmtree(self._service_dir, ignore_errors=True)
            self.service = None
        _stop_mp_helpers()

    def prepare_traced(self):
        # a fresh service and cache, so pass 0's originals are cold again
        self.teardown()
        self._start_service()

    def fingerprint(self):
        return hashlib.sha256(repr(self.job_stream(0) + self.job_stream(1)).encode()).hexdigest()

    def planned_steps(self):
        p = self.params
        return p["cold"] + p["warm"] + p["crash"]

    def run_pass(self, index, clock):
        from repro.obs.tracer import NULL_TRACER
        from repro.serve.jobs import bit_identity

        stream = self.stream0 if index == 0 else self.job_stream(index)
        jobs = []
        for j, (kind, cfg, _orig) in enumerate(stream):
            with clock.step(j):
                job = self.service.submit(cfg)
                result = job.wait(self.JOB_TIMEOUT_S)
            jobs.append({"kind": kind, "result": result, "attempts": job.attempts,
                         "state": job.state})
        counts = self.service.health()["counts"]
        sim = {k: 0 for k in SIM_KEYS}
        sim["machine.sim_s"] = sum(j["result"]["simulated_total"] for j in jobs if j["kind"] != "warm")
        sim["jobs"] = [bit_identity(j["result"]) for j in jobs]
        return PassResult(clock.step_ids, clock.step_s, clock.step_wall_s, sim, detail={
            "stream": stream, "jobs": jobs, "counts": counts,
            "obs_off": self.service.obs is NULL_TRACER,
        })

    def check(self, passes):
        """Warm results equal their cold original; a crash-resumed job
        equals the same config run undisturbed."""
        from dataclasses import replace

        from repro.serve.jobs import bit_identity, run_job

        out = []
        for n, pr in enumerate(passes):
            stream, jobs = pr.detail["stream"], pr.detail["jobs"]
            for j, ((kind, cfg, orig), job) in enumerate(zip(stream, jobs)):
                if job["state"] != "done":
                    out.append((f"pass {n} job {j}: state {job['state']}", 1))
                elif kind == "warm" and pr.sim["jobs"][j] != pr.sim["jobs"][orig]:
                    out.append((f"pass {n} job {j}: warm result differs from cold", 1))
                elif kind == "crash":
                    ref = bit_identity(run_job(replace(cfg, crash_at_step=None)))
                    if not job["result"]["resumed"] or pr.sim["jobs"][j] != ref:
                        out.append((f"pass {n} job {j}: crash-resumed result differs", 1))
        return out

    def layer_extras(self, traced):
        jobs = traced.detail["jobs"]
        # job latency as a client sees it: wall, submit to result
        ms = [1e3 * s for s in traced.step_wall_s]
        cold = [t for t, j in zip(ms, jobs) if j["kind"] == "cold"]
        warm = [t for t, j in zip(ms, jobs) if j["kind"] == "warm"]
        ran = [j["attempts"] for j in jobs if j["attempts"] > 0]
        counts, before = traced.detail["counts"], self._health0
        submitted = counts["submitted"] - before["submitted"]
        return {
            "serve.cold_ms_p50": float(np.median(cold)) if cold else 0.0,
            "serve.warm_ms_p50": float(np.median(warm)) if warm else 0.0,
            "serve.cache.hit_ratio": (counts["cache_hits"] - before["cache_hits"]) / submitted,
            "serve.worker_restarts": counts["worker_restarts"] - before["worker_restarts"],
            "serve.attempts_per_job": sum(ran) / len(ran) if ran else 0.0,
        }


def _stop_mp_helpers() -> None:
    """Stop and reap the forkserver and resource-tracker processes the
    service's worker context started (they would otherwise outlive the
    benchmark briefly); the next service start launches fresh ones."""
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        helper._stop()


WORKLOADS = {w.name: w for w in (SweepNoReuse, TablesSmall, AdaptChurn, ServeMix)}
