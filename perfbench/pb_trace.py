"""Outside-in tracing of the ``repro`` layers for the traced benchmark pass.

Nothing under ``src/`` is changed: :func:`install_probes` replaces the
public entry points of each layer (module functions and class methods)
with thin wrappers that record one span per call, and
:func:`restore_probes` puts every original object back.  A span records
its name, start, end, parent span and the step (or job) it ran in.
Spans stay in memory in a :class:`SpanRecorder` until the pass ends;
:func:`write_trace` then writes them as ``repro-obs-jsonl``, so
``python -m repro.obs report <file>`` renders them.

Rules that keep the numbers meaningful:

* only the thread that installed the probes records; calls from other
  threads (the serve supervisor) go straight to the original;
* a probe called while a span of the same name is open (recursion,
  ``super().partition``) records nothing, so ``calls`` counts outermost
  calls and busy time never double-counts;
* a layer's self time is its span's duration minus the time its child
  spans cover (spans of one thread nest, so that is the children's sum).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

#: (span name, module, attribute) of every probed entry point.  A
#: ``Class.method`` attribute is probed on the class and on every
#: subclass that overrides it.  ``workloads`` (input generation) is
#: timed as ``setup_s``; ``lang`` and ``obs`` are deliberately unprobed.
PROBES = (
    ("machine.exchange", "repro.machine.machine", "Machine.exchange"),
    ("machine.charge_compute_all", "repro.machine.machine", "Machine.charge_compute_all"),
    ("chaos.localize", "repro.chaos.localize", "localize"),
    ("chaos.dereference", "repro.chaos.ttable", "Translator.dereference_flat"),
    ("chaos.gather", "repro.chaos.schedule", "CommSchedule.gather"),
    ("chaos.gather", "repro.chaos.merge", "gather_merged"),
    ("chaos.scatter", "repro.chaos.schedule", "CommSchedule.scatter"),
    ("chaos.scatter", "repro.chaos.schedule", "CommSchedule.scatter_op"),
    ("chaos.scatter", "repro.chaos.merge", "scatter_op_merged"),
    ("chaos.remap", "repro.chaos.remap", "remap_arrays"),
    ("chaos.remap", "repro.chaos.remap", "remap_arrays_incremental"),
    ("core.inspector", "repro.core.inspector", "run_inspector"),
    ("core.executor", "repro.core.executor", "run_executor"),
    ("core.partition_iterations", "repro.core.iteration", "partition_iterations"),
    ("partitioners.partition", "repro.partitioners.base", "Partitioner.partition"),
    ("adapt.state_build", "repro.adapt.state", "build_adapt_state"),
    ("adapt.patch", "repro.adapt.patch", "patch_product"),
    ("guard.verify", "repro.guard.invariants", "verify_product"),
    ("serve.submit", "repro.serve.service", "SimulationService.submit"),
    ("serve.wait", "repro.serve.service", "Job.wait"),
)

#: span name of the benchmark's own per-step root span
STEP_SPAN = "bench.step"


class SpanRecorder:
    """In-memory span buffer with a parent stack (one thread)."""

    def __init__(self):
        self.thread = threading.get_ident()
        self.spans: list[dict] = []
        self._stack: list[list] = []  # [id, name, t0_ns, parent]
        self._open: dict[str, int] = {}
        self._next_id = 1
        self.step = None

    def records(self, name: str) -> bool:
        """Whether a call to probe ``name`` opens a span right now."""
        return threading.get_ident() == self.thread and not self._open.get(name)

    def begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, name, time.perf_counter_ns(), parent])
        self._next_id += 1
        self._open[name] = self._open.get(name, 0) + 1

    def end(self) -> None:
        t1 = time.perf_counter_ns()
        sid, name, t0, parent = self._stack.pop()
        self._open[name] -= 1
        self.spans.append(
            {
                "kind": "span",
                "id": sid,
                "parent": parent,
                "name": name,
                "t0_ns": t0,
                "dur_ns": t1 - t0,
                "attrs": {"step": self.step},
            }
        )


def _probe(recorder: SpanRecorder, name: str, fn):
    @functools.wraps(fn)
    def probe(*args, **kwargs):
        if not recorder.records(name):
            return fn(*args, **kwargs)
        recorder.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end()

    probe.__wrapped_original__ = fn
    return probe


def _repro_modules() -> list:
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "repro" or n.startswith("repro."))
    ]


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def install_probes(recorder: SpanRecorder) -> list:
    """Wrap every entry point in :data:`PROBES`; returns the undo list.

    Module functions are replaced in every loaded ``repro`` module that
    holds them (``from x import f`` copies the reference), methods on
    the defining class and each overriding subclass.
    """
    undo = []
    for name, modname, attr in PROBES:
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            for cls in _subclasses(getattr(mod, cls_name)):
                fn = cls.__dict__.get(meth)
                if fn is not None and not hasattr(fn, "__wrapped_original__"):
                    setattr(cls, meth, _probe(recorder, name, fn))
                    undo.append((cls, meth, fn))
            continue
        fn = getattr(mod, attr)
        wrapper = _probe(recorder, name, fn)
        for holder in _repro_modules():
            for key, value in list(vars(holder).items()):
                if value is fn:
                    setattr(holder, key, wrapper)
                    undo.append((holder, key, fn))
    return undo


def restore_probes(undo: list) -> None:
    """Put every original back, including references a module imported
    while the probes were installed."""
    for owner, key, fn in reversed(undo):
        setattr(owner, key, fn)
    for holder in _repro_modules():
        for key, value in list(vars(holder).items()):
            original = getattr(value, "__wrapped_original__", None)
            if original is not None and callable(value):
                setattr(holder, key, original)


def leftover_probes() -> list[str]:
    """Names of probe wrappers still reachable (empty after a restore)."""
    found = []
    for holder in _repro_modules():
        for key, value in list(vars(holder).items()):
            if hasattr(value, "__wrapped_original__"):
                found.append(f"{holder.__name__}.{key}")
            if isinstance(value, type):
                for meth, fn in vars(value).items():
                    if hasattr(fn, "__wrapped_original__"):
                        found.append(f"{holder.__name__}.{key}.{meth}")
    return sorted(set(found))


def layer_times(spans: list[dict]) -> dict[str, dict]:
    """Per span name: ``calls``, ``busy_s`` and ``self_s``."""
    child_ns: dict[int, int] = {}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["dur_ns"]
    out: dict[str, dict] = {}
    for s in spans:
        e = out.setdefault(s["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        e["calls"] += 1
        e["busy_s"] += s["dur_ns"] * 1e-9
        e["self_s"] += (s["dur_ns"] - child_ns.get(s["id"], 0)) * 1e-9
    return out


def write_trace(path: str, spans: list[dict], meta: dict, counters: dict) -> str:
    """Write spans + counters as ``repro-obs-jsonl`` (``repro.obs.load_trace``)."""
    with open(path, "w") as fh:
        header = {"kind": "meta", "format": "repro-obs-jsonl", "version": 1,
                  "dropped_spans": 0}
        header.update(meta)
        fh.write(json.dumps(header) + "\n")
        for s in spans:
            fh.write(json.dumps(s) + "\n")
        for name, value in counters.items():
            fh.write(json.dumps({"kind": "counter", "name": name, "value": value}) + "\n")
    return path
