"""The adapt state is built once per input version, charged every time.

``IncrementalInspector.after_inspect`` keeps the saved
:class:`~repro.adapt.state.LoopAdaptState` while its
:func:`~repro.adapt.state.adapt_state_key` matches and rebuilds it
otherwise.  These tests pin the contract from both sides:

* a kept state equals a fresh :func:`build_adapt_state` of the current
  product element for element (sorted slot index included), on every
  combination of translation cache, pattern coalescing and machine size;
* every input change -- indirection writes (patched or over threshold),
  redistribution of either decomposition, a failed patch, a checkpoint
  restore -- forces a rebuild;
* simulated numbers are unchanged: the campaign fingerprints below were
  recorded before the state was kept across inspections, and
  ``charge_state_build`` charges what the bounds-based formula charged.
"""

import hashlib

import numpy as np
import pytest

import repro.adapt.driver as adapt_driver
from repro.adapt.state import (
    STATE_IOPS_PER_GHOST,
    STATE_IOPS_PER_REF,
    build_adapt_state,
    charge_state_build,
    product_groups,
)
from repro.core.inspector import run_inspector
from repro.guard.checkpoint import restore_checkpoint, save_checkpoint
from repro.guard.faults import FaultPlan
from repro.machine import Machine
from repro.machine.stats import COUNTER_FIELDS
from repro.workloads import generate_mesh
from repro.workloads.euler import euler_edge_loop, setup_euler_program

N_NODES = 300


def build(n_procs=4, coalesce=True, cache="on", obs=None):
    mesh = generate_mesh(N_NODES, seed=4)
    prog = setup_euler_program(
        Machine(n_procs),
        mesh,
        seed=11,
        incremental=True,
        coalesce_patterns=coalesce,
        translation_cache=cache,
        obs=obs,
    )
    prog.construct("G", mesh.n_nodes, geometry=["xc", "yc", "zc"])
    prog.set_distribution("fmt", "G", "RCB")
    prog.redistribute("reg", "fmt")
    return mesh, prog, euler_edge_loop(mesh)


def mutate(prog, mesh, n_changed):
    pick = np.arange(n_changed, dtype=np.int64)
    old = np.asarray(prog.arrays["end_pt2"].global_view(), dtype=np.int64)[pick]
    prog.set_array_elements("end_pt2", pick, (old + 1) % mesh.n_nodes)


@pytest.fixture
def builds(monkeypatch):
    """Count the driver's ``build_adapt_state`` calls."""
    calls = []

    def counting(product, arrays):
        calls.append(product)
        return build_adapt_state(product, arrays)

    monkeypatch.setattr(adapt_driver, "build_adapt_state", counting)
    return calls


def assert_state_equal(kept, fresh):
    assert np.array_equal(kept.home, fresh.home)
    assert kept.snapshots.keys() == fresh.snapshots.keys()
    for name, snap in fresh.snapshots.items():
        assert np.array_equal(kept.snapshots[name], snap), name
    assert list(kept.groups) == list(fresh.groups)
    for gkey, g in fresh.groups.items():
        k = kept.groups[gkey]
        assert (k.array, k.indexes, k.index_stride) == (
            g.array,
            g.indexes,
            g.index_stride,
        )
        for field in (
            "slot_bounds",
            "keys",
            "owners",
            "lidx",
            "counts",
            "sorted_comp",
            "sorted_slot",
        ):
            a, b = getattr(k, field), getattr(g, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), (gkey, field)


def assert_fresh(prog, loop):
    record = prog.records[loop.name]
    assert_state_equal(
        prog.adapt.states[loop.name], build_adapt_state(record.product, prog.arrays)
    )


# ----------------------------------------------------------------------
# (a) one build per unchanged loop, equal to a fresh build every time
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_procs", [2, 4, 8])
@pytest.mark.parametrize("coalesce", [True, False])
@pytest.mark.parametrize("cache", ["on", "off"])
def test_unchanged_loop_builds_once(builds, n_procs, coalesce, cache):
    _, prog, loop = build(n_procs, coalesce, cache)
    for _ in range(4):
        prog.forall(loop, reuse=False)
        assert_fresh(prog, loop)
    assert prog.inspector_runs == 4
    assert len(builds) == 1


def test_route_is_visible_in_the_trace():
    _, prog, loop = build(obs="on")
    prog.forall(loop, n_times=3, reuse=False)
    spans = [
        s for s in prog.machine.obs.spans if s.name == "adapt.state.build_adapt_state"
    ]
    assert [s.attrs["rebuilt"] for s in spans] == [True, False, False]
    assert prog.machine.obs.counters["adapt.state.reused"] == 2


# ----------------------------------------------------------------------
# (b) every input change forces a rebuild; (c) patched state is dropped
# ----------------------------------------------------------------------
def test_patch_then_full_inspection_rebuilds(builds):
    mesh, prog, loop = build()
    prog.forall(loop, reuse=False)
    mutate(prog, mesh, 4)
    prog.forall(loop)
    assert prog.patch_hits == 1
    assert prog.adapt.states[loop.name].key is None
    prog.forall(loop, reuse=False)
    assert len(builds) == 2
    assert_fresh(prog, loop)
    prog.forall(loop, reuse=False)
    assert len(builds) == 2


def test_over_threshold_fallback_rebuilds(builds):
    mesh, prog, loop = build()
    prog.forall(loop, reuse=False)
    mutate(prog, mesh, mesh.n_edges)
    prog.forall(loop)
    assert [r["reason"] for r in prog.adapt.fallback_log] == ["over_threshold"]
    assert len(builds) == 2
    assert_fresh(prog, loop)


@pytest.mark.parametrize("decomp", ["reg", "reg2"])
def test_redistribution_rebuilds(builds, decomp):
    # "reg" moves the data arrays (their dist_key changes); "reg2" moves
    # the edge lists (their content_key changes)
    _, prog, loop = build()
    prog.forall(loop, reuse=False)
    prog.redistribute(decomp, "cyclic")
    prog.forall(loop)
    assert len(builds) == 2
    assert_fresh(prog, loop)
    prog.forall(loop, reuse=False)
    assert len(builds) == 2


def test_failed_patch_rebuilds(builds):
    mesh, prog, loop = build()
    FaultPlan(seed=7).flip_slots(nth=0).install(prog.machine)
    prog.forall(loop, reuse=False)
    mutate(prog, mesh, 4)
    prog.forall(loop)
    assert [r["reason"] for r in prog.adapt.fallback_log] == ["verify_failed"]
    assert len(builds) == 2
    assert_fresh(prog, loop)


def test_checkpoint_restore_rebuilds(builds, tmp_path):
    _, prog, loop = build()
    prog.forall(loop, reuse=False)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, prog)
    _, prog2, loop2 = build()
    restore_checkpoint(path, prog2, {loop2.name: loop2})
    assert prog2.adapt.states[loop2.name].key is None
    del builds[:]
    prog2.forall(loop2, reuse=False)
    assert len(builds) == 1
    assert_fresh(prog2, loop2)


# ----------------------------------------------------------------------
# (d) simulated numbers are those recorded before the state was kept
# ----------------------------------------------------------------------
def campaign(prog, mesh, loop):
    """Keeps, patches, rebuilds and falls back, in one run."""
    prog.forall(loop, n_times=3, reuse=False)
    mutate(prog, mesh, 4)
    prog.forall(loop)  # patch
    prog.forall(loop, n_times=2, reuse=False)
    mutate(prog, mesh, mesh.n_edges)
    prog.forall(loop)  # over-threshold fallback
    prog.redistribute("reg", "cyclic")
    prog.forall(loop, n_times=2, reuse=False)


def fingerprint(machine) -> dict:
    names = sorted({r.name for r in machine.stats.phases})
    return {
        "elapsed": repr(machine.elapsed()),
        "phases": {name: repr(machine.phase_time(name)) for name in names},
        "counters": {
            field: hashlib.sha256(
                np.ascontiguousarray(getattr(machine.counters, field)).tobytes()
            ).hexdigest()[:16]
            for field in COUNTER_FIELDS
        },
    }


#: ``fingerprint`` of ``campaign`` at P=4, recorded when every full
#: inspection still rebuilt the adapt state
PINNED = {
    True: {
        "elapsed": "0.7712879547619051",
        "phases": {
            "executor": "0.16463167142857155",
            "graph_generation": "0.0017000000000000001",
            "inspector": "0.5557154571428574",
            "partition": "0.021472857142857148",
            "remap": "0.01511178571428596",
        },
        "counters": {
            "bytes_received": "530d4d7b7c61e419",
            "bytes_sent": "422c1a7e897127cb",
            "clock": "b319ff04c3a04f9e",
            "flops": "3685e70eadf6bf42",
            "iops": "eeffd6c71e021d1e",
            "mem_ops": "09e71ca5804bb46a",
            "messages_received": "ed99ae78867e5894",
            "messages_sent": "d50c0d1e2585f511",
        },
    },
    False: {
        "elapsed": "0.8888354547619031",
        "phases": {
            "executor": "0.1738020285714284",
            "graph_generation": "0.0017000000000000001",
            "inspector": "0.6640925999999987",
            "partition": "0.021472857142857148",
            "remap": "0.01511178571428596",
        },
        "counters": {
            "bytes_received": "63bf1ec7240a72a7",
            "bytes_sent": "533715f1bb3246fc",
            "clock": "2b56d42ede3b8e97",
            "flops": "a7b3bc8ddd15d67c",
            "iops": "68b1801d776b9a3f",
            "mem_ops": "d84ead1662d1f13d",
            "messages_received": "50a16e18a7bde365",
            "messages_sent": "ef9d6a0bca6384cc",
        },
    },
}


@pytest.mark.parametrize("coalesce", [True, False])
@pytest.mark.parametrize("cache", ["on", "off"])
def test_campaign_numbers_unchanged(coalesce, cache):
    mesh, prog, loop = build(4, coalesce, cache)
    campaign(prog, mesh, loop)
    assert (prog.inspector_runs, prog.patch_hits) == (8, 1)
    assert fingerprint(prog.machine) == PINNED[coalesce]


# ----------------------------------------------------------------------
# (e) the size-based charge equals the bounds-based one
# ----------------------------------------------------------------------
def charge_from_bounds(machine, product, arrays):
    """``charge_state_build`` as written against the flat CSR bounds."""
    n = machine.n_procs
    mem = np.zeros(n)
    for name in product.loop.indirection_arrays():
        mem += arrays[name].distribution.local_sizes().astype(np.float64)
    iops = np.zeros(n)
    for member_keys in product_groups(product):
        first = product.patterns[member_keys[0]].localized
        iops += STATE_IOPS_PER_GHOST * np.diff(
            np.asarray(first.ghost_bounds, dtype=np.float64)
        )
        for key in member_keys:
            loc = product.patterns[key].localized
            iops += STATE_IOPS_PER_REF * np.diff(
                np.asarray(loc.ref_bounds, dtype=np.float64)
            )
    machine.charge_compute_all(iops=iops, mem=mem)


def assert_same_charge(product, arrays, n_procs):
    a, b = Machine(n_procs), Machine(n_procs)
    charge_state_build(a, product, arrays)
    charge_from_bounds(b, product, arrays)
    for field in COUNTER_FIELDS:
        assert np.array_equal(getattr(a.counters, field), getattr(b.counters, field))


@pytest.mark.parametrize("coalesce", [True, False])
def test_charge_matches_bounds_formula(coalesce):
    mesh, prog, loop = build(8, coalesce)
    product = run_inspector(
        Machine(8), loop, prog.arrays, coalesce_patterns=coalesce
    )
    assert_same_charge(product, prog.arrays, 8)
    # and on a patched product, whose slot spaces carry holes
    prog.forall(loop)
    mutate(prog, mesh, 6)
    prog.forall(loop)
    assert prog.patch_hits == 1
    assert_same_charge(prog.records[loop.name].product, prog.arrays, 8)
