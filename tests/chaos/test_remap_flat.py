"""Flattened remap schedules vs the naive per-move-pair loop.

``RemapSchedule.apply`` and ``build_remap_schedule`` historically looped
over every (src, dst) move pair in Python.  These tests keep that naive
implementation as a reference oracle (mirroring
``tests/chaos/test_schedule_flat.py``) and check, over randomized
partitions, that the flattened CSR-style path produces *identical*
remapped array contents and *bit-identical* per-processor simulated
clocks and counters.
"""

import numpy as np
import pytest

from repro.chaos.costs import DEFAULT_COSTS
from repro.chaos.remap import RemapSchedule, build_remap_schedule
from repro.distribution import (
    BlockDistribution,
    CyclicDistribution,
    DistArray,
    IrregularDistribution,
)
from repro.machine.machine import Machine


# ----------------------------------------------------------------------
# naive reference: the historical per-pair implementation
# ----------------------------------------------------------------------
def naive_build(machine, old_dist, new_dist, costs=DEFAULT_COSTS):
    n = machine.n_procs
    size = old_dist.size
    g = np.arange(size, dtype=np.int64)
    old_owner = np.asarray(old_dist.owner(g), dtype=np.int64) if size else g
    new_owner = np.asarray(new_dist.owner(g), dtype=np.int64) if size else g
    old_lidx = np.asarray(old_dist.local_index(g), dtype=np.int64) if size else g
    new_lidx = np.asarray(new_dist.local_index(g), dtype=np.int64) if size else g

    moves = {}
    counts = np.zeros((n, n), dtype=np.int64)
    if size:
        pair_key = old_owner * n + new_owner
        order = np.argsort(pair_key, kind="stable")
        sorted_keys = pair_key[order]
        boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
        starts = np.concatenate(([0], boundaries, [size]))
        for i in range(len(starts) - 1):
            lo, hi = starts[i], starts[i + 1]
            key = int(sorted_keys[lo])
            p, q = divmod(key, n)
            idx = order[lo:hi]
            moves[(p, q)] = (old_lidx[idx], new_lidx[idx])
            counts[p, q] = hi - lo

    per_proc = counts.sum(axis=1).astype(float)
    machine.charge_compute_all(iops=costs.remap_build * per_proc)
    off_diag = counts.copy()
    np.fill_diagonal(off_diag, 0)
    move_p, move_q = np.nonzero(off_diag)
    machine.exchange(
        src=move_p,
        dst=move_q,
        nbytes=off_diag[move_p, move_q] * 2 * costs.index_bytes,
    )
    machine.barrier()
    return moves


def naive_apply(machine, moves, new_dist, arr, costs=DEFAULT_COSTS):
    n = machine.n_procs
    new_locals = [
        np.empty(new_dist.local_size(p), dtype=arr.dtype) for p in range(n)
    ]
    pack = np.zeros(n)
    unpack = np.zeros(n)
    pair_p = []
    pair_q = []
    pair_bytes = []
    for (p, q), (src_l, dst_l) in moves.items():
        if not len(src_l):
            continue
        new_locals[q][dst_l] = arr.local(p)[src_l]
        pack[p] += costs.pack_unpack_mem * len(src_l)
        unpack[q] += costs.pack_unpack_mem * len(src_l)
        pair_p.append(p)
        pair_q.append(q)
        pair_bytes.append(len(src_l) * arr.itemsize)
    machine.charge_compute_all(mem=pack)
    machine.exchange(
        src=np.asarray(pair_p, dtype=np.int64),
        dst=np.asarray(pair_q, dtype=np.int64),
        nbytes=np.asarray(pair_bytes, dtype=np.int64),
    )
    machine.charge_compute_all(mem=unpack)
    arr.rebind(new_dist, new_locals)


def moves_of(sched):
    """(src, dst) -> (old offsets, new offsets) from a schedule's pair arrays."""
    starts = np.concatenate(([0], np.cumsum(sched.pair_counts)))
    return {
        (int(p), int(q)): (sched.src_index[lo:hi], sched.dst_index[lo:hi])
        for p, q, lo, hi in zip(sched.pair_p, sched.pair_q, starts[:-1], starts[1:])
    }


def schedule_from_moves(machine, old_signature, new_dist, moves):
    """A RemapSchedule over the non-empty pairs of a naive move dict."""
    items = [(pq, sl, dl) for pq, (sl, dl) in moves.items() if len(sl)]
    empty = np.empty(0, dtype=np.int64)
    return RemapSchedule(
        machine,
        old_signature,
        new_dist,
        pair_p=np.array([pq[0] for pq, _, _ in items], dtype=np.int64),
        pair_q=np.array([pq[1] for pq, _, _ in items], dtype=np.int64),
        pair_counts=np.array([len(sl) for _, sl, _ in items], dtype=np.int64),
        src_index=np.concatenate([empty, *(sl for _, sl, _ in items)]),
        dst_index=np.concatenate([empty, *(dl for _, _, dl in items)]),
    )


# ----------------------------------------------------------------------
# randomized distribution pairs
# ----------------------------------------------------------------------
def random_dist(rng, size, n_procs):
    kind = rng.choice(["block", "cyclic", "irregular"])
    if kind == "block":
        return BlockDistribution(size, n_procs)
    if kind == "cyclic":
        return CyclicDistribution(size, n_procs)
    return IrregularDistribution(rng.integers(0, n_procs, size=size), n_procs)


def clocks(machine):
    return [machine.procs[p].stats.clock for p in range(machine.n_procs)]


def counters(machine):
    return [
        (
            s.stats.messages_sent,
            s.stats.messages_received,
            s.stats.bytes_sent,
            s.stats.bytes_received,
            s.stats.iops,
            s.stats.mem_ops,
        )
        for s in machine.procs
    ]


CASES = [(2, 13, 0), (3, 29, 1), (4, 50, 2), (4, 64, 3), (8, 97, 4), (8, 200, 5)]


@pytest.mark.parametrize("n_procs,size,seed", CASES)
def test_remap_matches_naive(n_procs, size, seed):
    rng = np.random.default_rng(seed)
    topo = "full" if n_procs & (n_procs - 1) else "hypercube"
    m_flat = Machine(n_procs, topology=topo)
    m_ref = Machine(n_procs, topology=topo)
    old_dist = random_dist(rng, size, n_procs)
    new_dist = random_dist(rng, size, n_procs)
    vals = rng.normal(size=size)

    arr_flat = DistArray.from_global(m_flat, old_dist, vals, name="x")
    arr_ref = DistArray.from_global(m_ref, old_dist, vals, name="x")

    sched = build_remap_schedule(m_flat, old_dist, new_dist)
    moves = naive_build(m_ref, old_dist, new_dist)
    assert clocks(m_flat) == clocks(m_ref)
    assert counters(m_flat) == counters(m_ref)

    sched.apply(arr_flat)
    naive_apply(m_ref, moves, new_dist, arr_ref)
    for p in range(n_procs):
        np.testing.assert_array_equal(arr_flat.local(p), arr_ref.local(p))
    np.testing.assert_array_equal(arr_flat.to_global(), vals)
    # simulated time and every per-processor counter are bit-identical
    assert clocks(m_flat) == clocks(m_ref)
    assert counters(m_flat) == counters(m_ref)
    assert m_flat.elapsed() == m_ref.elapsed()

    # the naive move dict and the flattened pair arrays agree
    flat_moves = moves_of(sched)
    assert set(flat_moves) == set(moves)
    for key in moves:
        np.testing.assert_array_equal(flat_moves[key][0], moves[key][0])
        np.testing.assert_array_equal(flat_moves[key][1], moves[key][1])


@pytest.mark.parametrize("n_procs,size,seed", [(4, 40, 7), (8, 120, 8)])
def test_shared_schedule_reapplication_matches(n_procs, size, seed):
    """Applying one schedule to several arrays matches the naive loop."""
    rng = np.random.default_rng(seed)
    topo = "full" if n_procs & (n_procs - 1) else "hypercube"
    m_flat = Machine(n_procs, topology=topo)
    m_ref = Machine(n_procs, topology=topo)
    old_dist = BlockDistribution(size, n_procs)
    new_dist = IrregularDistribution(rng.integers(0, n_procs, size=size), n_procs)
    vals_a = rng.normal(size=size)
    vals_b = rng.integers(0, 1000, size=size).astype(np.int64)

    a_flat = DistArray.from_global(m_flat, old_dist, vals_a, name="a")
    b_flat = DistArray.from_global(m_flat, old_dist, vals_b, name="b")
    a_ref = DistArray.from_global(m_ref, old_dist, vals_a, name="a")
    b_ref = DistArray.from_global(m_ref, old_dist, vals_b, name="b")

    sched = build_remap_schedule(m_flat, old_dist, new_dist)
    moves = naive_build(m_ref, old_dist, new_dist)
    sched.apply(a_flat)
    sched.apply(b_flat)
    naive_apply(m_ref, moves, new_dist, a_ref)
    naive_apply(m_ref, moves, new_dist, b_ref)

    np.testing.assert_array_equal(a_flat.to_global(), vals_a)
    np.testing.assert_array_equal(b_flat.to_global(), vals_b)
    assert b_flat.dtype == np.int64
    assert clocks(m_flat) == clocks(m_ref)
    assert counters(m_flat) == counters(m_ref)


def test_apply_honors_custom_costs():
    """apply() charges pack/unpack at the *caller's* cost model.

    The seed implementation hardcoded DEFAULT_COSTS here (a latent bug:
    programs built with custom ChaosCosts got default-cost remaps);
    this pins the intentional fix.
    """
    from dataclasses import replace

    n_procs, size = 4, 24
    rng = np.random.default_rng(11)
    old_dist = BlockDistribution(size, n_procs)
    new_dist = CyclicDistribution(size, n_procs)
    custom = replace(DEFAULT_COSTS, pack_unpack_mem=10 * DEFAULT_COSTS.pack_unpack_mem)

    def mem_after(costs):
        m = Machine(n_procs)
        arr = DistArray.from_global(m, old_dist, rng.normal(size=size))
        sched = build_remap_schedule(m, old_dist, new_dist, costs)
        before = m.counters.mem_ops.sum()
        sched.apply(arr, costs)
        return float(m.counters.mem_ops.sum() - before)

    default_mem = mem_after(DEFAULT_COSTS)
    custom_mem = mem_after(custom)
    assert default_mem > 0
    # self-moves contribute exchange-side mem copies at a fixed rate, so
    # the custom run must be strictly dearer but scale on the pack/unpack
    # component only
    assert custom_mem > default_mem


def test_legacy_moves_constructor_equivalent():
    """A schedule built from an explicit naive moves dict (flattened by
    ``schedule_from_moves``) behaves identically to one built by
    ``build_remap_schedule``."""
    n_procs, size, seed = 4, 36, 9
    rng = np.random.default_rng(seed)
    m_a = Machine(n_procs)
    m_b = Machine(n_procs)
    old_dist = BlockDistribution(size, n_procs)
    new_dist = IrregularDistribution(rng.integers(0, n_procs, size=size), n_procs)
    vals = rng.normal(size=size)
    arr_a = DistArray.from_global(m_a, old_dist, vals)
    arr_b = DistArray.from_global(m_b, old_dist, vals)

    flat = build_remap_schedule(m_a, old_dist, new_dist)
    moves = naive_build(Machine(n_procs), old_dist, new_dist)
    legacy = schedule_from_moves(m_b, old_dist.signature(), new_dist, moves)
    m_b.counters.clock[:] = m_a.counters.clock
    m_b.counters.iops[:] = m_a.counters.iops
    m_b.counters.messages_sent[:] = m_a.counters.messages_sent
    m_b.counters.messages_received[:] = m_a.counters.messages_received
    m_b.counters.bytes_sent[:] = m_a.counters.bytes_sent
    m_b.counters.bytes_received[:] = m_a.counters.bytes_received

    flat.apply(arr_a)
    legacy.apply(arr_b)
    assert legacy.element_count() == flat.element_count()
    np.testing.assert_array_equal(arr_b.to_global(), vals)
    assert clocks(m_a) == clocks(m_b)
    assert counters(m_a) == counters(m_b)
