"""Flattened-schedule equivalence: CSR apply path vs a naive pair loop.

``CommSchedule`` stores its pairs as flat arrays and applies one
fancy-index over the flat array and ghost backings.  These tests keep a
small naive reference implementation that walks (owner, requester) ->
offsets dicts pair by pair, over per-processor ghost arrays, and check,
over randomized schedules, that gather / scatter / scatter_op produce
*identical* array contents and *bit-identical* per-processor machine
clocks and counters -- including the order-sensitive cases: duplicate
recv slots (last writer wins) and floating-point reduction accumulation
order.  ``schedule_from_pairs`` flattens the same dicts into the
schedule under test.
"""

import numpy as np
import pytest

from repro.chaos.costs import DEFAULT_COSTS
from repro.chaos.schedule import CommSchedule
from repro.distribution.distarray import DistArray
from repro.distribution.regular import BlockDistribution
from repro.machine.machine import Machine


# ----------------------------------------------------------------------
# naive reference: a per-(sender, receiver)-pair loop over dicts
# ----------------------------------------------------------------------
def schedule_from_pairs(machine, signature, send_lists, recv_slots, ghost_sizes):
    """A CommSchedule over the pairs of two (owner, requester) dicts."""
    keys = list(send_lists)
    empty = np.empty(0, dtype=np.int64)
    return CommSchedule(
        machine,
        signature,
        [q for q, _ in keys],
        [p for _, p in keys],
        [len(send_lists[k]) for k in keys],
        np.concatenate([empty, *(send_lists[k] for k in keys)]),
        np.concatenate([empty, *(recv_slots[k] for k in keys)]),
        ghost_sizes,
    )


def split_ghosts(flat, ghost_sizes):
    """Per-processor copies of a flat ghost array."""
    bounds = np.concatenate(([0], np.cumsum(ghost_sizes)))
    return [flat[bounds[p] : bounds[p + 1]].copy() for p in range(len(ghost_sizes))]


def naive_gather(machine, send_lists, recv_slots, arr, ghosts, costs=DEFAULT_COSTS):
    n = machine.n_procs
    pack = np.zeros(n)
    unpack = np.zeros(n)
    wires = {}
    for (q, p), sl in send_lists.items():
        if not len(sl):
            continue
        ghosts[p][recv_slots[(q, p)]] = arr.local(q)[sl]
        pack[q] += costs.pack_unpack_mem * len(sl)
        unpack[p] += costs.pack_unpack_mem * len(sl)
        wires[(q, p)] = len(sl) * arr.itemsize
    machine.charge_compute_all(mem=list(pack))
    machine.exchange(wires)
    machine.charge_compute_all(mem=list(unpack))


def naive_reverse(
    machine, send_lists, recv_slots, ghosts, arr, op, costs=DEFAULT_COSTS
):
    n = machine.n_procs
    pack = np.zeros(n)
    unpack = np.zeros(n)
    combine = np.zeros(n)
    wires = {}
    for (q, p), sl in send_lists.items():
        if not len(sl):
            continue
        data = ghosts[p][recv_slots[(q, p)]]
        if op is None:
            arr.local(q)[sl] = data
        else:
            op.at(arr.local(q), sl, data)
            combine[q] += 1.0 * len(sl)
        pack[p] += costs.pack_unpack_mem * len(sl)
        unpack[q] += costs.pack_unpack_mem * len(sl)
        wires[(p, q)] = len(sl) * arr.itemsize
    machine.charge_compute_all(mem=list(pack))
    machine.exchange(wires)
    machine.charge_compute_all(mem=list(unpack), flops=list(combine))


# ----------------------------------------------------------------------
# randomized schedule construction
# ----------------------------------------------------------------------
def random_schedule_parts(rng, n_procs, local_size, max_ghost=12):
    """Random send/recv pair dicts (duplicates allowed) + ghost sizes."""
    ghost_sizes = [int(rng.integers(0, max_ghost + 1)) for _ in range(n_procs)]
    send_lists = {}
    recv_slots = {}
    pairs = [
        (q, p)
        for q in range(n_procs)
        for p in range(n_procs)
        if rng.random() < 0.6
    ]
    pairs = [pairs[i] for i in rng.permutation(len(pairs))]
    for q, p in pairs:
        if ghost_sizes[p] == 0:
            count = 0
        else:
            count = int(rng.integers(0, 2 * ghost_sizes[p] + 1))
        # duplicate send offsets and recv slots are deliberately allowed:
        # they exercise last-writer-wins and accumulation-order semantics
        send_lists[(q, p)] = rng.integers(0, local_size, size=count)
        recv_slots[(q, p)] = rng.integers(0, max(ghost_sizes[p], 1), size=count)
    return send_lists, recv_slots, ghost_sizes


def make_world(n_procs, size, seed):
    machine = Machine(n_procs, topology="full" if n_procs & (n_procs - 1) else "hypercube")
    dist = BlockDistribution(size, n_procs)
    rng = np.random.default_rng(seed)
    arr = DistArray.from_global(machine, dist, rng.normal(size=size), name="x")
    min_local = min(dist.local_size(p) for p in range(n_procs))
    return machine, arr, min_local


def clocks(machine):
    return [machine.procs[p].stats.clock for p in range(machine.n_procs)]


def counters(machine):
    return [
        (
            s.stats.messages_sent,
            s.stats.messages_received,
            s.stats.bytes_sent,
            s.stats.bytes_received,
            s.stats.flops,
            s.stats.mem_ops,
        )
        for s in machine.procs
    ]


CASES = [(2, 17, 0), (3, 23, 1), (4, 40, 2), (4, 64, 3), (8, 61, 4), (8, 128, 5)]


@pytest.mark.parametrize("n_procs,size,seed", CASES)
def test_gather_matches_naive(n_procs, size, seed):
    rng = np.random.default_rng(seed)
    m_flat, arr_flat, min_local = make_world(n_procs, size, seed)
    m_ref, arr_ref, _ = make_world(n_procs, size, seed)
    send, recv, gsizes = random_schedule_parts(rng, n_procs, min_local)

    sig = arr_flat.distribution.signature()
    sched = schedule_from_pairs(m_flat, sig, send, recv, gsizes)
    g_flat = np.zeros(sum(gsizes))
    g_ref = [np.zeros(s) for s in gsizes]

    sched.gather(arr_flat, g_flat)
    naive_gather(m_ref, send, recv, arr_ref, g_ref)

    for p, got in enumerate(split_ghosts(g_flat, gsizes)):
        np.testing.assert_array_equal(got, g_ref[p])
    assert clocks(m_flat) == clocks(m_ref)
    assert counters(m_flat) == counters(m_ref)


@pytest.mark.parametrize("n_procs,size,seed", CASES)
@pytest.mark.parametrize("opname", ["assign", "add", "max"])
def test_reverse_matches_naive(n_procs, size, seed, opname):
    rng = np.random.default_rng(seed + 100)
    m_flat, arr_flat, min_local = make_world(n_procs, size, seed)
    m_ref, arr_ref, _ = make_world(n_procs, size, seed)
    send, recv, gsizes = random_schedule_parts(rng, n_procs, min_local)

    sig = arr_flat.distribution.signature()
    sched = schedule_from_pairs(m_flat, sig, send, recv, gsizes)
    contrib = [rng.normal(size=s) for s in gsizes]
    g_flat = np.concatenate([np.empty(0), *contrib])
    g_ref = [c.copy() for c in contrib]

    op = {"assign": None, "add": np.add, "max": np.maximum}[opname]
    if op is None:
        sched.scatter(g_flat, arr_flat)
    else:
        sched.scatter_op(g_flat, arr_flat, op)
    naive_reverse(m_ref, send, recv, g_ref, arr_ref, op)

    for p in range(n_procs):
        np.testing.assert_array_equal(arr_flat.local(p), arr_ref.local(p))
    assert clocks(m_flat) == clocks(m_ref)
    assert counters(m_flat) == counters(m_ref)


def test_empty_and_self_pairs():
    """Self-messages and empty pairs survive flattening unchanged."""
    m_flat, arr_flat, _ = make_world(2, 10, 7)
    m_ref, arr_ref, _ = make_world(2, 10, 7)
    send = {
        (0, 0): np.array([1, 2]),  # self pair: local memory copy
        (1, 0): np.array([], dtype=np.int64),  # empty: skipped entirely
        (0, 1): np.array([3, 3]),  # duplicate sends of one element
    }
    recv = {
        (0, 0): np.array([0, 1]),
        (1, 0): np.array([], dtype=np.int64),
        (0, 1): np.array([1, 0]),
    }
    gsizes = [2, 2]
    sig = arr_flat.distribution.signature()
    sched = schedule_from_pairs(m_flat, sig, send, recv, gsizes)
    g_flat = np.zeros(4)
    g_ref = [np.zeros(2), np.zeros(2)]
    sched.gather(arr_flat, g_flat)
    naive_gather(m_ref, send, recv, arr_ref, g_ref)
    for p, got in enumerate(split_ghosts(g_flat, gsizes)):
        np.testing.assert_array_equal(got, g_ref[p])
    assert clocks(m_flat) == clocks(m_ref)
    # the empty pair must not produce a message
    assert m_flat.procs[1].stats.messages_sent == 0


def small_schedule(seed=21):
    rng = np.random.default_rng(seed)
    machine, arr, min_local = make_world(4, 40, seed)
    send, recv, gsizes = random_schedule_parts(rng, 4, min_local)
    return schedule_from_pairs(
        machine, arr.distribution.signature(), send, recv, gsizes
    )


class TestEntriesImmutability:
    """Writing through entries() views must raise, not corrupt."""

    def test_all_four_views_are_readonly(self):
        sched = small_schedule()
        q, p, send, recv = sched.entries()
        assert q.size  # a trivially empty schedule would prove nothing
        for view in (q, p, send, recv):
            assert not view.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 99

    def test_send_recv_are_views_not_copies(self):
        # zero-copy is the point of the flat layout: entries() must not
        # silently duplicate the arrays to get safety
        sched = small_schedule()
        _, _, send, recv = sched.entries()
        assert send.base is sched._flat_send
        assert recv.base is sched._flat_recv


class TestPatchedValidation:
    """patched() must reject malformed inputs before building any state."""

    def test_mismatched_add_lengths_raise(self):
        sched = small_schedule()
        n = sched.entry_count() if hasattr(sched, "entry_count") else sched._n_elements
        keep = np.ones(n, dtype=bool)
        two = np.zeros(2, dtype=np.int64)
        three = np.zeros(3, dtype=np.int64)
        with pytest.raises(ValueError, match="same length"):
            sched.patched(keep, two, two, two, three, sched.ghost_sizes)
        with pytest.raises(ValueError, match="same length"):
            sched.patched(keep, two, three, two, two, sched.ghost_sizes)
        with pytest.raises(ValueError, match="same length"):
            sched.patched(
                keep, two, two, two, two, sched.ghost_sizes, add_key=three
            )

    def test_scalar_add_arrays_raise(self):
        sched = small_schedule()
        keep = np.ones(sched._n_elements, dtype=bool)
        with pytest.raises(ValueError, match="1-D"):
            sched.patched(keep, 1, 1, 1, 1, sched.ghost_sizes)

    def test_bad_keep_shape_raises(self):
        sched = small_schedule()
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError, match="keep mask"):
            sched.patched(
                np.ones(sched._n_elements + 1, dtype=bool),
                empty, empty, empty, empty, sched.ghost_sizes,
            )

    def test_schedule_untouched_after_rejected_patch(self):
        sched = small_schedule()
        before = [a.copy() for a in (sched._flat_send, sched._flat_recv)]
        two = np.zeros(2, dtype=np.int64)
        three = np.zeros(3, dtype=np.int64)
        with pytest.raises(ValueError):
            sched.patched(
                np.ones(sched._n_elements, dtype=bool),
                two, two, two, three, sched.ghost_sizes,
            )
        assert np.array_equal(sched._flat_send, before[0])
        assert np.array_equal(sched._flat_recv, before[1])


class TestTwin:
    def test_twin_shares_arrays_under_distinct_identity(self):
        sched = small_schedule()
        tw = sched.twin()
        assert tw is not sched
        assert tw._flat_send is sched._flat_send
        assert tw._flat_recv is sched._flat_recv
        assert tw._pair_q is sched._pair_q
        assert tw.ghost_sizes == sched.ghost_sizes
        a = sched.entries()
        b = tw.entries()
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestConstructorValidation:
    """Every constructor rejects malformed pair-grouped input."""

    def build(self, pair_q, pair_p, pair_len, flat_send, flat_recv):
        machine, arr, _ = make_world(2, 10, 0)
        return CommSchedule(
            machine,
            arr.distribution.signature(),
            pair_q,
            pair_p,
            pair_len,
            flat_send,
            flat_recv,
            [2, 2],
        )

    def test_valid_input_builds(self):
        sched = self.build([0, 1], [1, 0], [2, 1], [0, 1, 2], [0, 1, 1])
        assert sched.element_count() == 3

    @pytest.mark.parametrize("pair_q,pair_p", [([0], [5]), ([-1], [1])])
    def test_pair_id_out_of_range(self, pair_q, pair_p):
        with pytest.raises(ValueError, match=r"pair \(.*\) out of range \[0, 2\)"):
            self.build(pair_q, pair_p, [1], [0], [0])

    def test_negative_pair_length(self):
        with pytest.raises(ValueError, match=r"pair \(1, 0\): negative length -1"):
            self.build([0, 1], [1, 0], [2, -1], [0], [0])

    @pytest.mark.parametrize(
        "flat_send,flat_recv", [([0, 1, 2], [0, 1]), ([0, 1], [0]), ([0], [0])]
    )
    def test_flat_sizes_must_match_pair_lengths(self, flat_send, flat_recv):
        with pytest.raises(ValueError, match="pair lengths sum to 2"):
            self.build([0], [1], [2], flat_send, flat_recv)

    def test_pair_array_shapes_must_agree(self):
        with pytest.raises(ValueError, match="pair arrays differ in shape"):
            self.build([0, 1], [1], [1, 1], [0, 0], [0, 0])

    def test_from_entries_checks_pair_ids(self):
        machine, arr, _ = make_world(2, 10, 0)
        with pytest.raises(ValueError, match="out of range"):
            CommSchedule.from_entries(
                machine, arr.distribution.signature(), [0], [5], [0], [0], [2, 2]
            )

    def test_patched_checks_added_pair_ids(self):
        sched = small_schedule()
        keep = np.ones(sched._n_elements, dtype=bool)
        one = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError, match="out of range"):
            sched.patched(keep, one, one + 7, one, one, sched.ghost_sizes)
