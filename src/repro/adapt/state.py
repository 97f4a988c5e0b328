"""Saved state the incremental inspector diffs and patches against.

A full inspection captures, per loop:

* a **snapshot** of every indirection array's global values (what the
  reference lists were computed from),
* the dense **home** map of the iteration partition (iteration ->
  processor), and
* one :class:`GroupState` per pattern *group* -- the patterns sharing a
  (possibly coalesced) schedule -- tracking the CSR ghost slot space
  described in the package docstring: per global slot id the ghost's
  key, owner, owner-local offset, and live reference count.

Building this state is plain bookkeeping over arrays the inspector
already produced; the machine is charged a small per-element recording
cost (the runtime really would tally counts and copy the indirection
values), which is the price of enabling incremental inspection.

The state is a pure function of the inputs :func:`adapt_state_key`
names -- the loop, the ``content_key`` of every indirection array, the
``dist_key`` of every data array, and the product's pattern grouping --
so it is built once per such key (the paper's reuse idea applied to the
simulator's own bookkeeping): a full re-inspection of an unchanged loop
keeps the saved state, while the recording cost is still charged on
every full inspection, so simulated numbers do not depend on the reuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cachekey import content_key, dist_key
from repro.core.inspector import InspectorProduct
from repro.distribution.distarray import DistArray

#: integer ops per ghost slot for recording the slot -> key/owner map
STATE_IOPS_PER_GHOST = 4.0
#: integer ops per reference for tallying per-slot reference counts
STATE_IOPS_PER_REF = 1.0


@dataclass
class GroupState:
    """CSR ghost-slot bookkeeping for one pattern group (see package doc)."""

    array: str
    indexes: tuple[str | None, ...]
    slot_bounds: np.ndarray  # (P + 1,) CSR bounds of the slot space
    keys: np.ndarray  # (S,) ghost global index per slot (stale in holes)
    owners: np.ndarray  # (S,) owning processor of each ghost key
    lidx: np.ndarray  # (S,) owner-local offset of each ghost key
    counts: np.ndarray  # (S,) live reference count; 0 marks a hole
    #: persisted sorted slot index: ``sorted_comp`` holds the composite
    #: ``slot_proc * stride + key`` of every slot in ascending order
    #: (ties slot-ascending) and ``sorted_slot`` the slot id per entry.
    #: Built once (lazily) and *merged* delta-sized on every patch, so
    #: lookups never re-sort the slot space.  ``None`` after restore
    #: from a pre-index checkpoint; rebuilt on first use.
    sorted_comp: np.ndarray | None = None
    sorted_slot: np.ndarray | None = None
    index_stride: int = 0

    def slot_proc(self) -> np.ndarray:
        """Processor owning each global slot id."""
        return np.repeat(
            np.arange(self.slot_bounds.size - 1, dtype=np.int64),
            np.diff(self.slot_bounds),
        )

    def slot_index(self, stride: int) -> tuple[np.ndarray, np.ndarray]:
        """``(sorted_comp, sorted_slot)`` for ``stride``, building on miss.

        The one argsort here runs only on first use (or after a stride
        change, which implies a new distribution and therefore fresh
        state anyway); patches keep the index current by merging their
        delta instead of calling back into this.
        """
        if (
            self.sorted_comp is None
            or self.sorted_slot is None
            or self.index_stride != stride
        ):
            comp = self.slot_proc() * stride + self.keys
            order = np.argsort(comp, kind="stable")
            self.sorted_comp = comp[order]
            self.sorted_slot = order
            self.index_stride = stride
        return self.sorted_comp, self.sorted_slot


@dataclass
class LoopAdaptState:
    """Everything needed to patch one loop's saved inspector product."""

    home: np.ndarray  # dense iteration -> processor map
    snapshots: dict[str, np.ndarray]  # indirection name -> global values
    groups: dict[tuple[str, tuple], GroupState] = field(default_factory=dict)
    #: :func:`adapt_state_key` of the inputs this state was built from;
    #: ``None`` (restored from a checkpoint, or handed to a patch) means
    #: unknown, so the next full inspection rebuilds
    key: tuple | None = None


def product_groups(
    product: InspectorProduct,
) -> list[list[tuple[str, str | None]]]:
    """Pattern keys grouped by shared schedule, in first-appearance order."""
    by_sched: dict[int, list[tuple[str, str | None]]] = {}
    for key, pat in product.patterns.items():
        by_sched.setdefault(id(pat.localized.schedule), []).append(key)
    return list(by_sched.values())


def group_state_key(member_keys: list[tuple[str, str | None]]) -> tuple[str, tuple]:
    return (member_keys[0][0], tuple(k[1] for k in member_keys))


def build_group_state(
    product: InspectorProduct,
    arrays: dict[str, DistArray],
    member_keys: list[tuple[str, str | None]],
) -> GroupState:
    """Slot bookkeeping for one group of a *freshly inspected* product.

    A fresh :func:`~repro.chaos.localize.localize` assigns ghost slots in
    sorted-key order with no holes, so ``ghost_flat``/``ghost_bounds``
    of any member's ``LocalizeResult`` are exactly the slot space.
    Counts come from one ``bincount`` over each member's localized ghost
    references.
    """
    array_name = member_keys[0][0]
    first = product.patterns[member_keys[0]].localized
    dist = arrays[array_name].distribution
    slot_bounds = np.asarray(first.ghost_bounds, dtype=np.int64).copy()
    keys = np.asarray(first.ghost_flat, dtype=np.int64).copy()
    if keys.size:
        owners = np.asarray(dist.owner(keys), dtype=np.int64)
        lidx = np.asarray(dist.local_index(keys), dtype=np.int64)
    else:
        owners = np.empty(0, dtype=np.int64)
        lidx = np.empty(0, dtype=np.int64)
    counts = np.zeros(keys.size, dtype=np.int64)
    local_sizes = np.asarray(first.local_sizes, dtype=np.int64)
    for key in member_keys:
        loc = product.patterns[key].localized
        refs = loc.refs_flat
        pid = np.repeat(
            np.arange(slot_bounds.size - 1, dtype=np.int64),
            np.diff(loc.ref_bounds),
        )
        ghost = refs >= local_sizes[pid]
        if ghost.any():
            gslot = slot_bounds[pid[ghost]] + (refs[ghost] - local_sizes[pid[ghost]])
            counts += np.bincount(gslot, minlength=keys.size)
    state = GroupState(
        array=array_name,
        indexes=tuple(k[1] for k in member_keys),
        slot_bounds=slot_bounds,
        keys=keys,
        owners=owners,
        lidx=lidx,
        counts=counts,
    )
    # build the sorted slot index now, while the full inspection is
    # already paying O(S log S): patches then only merge deltas into it
    state.slot_index(max(dist.size, 1))
    return state


def adapt_state_key(
    product: InspectorProduct,
    arrays: dict[str, DistArray],
) -> tuple:
    """Version key of everything :func:`build_adapt_state` reads.

    The snapshots read the indirection arrays' values (``content_key``);
    the iteration partition, ghost sets and owner/offset maps are fixed
    by those values, the data arrays' layouts (``dist_key``) and the
    loop with its partitioning method; the group states follow the
    product's pattern grouping.  Equal keys therefore mean a fresh build
    would equal the saved state element for element.
    """
    loop = product.loop
    return (
        loop,
        product.iteration_partition.method,
        tuple(content_key(arrays[name]) for name in loop.indirection_arrays()),
        tuple(dist_key(arrays[name].distribution) for name in loop.data_arrays()),
        tuple(group_state_key(m) for m in product_groups(product)),
    )


def build_adapt_state(
    product: InspectorProduct,
    arrays: dict[str, DistArray],
) -> LoopAdaptState:
    """Capture snapshots + home map + group states after a full inspection."""
    snapshots = {
        name: np.asarray(arrays[name].global_view(), dtype=np.int64).copy()
        for name in product.loop.indirection_arrays()
    }
    state = LoopAdaptState(
        home=product.iteration_partition.owner_of(),
        snapshots=snapshots,
    )
    for member_keys in product_groups(product):
        state.groups[group_state_key(member_keys)] = build_group_state(
            product, arrays, member_keys
        )
    return state


def charge_state_build(machine, product: InspectorProduct, arrays) -> None:
    """Charge the bookkeeping cost of capturing adapt state.

    Each processor copies its local segment of every indirection array
    (the snapshot), records its ghost slot map, and tallies its
    reference counts -- all local integer/memory work.  Charged on every
    full inspection, whether or not the state was rebuilt.  Per-processor
    counts are the differences of the flat CSR bounds.
    """
    n = machine.n_procs
    mem = np.zeros(n)
    for name in product.loop.indirection_arrays():
        mem += arrays[name].distribution.local_sizes().astype(np.float64)
    iops = np.zeros(n)
    for member_keys in product_groups(product):
        first = product.patterns[member_keys[0]].localized
        iops += STATE_IOPS_PER_GHOST * np.diff(first.ghost_bounds).astype(np.float64)
        for key in member_keys:
            loc = product.patterns[key].localized
            iops += STATE_IOPS_PER_REF * np.diff(loc.ref_bounds).astype(np.float64)
    machine.charge_compute_all(iops=iops, mem=mem)
