"""Flat CSR form for per-processor index lists.

The CHAOS layers pass "one list per processor" data around constantly
(reference lists, translations, localized indices).  ``FlatRefs`` is the
shared flat representation: one concatenated value array plus ``(P + 1,)``
CSR bounds, so hot paths operate on single arrays.  It lives below both
``ttable`` and ``localize`` so either layer can flatten list input
without duplicating the conversion.
"""

from __future__ import annotations

import numpy as np


class FlatRefs:
    """Per-processor reference lists in flat CSR form.

    ``values`` concatenates every processor's list; processor ``p``'s
    slice is ``values[bounds[p]:bounds[p+1]]``.
    """

    __slots__ = ("values", "bounds")

    def __init__(self, values: np.ndarray, bounds: np.ndarray):
        self.values = np.asarray(values, dtype=np.int64)
        self.bounds = np.asarray(bounds, dtype=np.int64)

    @classmethod
    def from_lists(cls, ref_lists: "list[np.ndarray] | FlatRefs") -> "FlatRefs":
        if isinstance(ref_lists, FlatRefs):
            return ref_lists
        arrays = [np.asarray(r, dtype=np.int64) for r in ref_lists]
        bounds = np.zeros(len(arrays) + 1, dtype=np.int64)
        np.cumsum([a.size for a in arrays], out=bounds[1:])
        values = (
            np.concatenate(arrays) if bounds[-1] else np.empty(0, dtype=np.int64)
        )
        return cls(values, bounds)

    @property
    def n_procs(self) -> int:
        return len(self.bounds) - 1

    def sizes(self) -> np.ndarray:
        return np.diff(self.bounds)
