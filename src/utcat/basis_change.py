"""Relabeling of skeletal data: the permuted-tree-basis transform.

The engine fixes every basis enumeration by sorting labels, so renaming
labels bijectively permutes all tree bases (hom-space path orders, fiber
orders, F-block row/column orders) while representing the same category.
Quantities the theory states basis-independently — norms, expectation
values, verdicts — must be unchanged under this transform; the acceptance
suite re-runs its numeric criteria through it.
"""

from __future__ import annotations

import numpy as np

from .errors import LabelMismatch
from .fusion_ring import BlockTable, FusionRing
from .skeletal import SkeletalUTC

__all__ = ["relabel_category"]


def _moved(old: BlockTable, new: BlockTable, P: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The flat buffer ``buf`` of table ``old`` in the layout of ``new``, the
    table after label position x became P[x]: each block's rows and columns
    re-sorted by the renamed channel labels."""
    K = len(old.size)
    k = new.number[tuple(P[old.keys].T)]  # old block -> new block
    blk = np.repeat(np.arange(K), old.size)
    pos = np.arange(len(blk)) - old.start[blk]

    def order(slots):  # the old slot row at each new slot row
        cols = slots.copy()
        if old.chan is not None:  # F slots start with a channel label
            cols[:, 0] = P[cols[:, 0]]
        return np.lexsort((*cols.T[::-1], k[blk]))

    rows, cols = order(old.left), order(old.right)
    nb, p, q = new.entry_index()
    ob = np.argsort(k)[nb]
    return buf[old.offset[ob] + pos[rows[new.start[nb] + p]] * old.size[ob]
               + pos[cols[new.start[nb] + q]]]


def relabel_category(cat: SkeletalUTC, rename: dict) -> SkeletalUTC:
    """Rebuild `cat` with bijectively renamed labels.

    `rename` maps old labels to new ones; omitted labels keep their name.
    F-symbol blocks are permuted to the new lexicographic order of their
    intermediate channels so the rebuilt category is internally consistent.
    """
    ring = cat.ring
    rn = [rename.get(x, x) for x in ring.labels]
    if len(set(rn)) != len(ring.labels):
        raise LabelMismatch("rename is not a bijection on the labels")
    mult = {(rn[x], rn[y], rn[z]): int(ring._N[x, y, z])
            for x, y, z in np.argwhere(ring._N).tolist()}
    new_ring = FusionRing(rn, rn[ring.index[ring.unit]],
                          {rn[i]: rn[ring.index[ring.dual[x]]] for i, x in enumerate(ring.labels)},
                          mult)
    P = np.array([new_ring.index[x] for x in rn])
    F = _moved(ring.ftable, new_ring.ftable, P, cat._F)
    # R blocks are indexed by multiplicity only: moved, not reordered
    R = _moved(ring.rtable, new_ring.rtable, P, cat._R) if cat.braided else None
    return SkeletalUTC(new_ring, F, R)
