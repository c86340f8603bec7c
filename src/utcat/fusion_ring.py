"""Fusion rings: labels, unit, duals, multiplicity tensor, F- and R-tables.

A :class:`FusionRing` is the combinatorial skeleton of a unitary tensor
category.  Everything downstream (tree bases, F-moves, algebra objects) only
ever talks to the ring through the small query surface here, so validation is
strict and happens once, in :func:`validate_ring`.  The ring holds no
dimensions: a category reads d_x off its F-symbols
(:meth:`~utcat.skeletal.SkeletalUTC.d`) and checks them against N.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import AxiomViolation, RingAxiomError, SchemaError, UnknownLabel

__all__ = ["BlockTable", "FusionRing", "validate_ring"]


def _encode(cols: np.ndarray, radix: int) -> np.ndarray:
    """The rows of ``cols`` as mixed-radix integers, first column highest."""
    return cols @ radix ** np.arange(cols.shape[1] - 1, -1, -1)


def _join(keys: np.ndarray, table: np.ndarray) -> tuple:
    """All index pairs (i, j) with keys[i] == table[j], for sorted ``table``."""
    lo = np.searchsorted(table, keys)
    n = np.searchsorted(table, keys, "right") - lo
    i = np.repeat(np.arange(len(keys)), n)
    return i, np.arange(len(i)) + np.repeat(lo - np.cumsum(n) + n, n)


class BlockTable(NamedTuple):
    """Every nonzero F-block (or R-block) of a ring as integer arrays.

    Block k has label positions ``keys[k]`` ((a, b, c, d) for F, (a, b, c)
    for R), in ascending order, and size ``size[k]``; ``number[a, b, …]`` is
    the k of a key, −1 for a zero block.  Its left and right slots are the
    rows ``start[k]`` … ``start[k] + size[k]`` of ``left`` and ``right``:
    (e, α, β) and (f, μ, ν) for F, (μ,) for R.  Blocks live in one flat
    buffer, grouped by size: block k starts at ``offset[k]``, and ``groups``
    lists (n, block numbers) per size, so the blocks of size n are one
    (K_n, n, n) stack.  ``unit_leg[k]`` marks keys with the unit among their
    tensor factors.  For F, ``chan[k, 0, e]`` and ``chan[k, 1, f]`` are the
    first row of channel e and the first column of channel f in block k (read
    only where the channel has slots).
    """

    keys: np.ndarray
    size: np.ndarray
    start: np.ndarray
    left: np.ndarray
    right: np.ndarray
    offset: np.ndarray
    groups: tuple
    unit_leg: np.ndarray
    number: np.ndarray
    chan: np.ndarray | None

    @property
    def buffer_length(self) -> int:
        """The number of entries of the flat buffer."""
        return int(np.sum(self.size ** 2))

    def positions(self, k: np.ndarray, shape: np.ndarray, corner: np.ndarray) -> np.ndarray:
        """The flat-buffer positions, row by row, of the entries of matrices
        of shapes ``shape`` placed in blocks ``k`` from (row, column) ``corner``."""
        count = shape[:, 0] * shape[:, 1]
        s = np.repeat(np.arange(len(k)), count)
        local = np.arange(len(s)) - np.repeat(np.cumsum(count) - count, count)
        rows, cols = corner[s, 0] + local // shape[s, 1], corner[s, 1] + local % shape[s, 1]
        return self.offset[k[s]] + rows * self.size[k[s]] + cols

    def entry_index(self) -> tuple:
        """(block, row, column) of every entry of the flat buffer, in order."""
        order = np.concatenate([ids for _, ids in self.groups])
        blk = np.repeat(order, self.size[order] ** 2)
        local = np.arange(len(blk)) - self.offset[blk]
        n = self.size[blk]
        return blk, local // n, local % n


def _block_table(codes: np.ndarray, rows: np.ndarray, width: int, unit: int,
                 n_labels: int) -> BlockTable:
    """The table of slot ``rows`` (key columns, then slot columns) with key
    ``codes``, one row per slot, each block's rows contiguous and in slot
    order."""
    start = np.flatnonzero(np.diff(codes, prepend=-1))
    size = np.diff(start, append=len(rows))
    order = np.argsort(size, kind="stable")
    sq = size[order] ** 2
    offset = np.empty_like(size)
    offset[order] = np.cumsum(sq) - sq
    cut = np.flatnonzero(np.diff(sq, prepend=-1)).tolist()  # where each size starts
    groups = tuple((int(size[order[lo]]), order[lo:hi])
                   for lo, hi in zip(cut, cut[1:] + [len(order)]))
    keys = rows[start, :width]
    number = np.full((n_labels,) * width, -1)
    number[tuple(keys.T)] = np.arange(len(keys))
    return BlockTable(keys, size, start, rows[:, width:], rows[:, width:], offset,
                      groups, (keys[:, :-1] == unit).any(axis=1), number, None)


class FusionRing:
    """Validated fusion data.  Immutable; construct via :func:`validate_ring`.

    Every query reads tables built once per instance: ``_mult[i][j][k]`` is
    N_ij^k over label positions, and ``_channels[(x, y)]`` is the tuple of
    ``(z, N_xy^z)`` pairs with N_xy^z > 0, in sorted-label order.

    ``ftable`` is the one F-index table: a :class:`BlockTable` of every
    nonzero block F[a,b,c;d], built with numpy from the multiplicities by
    joining the channel rows (x, y, z, t) twice, ((ab)e, (ec)d) for the left
    basis and ((bc)f, (af)d) for the right.  ``rtable`` lists the R-blocks
    (a, b; c).  Every F and R reader goes through them: the category stores
    its blocks in their flat buffers, the JSON schema scatters into them, the
    coherence checks join against their slots, and label positions (``_i``
    of a label) find their blocks in the dense ``number`` arrays, the one
    block lookup: no index is keyed by label strings.  The basis of block k is
    its slot rows, ``start[k]`` … ``start[k] + size[k]`` of ``left`` and
    ``right``: channel first, then multiplicities, the row and column order
    of the block.
    """

    def __init__(self, labels, unit, dual, mult):
        # labels sorted lexicographically: the single deterministic ordering
        # used for every basis enumeration in the engine.
        self.labels: tuple[str, ...] = tuple(sorted(labels))
        self.unit: str = unit
        self.dual: dict[str, str] = dict(dual)
        self.index: dict[str, int] = {x: i for i, x in enumerate(self.labels)}
        n = len(self.labels)
        N = np.zeros((n, n, n), dtype=np.int64)
        for (x, y, z), m in mult.items():
            N[self.index[x], self.index[y], self.index[z]] = m
        self._N = N
        self._N.setflags(write=False)
        self._mult = N.tolist()
        self._channels = {
            (x, y): tuple((z, m) for z, m in zip(self.labels, self._mult[i][j]) if m)
            for i, x in enumerate(self.labels) for j, y in enumerate(self.labels)
        }

    # -- queries ----------------------------------------------------------

    def _i(self, x: str) -> int:
        try:
            return self.index[x]
        except KeyError:
            raise UnknownLabel(x) from None

    def N(self, x: str, y: str, z: str) -> int:
        """Multiplicity of ``z`` in ``x ⊗ y``."""
        idx = self.index
        try:
            return self._mult[idx[x]][idx[y]][idx[z]]
        except KeyError as exc:
            raise UnknownLabel(exc.args[0]) from None

    def channels(self, x: str, y: str) -> tuple:
        """The ``(z, N_xy^z)`` pairs with N_xy^z > 0, in sorted-label order."""
        try:
            return self._channels[(x, y)]
        except KeyError:
            raise UnknownLabel(y if x in self.index else x) from None

    def fuse(self, x: str, y: str) -> dict[str, int]:
        return dict(self.channels(x, y))

    @cached_property
    def duals(self) -> np.ndarray:
        """The position of x̄, by label position x."""
        return np.array([self.index[self.dual[x]] for x in self.labels])

    @cached_property
    def channel_rows(self) -> np.ndarray:
        """One row (x, y, z, t) per basis vector t of O(z, x⊗y), sorted."""
        N = self._N
        return np.array(np.nonzero(N[..., None] > np.arange(N.max()))).T

    @cached_property
    def ftable(self) -> BlockTable:
        """The table of every nonzero F-block; see :class:`BlockTable`."""
        ch, L = self.channel_rows, len(self.labels)
        # left trees ((ab)c)→d: (a, b, e, α), then (e, c, d, β), joined on e
        i, j = _join(ch[:, 2], ch[:, 0])
        left = np.column_stack([ch[i, :2], ch[j, 1:3], ch[i, 2:], ch[j, 3]])
        # right trees a(bc)→d: (b, c, f, μ), then (a, f, d, ν), joined on f
        by_f = ch[np.argsort(ch[:, 1], kind="stable")]
        i, j = _join(ch[:, 2], by_f[:, 1])
        right = np.column_stack([by_f[j, 0], ch[i, :2], by_f[j, 2], ch[i, 2:], by_f[j, 3]])
        # each key's rows come out in slot order: a stable sort by key suffices
        by_key = []
        for rows in (left, right):
            codes = _encode(rows[:, :4], L)
            order = np.argsort(codes, kind="stable")
            by_key.append((codes[order], rows[order]))
        (codes, left), (rcodes, right) = by_key
        if not np.array_equal(codes, rcodes):
            self._inconsistent(codes, rcodes)
        t = _block_table(codes, left, 4, self.index[self.unit], L)
        # slots per channel: N_ab^e·N_ec^d on the left, N_bc^f·N_af^d on the right
        N, (a, b, c, d) = self._N, t.keys.T
        count = np.stack([N[a, b] * N[:, c, d].T, N[b, c] * N[a, :, d]], axis=1)
        return t._replace(right=right[:, 4:], chan=np.cumsum(count, axis=2) - count)

    def _inconsistent(self, left: np.ndarray, right: np.ndarray):
        """Raise at the first key whose left and right bases (sorted key codes
        of their trees) differ in size."""
        n = min(len(left), len(right))
        i = int(np.flatnonzero(np.append(left[:n] != right[:n], True))[0])
        code = min(int(x[i]) for x in (left, right) if i < len(x))
        a, b, c, d = (self.labels[x] for x in np.unravel_index(code, (len(self.labels),) * 4))
        raise SchemaError(f"inconsistent hom dimensions for F[{a},{b},{c};{d}]")

    @cached_property
    def rtable(self) -> BlockTable:
        """The table of every nonzero R-block (a, b; c), slots (μ,)."""
        ch = self.channel_rows
        L = len(self.labels)
        return _block_table(_encode(ch[:, :3], L), ch, 3, self.index[self.unit], L)

    def fusion_closure(self, generators, depth: int) -> tuple:
        """The sorted labels reached from the generators, the unit and their
        duals by at most ``depth`` rounds of fusion and duals."""
        current = set(generators)
        for g in current:
            self._i(g)
        current |= {self.unit}
        current |= {self.dual[x] for x in current}
        for _ in range(max(depth, 0)):
            new = set(current)
            for x in current:
                for y in current:
                    new.update(z for z, _ in self.channels(x, y))
            new |= {self.dual[x] for x in new}
            if new == current:
                break
            current = new
        return tuple(sorted(current))

    def missing(self, S, within=None) -> list:
        """The sorted labels that the support S lacks to hold the unit, the
        duals of its labels and every fusion channel of two of them; duals
        and channels count only inside the grades ``within`` (default: all
        labels); a label the ring lacks raises :class:`UnknownLabel`."""
        S = set(S)
        for x in S:
            self._i(x)
        need = {self.dual[x] for x in S} | {
            z for x in S for y in S for z, _ in self.channels(x, y)}
        if within is not None:
            need &= set(within)
        return sorted((need | {self.unit}) - S)

    # -- misc --------------------------------------------------------------

    def __repr__(self) -> str:
        return f"FusionRing(labels={self.labels}, unit={self.unit!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FusionRing)
            and self.labels == other.labels
            and self.unit == other.unit
            and self.dual == other.dual
            and np.array_equal(self._N, other._N)
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.unit, tuple(sorted(self.dual.items()))))


def check_ring_axioms(labels, unit, dual, mult) -> list[AxiomViolation]:
    """Return the full list of violated axioms (empty when the data is a ring)."""
    violations: list[AxiomViolation] = []
    labels = sorted(labels)
    idx = {x: i for i, x in enumerate(labels)}
    n = len(labels)
    N = np.zeros((n, n, n), dtype=np.int64)
    for (x, y, z), m in mult.items():
        if m < 0:
            violations.append(AxiomViolation("nonnegativity", (x, y, z), f"N={m}"))
        N[idx[x], idx[y], idx[z]] = m

    u, eye = idx[unit], np.eye(n, dtype=bool)
    # unit_left then unit_right at each (y, z), in row-major order
    bad = np.stack([N[u] != eye, N[:, u] != eye], axis=-1)
    for y, z, right in zip(*np.nonzero(bad)):
        violations.append(AxiomViolation("unit_right", (labels[y], unit, labels[z])) if right
                          else AxiomViolation("unit_left", (unit, labels[y], labels[z])))

    for x in labels:
        if dual.get(dual.get(x)) != x:
            violations.append(AxiomViolation("dual_involution", (x,)))
    if dual.get(unit) != unit:
        violations.append(AxiomViolation("dual_unit", (unit,)))

    dvec = np.array([idx[dual[x]] for x in labels], dtype=int)
    for x, y in zip(*np.nonzero(N[:, :, u] != (dvec[:, None] == np.arange(n)))):
        violations.append(AxiomViolation("duality", (labels[x], labels[y], unit)))

    # associativity: sum_w N[x,y,w] N[w,v,z] == sum_w N[y,v,w] N[x,w,z]
    lhs = np.einsum("xyw,wvz->xyvz", N, N)
    rhs = np.einsum("yvw,xwz->xyvz", N, N)
    for x, y, v, z in zip(*np.nonzero(lhs != rhs)):
        violations.append(
            AxiomViolation(
                "associativity",
                (labels[x], labels[y], labels[v], labels[z]),
                f"{lhs[x, y, v, z]} != {rhs[x, y, v, z]}",
            )
        )

    # Frobenius reciprocity: N[x][y][z] = N[dual x][z][y] = N[z][dual y][x]
    bad = (N[dvec].transpose(0, 2, 1) != N) | (N[:, dvec].transpose(2, 1, 0) != N)
    for x, y, z in zip(*np.nonzero(bad)):
        violations.append(
            AxiomViolation("frobenius_reciprocity", (labels[x], labels[y], labels[z])))
    return violations


def validate_ring(raw: dict) -> FusionRing:
    """Validate raw ring data ``{labels, unit, dual, mult}`` and build the ring.

    ``mult`` maps (x, y, z) triples to non-negative integers; missing triples
    are zero.  Raises :class:`RingAxiomError` carrying all violations.
    """
    labels = list(raw["labels"])
    if not labels:
        raise RingAxiomError([AxiomViolation("nonempty_labels", ())])
    unit = raw["unit"]
    if unit not in labels:
        raise RingAxiomError([AxiomViolation("unit_in_labels", (unit,))])
    if len(set(labels)) != len(labels):
        raise RingAxiomError([AxiomViolation("distinct_labels", ())])
    dual = dict(raw["dual"])
    if set(dual) != set(labels) or not set(dual.values()) <= set(labels):
        raise RingAxiomError([AxiomViolation("dual_domain", ())])
    mult = {k: int(v) for k, v in raw["mult"].items()}
    known = set(labels)
    for (x, y, z) in mult:
        for lbl in (x, y, z):
            if lbl not in known:
                raise RingAxiomError([AxiomViolation("unknown_label_in_mult", (x, y, z))])
    violations = check_ring_axioms(labels, unit, dual, mult)
    if violations:
        raise RingAxiomError(violations)
    return FusionRing(labels, unit, dual, mult)
