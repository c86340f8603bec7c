"""Skeletal unitary tensor categories: F/R blocks, duality, coherence checks.

A vertex basis O(c, a⊗b) is an orthonormal basis of Hom(c, a⊗b); a morphism
between tensor words is a linear combination of fusion trees built from these
vertices, and every map the package needs between such trees is a fixed
contraction of F, F⁻¹ and R blocks.  :meth:`SkeletalUTC.fblock` reads the part
of one F-block between a left and a right channel as a tensor over its four
multiplicity indices; the square-algebra products are written with it.  The
conjugates and the annulus product and star instead gather their entries in
bulk, at the flat-buffer addresses of arrays of slots.

F-symbol convention used throughout: F[(e,α,β), (f,μ,ν)] is the coefficient of
the left tree (v^e_α ⊗ id_c)∘u_β in the expansion of the right tree
(id_a ⊗ w^f_μ)∘t_ν, i.e. ``left_coords = F @ right_coords``.  Pentagon and
hexagon are verified as route equalities of these moves over every basis
tree, so the data file and the package cannot disagree about conventions
silently.

R-symbol convention: for w ∈ O(c, a⊗b), τ_{a,b}∘w = Σ_ν R^{a,b;c}[ν, μ] w'_ν
with w' ∈ O(c, b⊗a).

Tables.  The fusion ring holds the one F-index table, ``ring.ftable`` (a
:class:`~utcat.fusion_ring.BlockTable` built with numpy from the
multiplicities): for every nonzero block F[a,b,c;d], its label positions, its
size, its left slots (e, α, β) and right slots (f, μ, ν) as integer rows, the
first row and column of each channel, and its place in one flat buffer where
the blocks are grouped by size; ``ring.rtable`` does the same for the
R-blocks.  The slot rows of a block, in order, are its rows and columns:
channel first, multiplicities after.  A category is built from, and stores,
its F and R blocks in those flat buffers, so the blocks of one size are one
(K, n, n) stack; its one constructor takes them as they are.  Labels become
positions at the API boundary, and a block key is one lookup in the table's
dense ``number``: ``_block`` views a buffer at a label-keyed block's offset,
and ``_faddr``/``_raddr`` compute the flat address of any array of (key,
left slot, right slot) entries; the JSON schema scatters a payload into
them.  The coherence checks read one entry table per category, built on the
first check from the stacks and the slot rows: each entry of F⁻¹, F, R and
R(b,a)† is a row (source address, target slot, value), the address being
block key and source slot as one mixed-radix integer over label positions
and multiplicity indices.  Basis trees are integer rows joined from the channel
table, so moving all trees is one sorted join of their addresses to the
table; the residual is the largest per-(tree, slot) sum of both routes'
coefficients, one negated.

Strict unitors.  A block with the unit among a, b, c (an R-block with the
unit among a, b) lists the same trees on both sides and is the identity.  The
buffers hold it as such; a supplied unit-leg block must be the identity, and
every other nonzero block must be supplied.

Dimensions.  For unitary data the unit-channel entry of F[x,x̄,x;x] has
modulus 1/d_x (Kitaev, Ann. Phys. 2006, App. E): ``d(x)`` reads it off one
array of these entries, taken once from the F buffer at ``ring.ftable``'s
offsets.  No dimension is declared or iterated; :meth:`SkeletalUTC.verify_zigzag`
checks d against the fusion rules (d_x = FPdim x, Longo–Roberts, K-Theory 1997).

Frobenius bends and the conjugate-pair table K.  A bend of v ∈ Hom(c, a⊗b)
is conj(v) times the unit-channel column of one F or F⁻¹ block and one
conjugate-solution coefficient, so the conjugate of v in Hom(c̄, b̄⊗ā), three
bends, is conj(v)·K(a, b, c) for one N_ab^c × N_ab^c matrix K per channel.
Each category builds K once for every channel, one stacked product per block
size, in a buffer laid out as ``ring.rtable``; no bend is taken per vector.

Inverses and read-only blocks.  F⁻¹ comes from one stacked ``np.linalg.inv``
per block size (a singular block raises ``LinAlgError``), into a second
buffer that the coherence checks, K and the annulus product read.  It is
the inverse, never F†: pentagon and hexagon must report the same residuals
on non-unitary data, whose unitarity defect
:meth:`SkeletalUTC.verify_unitarity` reports separately.  Both buffers are
the category's own copies and read-only, because a block written after its
inverse was built would silently disagree with it.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import MissingBraiding, SchemaError, SolveFailed
from .fusion_ring import BlockTable, FusionRing, _encode, _join

__all__ = ["SkeletalUTC", "ConjugateSolution"]


class ConjugateSolution(NamedTuple):
    """Standard solution (R_X, R̄_X) of the conjugate equations for one label.

    ``r`` is the coefficient of R_X on the single basis vector of
    O(1, X̄ ⊗ X); ``rbar`` the one of R̄_X on O(1, X ⊗ X̄).
    """

    label: str
    dual: str
    r: complex
    rbar: complex
    residual: float


_CHUNK = 2048  # trees moved at once: bounds the memory of a check


def _stacks(buf: np.ndarray, t: BlockTable) -> list:
    """(block numbers, (K, n, n) stack) per block size of the flat ``buf``."""
    return [(ids, buf[t.offset[ids[0]]:t.offset[ids[0]] + len(ids) * n * n].reshape(-1, n, n))
            for n, ids in t.groups]


def _block(ring: FusionRing, t: BlockTable, buf: np.ndarray, key: tuple) -> np.ndarray:
    """The block of the labels ``key`` in the flat ``buf`` laid out as ``t``
    (``ring.ftable``: F or F⁻¹ at (a, b, c, d); ``ring.rtable``: R or K at
    (a, b, c)), as a view; a (0, 0) array for a zero block.  An unknown label
    raises :class:`UnknownLabel`."""
    k = t.number.item(tuple(map(ring._i, key)))
    if k < 0:
        return np.zeros((0, 0), dtype=buf.dtype)
    o, n = t.offset.item(k), t.size.item(k)
    return buf[o:o + n * n].reshape(n, n)


def _pointer(kind: str, labels: tuple) -> str:
    """The JSON pointer of a block key: /F/a,b,c;d or /R/a,b;c."""
    return f"/{kind}/{','.join(labels[:-1])};{labels[-1]}"


def _checked(ring: FusionRing, kind: str, buf, given) -> np.ndarray:
    """A read-only copy of the flat ``kind`` ("F" or "R") buffer with every
    unit-leg block the identity.  ``given`` marks the blocks supplied (None:
    all); a buffer of another shape than the table's, a missing block other
    than a unit-leg one, or a supplied unit-leg block that is not the
    identity, raises :class:`SchemaError`."""
    t = ring.ftable if kind == "F" else ring.rtable
    buf = np.array(buf, dtype=complex)
    if buf.shape != (t.buffer_length,):
        raise SchemaError(f"{kind} buffer has shape {buf.shape}, expected ({t.buffer_length},)")
    given = np.ones(len(t.size), dtype=bool) if given is None else given
    blk, p, q = t.entry_index()
    leg = t.unit_leg[blk]
    bad = leg & given[blk] & (buf != (p == q))
    missing = ~given & ~t.unit_leg
    for k, message in ((blk[bad], "on a unit leg is not the identity"),
                       (np.flatnonzero(missing), "is missing")):
        if len(k):
            key = tuple(ring.labels[x] for x in t.keys[k.min()])
            raise SchemaError(f"{kind}-symbol block {key} {message}", _pointer(kind, key))
    buf[leg] = p[leg] == q[leg]
    buf.setflags(write=False)
    return buf


# Both routes of a check, as moves (table, address columns of the tree rows
# of SkeletalUTC._tree_rows) and the target-slot columns they end in.  Tree
# rows on 4 letters: a=0, b=3, m₁=4, t₁=5, c=6, m₂=7, t₂=8, d=9, e=10, t₃=11.
_PENTAGON = (
    # ((ab)c)d -> (a(bc))d -> a((bc)d) -> a(b(cd))
    ((("finv", [0, 3, 6, 7, 4, 5, 8]), ("finv", [0, 4, 9, 10, 7, 8, 11]),
      ("finv", [3, 6, 9, 7, 4, 5, 8])), [4, 5, 7, 8, 11]),
    # ((ab)c)d -> (ab)(cd) -> a(b(cd))
    ((("finv", [4, 6, 9, 10, 7, 8, 11]), ("finv", [0, 3, 7, 10, 4, 5, 11])),
     [7, 8, 4, 5, 11]),
)


# Tree rows on 3 letters: a=0, b=3, m₁=4, t₁=5, c=6, d=7, t₂=8.  "r" is the
# braiding of the crossing checked: R, or R(b,a)† ("rinv") for the inverse.
_HEXAGON = (
    # (τ_{a,b} ⊗ id_c) then id_b ⊗ τ_{a,c}, the latter as F⁻¹, R, F
    ((("r", [0, 3, 4, 5]), ("finv", [3, 0, 6, 7, 4, 5, 8]), ("r", [0, 6, 4, 5]),
      ("f", [3, 6, 0, 7, 4, 5, 8])), [4, 5, 8]),
    # τ_{a, b⊗c} channelwise: F⁻¹, then R^{a,f}
    ((("finv", [0, 3, 6, 7, 4, 5, 8]), ("r", [0, 4, 7, 8])), [4, 5, 8]),
)


class SkeletalUTC:
    """Fusion ring plus F-symbols and optional R-symbols.

    ``F`` and ``R`` are the flat buffers of the blocks, laid out as
    ``ring.ftable`` and ``ring.rtable``; ``given`` holds the masks of the F
    and R blocks supplied (None: all of them).  Every nonzero block without
    a unit leg must be supplied.
    """

    def __init__(self, ring: FusionRing, F: np.ndarray, R: np.ndarray | None = None,
                 given: tuple = (None, None)):
        self.ring = ring
        self._F = _checked(ring, "F", F, given[0])
        self._R = None
        if R is not None:
            N = ring._N
            if not np.array_equal(N, N.transpose(1, 0, 2)):
                a, b, c = (ring.labels[x] for x in np.argwhere(N != N.transpose(1, 0, 2))[0])
                raise SchemaError(f"non-commutative fusion under braiding at ({a},{b};{c})")
            self._R = _checked(ring, "R", R, given[1])
        self._Finv = None  # the F⁻¹ buffer; see _inverses
        self._tables: dict = {}  # the entry table, by move kind; see _table

    # ------------------------------------------------------------------
    # index bookkeeping
    # ------------------------------------------------------------------

    @property
    def braided(self) -> bool:
        return self._R is not None

    def dual(self, x: str) -> str:
        return self.ring.dual[x]

    @cached_property
    def _unit_entries(self) -> np.ndarray:
        """F[x,x̄,x;x] between its unit channels, by label position."""
        x, unit = np.arange(len(self.ring.labels)), (self.ring.index[self.ring.unit], 0, 0)
        return self._F[self._faddr((x, self.ring.duals, x, x), unit, unit)]

    def _faddr(self, key: tuple, left: tuple, right: tuple, inverse: bool = False) -> np.ndarray:
        """The flat positions in the F (``inverse``: F⁻¹) buffer of the entries
        of F[a,b,c;d] between the left slots (e, α, β) and the right slots
        (f, μ, ν), each given as broadcastable arrays of label positions."""
        t, N = self.ring.ftable, self.ring._N
        (a, b, c, d), (e, al, be), (f, mu, nu) = key, left, right
        k = t.number[a, b, c, d]
        row = t.chan[k, 0, e] + al * N[e, c, d] + be
        col = t.chan[k, 1, f] + mu * N[a, f, d] + nu
        return t.offset[k] + (col * t.size[k] + row if inverse else row * t.size[k] + col)

    def _raddr(self, key: tuple, mu, nu) -> np.ndarray:
        """The flat positions of the entries [μ, ν] of the blocks ``key`` =
        (a, b, c) in a buffer laid out as ``ring.rtable``: R and K."""
        t = self.ring.rtable
        k = t.number[key]
        return t.offset[k] + mu * t.size[k] + nu

    @cached_property
    def _d(self) -> np.ndarray:
        """d by label position."""
        return 1.0 / np.abs(self._unit_entries)

    def d(self, x: str) -> float:
        """d_x = 1/|F[x,x̄,x;x]| on the unit channels."""
        return self._d.item(self.ring._i(x))

    def _inverses(self) -> np.ndarray:
        """The F⁻¹ buffer: one stacked inverse per block size, built once."""
        if self._Finv is None:
            t, inv = self.ring.ftable, np.empty_like(self._F)
            for (_, M), (_, out) in zip(_stacks(self._F, t), _stacks(inv, t)):
                out[...] = np.linalg.inv(M)
            inv.setflags(write=False)
            self._Finv = inv
        return self._Finv

    def fblock(self, a, b, c, d, e, f) -> np.ndarray:
        """F[a,b,c;d] between the left trees through e and the right trees
        through f, as T[α, β, μ, ν] with α ∈ O(e, a⊗b), β ∈ O(d, e⊗c),
        μ ∈ O(f, b⊗c), ν ∈ O(d, a⊗f)."""
        ring, t = self.ring, self.ring.ftable
        a, b, c, d, e, f = map(ring._i, (a, b, c, d, e, f))
        N = ring._mult
        shape = (N[a][b][e], N[e][c][d], N[b][c][f], N[a][f][d])
        if 0 in shape:
            return np.zeros(shape, dtype=complex)
        k = t.number.item(a, b, c, d)
        i, j, o, n = t.chan.item(k, 0, e), t.chan.item(k, 1, f), t.offset.item(k), t.size.item(k)
        M = self._F[o:o + n * n].reshape(n, n)
        return M[i:i + shape[0] * shape[1], j:j + shape[2] * shape[3]].reshape(shape)

    @cached_property
    def _twists(self) -> np.ndarray:
        """θ_x = d_x⁻¹ Σ_c d_c Tr R^{x,x}_c, the ribbon twist, by label
        position, summed over the diagonals of the R buffer."""
        if self._R is None:
            raise MissingBraiding("category has no R-symbols")
        ch, d = self.ring.channel_rows, self._d
        x, _, c, m = ch[ch[:, 0] == ch[:, 1]].T
        theta = d[c] * self._R[self._raddr((x, x, c), m, m)]
        return (np.bincount(x, theta.real, len(d)) + 1j * np.bincount(x, theta.imag, len(d))) / d

    # ------------------------------------------------------------------
    # conjugate equations and the conjugate-pair table K
    # ------------------------------------------------------------------

    def conjugate_solution(self, x: str) -> ConjugateSolution:
        i = self.ring._i(x)
        if abs(self._unit_entries[i]) < 1e-14:
            raise SolveFailed(f"zig-zag system singular for {x}")
        r, rbar, residual = self._conjugates
        return ConjugateSolution(x, self.dual(x), complex(r.item(i)), rbar.item(i),
                                 residual.item(i))

    @cached_property
    def _conjugates(self) -> tuple:
        """(r, r̄, zig-zag residual) by label position: r = √d_x (the phase
        pin: positive real) and r̄ = 1/(r·conj f_x), f the unit entries.
        Raises :class:`SolveFailed` if some f vanishes."""
        f = self._unit_entries
        if np.abs(f).min() < 1e-14:
            self.conjugate_solution(self.ring.labels[np.abs(f).argmin()])  # raises
        r = np.sqrt(self._d)
        with np.errstate(invalid="ignore"):  # NaN where f is
            rbar = 1.0 / (r * np.conj(f))
        return r, rbar, self._zigzag_residuals(r, rbar)

    def _zigzag_residuals(self, r: np.ndarray, rbar: np.ndarray) -> np.ndarray:
        """Residual of the conjugate equations for R_x = r·O(1, x̄⊗x) and
        R̄_x = r̄·O(1, x⊗x̄), by label position.

        The zig-zags (R̄* ⊗ id_x)(id_x ⊗ R_x) and (R* ⊗ id_x̄)(id_x̄ ⊗ R̄_x) are
        r·conj(r̄) and conj(r)·r̄ times the unit-channel entry of F[x,x̄,x;x]
        and of F[x̄,x,x̄;x̄]: the adjoint carries the conjugate coefficient.
        """
        f = self._unit_entries
        return np.maximum(np.abs(r * np.conj(rbar) * f - 1.0),
                          np.abs(np.conj(r) * rbar * f[self.ring.duals] - 1.0))

    def conj_pair_matrix(self, a: str, b: str, c: str) -> np.ndarray:
        """K(a, b, c): the conjugate of v ∈ O(c, a⊗b) in O(c̄, b̄⊗ā) is conj(v)·K."""
        return _block(self.ring, self.ring.rtable, self._conj_pairs, (a, b, c))

    @cached_property
    def _conj_pairs(self) -> np.ndarray:
        """K of every channel (a, b, c), in a read-only buffer laid out as
        ``ring.rtable``.  The three bends of v are r̄_b·conj(v)·T₁, then
        r_c·conj(·)·T₂ and r̄_a·conj(·)·T₃, with T₁ the unit-channel column of
        F[a,b,b̄;a] through c, T₂ that of F⁻¹[c̄,c,b̄;b̄] through a and T₃ that
        of F[c̄,a,ā;c̄] through b̄; so K = r̄_a·r_c·r̄_b·T₁·conj(T₂)·T₃, one
        stacked product per block size."""
        (r, rbar, _), dual, t = self._conjugates, self.ring.duals, self.ring.rtable
        F, Finv, unit = self._F, self._inverses(), (self.ring.index[self.ring.unit], 0, 0)
        K = np.empty(t.buffer_length, dtype=complex)
        for ids, out in _stacks(K, t):
            n, (a, b, c) = out.shape[1], t.keys[ids].T[:, None]  # rows of shape (1, K)
            slot = np.divmod(np.arange(n * n)[:, None], n)  # the n² multiplicity pairs
            T1 = F[self._faddr((a, b, dual[b], a), (c, *slot), unit)]
            T2 = Finv[self._faddr((dual[c], c, dual[b], dual[b]), unit, (a, *slot), True)]
            T3 = F[self._faddr((dual[c], a, dual[a], dual[c]), (dual[b], *slot), unit)]
            T1, T2, T3 = (T.T.reshape(-1, n, n) for T in (T1, T2, T3))
            out[...] = (rbar[a] * r[c] * rbar[b]).reshape(-1, 1, 1) * T1 @ T2.conj() @ T3
        K.setflags(write=False)
        return K

    # ------------------------------------------------------------------
    # verification: pentagon / hexagon / zig-zag / unitarity
    # ------------------------------------------------------------------

    def _blocks(self, kind: str) -> list:
        """Every F ("F"), F⁻¹ ("finv") or R ("R") block stacked by size, a
        grouping of the ring's table: (key label positions, left slots, right
        slots, stack) per size; an F slot is (label position, multiplicity,
        multiplicity), an R slot one multiplicity."""
        t = self.ring.rtable if kind == "R" else self.ring.ftable
        buf = {"F": self._F, "R": self._R}[kind] if kind != "finv" else self._inverses()
        out = []
        for ids, M in _stacks(buf, t):
            slots = t.start[ids][:, None] + np.arange(M.shape[1])
            out.append((t.keys[ids], t.left[slots], t.right[slots], M))
        return out

    def _table(self, kind: str) -> tuple:
        """The entries (source addresses, target slots, values) of one move
        kind, sorted by address and built once: "finv" (F⁻¹, left to right
        slots), "f" (F, right to left), "r" (R) or "rinv" (R(b,a)†)."""
        table = self._tables.get(kind)
        if table is None:
            B, parts = self._radix, []
            for kpos, left, right, M in self._blocks({"finv": "finv", "f": "F"}.get(kind, "R")):
                if kind == "f":
                    left, right = right, left
                elif kind == "rinv":
                    kpos, left, right, M = kpos[:, [1, 0, 2]], right, left, M.conj().swapaxes(1, 2)
                # M[k, p, q] moves source slot left[k, q] to target slot right[k, p]
                K, n, w = left.shape
                src = _encode(kpos, B)[:, None] * B ** w + _encode(left.reshape(-1, w), B).reshape(K, n)
                keep = M != 0
                parts.append((np.broadcast_to(src[:, None, :], M.shape)[keep],
                              np.broadcast_to(right[:, :, None], (K, n, n, w))[keep], M[keep]))
            src, dst, val = map(np.concatenate, zip(*parts))
            order = np.argsort(src, kind="stable")
            table = self._tables[kind] = (src[order], dst[order], val[order])
        return table

    @cached_property
    def _radix(self) -> int:
        """The radix of every code: above any label position or multiplicity index."""
        return max(len(self.ring.labels), int(self.ring._N.max()))

    def _tree_rows(self, length: int) -> np.ndarray:
        """Every basis tree on ``length`` letters as an integer row (x₁, x₁, 0,
        x₂, m₁, t₁, …, x_n, root, t_{n−1}, tree number), sorted by its labels:
        the channel table (x, y, z, t) joined to itself on the last channel."""
        ch = self.ring.channel_rows
        x, yzt = ch[:, 0], ch[:, 1:].astype(np.int32)  # int32 rows halve the peak memory
        S = (np.arange(len(self.ring.labels))[:, None] * [1, 1, 0]).astype(np.int32)
        for _ in range(length - 1):
            i, j = _join(S[:, -2], x)
            S = np.column_stack([S[i], yzt[j]])
        return np.column_stack([S, np.arange(len(S), dtype=np.int32)])

    def coherence(self, check: str) -> tuple[float, tuple[str, ...]]:
        """The "pentagon" or "hexagon" residual and where it is largest.

        All basis trees move along both routes at once; the residual is the
        largest |route₁ − route₂| coefficient over (tree, target slot), at the
        labels (a, b, c, d, e) of its tree ((ab)c)d -> e or (a, b, c, d) of (ab)c -> d.
        """
        if check == "hexagon" and not self.braided:
            raise MissingBraiding("no R-symbols loaded")
        length, where, passes = {
            "pentagon": (4, [0, 3, 6, 9, 10], [(_PENTAGON, {})]),
            "hexagon": (3, [0, 3, 6, 7], [(_HEXAGON, {}), (_HEXAGON, {"r": "rinv"})])}[check]
        T = self._tree_rows(length)
        B, worst, tree = self._radix, -1.0, 0
        for (routes, kinds), lo in itertools.product(passes, range(0, len(T), _CHUNK)):
            codes, vals = [], []
            for sign, (moves, target) in zip((1.0, -1.0), routes):
                S = T[lo:lo + _CHUNK]
                v = np.full(len(S), sign, dtype=complex)
                for kind, cols in moves:
                    # each row becomes one row per entry at its address S[:, cols],
                    # the source slot (the last columns of cols) set to the target
                    src, dst, val = self._table(kinds.get(kind, kind))
                    i, j = _join(_encode(S[:, cols], B), src)
                    S, v = S[i], v[i] * val[j]
                    S[:, cols[-dst.shape[1]:]] = dst[j]
                codes.append(_encode(S[:, [-1, *target]], B))
                vals.append(v)
            codes, v = np.concatenate(codes), np.concatenate(vals)
            order = np.argsort(codes, kind="stable")
            codes, v = codes[order], v[order]
            starts = np.flatnonzero(np.diff(codes, prepend=-1))  # one per (tree, slot)
            diff = np.abs(np.add.reduceat(v, starts))
            k = int(np.argmax(diff))  # the first NaN, if any
            if diff[k] > worst or np.isnan(diff[k]) > np.isnan(worst):  # a NaN is kept
                worst, tree = float(diff[k]), int(codes[starts[k]]) // B ** len(target)
        return worst, tuple(self.ring.labels[x] for x in T[tree, where])

    def verify_unitarity(self) -> float:
        """Largest entry of F·F† − I and R·R† − I, one stacked product per size."""
        stacks = _stacks(self._F, self.ring.ftable)
        if self.braided:
            stacks += _stacks(self._R, self.ring.rtable)
        return max(float(np.max(np.abs(M @ M.conj().swapaxes(1, 2) - np.eye(M.shape[1]))))
                   for _, M in stacks)

    def verify_pentagon(self) -> float:
        """Max residual of the two re-association routes ((ab)c)d -> a(b(cd))."""
        return self.coherence("pentagon")[0]

    def verify_hexagon(self) -> float:
        """Max residual of braiding-route equality for both crossings."""
        return self.coherence("hexagon")[0]

    def verify_zigzag(self) -> float:
        """Largest residual of the conjugate equations over the labels, and
        ρ = max_{x,y} |Σ_z N_xy^z·d_z − d_x·d_y| / (d_x·max d), which is zero
        iff d is the Perron–Frobenius vector of the fusion rules."""
        zigzag, d = self._conjugates[2], self._d
        rho = np.abs((self.ring._N * d).sum(axis=2) - np.outer(d, d)) / (d[:, None] * d.max())
        return float(np.maximum(zigzag.max(), rho.max()))  # NaN propagates
