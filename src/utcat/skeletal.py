"""Skeletal unitary tensor categories: F/R blocks, duality, coherence checks.

A vertex basis O(c, a⊗b) is an orthonormal basis of Hom(c, a⊗b); a morphism
between tensor words is a linear combination of fusion trees built from these
vertices, and every map the package needs between such trees is a fixed
contraction of F, F⁻¹ and R blocks.  :meth:`SkeletalUTC.fblock` reads the part
of one F-block between a left and a right channel as a tensor over its four
multiplicity indices; the bends, conjugates and zig-zags below, the annulus
product and the square-algebra products are written with it.

F-symbol convention used throughout: F[(e,α,β), (f,μ,ν)] is the coefficient of
the left tree (v^e_α ⊗ id_c)∘u_β in the expansion of the right tree
(id_a ⊗ w^f_μ)∘t_ν, i.e. ``left_coords = F @ right_coords``.  Pentagon and
hexagon are verified as route equalities of these moves over every basis
tree, so the data file and the package cannot disagree about conventions
silently.

R-symbol convention: for w ∈ O(c, a⊗b), τ_{a,b}∘w = Σ_ν R^{a,b;c}[ν, μ] w'_ν
with w' ∈ O(c, b⊗a).

Tables.  The fusion ring holds its multiplicities as nested lists over label
positions and, per label pair (x, y), the channel tuple ((z, N_xy^z), ...)
in sorted-label order; ``ring.f_index(a, b, c, d)`` lists the left (e, α, β)
and right (f, μ, ν) basis of F[a,b,c;d] once per key for every category on
the ring.  The coherence checks read one entry table per category, built on
the first check: each entry of F⁻¹, F, R and R(b,a)† is a row (source
address, target slot, value), the address being block key and source slot
as one mixed-radix integer over label positions and multiplicity indices.
Basis trees are integer rows joined from the channel table, so moving all
trees is one sorted join of their addresses to the table; the residual is
the largest per-(tree, slot) sum of both routes' coefficients, one negated.

Inverses and read-only blocks.  F⁻¹ comes from one stacked ``np.linalg.inv``
per block size (a singular block raises ``LinAlgError``) and fills the cache
that :meth:`SkeletalUTC.fblock` reads.  It is the inverse, never F†: pentagon
and hexagon must report the same residuals on non-unitary data, whose
unitarity defect :meth:`SkeletalUTC.verify_unitarity` reports separately.
F and R blocks are copied at construction and made read-only (so are the
cached inverses), because a block written after its inverse was cached would
silently disagree with it.
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

from .errors import MissingBraiding, SchemaError, SolveFailed, UnknownLabel
from .fusion_ring import FusionRing

__all__ = ["SkeletalUTC", "ConjugateSolution"]


class ConjugateSolution:
    """Standard solution (R_X, R̄_X) of the conjugate equations for one label.

    ``r`` is the coefficient of R_X on the single basis vector of
    O(1, X̄ ⊗ X); ``rbar`` the one of R̄_X on O(1, X ⊗ X̄).
    """

    def __init__(self, label: str, dual: str, r: complex, rbar: complex, residual: float):
        self.label = label
        self.dual = dual
        self.r = r
        self.rbar = rbar
        self.residual = residual

    def __repr__(self):
        return f"ConjugateSolution({self.label}, r={self.r:.6g}, rbar={self.rbar:.6g})"


def _frozen(block) -> np.ndarray:
    """A read-only complex copy of ``block``."""
    M = np.array(block, dtype=complex)
    M.setflags(write=False)
    return M


_CHUNK = 2048  # trees moved at once: bounds the memory of a check


def _encode(cols: np.ndarray, radix: int) -> np.ndarray:
    """The rows of ``cols`` as mixed-radix integers, first column highest."""
    return cols @ radix ** np.arange(cols.shape[1] - 1, -1, -1)


def _join(keys: np.ndarray, table: np.ndarray) -> tuple:
    """All index pairs (i, j) with keys[i] == table[j], for sorted ``table``."""
    lo = np.searchsorted(table, keys)
    n = np.searchsorted(table, keys, "right") - lo
    i = np.repeat(np.arange(len(keys)), n)
    return i, np.arange(len(i)) + np.repeat(lo - np.cumsum(n) + n, n)


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
    """Fusion ring plus F-symbols, optional R-symbols and quantum dimensions."""

    def __init__(self, ring: FusionRing, f_symbols: dict, r_symbols: dict | None = None,
                 qdims: dict | None = None):
        self.ring = ring
        # f_symbols: (a,b,c,d) -> ndarray over (left_index, right_index)
        self._F = {k: _frozen(v) for k, v in f_symbols.items()}
        self._R = None if r_symbols is None else {
            k: _frozen(v) for k, v in r_symbols.items()
        }
        self.qdim = dict(qdims) if qdims else {x: ring.fp_dimension(x) for x in ring.labels}
        self._conj_cache: dict[str, ConjugateSolution] = {}
        self._finv_cache: dict[tuple, np.ndarray] = {}
        self._tables: dict = {}  # the entry table, by move kind; see _table
        self._check_completeness()

    # ------------------------------------------------------------------
    # index bookkeeping
    # ------------------------------------------------------------------

    @property
    def braided(self) -> bool:
        return self._R is not None

    def dual(self, x: str) -> str:
        return self.ring.dual[x]

    def d(self, x: str) -> float:
        return float(self.qdim[x])

    def left_index(self, a, b, c, d) -> tuple[tuple[str, int, int], ...]:
        """Triples (e, α, β): α ∈ O(e, a⊗b), β ∈ O(d, e⊗c), e lexicographic."""
        return self.ring.f_index(a, b, c, d).left

    def right_index(self, a, b, c, d) -> tuple[tuple[str, int, int], ...]:
        """Triples (f, μ, ν): μ ∈ O(f, b⊗c), ν ∈ O(d, a⊗f), f lexicographic."""
        return self.ring.f_index(a, b, c, d).right

    def fmat(self, a, b, c, d) -> np.ndarray:
        """F-matrix mapping right-tree to left-tree coordinates."""
        idx = self.ring.f_index(a, b, c, d)
        left, right = idx.left, idx.right
        if len(left) != len(right):
            raise SchemaError(f"inconsistent hom dimensions for F[{a},{b},{c};{d}]")
        n = len(left)
        if n == 0:
            return np.zeros((0, 0))
        if self.ring.unit in (a, b, c):
            return np.eye(n, dtype=complex)  # strict unitors: both bases list the same trees
        key = (a, b, c, d)
        if key not in self._F:
            raise SchemaError(f"missing F-symbol block {key}")
        M = self._F[key]
        if M.shape != (n, n):
            raise SchemaError(f"F block {key} has shape {M.shape}, expected {(n, n)}")
        return M

    def _finv(self, a, b, c, d) -> np.ndarray:
        """F[a,b,c;d]⁻¹, computed once per block (LinAlgError if singular)."""
        key = (a, b, c, d)
        inv = self._finv_cache.get(key)
        if inv is None:
            inv = np.linalg.inv(self.fmat(a, b, c, d))
            inv.setflags(write=False)
            self._finv_cache[key] = inv
        return inv

    def fblock(self, a, b, c, d, e, f, inverse: bool = False) -> np.ndarray:
        """F[a,b,c;d] between the left trees through e and the right trees
        through f, as T[α, β, μ, ν] with α ∈ O(e, a⊗b), β ∈ O(d, e⊗c),
        μ ∈ O(f, b⊗c), ν ∈ O(d, a⊗f); with ``inverse`` the same slots of F⁻¹,
        T[α, β, μ, ν] = F⁻¹[(f, μ, ν), (e, α, β)]."""
        N, idx = self.ring.N, self.ring.f_index(a, b, c, d)
        shape = (N(a, b, e), N(e, c, d), N(b, c, f), N(a, f, d))
        if 0 in shape:
            return np.zeros(shape, dtype=complex)
        i, j = idx.lpos[(e, 0, 0)], idx.rpos[(f, 0, 0)]  # each channel's slots are contiguous
        rows = slice(i, i + shape[0] * shape[1])
        cols = slice(j, j + shape[2] * shape[3])
        if inverse:
            return self._finv(a, b, c, d)[cols, rows].T.reshape(shape)
        return self.fmat(a, b, c, d)[rows, cols].reshape(shape)

    def rmat(self, a, b, c) -> np.ndarray:
        """R-matrix O(c, a⊗b) -> O(c, b⊗a) for τ_{a,b}."""
        if self._R is None:
            raise MissingBraiding("category has no R-symbols")
        n_src = self.ring.N(a, b, c)
        n_dst = self.ring.N(b, a, c)
        if n_src != n_dst:
            raise SchemaError(f"non-commutative fusion under braiding at ({a},{b};{c})")
        if n_src == 0:
            return np.zeros((0, 0))
        if self.ring.unit in (a, b):
            return np.eye(n_src, dtype=complex)
        key = (a, b, c)
        if key not in self._R:
            raise SchemaError(f"missing R-symbol block {key}")
        M = self._R[key]
        if M.shape != (n_dst, n_src):
            raise SchemaError(f"R block {key} has shape {M.shape}")
        return M

    def twist(self, x: str) -> complex:
        """θ_x = d_x⁻¹ Σ_c d_c Tr R^{x,x}_c, the ribbon twist of x."""
        return complex(sum(self.d(c) * np.trace(self.rmat(x, x, c))
                           for c, _ in self.ring.channels(x, x)) / self.d(x))

    def _f_keys(self) -> list[tuple[str, str, str, str]]:
        """Sorted (a, b, c, d) whose F-block is nonzero, from the channel tables."""
        ring = self.ring
        return sorted({(a, b, c, d) for a, b, e in self._r_keys()
                       for c in ring.labels for d, _ in ring.channels(e, c)})

    def _r_keys(self) -> list[tuple[str, str, str]]:
        """(a, b, c) whose R-block is nonzero, from the channel tables."""
        return [(a, b, c) for a, b in itertools.product(self.ring.labels, repeat=2)
                for c, _ in self.ring.channels(a, b)]

    def _check_completeness(self):
        unit = self.ring.unit
        for key in self._f_keys():
            if unit not in key[:3]:
                self.fmat(*key)  # raises if absent/mis-shaped

    # ------------------------------------------------------------------
    # conjugate equations and bending: single F and F⁻¹ entries
    # ------------------------------------------------------------------

    def conjugate_solution(self, x: str) -> ConjugateSolution:
        if x in self._conj_cache:
            return self._conj_cache[x]
        if x not in self.ring.index:
            raise UnknownLabel(x)
        xb = self.dual(x)
        dx = self.d(x)
        f11 = self._unit_entry(x)
        if abs(f11) < 1e-14:
            raise SolveFailed(f"zig-zag system singular for {x}")
        r = np.sqrt(dx)  # phase pin: positive real
        rbar = 1.0 / (r * np.conj(f11))
        # the zig-zags (R̄* ⊗ id_x)(id_x ⊗ R_x) and (R* ⊗ id_x̄)(id_x̄ ⊗ R̄_x) are
        # r·r̄ times the unit-channel entry of F[x,x̄,x;x] and of F[x̄,x,x̄;x̄]
        res = max(
            abs(r * rbar * f11 - 1.0),
            abs(r * rbar * self._unit_entry(xb) - 1.0),
            abs(abs(rbar) ** 2 - dx) / max(dx, 1.0),
        )
        sol = ConjugateSolution(x, xb, complex(r), complex(rbar), float(res))
        self._conj_cache[x] = sol
        return sol

    def _unit_entry(self, x: str) -> complex:
        """F[x,x̄,x;x][(1,0,0), (1,0,0)]: both trees through the unit channel."""
        unit = self.ring.unit
        return complex(self.fblock(x, self.dual(x), x, x, unit, unit)[0, 0, 0, 0])

    # Frobenius bends.  Both are antilinear in the input coefficients.

    def bend_left(self, a: str, b: str, c: str, v: np.ndarray) -> np.ndarray:
        """Hom(c, a⊗b) -> Hom(b, ā⊗c): v ↦ (id_ā ⊗ v*)(R_a ⊗ id_b), read off
        the unit-channel column of F⁻¹[ā,a,b;b]."""
        T = self.fblock(self.dual(a), a, b, b, self.ring.unit, c, inverse=True)[0, 0]
        return self.conjugate_solution(a).r * (np.conj(v) @ T)

    def bend_right(self, a: str, b: str, c: str, v: np.ndarray) -> np.ndarray:
        """Hom(c, a⊗b) -> Hom(a, c⊗b̄): v ↦ (v* ⊗ id_b̄)(id_a ⊗ R̄_b), read off
        the unit-channel column of F[a,b,b̄;a]."""
        T = self.fblock(a, b, self.dual(b), a, c, self.ring.unit)[:, :, 0, 0]
        return self.conjugate_solution(b).rbar * (np.conj(v) @ T)

    def conj_pair_basis(self, a: str, b: str, c: str, v: np.ndarray) -> np.ndarray:
        """The conjugate morphism of v: c -> a⊗b, as a vector in Hom(c̄, b̄⊗ā).

        Antilinear; computed as bend_right ∘ bend_left ∘ bend_right.
        """
        u1 = self.bend_right(a, b, c, v)                       # Hom(a, c⊗b̄)
        u2 = self.bend_left(c, self.dual(b), a, u1)            # Hom(b̄, c̄⊗a)
        u3 = self.bend_right(self.dual(c), a, self.dual(b), u2)  # Hom(c̄, b̄⊗ā)
        return u3

    # ------------------------------------------------------------------
    # verification: pentagon / hexagon / zig-zag / unitarity
    # ------------------------------------------------------------------

    def _blocks(self, kind: str) -> list:
        """Every F (``kind`` "F") or R ("R") block stacked by size, built once:
        (keys, key label positions, left slots, right slots, stack) per size;
        an F slot is (label position, multiplicity, multiplicity), an R slot one."""
        out = self._tables.get(kind)
        if out is None:
            F, pos, groups = kind == "F", self.ring.index, {}
            for key in self._f_keys() if F else self._r_keys():
                M = self.fmat(*key) if F else self.rmat(*key)
                slots = ([[(pos[x], i, j) for x, i, j in side] for side in self.ring.f_index(*key)[:2]]
                         if F else [[(i,) for i in range(len(M))]] * 2)
                groups.setdefault(len(M), []).append((key, M, slots))
            out = self._tables[kind] = []
            for g in groups.values():
                keys, blocks, slots = zip(*g)
                out.append((keys, np.array([[pos[x] for x in k] for k in keys]),
                            *np.array(slots).swapaxes(0, 1), np.array(blocks)))
        return out

    def _table(self, kind: str) -> tuple:
        """The entries (source addresses, target slots, values) of one move
        kind, sorted by address and built once: "finv" (F⁻¹, left to right
        slots), "f" (F, right to left), "r" (R) or "rinv" (R(b,a)†)."""
        table = self._tables.get(kind)
        if table is None:
            B, parts = self._radix, []
            for keys, kpos, left, right, M in self._blocks(kind[0].upper()):
                if kind == "finv":
                    M = np.linalg.inv(M)  # one stacked inverse per block size
                    M.setflags(write=False)
                    self._finv_cache.update(zip(keys, M))
                elif kind == "f":
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
        N = self.ring._N
        x, *yzt = np.nonzero(N[..., None] > np.arange(N.max()))
        yzt = np.array(yzt, dtype=np.int32).T  # int32 rows halve the peak memory
        S = (np.arange(len(N))[:, None] * [1, 1, 0]).astype(np.int32)
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
            k = int(np.argmax(diff))
            if diff[k] > worst:
                worst, tree = float(diff[k]), int(codes[starts[k]]) // B ** len(target)
        return worst, tuple(self.ring.labels[x] for x in T[tree, where])

    def verify_unitarity(self) -> float:
        """Largest entry of F·F† − I and R·R† − I, one stacked product per size."""
        stacks = self._blocks("F") + (self._blocks("R") if self.braided else [])
        return max(float(np.max(np.abs(M @ M.conj().swapaxes(1, 2) - np.eye(M.shape[1]))))
                   for *_, M in stacks)

    def verify_pentagon(self) -> float:
        """Max residual of the two re-association routes ((ab)c)d -> a(b(cd))."""
        return self.coherence("pentagon")[0]

    def verify_hexagon(self) -> float:
        """Max residual of braiding-route equality for both crossings."""
        return self.coherence("hexagon")[0]

    def verify_zigzag(self) -> float:
        return max(self.conjugate_solution(x).residual for x in self.ring.labels)
