"""Skeletal unitary tensor categories: tree bases, F/R moves, duality.

Morphisms Z -> x_1 ⊗ ... ⊗ x_n are stored as coefficient dictionaries over
*left-associated fusion trees*.  A path for a word (x_1, ..., x_n) is the
tuple ((m_1, t_1), ..., (m_{n-1}, t_{n-1})) of intermediate channels and
multiplicity indices, with m_{n-1} equal to the root.

F-symbol convention used throughout the engine: F[(e,α,β), (f,μ,ν)] is the
coefficient of the left tree (v^e_α ⊗ id_c)∘u_β in the expansion of the right
tree (id_a ⊗ w^f_μ)∘t_ν, i.e. ``left_coords = F @ right_coords``.  Pentagon
and hexagon are verified as route equalities of the move primitives below, so
the data file and the engine cannot disagree about conventions silently.

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
that the single-tree moves read.  It is the inverse, never F†: pentagon and
hexagon must report the same residuals on non-unitary data, whose unitarity
defect :meth:`SkeletalUTC.verify_unitarity` reports separately.  F and R
blocks are copied at construction and made read-only (so are the cached
inverses), because a block written after its inverse was cached would
silently disagree with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EmptyHomSpace,
    InapplicableMove,
    MissingBraiding,
    SchemaError,
    SolveFailed,
    UnknownLabel,
)
from .fusion_ring import FusionRing

__all__ = ["SkeletalUTC", "TreeVector", "ConjugateSolution"]

Path = tuple  # tuple of (label, int) steps


@dataclass(frozen=True)
class TreeVector:
    """A morphism root -> word in left-tree coordinates (sparse)."""

    word: tuple[str, ...]
    root: str
    coeffs: dict  # Path -> complex

    def scaled(self, z: complex) -> "TreeVector":
        return TreeVector(self.word, self.root, {p: z * c for p, c in self.coeffs.items()})

    def norm_sq(self) -> float:
        return float(sum(abs(c) ** 2 for c in self.coeffs.values()))

    def inner(self, other: "TreeVector") -> complex:
        """<self, other> = self* ∘ other coefficient (orthonormal trees)."""
        if self.word != other.word or self.root != other.root:
            return 0.0
        small, big = (self.coeffs, other.coeffs) if len(self.coeffs) < len(other.coeffs) else (other.coeffs, self.coeffs)
        total = 0.0 + 0.0j
        for p, c in small.items():
            if p in big:
                if small is self.coeffs:
                    total += np.conj(c) * big[p]
                else:
                    total += np.conj(self.coeffs[p]) * c
        return complex(total)


def _add(coeffs: dict, path: Path, value: complex):
    if abs(value) == 0.0:
        return
    coeffs[path] = coeffs.get(path, 0.0) + value


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
    # tree paths
    # ------------------------------------------------------------------

    def hom_dim(self, Z: str, word) -> int:
        ring = self.ring
        if Z not in ring.index:
            raise UnknownLabel(Z)
        word = list(word)
        if not word:
            return 1 if Z == ring.unit else 0
        vec = np.zeros(len(ring.labels))
        vec[ring.index[word[0]]] = 1.0
        for x in word[1:]:
            # new[z] = sum_m vec[m] N(m, x, z)
            vec = vec @ ring._N[:, ring.index[x], :].astype(float)
        return int(round(vec[ring.index[Z]]))

    def tree_paths(self, root: str, word) -> list[Path]:
        word = tuple(word)
        ring = self.ring
        if len(word) == 0:
            return [()] if root == ring.unit else []
        if len(word) == 1:
            return [()] if word[0] == root else []
        paths: list[tuple[Path, str]] = [((), word[0])]
        for x in word[1:-1]:
            paths = [(p + ((m, t),), m) for p, prev in paths
                     for m, n in ring.channels(prev, x) for t in range(n)]
        return [p + ((root, t),) for p, prev in paths
                for t in range(ring.N(prev, word[-1], root))]

    def admissible_trees(self, length: int):
        """Every left-associated basis tree on ``length`` ≥ 1 letters, as
        (word, root, path), read off :meth:`_tree_rows`.

        For each (word, root) the paths come in :meth:`tree_paths` order.
        """
        labels = self.ring.labels
        for row in self._tree_rows(length).tolist():
            yield (tuple(labels[x] for x in row[0:-1:3]), labels[row[-3]],
                   tuple((labels[m], t) for m, t in zip(row[4:-1:3], row[5:-1:3])))

    def basis_tree(self, root: str, word, path: Path) -> TreeVector:
        return TreeVector(tuple(word), root, {path: 1.0 + 0.0j})

    def onb_trees(self, Z: str, X: str, Y: str) -> list[TreeVector]:
        """The orthonormal basis O(Z, X⊗Y); raises if the hom space is zero."""
        n = self.ring.N(X, Y, Z)
        if n == 0:
            raise EmptyHomSpace(f"Hom({Z}, {X}⊗{Y}) = 0")
        return [self.basis_tree(Z, (X, Y), ((Z, t),)) for t in range(n)]

    # ------------------------------------------------------------------
    # local move helpers
    # ------------------------------------------------------------------

    def _local_groups(self, tv: TreeVector, k: int):
        """Group the coefficients of ``tv`` for a move at letters (k, k+1), k>=1.

        Yields ((prefix, a, d, suffix), dense local left vector over
        left_index(a, word[k], word[k+1], d)).
        """
        word = tv.word
        groups: dict[tuple, dict] = {}
        for path, c in tv.coeffs.items():
            prefix = path[: k - 1]
            a = word[0] if k == 1 else path[k - 2][0]
            e, alpha = path[k - 1]
            d, beta = path[k]
            suffix = path[k + 1:]
            key = (prefix, a, d, suffix)
            groups.setdefault(key, {})[(e, alpha, beta)] = groups.setdefault(key, {}).get((e, alpha, beta), 0.0) + c
        for key, local in groups.items():
            _, a, d, _ = key
            pos = self.ring.f_index(a, word[k], word[k + 1], d).lpos
            vec = np.zeros(len(pos), dtype=complex)
            for t, c in local.items():
                vec[pos[t]] += c
            yield key, vec

    # ------------------------------------------------------------------
    # moves
    # ------------------------------------------------------------------

    def braid_adjacent(self, tv: TreeVector, k: int, inverse: bool = False) -> TreeVector:
        """Compose with id ⊗ τ_{x_k, x_{k+1}} ⊗ id (or the inverse braiding)."""
        word = tv.word
        n = len(word)
        if not (0 <= k <= n - 2):
            raise InapplicableMove(f"cannot braid letters ({k},{k + 1}) of a length-{n} word")
        b, c = word[k], word[k + 1]
        new_word = word[:k] + (c, b) + word[k + 2:]
        out: dict = {}
        if k == 0:
            for path, coeff in tv.coeffs.items():
                m1, t1 = path[0]
                # inverse braiding b⊗c -> c⊗b is (τ_{c,b})^{-1} = R(c,b)†
                R = self.rmat(c, b, m1).conj().T if inverse else self.rmat(b, c, m1)
                for t1p in range(R.shape[0]):
                    _add(out, ((m1, t1p),) + path[1:], R[t1p, t1] * coeff)
            return TreeVector(new_word, tv.root, out)
        for (prefix, a, dd, suffix), vec in self._local_groups(tv, k):
            right = self._finv(a, b, c, dd) @ vec
            ridx = self.right_index(a, b, c, dd)
            rpos2 = self.ring.f_index(a, c, b, dd).rpos
            right2 = np.zeros(len(rpos2), dtype=complex)
            for i, (f, mu, nu) in enumerate(ridx):
                if abs(right[i]) == 0.0:
                    continue
                R = self.rmat(c, b, f).conj().T if inverse else self.rmat(b, c, f)
                for mup in range(R.shape[0]):
                    right2[rpos2[(f, mup, nu)]] += R[mup, mu] * right[i]
            left2 = self.fmat(a, c, b, dd) @ right2
            lidx2 = self.left_index(a, c, b, dd)
            for i, (e, alpha, beta) in enumerate(lidx2):
                if abs(left2[i]) == 0.0:
                    continue
                _add(out, prefix + ((e, alpha), (dd, beta)) + suffix, left2[i])
        return TreeVector(new_word, tv.root, out)

    def contract_pair(self, tv: TreeVector, k: int, Z: str, v_coeffs) -> TreeVector:
        """Compose with id ⊗ v* ⊗ id where v = Σ_μ v_coeffs[μ]·O(Z, x_k ⊗ x_{k+1}).

        The contracted pair is replaced by the single letter ``Z``; when Z is
        the unit the letter is dropped entirely.
        """
        word = tv.word
        n = len(word)
        if not (0 <= k <= n - 2):
            raise InapplicableMove("contract position out of range")
        v_coeffs = np.asarray(v_coeffs, dtype=complex)
        unit = self.ring.unit
        out: dict = {}
        if k == 0:
            if Z == unit:
                new_word = word[2:]
                for path, coeff in tv.coeffs.items():
                    m1, t1 = path[0]
                    if m1 != unit:
                        continue
                    # path[1] is the trivial step fuse(1, x_2) = x_2
                    _add(out, path[2:], np.conj(v_coeffs[t1]) * coeff)
                if len(word) == 2:
                    # result is a scalar in Hom(root, ∅); keep empty-path form
                    return TreeVector((), tv.root, out)
                return TreeVector(new_word, tv.root, out)
            new_word = (Z,) + word[2:]
            for path, coeff in tv.coeffs.items():
                m1, t1 = path[0]
                if m1 != Z:
                    continue
                _add(out, path[1:], np.conj(v_coeffs[t1]) * coeff)
            return TreeVector(new_word, tv.root, out)
        # k >= 1
        b, c = word[k], word[k + 1]
        if Z == unit:
            new_word = word[:k] + word[k + 2:]
        else:
            new_word = word[:k] + (Z,) + word[k + 2:]
        for (prefix, a, dd, suffix), vec in self._local_groups(tv, k):
            right = self._finv(a, b, c, dd) @ vec
            ridx = self.right_index(a, b, c, dd)
            for i, (f, mu, nu) in enumerate(ridx):
                if f != Z or abs(right[i]) == 0.0:
                    continue
                val = np.conj(v_coeffs[mu]) * right[i]
                if Z == unit:
                    # ν ∈ O(d, a⊗1) trivial, d == a
                    _add(out, prefix + suffix, val)
                else:
                    _add(out, prefix + ((dd, nu),) + suffix, val)
        return TreeVector(new_word, tv.root, out)

    def insert_pair(self, tv: TreeVector, k: int, y: str, z: str, p_coeffs) -> TreeVector:
        """Compose with id ⊗ p ⊗ id where p = Σ_μ p_coeffs[μ]·O(1, y ⊗ z).

        New letters (y, z) appear at positions (k, k+1) of the word.
        """
        word = tv.word
        if not (0 <= k <= len(word)):
            raise InapplicableMove("insert position out of range")
        if self.ring.N(y, z, self.ring.unit) == 0:
            raise InapplicableMove(f"O(1, {y}⊗{z}) is empty")
        p_coeffs = np.asarray(p_coeffs, dtype=complex)
        unit = self.ring.unit
        new_word = word[:k] + (y, z) + word[k:]
        out: dict = {}
        if k == 0:
            if len(word) == 0:
                for path, coeff in tv.coeffs.items():
                    for mu, p in enumerate(p_coeffs):
                        _add(out, ((unit, mu),), p * coeff)
                # word was empty => root is unit; new word (y, z)
                return TreeVector(new_word, tv.root, out)
            for path, coeff in tv.coeffs.items():
                for mu, p in enumerate(p_coeffs):
                    _add(out, ((unit, mu), (word[0], 0)) + path, p * coeff)
            return TreeVector(new_word, tv.root, out)
        # k >= 1: local expansion through F(a, y, z, a)
        for path, coeff in tv.coeffs.items():
            a = word[0] if k == 1 else path[k - 2][0]
            F = self.fmat(a, y, z, a)
            idx = self.ring.f_index(a, y, z, a)
            lidx, rpos = idx.left, idx.rpos
            rvec = np.zeros(len(rpos), dtype=complex)
            for mu, p in enumerate(p_coeffs):
                rvec[rpos[(unit, mu, 0)]] = p
            lvec = F @ rvec
            prefix = path[: k - 1]
            suffix = path[k - 1:]
            for i, (e, alpha, beta) in enumerate(lidx):
                if abs(lvec[i]) == 0.0:
                    continue
                _add(out, prefix + ((e, alpha), (a, beta)) + suffix, lvec[i] * coeff)
        return TreeVector(new_word, tv.root, out)

    def merge(self, tva: TreeVector, tvb: TreeVector, root: str, w_coeffs) -> TreeVector:
        """Left-tree coordinates of (tva ⊗ tvb) ∘ w.

        ``w = Σ_s w_coeffs[s]·O(root, tva.root ⊗ tvb.root)``.
        """
        w_coeffs = np.asarray(w_coeffs, dtype=complex)
        ring = self.ring
        n_w = ring.N(tva.root, tvb.root, root)
        if len(w_coeffs) != n_w:
            raise InapplicableMove("w_coeffs has wrong length")
        word_a, word_b = tva.word, tvb.word
        if len(word_a) == 0:
            # tva is a scalar at the unit; w is the unitor
            scale = tva.coeffs.get((), 0.0) * (w_coeffs[0] if n_w else 0.0)
            return tvb.scaled(scale)
        if len(word_b) == 0:
            scale = tvb.coeffs.get((), 0.0) * (w_coeffs[0] if n_w else 0.0)
            return tva.scaled(scale)
        if len(word_b) == 1:
            out: dict = {}
            g0 = tvb.coeffs.get((), 0.0)
            for path, coeff in tva.coeffs.items():
                for s in range(n_w):
                    _add(out, path + ((root, s),), coeff * g0 * w_coeffs[s])
            return TreeVector(word_a + word_b, root, out)
        # peel the last letter of word_b
        y = word_b[-1]
        word_b_head = word_b[:-1]
        out: dict = {}
        # group tvb by (last step (root_b, t)) and head channel c'
        heads: dict[tuple[str, int], dict] = {}
        for path, coeff in tvb.coeffs.items():
            cprime = word_b[0] if len(word_b) == 2 else path[-2][0]
            t = path[-1][1]
            heads.setdefault((cprime, t), {})[path[:-1]] = coeff
        for (cprime, t), headcoeffs in heads.items():
            F = self.fmat(tva.root, cprime, y, root)
            idx = ring.f_index(tva.root, cprime, y, root)
            lidx, rpos = idx.left, idx.rpos
            rvec = np.zeros(len(rpos), dtype=complex)
            for s in range(n_w):
                rvec[rpos[(tvb.root, t, s)]] = w_coeffs[s]
            lvec = F @ rvec
            tvb_head = TreeVector(word_b_head, cprime, headcoeffs)
            for i, (q, alpha, beta) in enumerate(lidx):
                if abs(lvec[i]) == 0.0:
                    continue
                e_alpha = np.zeros(ring.N(tva.root, cprime, q), dtype=complex)
                e_alpha[alpha] = 1.0
                inner = self.merge(tva, tvb_head, q, e_alpha)
                for path, coeff in inner.coeffs.items():
                    _add(out, path + ((root, beta),), coeff * lvec[i])
        return TreeVector(word_a + word_b, root, out)

    # ------------------------------------------------------------------
    # conjugate equations and bending
    # ------------------------------------------------------------------

    def conjugate_solution(self, x: str) -> ConjugateSolution:
        if x in self._conj_cache:
            return self._conj_cache[x]
        ring = self.ring
        if x not in ring.index:
            raise UnknownLabel(x)
        xb = self.dual(x)
        dx = self.d(x)
        idx = ring.f_index(x, xb, x, x)
        unit = ring.unit
        F = self.fmat(x, xb, x, x)
        f11 = F[idx.lpos[(unit, 0, 0)], idx.rpos[(unit, 0, 0)]]
        if abs(f11) < 1e-14:
            raise SolveFailed(f"zig-zag system singular for {x}")
        r = np.sqrt(dx)  # phase pin: positive real
        rbar = 1.0 / (r * np.conj(f11))
        # residuals of both zig-zag identities computed through the move engine
        res = max(
            abs(self._zigzag_scalar(x, r, rbar) - 1.0),
            abs(self._zigzag_scalar_dual(x, r, rbar) - 1.0),
            abs(abs(rbar) ** 2 - dx) / max(dx, 1.0),
        )
        sol = ConjugateSolution(x, xb, complex(r), complex(rbar), float(res))
        self._conj_cache[x] = sol
        return sol

    def _zigzag_scalar(self, x: str, r: complex, rbar: complex) -> complex:
        """(R̄* ⊗ id_x)(id_x ⊗ R_x) as a scalar on x."""
        xb = self.dual(x)
        tv = TreeVector((x,), x, {(): 1.0 + 0.0j})
        tv = self.insert_pair(tv, 1, xb, x, [r])
        tv = self.contract_pair(tv, 0, self.ring.unit, [np.conj(rbar)])
        # note contract_pair conjugates: pass conj so the effective coefficient is rbar*
        return tv.coeffs.get((), 0.0)

    def _zigzag_scalar_dual(self, x: str, r: complex, rbar: complex) -> complex:
        """(R* ⊗ id_x̄)(id_x̄ ⊗ R̄_x) as a scalar on x̄."""
        xb = self.dual(x)
        tv = TreeVector((xb,), xb, {(): 1.0 + 0.0j})
        tv = self.insert_pair(tv, 1, x, xb, [rbar])
        tv = self.contract_pair(tv, 0, self.ring.unit, [np.conj(r)])
        return tv.coeffs.get((), 0.0)

    # Frobenius bends.  All four are antilinear in the input coefficients.

    def bend_left(self, a: str, b: str, c: str, v: np.ndarray) -> np.ndarray:
        """Hom(c, a⊗b) -> Hom(b, ā⊗c): v ↦ (id_ā ⊗ v*)(R_a ⊗ id_b)."""
        ab = self.dual(a)
        sol = self.conjugate_solution(a)
        tv = TreeVector((ab, a, b), b, {((self.ring.unit, 0), (b, 0)): sol.r})
        tv = self.contract_pair(tv, 1, c, v)
        return self._two_letter_vec(tv, (ab, c), b)

    def unbend_left(self, a: str, b: str, c: str, u: np.ndarray) -> np.ndarray:
        """Hom(b, ā⊗c) -> Hom(c, a⊗b): u ↦ (id_a ⊗ u*)(R̄_a ⊗ id_c)."""
        ab = self.dual(a)
        sol = self.conjugate_solution(a)
        tv = TreeVector((c,), c, {(): 1.0 + 0.0j})
        tv = self.insert_pair(tv, 0, a, ab, [sol.rbar])
        tv = self.contract_pair(tv, 1, b, u)
        return self._two_letter_vec(tv, (a, b), c)

    def bend_right(self, a: str, b: str, c: str, v: np.ndarray) -> np.ndarray:
        """Hom(c, a⊗b) -> Hom(a, c⊗b̄): v ↦ (v* ⊗ id_b̄)(id_a ⊗ R̄_b)."""
        bb = self.dual(b)
        sol = self.conjugate_solution(b)
        tv = TreeVector((a,), a, {(): 1.0 + 0.0j})
        tv = self.insert_pair(tv, 1, b, bb, [sol.rbar])
        tv = self.contract_pair(tv, 0, c, v)
        return self._two_letter_vec(tv, (c, bb), a)

    def unbend_right(self, a: str, b: str, c: str, u: np.ndarray) -> np.ndarray:
        """Hom(a, c⊗b̄) -> Hom(c, a⊗b): u ↦ (u* ⊗ id_b)(id_c ⊗ R_b)."""
        bb = self.dual(b)
        sol = self.conjugate_solution(b)
        tv = TreeVector((c,), c, {(): 1.0 + 0.0j})
        tv = self.insert_pair(tv, 1, bb, b, [sol.r])
        tv = self.contract_pair(tv, 0, a, u)
        return self._two_letter_vec(tv, (a, b), c)

    def _two_letter_vec(self, tv: TreeVector, word: tuple, root: str) -> np.ndarray:
        n = self.ring.N(word[0], word[1], root)
        out = np.zeros(n, dtype=complex)
        unit = self.ring.unit
        if tv.word != word:
            # contract_pair drops unit letters; strict unitors make the
            # identifications Hom(b, a⊗1) = Hom(b, a) = Hom(b, 1⊗a) trivial.
            dropped = (
                (word[1] == unit and tv.word == (word[0],))
                or (word[0] == unit and tv.word == (word[1],))
                or (word == (unit, unit) and tv.word == ())
            )
            if dropped:
                if tv.root == root and n == 1:
                    out[0] = tv.coeffs.get((), 0.0)
                return out
            raise InapplicableMove(f"unexpected word {tv.word} (wanted {word})")
        if tv.root != root:
            raise InapplicableMove(f"unexpected root {tv.root} (wanted {root})")
        for path, coeff in tv.coeffs.items():
            out[path[0][1]] += coeff
        return out

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
        x₂, m₁, t₁, …, x_n, root, t_{n−1}, tree number) in :meth:`admissible_trees`
        order: the channel table (x, y, z, t) joined to itself on the last channel."""
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
