"""The dict-keyed fusion-tree calculus, kept as the reference for the
closed-form F/R contractions of :mod:`utcat`.

A morphism Z -> x_1 ⊗ ... ⊗ x_n is a :class:`TreeVector`: coefficients over
left-associated fusion trees, a path being the tuple ((m_1, t_1), ...,
(m_{n-1}, t_{n-1})) of intermediate channels and multiplicity indices with
m_{n-1} the root.  :class:`TreeCalculus` moves such vectors one local step at
a time (braid, insert or contract a pair, merge two trees), reading F, F⁻¹ and
R from the buffers of the category it wraps through ``skeletal._block``, and
θ from its ``_twists``; every other attribute reads through to that
category.  The reference builders at the end assemble the annulus product and
star, the square-algebra structure tensor and star, and the fiber action by
walking trees through these moves, as :mod:`utcat` once did, over the basis
of :func:`annulus_basis`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from index_reference import f_index, finv, fmat, rmat
from utcat.errors import SolveFailed, UnknownLabel
from utcat.skeletal import ConjugateSolution


class InapplicableMove(Exception):
    """A move at a position or on a word where it is not defined."""


class EmptyHomSpace(Exception):
    """A basis asked of a zero hom space."""


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



class TreeCalculus:
    """The move engine on one category; other attributes read through to it.

    Conjugate solutions are solved and cached here, through the moves, apart
    from the category's own.
    """

    def __init__(self, cat):
        self.cat = cat
        self._conj_cache = {}

    def __getattr__(self, name):
        return getattr(self.cat, name)

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
        the left basis of f_index(ring, a, word[k], word[k+1], d)).
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
            pos = f_index(self.ring, a, word[k], word[k + 1], d).lpos
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
                R = rmat(self.cat, c, b, m1).conj().T if inverse else rmat(self.cat, b, c, m1)
                for t1p in range(R.shape[0]):
                    _add(out, ((m1, t1p),) + path[1:], R[t1p, t1] * coeff)
            return TreeVector(new_word, tv.root, out)
        for (prefix, a, dd, suffix), vec in self._local_groups(tv, k):
            right = finv(self.cat, a, b, c, dd) @ vec
            ridx = f_index(self.ring, a, b, c, dd).right
            rpos2 = f_index(self.ring, a, c, b, dd).rpos
            right2 = np.zeros(len(rpos2), dtype=complex)
            for i, (f, mu, nu) in enumerate(ridx):
                if abs(right[i]) == 0.0:
                    continue
                R = rmat(self.cat, c, b, f).conj().T if inverse else rmat(self.cat, b, c, f)
                for mup in range(R.shape[0]):
                    right2[rpos2[(f, mup, nu)]] += R[mup, mu] * right[i]
            left2 = fmat(self.cat, a, c, b, dd) @ right2
            lidx2 = f_index(self.ring, a, c, b, dd).left
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
            right = finv(self.cat, a, b, c, dd) @ vec
            ridx = f_index(self.ring, a, b, c, dd).right
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
            F = fmat(self.cat, a, y, z, a)
            idx = f_index(self.ring, a, y, z, a)
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
            F = fmat(self.cat, tva.root, cprime, y, root)
            idx = f_index(ring, tva.root, cprime, y, root)
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

    def _unit_entry(self, x: str) -> complex:
        """F[x,x̄,x;x] between its unit channels, found through the per-key index."""
        idx, unit = f_index(self.ring, x, self.dual(x), x, x), self.ring.unit
        F = fmat(self.cat, x, self.dual(x), x, x)
        return F[idx.lpos[(unit, 0, 0)], idx.rpos[(unit, 0, 0)]]

    def dim(self, x: str) -> float:
        return 1.0 / abs(self._unit_entry(x))

    def dimension_residual(self) -> float:
        """ρ = max_{x,y} |Σ_z N_xy^z·d_z − d_x·d_y| / (d_x·max d), pair by pair."""
        labels = self.ring.labels
        dmax = max(self.dim(z) for z in labels)
        return max(abs(sum(m * self.dim(z) for z, m in self.ring.channels(x, y))
                       - self.dim(x) * self.dim(y)) / (self.dim(x) * dmax)
                   for x in labels for y in labels)

    def conjugate_solution(self, x: str) -> ConjugateSolution:
        if x in self._conj_cache:
            return self._conj_cache[x]
        if x not in self.ring.index:
            raise UnknownLabel(x)
        f11 = self._unit_entry(x)
        if abs(f11) < 1e-14:
            raise SolveFailed(f"zig-zag system singular for {x}")
        r = np.sqrt(self.dim(x))  # phase pin: positive real
        rbar = 1.0 / (r * np.conj(f11))
        # residuals of both zig-zag identities computed through the move
        # engine, and of the dimensions against the fusion rules
        res = max(
            abs(self._zigzag_scalar(x, r, rbar) - 1.0),
            abs(self._zigzag_scalar_dual(x, r, rbar) - 1.0),
            self.dimension_residual(),
        )
        sol = ConjugateSolution(x, self.dual(x), complex(r), complex(rbar), float(res))
        self._conj_cache[x] = sol
        return sol

    def _zigzag_scalar(self, x: str, r: complex, rbar: complex) -> complex:
        """(R̄* ⊗ id_x)(id_x ⊗ R_x) as a scalar on x."""
        xb = self.dual(x)
        tv = TreeVector((x,), x, {(): 1.0 + 0.0j})
        tv = self.insert_pair(tv, 1, xb, x, [r])
        # contract_pair composes with the adjoint, so R̄* enters as conj(r̄)
        tv = self.contract_pair(tv, 0, self.ring.unit, [rbar])
        return tv.coeffs.get((), 0.0)

    def _zigzag_scalar_dual(self, x: str, r: complex, rbar: complex) -> complex:
        """(R* ⊗ id_x̄)(id_x̄ ⊗ R̄_x) as a scalar on x̄."""
        xb = self.dual(x)
        tv = TreeVector((xb,), xb, {(): 1.0 + 0.0j})
        tv = self.insert_pair(tv, 1, x, xb, [rbar])
        tv = self.contract_pair(tv, 0, self.ring.unit, [r])
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


# ---------------------------------------------------------------------------
# reference builders: annulus, square algebra, fiber action
# ---------------------------------------------------------------------------

def annulus_basis(cat, S, Y: str) -> list:
    """Basis (X, t) of ⊕_{X∈S} Hom(Y, X̄⊗X), lexicographic in X, as
    ``utcat.annulus.annulus_basis`` once listed it."""
    ring = cat.ring
    return [(X, t) for X in sorted(S) for t in range(ring.N(ring.dual[X], X, Y))]


def _vec_tree(root, word, coeffs):
    return TreeVector(tuple(word), root,
                      {((root, t),): c for t, c in enumerate(coeffs) if abs(c) > 0})


def annulus_mult(cat, S) -> dict:
    """The annulus product over the support S, tree by tree: merge two basis
    trees, braid X̄⊗X past X̄', and project on the conjugate pair trees.
    Each tree u ∈ O(W, Y⊗Z) fills plane u of the stack ``mult[(Y, Z, W)]``."""
    tc, ring = TreeCalculus(cat), cat.ring
    labels = ring.labels
    bases = {Y: annulus_basis(cat, S, Y) for Y in labels}
    fibers = {Y: len(bases[Y]) for Y in labels}

    # conjugate pair trees: for each (V, X, Xp) an onb b_q of O(V, X⊗Xp) and
    # the normalized conjugates conj(b_q)/‖conj(b_q)‖ ∈ Hom(V̄, X̄p⊗X̄)
    def conj_pairs(V, X, Xp):
        n = ring.N(X, Xp, V)
        pairs = []
        for q in range(n):
            cb = tc.conj_pair_basis(X, Xp, V, np.eye(n)[q])
            cb = cb / np.linalg.norm(cb)
            pairs.append((np.eye(n)[q], cb))
        return pairs

    mult = {}
    for Y in labels:
        for Z in labels:
            for W in labels:
                nu = ring.N(Y, Z, W)
                if nu == 0 or fibers[W] == 0 or fibers[Y] == 0 or fibers[Z] == 0:
                    continue
                stack = np.zeros((nu, fibers[W], fibers[Y], fibers[Z]), dtype=complex)
                for u, arr in enumerate(stack):
                    for iy, (X, t) in enumerate(bases[Y]):
                        Xb = ring.dual[X]
                        f = tc.basis_tree(Y, (Xb, X), ((Y, t),))
                        for iz, (Xp, tp) in enumerate(bases[Z]):
                            Xpb = ring.dual[Xp]
                            gtv = tc.basis_tree(Z, (Xpb, Xp), ((Z, tp),))
                            big = tc.merge(f, gtv, W, np.eye(nu)[u])
                            # τ_{X̄⊗X, X̄p}: move letter 2 left past letters 1, 0
                            big = tc.braid_adjacent(big, 1)
                            big = tc.braid_adjacent(big, 0)
                            # now word = (X̄p, X̄, X, Xp); project on pair trees
                            for iw, (V, h) in enumerate(bases[W]):
                                Vb = ring.dual[V]
                                nh = ring.N(Vb, V, W)
                                total = 0.0 + 0.0j
                                for b_q, cb_q in conj_pairs(V, X, Xp):
                                    left = _vec_tree(Vb, (Xpb, Xb), cb_q)
                                    right = _vec_tree(V, (X, Xp), b_q)
                                    M = tc.merge(left, right, W, np.eye(nh)[h])
                                    total += M.inner(big)
                                arr[iw, iy, iz] = total
                if np.any(stack):
                    mult[(Y, Z, W)] = stack
    return mult


def annulus_star(cat, S) -> dict:
    """The annulus star over S: conjugate f: Y → X̄⊗X, braid X̄⊗X → X⊗X̄,
    times the twist of the loop label."""
    tc, ring = TreeCalculus(cat), cat.ring
    labels = ring.labels
    bases = {Y: annulus_basis(cat, S, Y) for Y in labels}
    star = {}
    for Y in labels:
        Yb = ring.dual[Y]
        Smat = np.zeros((len(bases[Yb]), len(bases[Y])), dtype=complex)
        for iy, (X, t) in enumerate(bases[Y]):
            Xb = ring.dual[X]
            n = ring.N(Xb, X, Y)
            cb = tc.conj_pair_basis(Xb, X, Y, np.eye(n)[t])  # ∈ Hom(Ȳ, X̄⊗X)
            tv = _vec_tree(Yb, (Xb, X), cb)
            tv = tc.braid_adjacent(tv, 0)                    # ∈ Hom(Ȳ, X⊗X̄)
            for path, coeff in tv.coeffs.items():
                jidx = bases[Yb].index((Xb, path[0][1]))
                Smat[jidx, iy] += coeff
        star[Y] = cat._twists[[ring.index[X] for X, _ in bases[Yb]]][:, None] * Smat
    return star


def square_structure_tensor(sq) -> np.ndarray:
    """P[k, i, j] of the square algebra ``sq``, from merged trees against
    (id ⊗ R̄_X ⊗ id) ∘ u for every output basis tree u."""
    D, tc = sq.D, TreeCalculus(sq.D.cat)
    ring = tc.ring
    X, Xb = sq.X, sq.Xb
    rbar = tc.conjugate_solution(X).rbar
    P = np.zeros((sq.dim, sq.dim, sq.dim), dtype=complex)
    targets, at = {}, sq.layout.slices
    for (U, u) in at:
        tu = tc.basis_tree(U, (Xb, X), ((U, u),))
        targets[(U, u)] = tc.insert_pair(tu, 1, X, Xb, [rbar])
    for (Z, v) in at:
        tv = tc.basis_tree(Z, (Xb, X), ((Z, v),))
        for (W, w) in at:
            tw = tc.basis_tree(W, (Xb, X), ((W, w),))
            for U in ring.labels:
                if D.n(U) == 0:
                    continue
                ns = ring.N(Z, W, U)
                for s in range(ns):
                    M = tc.merge(tv, tw, U, np.eye(ns)[s])
                    mu = D.mu(Z, W, U)[s]
                    for u in range(ring.N(Xb, X, U)):
                        gamma = D.scalar(M.inner(targets[(U, u)]))
                        if abs(gamma) == 0.0:
                            continue
                        P[at[(U, u)], at[(Z, v)], at[(W, w)]] += gamma * mu
    return P


def square_star_mat(sq) -> np.ndarray:
    """The star of the square algebra ``sq`` through the moved conjugates."""
    D, tc = sq.D, TreeCalculus(sq.D.cat)
    ring = tc.ring
    sol = tc.conjugate_solution(sq.X)
    phase = D.scalar(sol.rbar / sol.r)
    S = np.zeros((sq.dim, sq.dim), dtype=complex)
    at = sq.layout.slices
    for (Z, v) in at:
        K = tc.conj_pair_basis(sq.Xb, sq.X, Z, np.eye(ring.N(sq.Xb, sq.X, Z))[v])
        Zb = ring.dual[Z]
        for s, k_vs in enumerate(K):
            k_vs = D.scalar(k_vs)
            if abs(k_vs) == 0.0 or (Zb, s) not in at:
                continue
            S[at[(Zb, s)], at[(Z, v)]] += k_vs * D.star[Z]
    return S * (phase / abs(phase))


def fiber_action(D, X, xi, T) -> np.ndarray:
    """ξ ◁ T = 𝒟(R̄_X ⊗ id_X)(𝒟²(ξ ⊙ T)), capping ξ's strand through the moves."""
    tc = TreeCalculus(D.cat)
    ring = tc.ring
    sol = tc.conjugate_solution(X)
    q = tc.insert_pair(TreeVector((X,), X, {(): 1.0 + 0j}), 0,
                       X, ring.dual[X], [sol.rbar])
    out = np.zeros(D.n(X), dtype=complex)
    for (Z, v), sl in D.layout(ring.dual[X], X).slices.items():
        for s in range(ring.N(X, Z, X)):
            M = tc.merge(TreeVector((X,), X, {(): 1.0 + 0j}),
                         tc.basis_tree(Z, (ring.dual[X], X), ((Z, v),)),
                         X, np.eye(ring.N(X, Z, X))[s])
            coeff = M.inner(q)
            if abs(coeff) == 0.0:
                continue
            out += D.scalar(coeff) * np.einsum("zxy,x,y->z", D.mu(X, Z, X)[s], xi, T[sl])
    return out
