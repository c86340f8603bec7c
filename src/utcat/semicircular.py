"""Truncated Fock-space model of algebra-valued semicircular systems.

The base algebra A is a concrete multi-matrix algebra ⊕_b M_{k_b} embedded
block-diagonally in M_d.  A covariance matrix is a completely positive
η: A → A⊗ℒ(ℓ²(I)) stored as one stack of shape (|I|, |I|, nA, nA): the
linear maps η_ij in A-coordinates, indexed by the positions of i and j in
the index set.
The Fock space ⨁_{m≤n} 𝒳^{⊠m} is assembled level by level.  A raw
level-m vector ((a₁,i₁),…,(a_m,i_m); β) has the A-valued inner product

    ⟨(a,i)::u, (c,j)::v⟩ = ⟨u, η_ij(a*c) ▹ v⟩,      ⟨b, b′⟩₀ = b*b′,

where ▹ acts on the first slot of v.  Degenerate directions are quotiented
per level through the normalized trace, and the quotient is what the next
level is built on: level m is the Gram on (A⊗ℂ^I) ⊗ (range of level
m−1), of size P·r_{m−1} for P = nA·nI and r_m = level_dims[m], not on the
nA·P^m raw vectors.  Each level is kept as its `Cut` in the coordinates it
was built in, and every operator is read there: left multiplication acts
on the first slot, creation puts 1 ⊗ e_i in front of the range of the
level below.  Operators are kept as blocks between quotient levels, and
dense matrices are assembled from them.  X_i = T_i + T_i† is self-adjoint
by construction.

A vacuum moment of a word with nx X letters is the inner product of two
half-word states X_{i₁}···X_{i_k}·P₀* with k ≤ ⌈nx/2⌉, each on the levels
0…k that a path of k letters from the vacuum can reach.  Each half is kept
with its seed applied: the ket is the state on the vacuum ω₀, one column,
and the bra the conjugated state with the read-out of level 0 into A
folded in, d² columns.  The pure-X halves of both kinds are cached per
family, at most Σ_{k≤depth} |I|^k of each, so once they are built a
moment costs one product braᵀ·ket of d² entries; it is exact for
nx ≤ 2·depth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CPFailure,
    DimensionCap,
    LabelMismatch,
    NotAnAutomorphism,
    RowBoundFailure,
    UnknownLabel,
    WordTooLong,
)
from .gns import RANK_CUT, Cut, min_eig, rank_cut

__all__ = ["BaseAlgebra", "CovarianceMatrix", "SemicircularFamily",
           "TruncatedFock", "build_fock", "covariance_from_automorphisms",
           "covariance_from_vectors", "ind_faithfulness_probe",
           "semicircular_ops", "vacuum_expectation"]


class BaseAlgebra:
    """⊕_b M_{k_b} inside M_d with the matrix-unit basis and trace Tr/d."""

    def __init__(self, blocks=(1,)):
        self.blocks = tuple(int(k) for k in blocks)
        if any(k <= 0 for k in self.blocks):
            raise ValueError("block sizes must be positive")
        self.d = sum(self.blocks)
        slots = []  # (row, col) of each matrix unit
        off = 0
        for k in self.blocks:
            slots += [(off + r, off + c) for r in range(k) for c in range(k)]
            off += k
        self._rows, self._cols = (np.array(ix) for ix in zip(*slots))
        self.dim = len(slots)
        self.basis = np.zeros((self.dim, self.d, self.d), dtype=complex)
        self.basis[np.arange(self.dim), self._rows, self._cols] = 1.0
        self.unit_coords = self.coords(np.eye(self.d))
        # star_prods[a, c] = coordinates of e_a* e_c
        self.star_prods = self.coords(
            self.basis.conj().transpose(0, 2, 1)[:, None] @ self.basis[None])

    def coords(self, mat) -> np.ndarray:
        """Matrix-unit coordinates of a d×d matrix, or of a stack of them."""
        return np.asarray(mat, dtype=complex)[..., self._rows, self._cols]

    def element(self, coords) -> np.ndarray:
        """d×d matrix of A-coordinates, or a stack of them (last axis)."""
        out = np.zeros(np.shape(coords)[:-1] + (self.d, self.d), dtype=complex)
        out[..., self._rows, self._cols] = coords
        return out

    def left_matrix(self, a) -> np.ndarray:
        """Coordinate matrix of x ↦ a·x."""
        return self.coords(a @ self.basis).T

    def trace(self, mat) -> complex:
        return complex(np.trace(mat)) / self.d

    def random(self, rng) -> np.ndarray:
        return self.element(rng.normal(size=self.dim)
                            + 1j * rng.normal(size=self.dim))


@dataclass(frozen=True)
class CovarianceMatrix:
    """η: A → A⊗ℒ(ℓ²(I)) as one stack of shape (|I|, |I|, nA, nA):
    stacked[x, y] maps A-coordinates to A-coordinates under
    η_{index[x] index[y]}.  The stack and every field are read-only, so
    the checks made when it is built hold for its whole life."""

    algebra: BaseAlgebra
    index: tuple
    stacked: np.ndarray
    bound: float = None
    cp_floor: float = field(init=False)

    def __post_init__(self):
        # a frozen dataclass sets its fields through object.__setattr__
        object.__setattr__(self, "index", tuple(self.index))
        if not self.index:
            raise ValueError("a covariance needs a nonempty index set I")
        object.__setattr__(self, "stacked",
                           np.array(self.stacked, dtype=complex, order="C"))
        want = (len(self.index),) * 2 + (self.algebra.dim,) * 2
        if self.stacked.shape != want:
            raise ValueError(f"η stack has shape {self.stacked.shape}, "
                             f"expected {want}")
        self.stacked.flags.writeable = False
        object.__setattr__(self, "cp_floor", self._verify_cp())
        computed = self._row_bound()
        if self.bound is not None and computed > self.bound + 1e-9:
            raise RowBoundFailure(
                f"row bound {computed:.6f} exceeds declared C = {self.bound}")
        object.__setattr__(self, "bound", computed)

    def apply(self, i, j, a) -> np.ndarray:
        alg = self.algebra
        E = self.stacked[_index_of(self, i), _index_of(self, j)]
        return alg.element(E @ alg.coords(a))

    def _verify_cp(self) -> float:
        """[η_ij(e_α* e_β)] over a basis of A must be PSD in M_n(A⊗M_I)."""
        alg = self.algebra
        # big[(α,x,r), (β,y,c)] = η_xy(e_α* e_β)[r, c]
        big = alg.element(np.einsum("xyqp,abp->axbyq", self.stacked,
                                    alg.star_prods))
        n = alg.dim * len(self.index) * alg.d
        big = big.transpose(0, 1, 4, 2, 3, 5).reshape(n, n)
        floor = min_eig(big)
        if floor < -1e-10 * max(1.0, float(np.max(np.abs(big)))):
            raise CPFailure(f"Choi-type matrix has eigenvalue {floor:.3e}")
        return floor

    def _row_bound(self, samples: int = 20, seed: int = 0) -> float:
        """max_i Σ_j ‖η_ij(a)‖² / ‖a‖² over the basis, the unit and seeded
        random elements of A.  By Russo–Dye ‖η_ii‖ = ‖η_ii(1)‖, so the unit makes the bound exact
        for a single index; for rows of several indices it is a lower
        estimate of the supremum over A.
        """
        alg = self.algebra
        # one draw in the order of `samples` calls of alg.random
        z = np.random.default_rng(seed).normal(size=(samples, 2, alg.dim))
        tests = np.concatenate([alg.basis, np.eye(alg.d)[None],
                                alg.element(z[:, 0] + 1j * z[:, 1])])
        outs = alg.element(np.einsum("xyqp,tp->xytq", self.stacked,
                                     alg.coords(tests)))
        norms = np.linalg.svd(np.concatenate([outs.reshape(-1, alg.d, alg.d),
                                              tests]), compute_uv=False)[:, 0]
        na = norms[-len(tests):]
        rows = (norms[:-len(tests)] ** 2).reshape(outs.shape[:3]).sum(axis=1)
        keep = na >= 1e-14
        return float(np.max(rows[:, keep] / na[keep] ** 2, initial=0.0))

    def _trace_pairs(self) -> tuple:
        """(max |τ(η_ij(x)·y) − τ(x·η_ji(y))|, max |τ(η_ij(x)·y)|) over
        basis pairs."""
        alg = self.algebra
        B = alg.basis
        tau = np.einsum("qrc,ycr->qy", B, B) / alg.d  # τ(e_q e_y), symmetric
        lhs = np.einsum("ijqx,qy->ijxy", self.stacked, tau)
        # τ(x·η_ji(y)) = τ(η_ji(y)·x) is lhs with both pairs swapped
        worst = float(np.max(np.abs(lhs - lhs.transpose(1, 0, 3, 2)),
                             initial=0.0))
        return worst, float(np.max(np.abs(lhs), initial=0.0))

    def trace_symmetry_residual(self) -> float:
        """max |τ(η_ij(x)·y) − τ(x·η_ji(y))| over basis pairs."""
        return self._trace_pairs()[0]

    def is_trace_symmetric(self) -> bool:
        """Trace symmetry within 1e-12 of the largest |τ(η_ij(x)·y)|, so the
        verdict does not change when η is rescaled."""
        worst, scale = self._trace_pairs()
        return worst <= 1e-12 * scale


def covariance_from_vectors(vectors, algebra: BaseAlgebra = None,
                            bound: float = None) -> CovarianceMatrix:
    """η_ij(a) = Σ_s ξ_{i,s}* a ξ_{j,s} for vectors ξ_i in the free module A^S.

    A vector is an array of shape (S, d, d) — its components in A — or a
    plain 1-d array of scalars when A = ℂ.
    """
    if algebra is None:
        algebra = BaseAlgebra((1,))
    alg = algebra
    xs = [np.asarray(v, dtype=complex) for v in vectors]
    if not xs:
        raise ValueError("no vectors: a covariance needs a nonempty index set I")
    xs = [v.reshape(-1, 1, 1) if v.ndim == 1 else v for v in xs]
    if any(v.shape[1:] != (alg.d, alg.d) for v in xs):
        raise ValueError(f"vector components must be {alg.d}×{alg.d}")
    X = np.array(xs).reshape(len(xs), -1, alg.d, alg.d)
    # ent[i, j, e] = A-coordinates of Σ_s ξ_is* e ξ_js, columns of the stack
    ent = alg.coords(np.einsum("isrp,erc,jsck->ijepk", X.conj(), alg.basis, X))
    return CovarianceMatrix(alg, tuple(range(len(xs))), ent.swapaxes(2, 3),
                            bound=bound)


def covariance_from_automorphisms(alphas,
                                  algebra: BaseAlgebra = None) -> CovarianceMatrix:
    """Diagonal covariance η_i = α_i + α_i⁻¹ from verified automorphisms.

    Each α is a matrix on A-coordinates; unitality, multiplicativity and
    star-compatibility are checked on all basis elements and pairs at once,
    in that order, each to a Frobenius norm of 1e-10, before inverting.
    """
    tol = 1e-10
    if algebra is None:
        algebra = BaseAlgebra((1,))
    alg = algebra
    B = alg.basis
    prods = alg.coords(B[:, None] @ B[None])          # e_x e_y
    stars = alg.coords(B.conj().transpose(0, 2, 1))   # e_x*
    maps = []
    for t, al in enumerate(alphas):
        al = np.asarray(al, dtype=complex)
        if al.shape != (alg.dim, alg.dim):
            raise NotAnAutomorphism(f"α_{t} has shape {al.shape}")
        img = alg.element(al.T)  # img[x] = α(e_x)
        one = alg.element(al @ alg.unit_coords)
        if np.linalg.norm(one - np.eye(alg.d)) > tol:
            raise NotAnAutomorphism(f"α_{t} is not unital")
        mult = alg.element(prods @ al.T) - img[:, None] @ img[None]
        if np.max(np.linalg.norm(mult, axis=(2, 3))) > tol:
            raise NotAnAutomorphism(f"α_{t} is not multiplicative")
        star = alg.element(stars @ al.T) - img.conj().transpose(0, 2, 1)
        if np.max(np.linalg.norm(star, axis=(1, 2))) > tol:
            raise NotAnAutomorphism(f"α_{t} does not commute with *")
        if abs(np.linalg.det(al)) < 1e-12:
            raise NotAnAutomorphism(f"α_{t} is not invertible")
        maps.append(al + np.linalg.inv(al))
    stack = np.zeros((len(maps),) * 2 + (alg.dim,) * 2, dtype=complex)
    for i, m in enumerate(maps):
        stack[i, i] = m
    return CovarianceMatrix(alg, tuple(range(len(maps))), stack)


# ---------------------------------------------------------------------------
# truncated Fock space
# ---------------------------------------------------------------------------

MAX_DEPTH = 12    # deepest truncation `build_fock` builds
DIM_CAP = 4096    # largest total raw dimension Σ_m nA·(nA·nI)^m it builds


def _index_of(eta: CovarianceMatrix, i) -> int:
    if i not in eta.index:
        raise UnknownLabel(f"X index {i!r} is not in {eta.index}")
    return eta.index.index(i)


@dataclass
class TruncatedFock:
    """The levels 0…depth as the cuts of `level_cuts`, each in the
    coordinates it was built in: there to_onb = factor* reads ONB
    coordinates off, and from_onb = factor/w are the ONB vectors."""

    eta: CovarianceMatrix
    raw_dims: tuple    # nA·(nA·nI)^m raw vectors on level m
    cuts: tuple

    @cached_property
    def depth(self) -> int:
        return len(self.cuts) - 1

    @cached_property
    def level_dims(self) -> tuple:
        return tuple(cut.rank for cut in self.cuts)

    @cached_property
    def cut_gaps(self) -> tuple:
        return tuple(cut.gap for cut in self.cuts)

    @cached_property
    def offsets(self) -> list:
        ends = itertools.accumulate(self.level_dims, initial=0)
        return list(itertools.starmap(slice, itertools.pairwise(ends)))

    @property
    def total_dim(self) -> int:
        return self.offsets[-1].stop

    @cached_property
    def to_onb(self) -> list:
        return [cut.factor.conj().T for cut in self.cuts]

    @cached_property
    def from_onb(self) -> list:
        return [cut.factor / cut.w for cut in self.cuts]

    def left_block(self, m, L) -> np.ndarray:
        """x ↦ a·x on level m for L = left_matrix(a): L on the first slot."""
        R = self.from_onb[m]
        return self.to_onb[m] @ (L @ R.reshape(len(L), -1)).reshape(R.shape)

    def creation_blocks(self, i) -> list:
        """T_i from level m to m+1, m < depth: ξ ↦ (1 ⊗ e_i) ⊗ ξ, where the
        ONB vectors of level m are e_s/√w_s in its built coordinates."""
        e_i = np.eye(len(self.eta.index))[_index_of(self.eta, i)]
        slot = np.kron(self.eta.algebra.unit_coords, e_i)
        return [np.tensordot(slot, self.to_onb[m + 1].reshape(
                    up.rank, len(slot), cut.rank), (0, 1)) / np.sqrt(cut.w)
                for m, (cut, up) in enumerate(zip(self.cuts, self.cuts[1:]))]

    def assemble(self, blocks: dict, top: int = None) -> np.ndarray:
        """Dense operator from {(m, n): block} on the levels 0…top, by
        default the whole Fock space."""
        size = self.offsets[self.depth if top is None else top].stop
        M = np.zeros((size, size), dtype=complex)
        for (m, n), B in blocks.items():
            M[self.offsets[m], self.offsets[n]] = B
        return M

    @cached_property
    def omega(self) -> np.ndarray:
        """ONB coordinates of the vacuum 1 ∈ A on level 0."""
        return self.to_onb[0] @ self.eta.algebra.unit_coords


def _scalar_cut(G: np.ndarray, d: int) -> Cut:
    """`rank_cut` of τ of an A-valued Gram G[y, z, s, t], in real arithmetic
    when the trace is real."""
    Q = np.trace(G) / d
    return rank_cut(Q if Q.imag.any() else Q.real)


def level_cuts(eta: CovarianceMatrix, depth: int):
    """Yield the `Cut` of the scalar Gram τ⟨·,·⟩ of each level m ≤ depth on
    A for m = 0 and on (A⊗ℂ^I) ⊗ V for m > 0, V = factor/√w the kept
    eigenvectors of level m−1 (F·F* is the Gram, F*·F = diag(w)).

    V carries H = V*GV and the left action M_h = V*(L(e_h) ⊗ I)V of each
    basis element: the null space of level m−1 is a left submodule and
    orthogonal to the A-valued Gram, so

        G_m[(a,i,s), (c,j,t)] = Σ_h K[a,i,c,j,h]·(H·M_h)[s, t],

    K[a,i,c,j,·] the coordinates of η_ij(e_a* e_c), is the isometric
    compression of the raw level-m Gram, with the same kept eigenvalues;
    directions dropped at a lower level are not seen again, so the largest
    dropped value is that of this level's own cut.  A level costs
    O(d²·(nA·nI·r)³) for r = level_dims[m−1] instead of the raw
    O(d²·(nA·(nA·nI)^m)³).  Over A = ℂ the level-m Gram is C^{⊗m},
    C = [η_ij(1)], so its cut is the Kronecker power of the cut of C; its
    gap is read off the products of all eigenvalues of C.
    """
    alg = eta.algebra
    nA, nI, d = alg.dim, len(eta.index), alg.d
    if nA == 1:
        yield from _kronecker_cuts(eta.stacked[:, :, 0, 0], depth)
        return
    P = nA * nI
    K = np.einsum("ijhq,acq->aicjh", eta.stacked,
                  alg.star_prods).reshape(P, P, nA)
    L = np.stack([alg.left_matrix(e) for e in alg.basis])  # L[h] = L(e_h)
    G = np.moveaxis(alg.element(alg.star_prods), (2, 3), (0, 1))  # e_b* e_c
    cut = _scalar_cut(G, d)
    yield cut
    for _ in range(depth):
        r = cut.rank
        V = cut.factor / np.sqrt(cut.w)  # Euclidean-orthonormal eigenvectors
        H = V.conj().T @ G @ V
        LV = np.tensordot(L, V.reshape(nA, len(V) // nA, r), (2, 0))
        M = V.conj().T @ LV.reshape(nA, len(V), r)
        # G[y, z, (p,s), (q,t)] = Σ_h K[p,q,h]·(H·M_h)[y, z, s, t]
        G = np.tensordot(K, H @ M[:, None, None], (2, 0))
        G = G.transpose(2, 3, 0, 4, 1, 5).reshape(d, d, P * r, P * r)
        cut = _scalar_cut(G, d)
        yield cut


def _kronecker_cuts(C: np.ndarray, depth: int):
    """Cuts of C^{⊗m}, m ≤ depth, from the cut c of C: the Gram on
    ℂ^I ⊗ V_{m−1} is C ⊗ diag(w_{m−1}), with factor kron(c, diag(√w_{m−1})).
    A product of eigenvalues with a dropped factor lies below the level's
    threshold, so the kept ones are products of kept eigenvalues; the
    largest dropped one is read from the products of all of them."""
    c = rank_cut(C)
    every = np.linalg.eigvalsh((C + C.conj().T) / 2)
    w, lam = np.ones(1), np.ones(1)
    yield Cut(np.ones((1, 1)), w, None)
    for _ in range(depth):
        root = np.diag(np.sqrt(w))  # kron(c, root) by broadcasting
        F = (c.factor[:, None, :, None] * root[:, None]).reshape(
            len(c.factor) * len(w), c.rank * len(w))
        w = np.outer(c.w, w).ravel()
        thr = RANK_CUT * np.max(w, initial=1e-300)
        keep = w > thr
        F, w = F[:, keep], w[keep]
        lam = np.outer(every, lam).ravel()
        dropped = lam[lam <= thr]
        gap = None
        if dropped.size:
            gap = (float(w.min()) if w.size else None, float(dropped.max()))
        yield Cut(F, w, gap)


def build_fock(eta: CovarianceMatrix, depth: int) -> TruncatedFock:
    """Assemble the inner products of 𝒳^{⊠m} for m ≤ depth and quotient."""
    if depth > MAX_DEPTH:
        raise DimensionCap(f"depth {depth} exceeds the maximum {MAX_DEPTH}")
    nA, nI = eta.algebra.dim, len(eta.index)
    raw_dims = tuple(nA * (nA * nI) ** m for m in range(depth + 1))
    for m, total in enumerate(itertools.accumulate(raw_dims)):
        if total > DIM_CAP:
            raise DimensionCap(
                f"raw dimension exceeds the cap {DIM_CAP} at level {m}")
    return TruncatedFock(eta, raw_dims, tuple(level_cuts(eta, depth)))


@dataclass
class SemicircularFamily:
    """X_i = T_i + T_i† as level blocks of T_i; dense views on request.

    ``ket`` and ``bra`` cache the two seeded halves of every pure-X word,
    at most Σ_{k≤depth} |I|^k of each, so the moments of many words share
    their halves.
    """

    fock: TruncatedFock
    blocks: dict    # i -> [T_i: level m → m+1 for m < depth]
    _windows: dict = field(default_factory=dict, init=False, repr=False)
    _kets: dict = field(default_factory=dict, init=False, repr=False)
    _bras: dict = field(default_factory=dict, init=False, repr=False)

    def window(self, h: int) -> dict:
        """X_i compressed to the levels 0…h (T_i out of level h dropped),
        dense and cached per h."""
        if h not in self._windows:
            self._windows[h] = {}
            for i, Ts in self.blocks.items():
                T = self.fock.assemble(
                    {(m + 1, m): T for m, T in enumerate(Ts[:h])}, h)
                self._windows[h][i] = T + T.conj().T
        return self._windows[h]

    def ket(self, word: tuple) -> np.ndarray:
        """S·ω₀ for S = X_{i₁}···X_{i_k}·P₀* and word = (i₁, …, i_k),
        k ≤ depth: one read-only vector on the levels 0…k.  A path of k
        letters from level 0 never uses T out of level k, so the product
        is exact in `window(k)`."""
        return self._half(word, self._kets, False)

    def bra(self, word: tuple) -> np.ndarray:
        """conj(S·from_onb[0]*·B) for the S of `ket` and the matrix units B
        of A flattened to d² columns, read-only: the read-out of level 0
        into A is folded in, so that E(l·r) = bra(l̄)ᵀ·ket(r) reshaped to
        d×d, l̄ the X indices of l reversed."""
        return self._half(word, self._bras, True)

    def _half(self, word: tuple, cache: dict, conj: bool) -> np.ndarray:
        """The seeded half of `ket` or `bra` (``conj``), built from that of
        the word's tail as window(k)[i₁] applied to it, or window(k)[i₁]ᵀ
        = conj(window(k)[i₁]) on the conjugated bra, and cached per word."""
        try:
            S = cache.get(word)
        except TypeError:  # an unhashable index, refused below
            S = None
        if S is None:
            fock = self.fock
            if len(word) > fock.depth:
                raise WordTooLong(f"{len(word)} letters exceed the depth "
                                  f"{fock.depth}")
            if word:
                _index_of(fock.eta, word[0])
                rest = self._half(word[1:], cache, conj)
                W = self.window(len(word))[word[0]]
                S = (W.T if conj else W)[:, :len(rest)] @ rest
            elif conj:
                alg = fock.eta.algebra
                S = (fock.from_onb[0].conj().T @ alg.basis.reshape(
                    alg.dim, -1)).conj()
            else:
                S = fock.omega.copy()
            S.flags.writeable = False
            cache[word] = S
        return S


def semicircular_ops(fock: TruncatedFock) -> SemicircularFamily:
    return SemicircularFamily(
        fock, {i: fock.creation_blocks(i) for i in fock.eta.index})


def _left_matrix(alg: BaseAlgebra, letter) -> np.ndarray:
    """`left_matrix` of a word letter that is not ("X", i)."""
    try:
        a = np.asarray(letter, dtype=complex)
    except (TypeError, ValueError):
        a = None
    if a is None or a.shape != (alg.d, alg.d):
        raise LabelMismatch(f"a word letter is ('X', i) or a {alg.d}×{alg.d} "
                            f"matrix of A, not {letter!r:.60}")
    return alg.left_matrix(a)


def _seeded_half(fam: SemicircularFamily, letters, isx, conj: bool):
    """The seeded half of letters·P₀*, on the levels 0…k for k the X
    letters among them (``isx`` flags them): `fam.bra` when ``conj``, with
    each A letter acting by the transpose of its block, else `fam.ket`.
    The pure-X end, which acts first, is read from the family's cache."""
    fock = fam.fock
    j = len(letters)
    while j and isx[j - 1]:
        j -= 1
    word = tuple([w[1] for w in letters[j:]])
    S = fam.bra(word) if conj else fam.ket(word)
    k = len(word)
    for t in reversed(range(j)):
        if isx[t]:
            k += 1
            _index_of(fock.eta, letters[t][1])
            W = fam.window(k)[letters[t][1]]
            S = (W.T if conj else W)[:, :len(S)] @ S
            continue
        L = _left_matrix(fock.eta.algebra, letters[t])
        blocks = [fock.left_block(m, L) for m in range(k + 1)]
        S = np.concatenate([(B.T if conj else B) @ S[fock.offsets[m]]
                            for m, B in enumerate(blocks)])
    return S


def vacuum_expectation(fam: SemicircularFamily, word) -> np.ndarray:
    """E(w) = ⟨wΩ, Ω⟩ ∈ A for a word in the X_i and left factors from A.

    Word letters: ("X", i) or a d×d matrix of A; an i outside η's index
    set raises `UnknownLabel`, any other letter `LabelMismatch`.  Exact
    when the number nx of X letters is at most 2·depth; longer words are
    refused.  The word is split after its ⌊nx/2⌋-th X letter into w = l·r,
    and

        E(w) = P₀·l·r·P₀*·ω₀ = (l*·P₀*)*·(r·P₀*)·ω₀,

    read into A through from_onb[0] and the matrix units.  The ket
    r·P₀*·ω₀ is one column, and the bra conj(l*·P₀*·from_onb[0]*·B) holds
    that read-out in d² columns, so E(w) is one product braᵀ·ket reshaped
    to d×d.  The pure-X end of each half comes from the family's caches, so
    a sweep over the words of length ≤ 2n builds each of the Σ_{k≤n} |I|^k
    halves of each kind once.  The letters left over act on the seeded
    half: an A letter by its level blocks on the ket and by their
    transposes on the bra.
    """
    fock = fam.fock
    # a tuple of matrix rows is an A letter, not ("X", i)
    isx = [isinstance(w, tuple) and len(w) == 2 and isinstance(w[0], str)
           and w[0] == "X" for w in word]
    xs = list(itertools.compress(range(len(isx)), isx))
    if len(xs) > 2 * fock.depth:
        raise WordTooLong(
            f"{len(xs)} semicircular letters exceed 2·depth = {2 * fock.depth}")
    cut = xs[len(xs) // 2 - 1] + 1 if len(xs) > 1 else 0
    bra = _seeded_half(fam, word[:cut][::-1], isx[:cut][::-1], True)
    ket = _seeded_half(fam, word[cut:], isx[cut:], False)
    d = fock.eta.algebra.d
    return (bra.T @ ket[:len(bra)]).reshape(d, d)


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def catalan_moments(eta: CovarianceMatrix, i, n: int) -> list:
    """E(X_i^k) for k ≤ n from η alone, by the operator-valued Catalan
    recursion m₀ = 1, m_k = Σ_{j≤k−2} η_ii(m_j)·m_{k−2−j}."""
    ms = [np.eye(eta.algebra.d, dtype=complex)]
    for k in range(1, n + 1):
        ms.append(sum((eta.apply(i, i, ms[j]) @ ms[k - 2 - j]
                       for j in range(k - 1)), np.zeros_like(ms[0])))
    return ms


# ---------------------------------------------------------------------------
# faithfulness / ind-criterion ingredients
# ---------------------------------------------------------------------------

def _kraus_vectors(eta: CovarianceMatrix) -> list:
    """Vectors ξ_i in a free module with η_ij(a) = Σ_s ξ_{i,s}* a ξ_{j,s}.

    Only available for single-block A (ℂ or M_k), via the eigenvectors of
    the Choi matrix of η viewed as a map M_k → M_k⊗M_I.
    """
    alg = eta.algebra
    if len(alg.blocks) != 1:
        return None
    k, nI = alg.d, len(eta.index)
    # Choi of Φ: M_k → M_{kI}, C = Σ_pq E_pq ⊗ Φ(E_pq), rows (p, x, r);
    # E_pq is basis element p·k + q of the single block
    phi = alg.element(np.moveaxis(eta.stacked, 3, 0)).reshape(
        k, k, nI, nI, k, k)
    choi = phi.transpose(0, 2, 4, 1, 3, 5).reshape(k * nI * k, k * nI * k)
    # column s of the factor, reshaped to v[p,i,o], gives W_s^{(i)}[o,p] =
    # v[p,i,o] with η_ij(a) = Σ_s W^{(i)} a W^{(j)†}, so ξ_{i,s} = W_s^{(i)†}
    v = rank_cut(choi).factor.T.reshape(-1, k, nI, k)
    return [v[:, :, i, :].conj() for i in range(nI)]


def ind_faithfulness_probe(eta: CovarianceMatrix) -> dict:
    """Checkable ingredients of the ind-inclusion criterion for finite A.

    (a) trace symmetry of η against the canonical trace; (b) the ranks
    `corner_dims` of the scalar Grams of the corner correspondences
    A⊗_{η_ii}A; (c) for single-block A, the residual of the Corollary's
    vector presentation round-trip.  The verdict passes only if η is
    trace-symmetric and that residual, where it applies, is at most 1e-9.
    """
    alg = eta.algebra
    # scalar Gram of A⊗_{η_ii}A: ⟨a⊗b, c⊗d⟩ = τ(b* η_ii(a*c) d), where
    # tau3[b, q, d] = τ(e_b* e_q e_d)
    B, n = alg.basis, alg.dim
    tau3 = np.einsum("bsr,qst,dtr->bqd", B.conj(), B, B) / alg.d
    corner_dims = {
        i: rank_cut(np.einsum("acp,qp,bqd->abcd", alg.star_prods,
                              eta.stacked[x, x], tau3).reshape(n * n, n * n)).rank
        for x, i in enumerate(eta.index)}

    vecs = _kraus_vectors(eta)
    roundtrip = None
    if vecs is not None:
        eta2 = covariance_from_vectors(vecs, alg)
        roundtrip = float(np.max(np.abs(eta2.stacked - eta.stacked)))

    symmetric = eta.is_trace_symmetric()
    if not symmetric:
        verdict = "η is not trace-symmetric"
    elif roundtrip is not None and roundtrip > 1e-9:
        verdict = "vector presentation residual above 1e-9"
    else:
        verdict = "criterion ingredients verified (finite A)"
    return {
        "trace_symmetry_residual": eta.trace_symmetry_residual(),
        "trace_symmetric": symmetric,
        "corner_dims": corner_dims,
        "vector_presentation_residual": roundtrip,
        "verdict": verdict,
    }
