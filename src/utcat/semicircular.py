"""Truncated Fock-space model of algebra-valued semicircular systems.

The base algebra A is a concrete multi-matrix algebra ⊕_b M_{k_b} embedded
block-diagonally in M_d.  A covariance matrix is a completely positive
η: A → A⊗ℒ(ℓ²(I)) stored entrywise as linear maps η_ij in A-coordinates.
The Fock space ⨁_{m≤n} 𝒳^{⊠m} is assembled level by level: a raw level-m
basis vector ((a₁,i₁),…,(a_m,i_m); β) has the mixed-radix index over
(a₁,i₁,…,a_m,i_m,β), and the A-valued inner product follows the recursion

    ⟨(a,i)::u, (c,j)::v⟩ = ⟨u, η_ij(a*c) ▹ v⟩,      ⟨b, b′⟩₀ = b*b′,

one tensor contraction per level, where ▹ acts on the first slot of v.
Degenerate directions are quotiented per level through the normalized
trace.  On the raw index left multiplication is L(a) ⊗ I, right
multiplication I ⊗ R(a) and creation (unit ⊗ e_i) ⊗ I; operators are kept
as blocks between quotient levels, and dense matrices are assembled from
them.  X_i = T_i + T_i† is self-adjoint by construction.  Vacuum moments
walk a word through the levels its vector lives on and are exact for at
most 2·depth letters: a path through the truncated level cannot return.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CPFailure,
    DimensionCap,
    NotAnAutomorphism,
    RowBoundFailure,
    WordTooLong,
)
from .gns import min_eig, rank_cut

__all__ = [
    "BaseAlgebra",
    "CovarianceMatrix",
    "SemicircularFamily",
    "TruncatedFock",
    "build_fock",
    "covariance_from_automorphisms",
    "covariance_from_vectors",
    "ind_faithfulness_probe",
    "semicircular_ops",
    "vacuum_expectation",
]


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

    def coords(self, mat) -> np.ndarray:
        """Matrix-unit coordinates of a d×d matrix, or of a stack of them."""
        return np.asarray(mat, dtype=complex)[..., self._rows, self._cols]

    def element(self, coords) -> np.ndarray:
        out = np.zeros((self.d, self.d), dtype=complex)
        out[self._rows, self._cols] = coords
        return out

    def left_matrix(self, a) -> np.ndarray:
        """Coordinate matrix of x ↦ a·x."""
        return self.coords(a @ self.basis).T

    def right_matrix(self, a) -> np.ndarray:
        """Coordinate matrix of x ↦ x·a."""
        return self.coords(self.basis @ a).T

    def trace(self, mat) -> complex:
        return complex(np.trace(mat)) / self.d

    def random(self, rng) -> np.ndarray:
        return self.element(rng.normal(size=self.dim)
                            + 1j * rng.normal(size=self.dim))


@dataclass
class CovarianceMatrix:
    """η: A → A⊗ℒ(ℓ²(I)); entries[(i,j)] maps A-coordinates to A-coordinates."""

    algebra: BaseAlgebra
    index: tuple
    entries: dict
    bound: float = None
    cp_floor: float = field(default=None)

    def __post_init__(self):
        alg = self.algebra
        self.index = tuple(self.index)
        full = {}
        for i in self.index:
            for j in self.index:
                m = self.entries.get((i, j))
                if m is None:
                    m = np.zeros((alg.dim, alg.dim))
                full[(i, j)] = np.asarray(m, dtype=complex)
        self.entries = full
        self.cp_floor = self._verify_cp()
        computed = self._row_bound()
        if self.bound is not None and computed > self.bound + 1e-9:
            raise RowBoundFailure(
                f"row bound {computed:.6f} exceeds declared C = {self.bound}")
        self.bound = computed

    def apply(self, i, j, a) -> np.ndarray:
        alg = self.algebra
        return alg.element(self.entries[(i, j)] @ alg.coords(a))

    def _verify_cp(self) -> float:
        """[η_ij(e_α* e_β)] over a basis of A must be PSD in M_n(A⊗M_I)."""
        alg = self.algebra
        nA, nI, d = alg.dim, len(self.index), alg.d
        big = np.zeros((nA * nI * d, nA * nI * d), dtype=complex)
        for ai, ei in enumerate(alg.basis):
            for bi, ej in enumerate(alg.basis):
                prod = ei.conj().T @ ej
                for x, i in enumerate(self.index):
                    for y, j in enumerate(self.index):
                        r = (ai * nI + x) * d
                        c = (bi * nI + y) * d
                        big[r:r + d, c:c + d] = self.apply(i, j, prod)
        floor = min_eig(big)
        if floor < -1e-10 * max(1.0, float(np.max(np.abs(big)))):
            raise CPFailure(f"Choi-type matrix has eigenvalue {floor:.3e}")
        return floor

    def _row_bound(self, samples: int = 20, seed: int = 0) -> float:
        rng = np.random.default_rng(seed)
        alg = self.algebra
        tests = [e for e in alg.basis] + [alg.random(rng) for _ in range(samples)]
        best = 0.0
        for a in tests:
            na = np.linalg.norm(a, 2)
            if na < 1e-14:
                continue
            for i in self.index:
                s = sum(np.linalg.norm(self.apply(i, j, a), 2) ** 2
                        for j in self.index)
                best = max(best, s / na ** 2)
        return best

    def _trace_pairs(self) -> tuple:
        """(max |τ(η_ij(x)·y) − τ(x·η_ji(y))|, max |τ(η_ij(x)·y)|) over
        basis pairs."""
        alg = self.algebra
        worst = scale = 0.0
        for i in self.index:
            for j in self.index:
                for x in alg.basis:
                    for y in alg.basis:
                        lhs = alg.trace(self.apply(i, j, x) @ y)
                        rhs = alg.trace(x @ self.apply(j, i, y))
                        worst = max(worst, abs(lhs - rhs))
                        scale = max(scale, abs(lhs))
        return worst, scale

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
    xs = []
    for v in vectors:
        v = np.asarray(v, dtype=complex)
        if v.ndim == 1:
            v = v.reshape(-1, 1, 1)
        if v.shape[1:] != (alg.d, alg.d):
            raise ValueError(f"vector components must be {alg.d}×{alg.d}")
        xs.append(v)
    index = tuple(range(len(xs)))
    entries = {}
    for i in index:
        for j in index:
            cols = []
            for e in alg.basis:
                out = sum(xs[i][s].conj().T @ e @ xs[j][s]
                          for s in range(xs[i].shape[0]))
                cols.append(alg.coords(out))
            entries[(i, j)] = np.stack(cols, axis=1)
    return CovarianceMatrix(alg, index, entries, bound=bound)


def covariance_from_automorphisms(alphas, algebra: BaseAlgebra = None,
                                  tol: float = 1e-10) -> CovarianceMatrix:
    """Diagonal covariance η_i = α_i + α_i⁻¹ from verified automorphisms.

    Each α is a matrix on A-coordinates; multiplicativity, star-compatibility
    and unitality are checked before inverting.
    """
    if algebra is None:
        algebra = BaseAlgebra((1,))
    alg = algebra
    maps = []
    for t, al in enumerate(alphas):
        al = np.asarray(al, dtype=complex)
        if al.shape != (alg.dim, alg.dim):
            raise NotAnAutomorphism(f"α_{t} has shape {al.shape}")

        def act(a, al=al):
            return alg.element(al @ alg.coords(a))

        if np.linalg.norm(act(np.eye(alg.d)) - np.eye(alg.d)) > tol:
            raise NotAnAutomorphism(f"α_{t} is not unital")
        for x in alg.basis:
            for y in alg.basis:
                if np.linalg.norm(act(x @ y) - act(x) @ act(y)) > tol:
                    raise NotAnAutomorphism(f"α_{t} is not multiplicative")
            if np.linalg.norm(act(x.conj().T) - act(x).conj().T) > tol:
                raise NotAnAutomorphism(f"α_{t} does not commute with *")
        if abs(np.linalg.det(al)) < 1e-12:
            raise NotAnAutomorphism(f"α_{t} is not invertible")
        maps.append(al + np.linalg.inv(al))
    entries = {(i, i): m for i, m in enumerate(maps)}
    return CovarianceMatrix(alg, tuple(range(len(maps))), entries)


# ---------------------------------------------------------------------------
# truncated Fock space
# ---------------------------------------------------------------------------

@dataclass
class TruncatedFock:
    eta: CovarianceMatrix
    depth: int
    level_dims: tuple      # quotient dimensions
    raw_dims: tuple
    to_onb: list           # per level: raw → ONB matrix
    from_onb: list         # per level: ONB → raw representative
    offsets: list
    total_dim: int

    def _block(self, m, n, raw) -> np.ndarray:
        """ONB block, level n → level m, of a raw operator."""
        return self.to_onb[m] @ raw @ self.from_onb[n]

    def left_block(self, m, L) -> np.ndarray:
        """x ↦ a·x on level m for L = left_matrix(a): L ⊗ I on the first slot."""
        return self._block(m, m, np.kron(L, np.eye(self.raw_dims[m] // len(L))))

    def creation_blocks(self, i) -> list:
        """T_i from level m to m+1, m < depth: (unit ⊗ e_i) ⊗ I."""
        e_i = np.eye(len(self.eta.index))[self.eta.index.index(i)]
        slot = np.kron(self.eta.algebra.unit_coords, e_i)[:, None]
        return [self._block(m + 1, m, np.kron(slot, np.eye(s)))
                for m, s in enumerate(self.raw_dims[:-1])]

    def assemble(self, blocks: dict) -> np.ndarray:
        """Dense operator on the whole Fock space from {(m, n): block}."""
        M = np.zeros((self.total_dim, self.total_dim), dtype=complex)
        for (m, n), B in blocks.items():
            M[self.offsets[m], self.offsets[n]] = B
        return M

    def left_mult(self, a) -> np.ndarray:
        L = self.eta.algebra.left_matrix(a)
        return self.assemble({(m, m): self.left_block(m, L)
                              for m in range(self.depth + 1)})

    def right_mult(self, a) -> np.ndarray:
        R = self.eta.algebra.right_matrix(a)
        return self.assemble({
            (m, m): self._block(m, m, np.kron(np.eye(s // len(R)), R))
            for m, s in enumerate(self.raw_dims)})

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.total_dim, dtype=complex)
        v[self.offsets[0]] = self.to_onb[0] @ self.eta.algebra.unit_coords
        return v

    def ground_component(self, vec) -> np.ndarray:
        """A-element carried by the level-0 part of an ONB vector."""
        return self.eta.algebra.element(self.from_onb[0] @ vec[self.offsets[0]])


def level_grams(eta: CovarianceMatrix, depth: int):
    """Yield the A-valued Gram of each level m ≤ depth, shape (s, s, d, d).

    One contraction per level: ⟨(a,i)::u, (c,j)::(f,r)⟩ is
    Σ_g lam[a,i,c,j,g,f]·⟨u, (g,r)⟩, where f is the first slot of the
    shorter vector (β at level 0) and r the rest of it.
    """
    alg = eta.algebra
    nA, nI, d, B = alg.dim, len(eta.index), alg.d, alg.basis
    E = np.array([[eta.entries[(i, j)] for j in eta.index] for i in eta.index])
    G = B.conj().transpose(0, 2, 1)[:, None] @ B[None]  # ⟨b, c⟩₀ = b*c
    mul = alg.coords(B[:, None] @ B[None])  # e_h e_f = Σ_g mul[h,f,g] e_g
    # lam[a,i,c,j,g,f]: g-th coordinate of η_ij(e_a* e_c)·e_f
    lam = np.einsum("ijhq,acq,hfg->aicjgf", E, alg.coords(G), mul)
    yield G
    for _ in range(depth):
        s, t = len(G), len(G) * nA * nI
        G = np.einsum("aicjgf,ugrxy->aiucjfrxy", lam,
                      G.reshape(s, nA, s // nA, d, d)).reshape(t, t, d, d)
        yield G


def build_fock(eta: CovarianceMatrix, depth: int, max_depth: int = 12,
               dim_cap: int = 4096) -> TruncatedFock:
    """Assemble the inner products of 𝒳^{⊠m} for m ≤ depth and quotient."""
    if depth > max_depth:
        raise DimensionCap(f"depth {depth} exceeds the maximum {max_depth}")
    alg = eta.algebra
    nA, nI = alg.dim, len(eta.index)
    raw_dims = [nA * (nA * nI) ** m for m in range(depth + 1)]
    for m, total in enumerate(itertools.accumulate(raw_dims)):
        if total > dim_cap:
            raise DimensionCap(
                f"raw dimension exceeds the cap {dim_cap} at level {m}")

    to_onb, from_onb, dims = [], [], []
    for G in level_grams(eta, depth):
        cut = rank_cut(np.einsum("stii->st", G) / alg.d)  # scalar Gram via τ
        to_onb.append(cut.factor.conj().T)
        from_onb.append(cut.factor / cut.w)
        dims.append(cut.rank)

    ends = list(itertools.accumulate(dims))
    return TruncatedFock(eta, depth, tuple(dims), tuple(raw_dims), to_onb,
                         from_onb, [slice(e - n, e) for e, n in zip(ends, dims)],
                         ends[-1])


@dataclass
class SemicircularFamily:
    """X_i = T_i + T_i† as level blocks of T_i; dense views on request."""

    fock: TruncatedFock
    blocks: dict    # i -> [T_i: level m → m+1 for m < depth]

    @cached_property
    def annihilations(self) -> dict:
        """T_i† from level m+1 to m: the adjoints of `blocks`."""
        return {i: [T.conj().T for T in Ts] for i, Ts in self.blocks.items()}

    @cached_property
    def creations(self) -> dict:
        return {i: self.fock.assemble({(m + 1, m): T for m, T in enumerate(Ts)})
                for i, Ts in self.blocks.items()}

    @cached_property
    def ops(self) -> dict:
        return {i: T + T.conj().T for i, T in self.creations.items()}

    def X(self, i) -> np.ndarray:
        return self.ops[i]


def semicircular_ops(fock: TruncatedFock) -> SemicircularFamily:
    return SemicircularFamily(
        fock, {i: fock.creation_blocks(i) for i in fock.eta.index})


def vacuum_expectation(fam: SemicircularFamily, word) -> np.ndarray:
    """E(w) = ⟨wΩ, Ω⟩ ∈ A for a word in the X_i and left factors from A.

    Word letters: ("X", i) or a d×d matrix of A.  Exact when the number of
    X letters is at most 2·depth; longer words are refused.  The vector is
    kept per level; a level above the number of X letters still to come
    cannot reach the vacuum, so it is dropped.
    """
    fock = fam.fock
    nx = sum(1 for w in word if isinstance(w, tuple) and w[0] == "X")
    if nx > 2 * fock.depth:
        raise WordTooLong(
            f"{nx} semicircular letters exceed 2·depth = {2 * fock.depth}")
    levels = {0: fock.to_onb[0] @ fock.eta.algebra.unit_coords}
    for w in reversed(word):
        if isinstance(w, tuple) and w[0] == "X":
            nx -= 1
            up, down = fam.blocks[w[1]], fam.annihilations[w[1]]
            top = min(nx, fock.depth)
            out = {}
            for m, v in levels.items():
                if m < top:
                    out[m + 1] = out.get(m + 1, 0) + up[m] @ v
                if m:
                    out[m - 1] = out.get(m - 1, 0) + down[m - 1] @ v
            levels = out
        else:
            L = fock.eta.algebra.left_matrix(np.asarray(w, dtype=complex))
            levels = {m: fock.left_block(m, L) @ v for m, v in levels.items()}
    ground = levels.get(0, np.zeros(fock.level_dims[0]))
    return fock.eta.algebra.element(fock.from_onb[0] @ ground)


def catalan(m: int) -> int:
    cs = [1]
    for n in range(m):
        cs.append(sum(cs[k] * cs[n - k] for k in range(n + 1)))
    return cs[m]


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
    choi = np.zeros((k * k * nI, k * k * nI), dtype=complex)
    # Choi of Φ: M_k → M_{kI}, C = Σ_pq E_pq ⊗ Φ(E_pq)
    for p in range(k):
        for q in range(k):
            e = np.zeros((k, k), dtype=complex)
            e[p, q] = 1.0
            blk = np.zeros((k * nI, k * nI), dtype=complex)
            for x, i in enumerate(eta.index):
                for y, j in enumerate(eta.index):
                    blk[x * k:(x + 1) * k, y * k:(y + 1) * k] = \
                        eta.apply(i, j, e)
            choi[p * k * nI:(p + 1) * k * nI,
                 q * k * nI:(q + 1) * k * nI] = blk
    # column s of the factor, reshaped to v[p,i,o], gives W_s^{(i)}[o,p] =
    # v[p,i,o] with η_ij(a) = Σ_s W^{(i)} a W^{(j)†}, so ξ_{i,s} = W_s^{(i)†}
    v = rank_cut(choi).factor.T.reshape(-1, k, nI, k)
    return [v[:, :, i, :].conj() for i in range(nI)]


def ind_faithfulness_probe(eta: CovarianceMatrix, depth: int = 4,
                           samples: int = 20, seed: int = 0) -> dict:
    """Checkable ingredients of the ind-inclusion criterion for finite A.

    (a) trace symmetry of η against the canonical trace; (b) kernel probe:
    sampled polynomials with E(p*p) ≈ 0 must satisfy pΩ ≈ 0 at truncation;
    (c) block decomposition of the corner correspondences A⊗_{η_ii}A and,
    for single-block A, the Corollary's vector presentation round-trip.
    """
    from .inclusion import HilbertSpaceObject, commutant_blocks, realize

    alg = eta.algebra
    sym = eta.trace_symmetry_residual()
    fock = build_fock(eta, depth)
    fam = semicircular_ops(fock)
    rng = np.random.default_rng(seed)

    kernel_failures = 0
    for _ in range(samples):
        # random polynomial of X-degree ≤ depth acting on the vacuum
        p = np.zeros((fock.total_dim, fock.total_dim), dtype=complex)
        for _ in range(3):
            term = np.eye(fock.total_dim, dtype=complex)
            for _ in range(int(rng.integers(0, depth + 1))):
                i = eta.index[rng.integers(len(eta.index))]
                term = fam.ops[i] @ term
            term = fock.left_mult(alg.random(rng)) @ term
            p = p + (rng.normal() + 1j * rng.normal()) * term
        v = p @ fock.vacuum()
        ee = fock.ground_component(p.conj().T @ p @ fock.vacuum())
        if abs(alg.trace(ee)) < 1e-12 and np.linalg.norm(v) > 1e-8:
            kernel_failures += 1

    corner_dims = {}
    for i in eta.index:
        # scalar Gram of A⊗_{η_ii}A: ⟨a⊗b, c⊗d⟩ = τ(b* η_ii(a*c) d)
        n = alg.dim
        Q = np.zeros((n * n, n * n), dtype=complex)
        for (ai, a), (bi, b) in itertools.product(enumerate(alg.basis),
                                                  repeat=2):
            for (ci, c), (di, dd) in itertools.product(enumerate(alg.basis),
                                                       repeat=2):
                val = alg.trace(b.conj().T
                                @ eta.apply(i, i, a.conj().T @ c) @ dd)
                Q[ai * n + bi, ci * n + di] = val
        corner_dims[i] = rank_cut(Q).rank
    hobj = HilbertSpaceObject({f"i{i}": h for i, h in corner_dims.items()})
    blocks = commutant_blocks(realize(hobj)) if hobj.dims else None

    vecs = _kraus_vectors(eta)
    roundtrip = None
    if vecs is not None:
        eta2 = covariance_from_vectors(vecs, alg)
        roundtrip = max(
            float(np.max(np.abs(eta2.entries[k] - eta.entries[k])))
            for k in eta.entries)

    return {
        "trace_symmetry_residual": sym,
        "trace_symmetric": eta.is_trace_symmetric(),
        "kernel_failures": kernel_failures,
        "samples": samples,
        "corner_dims": corner_dims,
        "blocks": blocks.blocks if blocks else None,
        "vector_presentation_residual": roundtrip,
        "verdict": "criterion ingredients verified (finite A)"
        if kernel_failures == 0 else "kernel probe failed",
    }
