"""Realized correspondences, their commutant block structure, and the
discreteness flags of an inclusion at finite support.

A Hilbert space object ℋ assigns a multiplicity space ℂ^{h_K} to every
label K; its realization is the bimodule ⊕_K K⊗ℋ(K) with one central
projection per label.  At desk scale the base algebra A is ℂ or M_k, so a
label K is carried by a concrete irreducible block ℂ^k⊗ℂ^k⊗ℂ^{h_K} on
which A acts on the left and right and the grading is remembered by the
central projections.  Bimodule endomorphisms are then exactly the block
matrices on the multiplicity spaces, and the whole structure theory
(hom counts, block decompositions, IND verdicts) reduces to linear algebra
on the generator matrices.  Hom counts are intertwiner solves: the null
space of one Hermitian form.  Block decompositions decompose the
*-algebra the generators and their adjoints generate: the eigenspaces of
one generic self-adjoint element, merged where a generator links them,
give its isotypic components and an adapted basis with n×n work.  One
intertwiner solve on the compressed generators then certifies that the
commutant is the star-closed ⊕_K M_{m_K}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra_object import AlgebraObject
from .errors import NotSemisimpleInput
from .gns import rank_cut

__all__ = [
    "BlockDecomposition",
    "HilbertSpaceObject",
    "RealizedCorrespondence",
    "commutant_blocks",
    "corrupt_correspondence",
    "discreteness_report",
    "gns_object",
    "hom_count",
    "ind_check",
    "realize",
]


@dataclass(frozen=True)
class HilbertSpaceObject:
    """Label → multiplicity dimension; only nonnegative entries kept."""

    dims: dict

    def __post_init__(self):
        clean = {}
        for K, h in self.dims.items():
            h = int(h)
            if h < 0:
                raise ValueError(f"negative dimension {h} at {K!r}")
            if h:
                clean[K] = h
        object.__setattr__(self, "dims", clean)

    @property
    def support(self) -> tuple:
        return tuple(sorted(self.dims))

    def h(self, K: str) -> int:
        return self.dims.get(K, 0)

    def total(self) -> int:
        return sum(self.dims.values())


@dataclass
class RealizedCorrespondence:
    """⊕_K K⊗ℋ(K) as matrices: generators of the acting algebra plus the
    central projections P_K, all over a common total space."""

    hobj: HilbertSpaceObject
    base_dim: int
    generators: list
    projections: dict
    total_dim: int

    def graded_dims(self) -> dict:
        k2 = self.base_dim ** 2
        return {K: int(round(np.trace(P).real)) // k2
                for K, P in self.projections.items()}


def _elementary(k, i, j):
    m = np.zeros((k, k))
    m[i, j] = 1.0
    return m


def realize(hobj: HilbertSpaceObject, base_dim: int = 1,
            rng=None) -> RealizedCorrespondence:
    """Concrete bimodule ⊕_K ℂ^k⊗ℂ^k⊗ℂ^{h_K} for A = M_k (k=1 → A=ℂ).

    Generators: matrix units of the left action a⊗1⊗1 and of the right
    action 1⊗bᵀ⊗1, blockwise over the labels, plus the label projections.
    An optional rng conjugates everything by a Haar-random unitary so the
    block structure is hidden from downstream solvers.
    """
    k = int(base_dim)
    labels = hobj.support
    sizes = {K: k * k * hobj.h(K) for K in labels}
    total = sum(sizes.values())
    offs = {}
    off = 0
    for K in labels:
        offs[K] = slice(off, off + sizes[K])
        off += sizes[K]

    def blockwise(local):
        M = np.zeros((total, total), dtype=complex)
        for K in labels:
            M[offs[K], offs[K]] = np.kron(local(K), np.eye(hobj.h(K)))
        return M

    gens = []
    for i in range(k):
        for j in range(k):
            e = _elementary(k, i, j)
            gens.append(blockwise(lambda K: np.kron(e, np.eye(k))))
            gens.append(blockwise(lambda K: np.kron(np.eye(k), e.T)))
    projections = {}
    for K in labels:
        P = np.zeros((total, total), dtype=complex)
        P[offs[K], offs[K]] = np.eye(sizes[K])
        projections[K] = P
        gens.append(P)

    if rng is not None:
        Q, _ = np.linalg.qr(rng.normal(size=(total, total))
                            + 1j * rng.normal(size=(total, total)))
        gens = [Q @ g @ Q.conj().T for g in gens]
        projections = {K: Q @ P @ Q.conj().T for K, P in projections.items()}
    return RealizedCorrespondence(hobj, k, gens, projections, total)


def corrupt_correspondence(corr: RealizedCorrespondence,
                           K: str = None) -> RealizedCorrespondence:
    """Adjoin a nilpotent, non-star-closed generator inside one block.

    At k = 1 the commutant acquires nilpotents and is not star-closed; at
    k ≥ 2 the Jordan block also mixes the ℂ^k⊗ℂ^k factor and the commutant
    shrinks below M_{h_K}.  Either way: a stand-in outside the ind class.
    """
    cands = [L for L, h in corr.hobj.dims.items() if h >= 2]
    if K is None:
        if not cands:
            raise ValueError("need a label with multiplicity ≥ 2 to corrupt")
        K = cands[0]
    elif corr.hobj.h(K) < 2:
        raise ValueError(f"label {K!r} has multiplicity < 2")
    h = corr.hobj.h(K)
    jordan = np.diag(np.ones(h - 1), 1)
    # embed on the multiplicity space of K through the projection P_K
    P = corr.projections[K]
    w, U = np.linalg.eigh((P + P.conj().T) / 2)
    cols = U[:, w > 0.5]  # orthonormal basis of the K block
    k2 = corr.base_dim ** 2
    N = cols @ np.kron(np.eye(k2), jordan) @ cols.conj().T
    gens = corr.generators + [N]
    return RealizedCorrespondence(corr.hobj, corr.base_dim, gens,
                                  corr.projections, corr.total_dim)


# ---------------------------------------------------------------------------
# intertwiner solves
# ---------------------------------------------------------------------------

def _intertwiner_space(gens1, gens2, n1, n2) -> tuple:
    """Orthonormal basis (columns, row-major vec) of {X : X g₁ = g₂ X}, and
    (largest eigenvalue cut as null, smallest kept), None where empty.

    The space is the null space of H = Σ_g A_g†A_g, A_g = I⊗g₁ᵀ − g₂⊗I,
    from one `eigh`.  Eigenvalues of H are squared singular values of the
    stacked A_g, resolved only to eps·λ_max: the cut is 1e-10·max(λ_max, 1).
    """
    m = n1 * n2
    if m == 0:
        return np.zeros((0, 0), dtype=complex), (None, None)
    G1 = np.asarray(gens1, dtype=complex).reshape(-1, n1, n1)
    G2 = np.asarray(gens2, dtype=complex).reshape(-1, n2, n2)
    # Σ_g g₂⊗ḡ₁: g₂[a,c]·ḡ₁[b,d] at row (a,b), column (c,d)
    cross = (G2.reshape(len(G2), n2 * n2).T
             @ G1.conj().reshape(len(G1), n1 * n1))
    cross = cross.reshape(n2, n2, n1, n1).transpose(0, 2, 1, 3).reshape(m, m)
    H = (np.kron(np.eye(n2), np.einsum("gij,gkj->ik", G1.conj(), G1))
         + np.kron(np.einsum("gji,gjk->ik", G2.conj(), G2), np.eye(n1))
         - cross - cross.conj().T)
    w, U = np.linalg.eigh(H)
    null = w <= 1e-10 * max(float(w[-1]), 1.0)
    gap = (float(w[null][-1]) if null.any() else None,
           float(w[~null][0]) if not null.all() else None)
    return U[:, null], gap


def hom_count(h1: HilbertSpaceObject, h2: HilbertSpaceObject,
              cross_check: bool = False, rng=None) -> int:
    """dim Hom(|ℋ₁|, |ℋ₂|) = Σ_K h₁(K)·h₂(K), by Schur orthogonality."""
    count = sum(h1.h(K) * h2.h(K) for K in set(h1.dims) | set(h2.dims))
    if cross_check:
        labels = sorted(set(h1.dims) | set(h2.dims))
        c1 = realize(h1, rng=rng)
        c2 = realize(h2, rng=rng)
        solved = _solve_hom(c1, c2, labels)
        if solved != count:
            raise NotSemisimpleInput(
                f"hom count mismatch: Schur {count} vs solved {solved}")
    return count


def _solve_hom(c1: RealizedCorrespondence, c2: RealizedCorrespondence,
               labels) -> int:
    """Explicit dimension of the intertwiner space between realizations."""
    # generator lists: matrix units come first, then per-label projections
    # in each correspondence's own support order — align over `labels`
    z1 = np.zeros((c1.total_dim, c1.total_dim))
    z2 = np.zeros((c2.total_dim, c2.total_dim))
    g1s = list(c1.generators[:len(c1.generators) - len(c1.projections)])
    g2s = list(c2.generators[:len(c2.generators) - len(c2.projections)])
    for K in labels:
        g1s.append(c1.projections.get(K, z1))
        g2s.append(c2.projections.get(K, z2))
    basis, _ = _intertwiner_space(g1s, g2s, c1.total_dim, c2.total_dim)
    return basis.shape[1]


@dataclass(frozen=True)
class BlockDecomposition:
    """(label, multiplicity) pairs with Σ h² = commutant dimension, and the
    margins of the cuts behind them, each a (largest value cut, smallest
    value kept) pair with None where a side is empty:

    - `null_gap`: eigenvalues of the certificate's intertwiner form, cut
      as null at 1e-10 relative;
    - `cluster_gap`: (largest spread inside an eigenvalue cluster of the
      generic element, smallest gap between clusters); the cut is 1e-6
      relative;
    - `link_gap`: Frobenius norms of the generators' inter-cluster blocks,
      treated as no link at or below 1e-6·max(1, max_g ‖g‖);
    - `form_residual`: max_g ‖g − ⊕_K s_K(g)⊗1‖ in the adapted basis over
      max(1, max_g ‖g‖), gated against `_FORM_TOL` (a single number).
    """

    blocks: tuple
    null_gap: tuple
    cluster_gap: tuple
    link_gap: tuple
    form_residual: float

    @property
    def commutant_dim(self) -> int:
        return sum(h * h for _, h in self.blocks)

    def dims(self) -> dict:
        return {K: h for K, h in self.blocks if h}


# relative cut for eigenvalue clusters and for inter-cluster links
_CUT = 1e-6
# largest form residual of the generators on the isotypic components
_FORM_TOL = 1e-9


def commutant_blocks(corr: RealizedCorrespondence) -> BlockDecomposition:
    """Decompose End_{A-A}(ℰ) = {X : [X, gens] = 0} into matrix blocks.

    The *-algebra 𝒜 generated by the generators S and S* is ⊕_K M_{d_K}
    acting with multiplicity m_K, so in an adapted basis every g ∈ S reads
    ⊕_K s_K(g)⊗1_{m_K}.  The basis comes from n×n work:

    1. one `eigh` of the Hermitian part H of M₁ + M₁M₂ (M_i seeded random
       combinations of S ∪ S*), generic in 𝒜; its eigenvalue clusters,
       D of them, have dimension m_K and d_K of them lie in component K;
    2. the generators rotated into H's eigenbasis; clusters linked by any
       generator block merge into the isotypic components K;
    3. each cluster's basis carried along the strongest links by the polar
       factor of the linking block, so that every block is a scalar times
       1_{m_K}; `form_residual` gates that form against `_FORM_TOL`.

    A non-generic H shows as unequal cluster dimensions inside a component
    or as a failed form; the word length then doubles, with fresh M_i,
    until it reaches n, before the input is refused (the Clifford algebra
    of 2r generators on ℂ^{2^r} needs length r).

    The commutant of S is exactly ⊕_{K,L} Hom_S(L, K)⊗M_{m_K×m_L}, so it
    is the star-closed ⊕_K M_{m_K} iff the commutant of the compressed
    generators ⊕_K s_K, one D²×D² intertwiner solve, is one scalar per
    component; otherwise the input is refused.  Components are matched to
    labels through P_K overlaps and give the blocks (K, m_K).  Cost
    O(g·n³ + D⁶) for g generators; at base dimension k,
    D = k²·(number of labels) on valid input.  Without generators the
    commutant is all of M_n: one block of multiplicity n, labelled by the
    projection that covers the space, or None if no projection does.
    """
    n = corr.total_dim
    if n == 0:
        return BlockDecomposition((), (None, None), (None, None),
                                  (None, None), 0.0)
    if len(corr.generators) == 0:
        try:
            label = _match_label(corr, np.eye(n))
        except NotSemisimpleInput:
            label = None
        return BlockDecomposition(((label, n),), (None, None), (None, None),
                                  (None, None), 0.0)
    G = np.asarray(corr.generators, dtype=complex).reshape(
        len(corr.generators), n, n)
    scale = max(1.0, float(np.max(np.linalg.norm(G, axis=(1, 2)),
                                  initial=0.0)))
    rng = np.random.default_rng(0)
    length = 2
    while True:
        try:
            comps, D, cluster_gap, link_gap, residual = _isotypic(
                G, _generic_element(G, length, rng), scale)
            break
        except NotSemisimpleInput:
            if length >= n:
                raise
            length *= 2

    compressed = np.zeros((len(G), D, D), dtype=complex)
    at = 0
    for _, _, s in comps:
        d = s.shape[-1]
        compressed[:, at:at + d, at:at + d] = s
        at += d
    basis, null_gap = _intertwiner_space(compressed, compressed, D, D)
    if basis.shape[1] != len(comps):
        raise NotSemisimpleInput(
            "commutant is not star-closed; data outside the ind class")
    merged = {}
    for cols, m, _ in comps:
        label = _match_label(corr, cols)
        merged[label] = merged.get(label, 0) + m
    return BlockDecomposition(tuple(sorted(merged.items())), null_gap,
                              cluster_gap, link_gap, residual)


def _generic_element(G, length, rng) -> np.ndarray:
    """Hermitian part of M₁ + M₁M₂ + … + M₁⋯M_length, each M_i a seeded
    random complex combination of G ∪ G*."""
    both = np.concatenate([G, G.conj().transpose(0, 2, 1)])
    c = rng.normal(size=(length, 2, len(both)))
    M = np.tensordot(c[:, 0] + 1j * c[:, 1], both, axes=1)
    T = M[-1]
    for Mi in M[-2::-1]:
        T = Mi + Mi @ T
    return (T + T.conj().T) / 2


def _isotypic(G, H, scale) -> tuple:
    """Isotypic components of the *-algebra generated by G ∪ G*, read off
    the eigenspaces of H; raises NotSemisimpleInput when H is not generic.

    Returns (components, D, cluster_gap, link_gap, form_residual), where
    each component is (its columns in the adapted basis, m_K, s_K) with
    s_K the generators compressed to d_K×d_K, and D = Σ_K d_K.
    """
    n = G.shape[1]
    w, U = np.linalg.eigh(H)
    cuts = [i for i in range(1, n)
            if w[i] - w[i - 1] > _CUT * max(1.0, abs(w[i]))]
    starts = np.array([0] + cuts)
    sizes = np.diff(np.append(starts, n))
    D = len(starts)
    cluster_gap = (max((float(w[a + m - 1] - w[a])
                        for a, m in zip(starts, sizes)), default=None),
                   min((float(w[i] - w[i - 1]) for i in cuts), default=None))

    Gr = U.conj().T @ G @ U
    sq = np.add.reduceat(np.abs(Gr) ** 2, starts, axis=1)
    norms = np.sqrt(np.add.reduceat(sq, starts, axis=2))
    W = np.maximum(norms, norms.transpose(0, 2, 1)).max(axis=0, initial=0.0)
    off = ~np.eye(D, dtype=bool)
    cut = _CUT * scale
    unlinked, linked = W[off & (W <= cut)], W[off & (W > cut)]
    link_gap = (float(unlinked.max()) if unlinked.size else None,
                float(linked.min()) if linked.size else None)

    # Prim's maximum spanning forest over the links: each tree is one
    # component, and each cluster is reached through its strongest link
    owner = np.full(D, -1)
    via = np.full(D, -1)
    best = np.zeros(D)
    order, ncomp = [], 0
    for _ in range(D):
        j = int(np.argmax(np.where(owner < 0, best, -np.inf)))
        if best[j] > cut:
            owner[j] = owner[via[j]]
        else:
            owner[j], via[j] = ncomp, -1
            ncomp += 1
        order.append(j)
        grow = (owner < 0) & (W[j] > best)
        best[grow], via[grow] = W[j][grow], j
    for K in range(ncomp):
        dims = set(sizes[owner == K].tolist())
        if len(dims) > 1:
            raise NotSemisimpleInput(
                f"clusters of one isotypic component differ in dimension "
                f"{sorted(dims)}")

    # carry each cluster's basis along its link: R_i† X R_j ∝ 1, with
    # R = 1 on the roots
    blk = [slice(a, a + m) for a, m in zip(starts, sizes)]
    R = {}
    for j in order:
        i = via[j]
        if i < 0:
            continue
        g_in, g_out = norms[:, i, j].argmax(), norms[:, j, i].argmax()
        if norms[g_in, i, j] >= norms[g_out, j, i]:
            X = Gr[g_in, blk[i], blk[j]]
        else:
            X = Gr[g_out, blk[j], blk[i]].conj().T
        if i in R:
            X = R[i].conj().T @ X
        P, _, Qh = np.linalg.svd(X)
        R[j] = Qh.conj().T @ P.conj().T
    for j in R:
        Gr[:, blk[j], :] = R[j].conj().T @ Gr[:, blk[j], :]
        Gr[:, :, blk[j]] = Gr[:, :, blk[j]] @ R[j]
        U[:, blk[j]] = U[:, blk[j]] @ R[j]

    # compress to s_K and subtract ⊕ s_K⊗1: what is left is the residual
    comps = []
    for K in range(ncomp):
        cl = np.flatnonzero(owner == K)
        m = int(sizes[cl[0]])
        idx = starts[cl][:, None] + np.arange(m)
        rows, cols = idx[:, None, :], idx[None, :, :]
        block = Gr[:, rows, cols]
        s = block.mean(axis=-1)
        Gr[:, rows, cols] = block - s[..., None]
        comps.append((U[:, idx.reshape(-1)], m, s))
    residual = float(np.max(np.linalg.norm(Gr, axis=(1, 2)),
                            initial=0.0)) / scale
    if residual > _FORM_TOL:
        raise NotSemisimpleInput(
            f"generators not of the form s_K⊗1 on the isotypic components: "
            f"residual {residual:.3e}")
    return comps, D, cluster_gap, link_gap, residual


def _match_label(corr, cols):
    """Assign the central component spanned by `cols` to its label K."""
    ovs = {K: float(np.real(np.trace(cols.conj().T @ P @ cols)))
           / cols.shape[1] for K, P in corr.projections.items()}
    best = max(ovs, key=ovs.get, default=None)
    if best is None or ovs[best] < 1.0 - 1e-6:
        raise NotSemisimpleInput(
            f"central component not aligned with any label projection "
            f"(best overlap {ovs.get(best, -1.0):.3f})")
    return best


def ind_check(corr: RealizedCorrespondence) -> dict:
    """IND iff the commutant is ∏ ℬ(ℋ(K)), its blocks carry the graded
    dimensions Tr P_K / k², and ΣP_K = id on the truncation."""
    blocks = obstruction = None
    try:
        blocks = commutant_blocks(corr)
    except NotSemisimpleInput as exc:
        obstruction = str(exc)
    else:
        total_p = sum(corr.projections.values())
        if np.max(np.abs(total_p - np.eye(corr.total_dim)), initial=0.0) >= 1e-9:
            obstruction = "central projections do not sum to id"
        elif blocks.dims() != corr.graded_dims():
            obstruction = (f"commutant blocks {blocks.dims()} differ from "
                           f"the graded dimensions {corr.graded_dims()}")
    return {"verdict": "NOT-IND" if obstruction else "IND",
            "obstruction": obstruction, "blocks": blocks,
            "fgp_condition": "finitely vacuous"}


# ---------------------------------------------------------------------------
# GNS objects and the discreteness report
# ---------------------------------------------------------------------------

def gns_object(D: AlgebraObject, omega) -> tuple:
    """L²_ω𝒟: fibers of 𝒟 modulo the null space of ξ ↦ ω(⟨ξ,ξ⟩).

    Returns (HilbertSpaceObject of the ranks, label K → the `gns.Cut` of
    the form ω(⟨eᵢ, eₖ⟩) on the fiber 𝒟(K)); the rows of factor* of a cut
    are the surviving directions.  Rank threshold `gns.RANK_CUT` relative
    to the largest eigenvalue per fiber.
    """
    omega, _ = D.ground().check_state(omega)
    cuts = {K: rank_cut(D.fiber_gram(K) @ omega) for K in D.support}
    return HilbertSpaceObject({K: c.rank for K, c in cuts.items()}), cuts


def discreteness_report(D: AlgebraObject, omega) -> dict:
    """{discrete, pqr, ind} flags for (𝒟, ω) at the given truncation.

    At finite support each flag holds by construction, so it is stated
    here, not solved for:

    - `discrete`: L²_ω𝒟 exists and is nonzero; finitely supported data is
      C*-discrete;
    - `pqr`: equal to `discrete`.  The realization ⊕_K K⊗ℋ(K) of the GNS
      object carries every GNS fiber, with one central projection per
      label, and these projections resolve the identity;
    - `ind`: true.  The commutant of that realization is ∏_K ℬ(ℋ(K)), with
      blocks of the GNS dimensions;
    - `chain_ok`: discrete ⇒ pqr ⇒ ind, which therefore holds.

    None of them can be false until `ind` is read off the coend's own
    bimodule (ROADMAP item 1); :func:`realize` and :func:`ind_check` stay
    for planted inputs.  `gns_cut_gap` is (smallest kept, largest dropped)
    eigenvalue over the fiber rank cuts of :func:`gns_object` behind
    `gns_dims`, or None when no direction was dropped.
    """
    hobj, cuts = gns_object(D, omega)
    discrete = hobj.total() > 0
    dropped = [c.gap[1] for c in cuts.values() if c.gap]
    cut_gap = None
    if dropped:
        cut_gap = (min((float(c.w[0]) for c in cuts.values() if c.rank),
                       default=None), max(dropped))
    return {"discrete": discrete, "pqr": discrete, "ind": True,
            "chain_ok": True, "gns_dims": dict(hobj.dims),
            "gns_cut_gap": cut_gap}
