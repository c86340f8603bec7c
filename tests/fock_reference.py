"""Raw-basis Fock kernels, kept as the reference for :mod:`utcat.semicircular`.

:func:`level_grams` builds the A-valued Gram of every level on the raw basis
of nA·(nA·nI)^m vectors, one contraction per level, as `build_fock` once
cut it.  :func:`raw_factors` carries the level cuts, each on (A⊗ℂ^I) ⊗
(range of the level below), back to that raw basis, and :class:`RawFock`
reads the operators there: left multiplication L(a) ⊗ I, creation
(1 ⊗ e_i) ⊗ I and right multiplication I ⊗ R(a), which the library never
needs.  :func:`left_mult`, :func:`vacuum` and :func:`ground_component` are
the dense left action, the vacuum vector and the level-0 read-out of a
`TruncatedFock` in its own ONB coordinates, which the library reads only
through half-word states.
"""

from __future__ import annotations

import numpy as np


def level_grams(eta, depth: int):
    """Yield the A-valued Gram of each level m ≤ depth, shape (s, s, d, d).

    One contraction per level: ⟨(a,i)::u, (c,j)::(f,r)⟩ is
    Σ_g lam[a,i,c,j,g,f]·⟨u, (g,r)⟩, where f is the first slot of the
    shorter vector (β at level 0) and r the rest of it.
    """
    alg = eta.algebra
    nA, nI, d, B = alg.dim, len(eta.index), alg.d, alg.basis
    G = alg.element(alg.star_prods)  # ⟨b, c⟩₀ = b*c
    mul = alg.coords(B[:, None] @ B[None])  # e_h e_f = Σ_g mul[h,f,g] e_g
    # lam[a,i,c,j,g,f]: g-th coordinate of η_ij(e_a* e_c)·e_f
    lam = np.einsum("ijhq,acq,hfg->aicjgf", eta.stacked, alg.star_prods, mul)
    yield G
    for _ in range(depth):
        s, t = len(G), len(G) * nA * nI
        G = np.einsum("aicjgf,ugrxy->aiucjfrxy", lam,
                      G.reshape(s, nA, s // nA, d, d),
                      optimize=True).reshape(t, t, d, d)
        yield G


def left_mult(fock, a) -> np.ndarray:
    """Dense x ↦ a·x on the whole truncated Fock space, from `left_block`."""
    L = fock.eta.algebra.left_matrix(a)
    return fock.assemble({(m, m): fock.left_block(m, L)
                          for m in range(fock.depth + 1)})


def vacuum(fock) -> np.ndarray:
    """ONB coordinates of Ω on the whole truncated Fock space."""
    v = np.zeros(fock.total_dim, dtype=complex)
    v[fock.offsets[0]] = fock.omega
    return v


def ground_component(fock, vec) -> np.ndarray:
    """A-element carried by the level-0 part of an ONB vector."""
    return fock.eta.algebra.element(fock.from_onb[0] @ vec[fock.offsets[0]])


def raw_factors(eta, cuts) -> list:
    """Each level's factor on the raw basis: (I ⊗ U_{m−1})·F̃_m, F̃_m the
    factor of cuts[m] and U_{m−1} = F_{m−1}/√w_{m−1} the kept eigenvectors
    of level m−1 on the raw basis (F·F* is the raw scalar Gram)."""
    P = eta.algebra.dim * len(eta.index)
    Fs = [cuts[0].factor]
    for prev, cut in zip(cuts, cuts[1:]):
        U = Fs[-1] / np.sqrt(prev.w)
        Fs.append((U @ cut.factor.reshape(P, prev.rank, cut.rank)).reshape(
            P * len(U), cut.rank))
    return Fs


class RawFock:
    """The operators of a `TruncatedFock` read on the raw basis, as dense
    matrices in the same ONB coordinates."""

    def __init__(self, fock):
        self.fock = fock
        Fs = raw_factors(fock.eta, fock.cuts)
        self.to_onb = [F.conj().T for F in Fs]
        self.from_onb = [F / cut.w for F, cut in zip(Fs, fock.cuts)]

    def _diagonal(self, blocks) -> np.ndarray:
        """Dense ⊕_m to_onb[m]·B_m·from_onb[m], B_m = blocks(raw_m)."""
        return self.fock.assemble({
            (m, m): to @ blocks(len(frm)) @ frm
            for m, (to, frm) in enumerate(zip(self.to_onb, self.from_onb))})

    def left_mult(self, a) -> np.ndarray:
        """x ↦ a·x: L(a) ⊗ I on each raw level."""
        L = self.fock.eta.algebra.left_matrix(a)
        return self._diagonal(lambda s: np.kron(L, np.eye(s // len(L))))

    def right_mult(self, a) -> np.ndarray:
        """x ↦ x·a: I ⊗ R(a) on each raw level."""
        alg = self.fock.eta.algebra
        R = alg.coords(alg.basis @ a).T  # coordinate matrix of x ↦ x·a
        return self._diagonal(lambda s: np.kron(np.eye(s // len(R)), R))

    def creation_blocks(self, i) -> list:
        """T_i from level m to m+1: (1 ⊗ e_i) ⊗ I on the raw index."""
        eta = self.fock.eta
        e_i = np.eye(len(eta.index))[eta.index.index(i)]
        slot = np.kron(eta.algebra.unit_coords, e_i)
        return [np.tensordot(slot, up.reshape(len(up), len(slot), len(frm)),
                             (0, 1)) @ frm
                for up, frm in zip(self.to_onb[1:], self.from_onb)]

    def X(self, i) -> np.ndarray:
        T = self.fock.assemble({(m + 1, m): B for m, B in
                                enumerate(self.creation_blocks(i))})
        return T + T.conj().T

    def expectation(self, word) -> np.ndarray:
        """⟨wΩ, Ω⟩ ∈ A from the dense operators, letters ("X", i) or a ∈ A."""
        v = vacuum(self.fock)
        for w in reversed(word):
            v = (self.X(w[1]) if isinstance(w, tuple)
                 else self.left_mult(w)) @ v
        return ground_component(self.fock, v)
