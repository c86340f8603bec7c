"""Raw-basis Fock kernels, kept as the reference for :mod:`utcat.semicircular`.

:func:`level_grams` builds the A-valued Gram of every level on the raw basis
of nA·(nA·nI)^m vectors, one contraction per level, as `build_fock` once
cut it; :func:`right_mult` is right multiplication by a ∈ A on the whole
truncated Fock space, I ⊗ R(a) on the raw index.  The library now builds
level m on (A⊗ℂ^I) ⊗ (range of level m−1) and never needs the right action.
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


def right_mult(fock, a) -> np.ndarray:
    """Dense x ↦ x·a on the truncated Fock space: I ⊗ R(a) on each level."""
    R = fock.eta.algebra.right_matrix(a)
    return fock.assemble({
        (m, m): fock.to_onb[m] @ np.kron(np.eye(s // len(R)), R)
        @ fock.from_onb[m] for m, s in enumerate(fock.raw_dims)})
