"""GNS forms of functionals on finite-dimensional *-algebras.

Every positivity verdict of the engine goes through one of these forms: the
canonical trace on 𝒟(1), tr∘E_X on 𝒟(X̄⊗X), the state (tr⊗tr)∘𝔼 on the
coend module ℰ, and ω(⟨ξ,ξ⟩) on the fibers of L²_ω𝒟.  An algebra is given
by its structure tensor P (e_x e_y = Σ_z P[z,x,y] e_z) and its antilinear
star e_x* = Σ_y J[y,x] e_y, a functional by its values w on the basis.

A faithful form G is factored once, by one `eigh`, into G^{±1/2}; an
operator L on the algebra then acts on the GNS space as G^{1/2}·L·G^{-1/2}.
A form that may be degenerate is cut to its range instead, at a threshold
relative to its largest eigenvalue, and the cut reports how close its
decision was.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DegenerateForm

__all__ = ["FAITHFUL_FLOOR", "RANK_CUT", "Cut", "GramRoot", "form", "min_eig",
           "rank_cut", "spectral_norm"]

FAITHFUL_FLOOR = 1e-12   # λ_min/max(λ_max, 1) at or below this: degenerate
RANK_CUT = 1e-10         # eigenvalues above RANK_CUT·max|λ| span the range


def form(P: np.ndarray, J: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Hermitian GNS form G[i,k] = w(eᵢ*eₖ) = (Jᵀ·(w·P))[i,k].

    ``P`` may also be one channel of a graded product: its first axis is
    the grade ``w`` reads, its last two the grades of eᵢ* and eₖ.  It may be
    a strided view; w is contracted without copying it.
    """
    G = J.T @ (w @ P.swapaxes(0, 1))
    return (G + G.conj().T) / 2.0


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value of A: its operator norm on ℓ²."""
    return float(np.linalg.svd(A, compute_uv=False)[0])


def min_eig(M: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of M: its positivity floor."""
    return float(np.linalg.eigvalsh((M + M.conj().T) / 2)[0])


class GramRoot:
    """G^{1/2} and G^{-1/2} of a faithful GNS form, from one `eigh`.

    Raises :class:`DegenerateForm` unless the margin
    λ_min − FAITHFUL_FLOOR·max(λ_max, 1) is > 0, so also on a form with a
    NaN.
    """

    def __init__(self, G: np.ndarray, what: str = "GNS form"):
        w, U = np.linalg.eigh(G)
        margin = float(w[0] - FAITHFUL_FLOOR * max(float(w[-1]), 1.0))
        if not margin > 0:
            raise DegenerateForm(what, margin)
        r = np.sqrt(w)
        self.half = (U * r) @ U.conj().T
        self.inv_half = (U / r) @ U.conj().T

    def conj(self, L: np.ndarray) -> np.ndarray:
        """G^{1/2}·L·G^{-1/2}, batched over the leading axes of L."""
        return self.half @ L @ self.inv_half

    def op_norm(self, L: np.ndarray) -> float:
        """Operator norm on the GNS space of the operator with matrix L."""
        return spectral_norm(self.conj(L))


class Cut(NamedTuple):
    """Range of a positive semidefinite form Q ≈ V·V*, V = ``factor``.

    ``w`` holds the kept eigenvalues, so V/w is the dual frame; ``gap`` is
    (smallest kept, largest dropped) eigenvalue, or None when nothing was
    dropped.
    """

    factor: np.ndarray
    w: np.ndarray
    gap: tuple | None

    @property
    def rank(self) -> int:
        return len(self.w)


def rank_cut(Q: np.ndarray) -> Cut:
    """Cut the Hermitian part of Q to the eigenvalues above RANK_CUT·max|λ|."""
    w, U = np.linalg.eigh((Q + Q.conj().T) / 2)
    keep = w > RANK_CUT * max(float(np.max(np.abs(w), initial=0.0)), 1e-300)
    gap = None
    if not keep.all():
        gap = (float(w[keep][0]) if keep.any() else None,
               float(w[~keep][-1]))
    return Cut(U[:, keep] * np.sqrt(w[keep]), w[keep], gap)
