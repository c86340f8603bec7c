"""The annulus algebra object ⊕_X X̄⊗X of a braided category.

Fibers are 𝒟(Y) = ⊕_{X∈S} Hom(Y, X̄⊗X) with the basis (X, t) ordered by label
then multiplicity index.  The multiplication braids the left factor pair past
the right conjugate letter,

    X̄⊗X⊗X̄'⊗X' → (X̄'⊗X̄)⊗(X⊗X') → V̄⊗V,

and the second arrow decomposes through conjugate intertwiner pairs
(conj(b)/‖conj(b)‖ ⊗ b) over an orthonormal basis b of O(V, X⊗X').  The
product is a fixed contraction of F and R blocks, as for the tube algebra in
Bultinck et al., *Anyons and matrix product operator algebras* (Ann. Phys.
2017): one F[Y,X̄',X';W] column merges the factors, F⁻¹·R·F and then R braid,
and F[V̄,X,X';W] projects on the pairs.  Their normalization is the one
choice not forced by the data; it is recorded in the object's metadata and
exercised by the associativity check in :func:`build_annulus`.

The star is the tube algebra's involution in closed form (Ghosh–Jones,
*Annular representation theory for rigid C*-tensor categories*, JFA 2016):
for f ∈ Hom(Y, X̄⊗X), j(f) is the conjugate morphism in Hom(Ȳ, X̄⊗X),
braided by one R block to X⊗X̄ so that it lies in the X̄ summand of 𝒟(Ȳ),
times the twist θ_X = d_X⁻¹ Σ_c d_c Tr R^{X,X}_c of the loop label.  The
metadata records these phases as ``star_phases[(X, Y)] = θ_X``.  The
assembled object is validated once; a residual above ``tol`` raises
:class:`PositivityFailure`.
"""

from __future__ import annotations

import itertools

import numpy as np

from .algebra_object import AlgebraObject, validate_algebra_object, worst_residual
from .errors import MissingBraiding, PositivityFailure, SupportTooSmall
from .skeletal import SkeletalUTC

__all__ = ["build_annulus", "annulus_basis", "z_state"]


def annulus_basis(cat: SkeletalUTC, S, Y: str) -> list:
    """Basis (X, t) of ⊕_{X∈S} Hom(Y, X̄⊗X), lexicographic in X."""
    ring = cat.ring
    out = []
    for X in sorted(S):
        for t in range(ring.N(ring.dual[X], X, Y)):
            out.append((X, t))
    return out


def build_annulus(cat: SkeletalUTC, S=None, tol: float = 1e-9) -> AlgebraObject:
    """Assemble the annulus object over the support S (default: all labels)."""
    if not cat.braided:
        raise MissingBraiding("annulus multiplication needs R-symbols")
    ring = cat.ring
    S = ring.labels if S is None else tuple(S)
    missing = ring.missing(S)
    if missing:
        raise SupportTooSmall(missing)

    ann = _assemble(cat, S)
    res = validate_algebra_object(ann, rng=np.random.default_rng(1), tol=tol)
    if worst_residual(res)[1] > tol:
        raise PositivityFailure(
            f"assembled annulus object fails its own axioms: {res}")
    ann.meta["residuals"] = res
    return ann


def _assemble(cat: SkeletalUTC, S) -> AlgebraObject:
    """The annulus object over a fusion-closed support S, not yet validated."""
    ring = cat.ring
    bases = {Y: annulus_basis(cat, S, Y) for Y in ring.labels}
    twist = {X: cat.twist(X) for X in S}
    unit = np.zeros(len(bases[ring.unit]), dtype=complex)
    unit[bases[ring.unit].index((ring.unit, 0))] = 1.0
    meta = {"fixture": "annulus", "support": tuple(sorted(S)),
            "conjugate_normalization": "unit-norm",
            "star_phases": {(X, Y): twist[X] for Y, basis in bases.items() for X, _ in basis}}
    return AlgebraObject(cat=cat, fibers={Y: len(basis) for Y, basis in bases.items()},
                         mult=_product(cat, S, bases), star=_star(cat, bases, twist),
                         unit=unit, side="cat", meta=meta)


def _product(cat: SkeletalUTC, S, bases: dict) -> dict:
    """mult[(Y, Z, W)] of the annulus over S with fiber ``bases``."""
    ring, dual, N = cat.ring, cat.ring.dual, cat.ring.N
    start = {Y: {X: i for i, (X, t) in enumerate(basis) if t == 0}
             for Y, basis in bases.items()}
    mult = {(Y, Z, W): np.zeros((n, len(bases[W]), len(bases[Y]), len(bases[Z])),
                                dtype=complex)
            for Y, Z in itertools.product(ring.labels, repeat=2)
            for W, n in ring.channels(Y, Z)}
    for X, Xp in itertools.product(sorted(S), repeat=2):
        Xb, Xpb = dual[X], dual[Xp]
        # per V: the unit-norm conjugates of an onb of O(V, X⊗X'), conjugated
        # and pulled back through R^{X̄,X̄'}, as C[q, α'] with α' ∈ O(V̄, X̄⊗X̄')
        pairs = {}
        for V, n in ring.channels(X, Xp):
            cb = np.array([cat.conj_pair_basis(X, Xp, V, e) for e in np.eye(n)])
            cb /= np.linalg.norm(cb, axis=1, keepdims=True)
            pairs[V] = cb.conj() @ cat.rmat(Xb, Xpb, dual[V])
        for Y, _ in ring.channels(Xb, X):
            y = slice(start[Y][X], start[Y][X] + N(Xb, X, Y))
            for p, _ in ring.channels(Y, Xpb):
                # id_X̄ ⊗ τ_{X,X̄'} as F⁻¹, R, F: from the trees (X̄X)X̄' → p
                # through Y to the trees (X̄X̄')X → p through V̄
                braid = {V: sum(np.einsum("xamn,mk,tckn->xatc",
                                          cat.fblock(Xb, Xpb, X, p, dual[V], f),
                                          cat.rmat(X, Xpb, f),
                                          cat.fblock(Xb, X, Xpb, p, Y, f, inverse=True))
                                for f, _ in ring.channels(X, Xpb))
                         for V in pairs}
                for W, _ in ring.channels(p, Xp):
                    # the pairs through F[V̄,X,X';W], rows (V, h) of 𝒟(W)
                    proj = np.zeros((len(bases[W]), N(p, Xp, W), N(Xb, X, Y), N(Y, Xpb, p)),
                                    dtype=complex)
                    for V, C in pairs.items():
                        if N(dual[V], V, W):
                            h = start[W][V]
                            F3 = cat.fblock(dual[V], X, Xp, W, p, V).conj()
                            proj[h:h + F3.shape[3]] = np.einsum("qx,abqh,xatc->hbtc",
                                                                C, F3, braid[V])
                    for Z, _ in ring.channels(Xpb, Xp):
                        if not N(Y, Z, W):
                            continue
                        # the merge along u: one column of F[Y,X̄',X';W]
                        F1 = cat.fblock(Y, Xpb, Xp, W, p, Z)
                        z = slice(start[Z][Xp], start[Z][Xp] + F1.shape[2])
                        mult[(Y, Z, W)][:, :, y, z] += np.einsum("hbtc,cbsu->uhts", proj, F1)
    return {key: m for key, m in mult.items() if np.any(m)}


def _star(cat: SkeletalUTC, bases: dict, twist: dict) -> dict:
    """star[Y] of the annulus: the conjugate of t: Y → X̄⊗X in Hom(Ȳ, X̄⊗X),
    braided by R^{X̄,X} into the X̄ summand of 𝒟(Ȳ), times θ_X̄."""
    ring = cat.ring
    star = {}
    for Y, basis in bases.items():
        Yb = ring.dual[Y]
        S = np.zeros((len(bases[Yb]), len(basis)), dtype=complex)
        for iy, (X, t) in enumerate(basis):
            Xb = ring.dual[X]
            cb = cat.conj_pair_basis(Xb, X, Y, np.eye(ring.N(Xb, X, Y))[t])
            j = bases[Yb].index((Xb, 0))
            S[j:j + len(cb), iy] = twist[Xb] * (cat.rmat(Xb, X, Yb) @ cb)
        star[Y] = S
    return star


def z_state(ann: AlgebraObject) -> dict:
    """The state on 𝒟_Ann(1) given by the coefficient of the 1-summand.

    Returns the functional as a coefficient vector plus its positivity floor
    over the cone {a*a}; raises :class:`NotAState` unless it is unital and
    positive.
    """
    ring = ann.cat.ring
    bases = annulus_basis(ann.cat, ann.meta.get("support", ring.labels), ring.unit)
    omega = np.zeros(ann.n(ring.unit), dtype=complex)
    omega[bases.index((ring.unit, 0))] = 1.0
    omega, ev = ann.ground().check_state(omega)
    return {"omega": omega, "positivity_floor": float(ev[0]), "unital": True}
