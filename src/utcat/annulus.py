"""The annulus algebra object ⊕_X X̄⊗X of a braided category.

Fibers are 𝒟(Y) = ⊕_{X∈S} Hom(Y, X̄⊗X) with the basis (X, t) ordered by label
then multiplicity index.  The multiplication braids the left factor pair past
the right conjugate letter,

    X̄⊗X⊗Ȳ⊗Y → (Ȳ⊗X̄)⊗(X⊗Y) → W̄⊗W,

and the second arrow decomposes through conjugate intertwiner pairs
(conj(b)/‖conj(b)‖ ⊗ b) over an orthonormal basis b of O(W, X⊗Y).  The
normalization of the conjugates is the one choice not forced by the data; it
is recorded in the object's metadata and exercised by the associativity
check in :func:`build_annulus`.

The star is the tube algebra's involution in closed form (Ghosh–Jones,
*Annular representation theory for rigid C*-tensor categories*, JFA 2016):
for f ∈ Hom(Y, X̄⊗X), j(f) is the conjugate morphism in Hom(Ȳ, X̄⊗X),
braided to X⊗X̄ so that it lies in the X̄ summand of 𝒟(Ȳ), times the twist
θ_X = d_X⁻¹ Σ_c d_c Tr R^{X,X}_c of the loop label.  The metadata records
these phases as ``star_phases[(X, Y)] = θ_X``.  The assembled object is
validated once; a residual above ``tol`` raises :class:`PositivityFailure`.
"""

from __future__ import annotations

import numpy as np

from .algebra_object import AlgebraObject, validate_algebra_object
from .errors import MissingBraiding, PositivityFailure, SolveFailed, SupportTooSmall
from .fusion_ring import SupportSet
from .gns import form, min_eig
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


def _closed(cat: SkeletalUTC, S) -> bool:
    labels = set(S)
    for x in labels:
        if cat.ring.dual[x] not in labels:
            return False
        for y in labels:
            if set(cat.ring.fuse(x, y)) - labels:
                return False
    return True


def build_annulus(cat: SkeletalUTC, S=None, tol: float = 1e-9) -> AlgebraObject:
    """Assemble the annulus object over the support S (default: all labels)."""
    if not cat.braided:
        raise MissingBraiding("annulus multiplication needs R-symbols")
    ring = cat.ring
    if S is None:
        S = SupportSet(labels=ring.labels, generators=ring.labels, depth=0)
    if not _closed(cat, S):
        raise SupportTooSmall(sorted(set().union(
            *[set(ring.fuse(x, y)) for x in S for y in S]) - set(S)))

    labels = ring.labels
    bases = {Y: annulus_basis(cat, S, Y) for Y in labels}
    fibers = {Y: len(bases[Y]) for Y in labels}
    twist = {X: cat.twist(X) for X in S}

    # conjugate pair trees: for each (V, X, Xp) an onb b_q of O(V, X⊗Xp) and
    # the normalized conjugates conj(b_q)/‖conj(b_q)‖ ∈ Hom(V̄, X̄p⊗X̄)
    def conj_pairs(V, X, Xp):
        n = ring.N(X, Xp, V)
        pairs = []
        for q in range(n):
            cb = cat.conj_pair_basis(X, Xp, V, np.eye(n)[q])
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
                for u in range(nu):
                    arr = np.zeros((fibers[W], fibers[Y], fibers[Z]), dtype=complex)
                    for iy, (X, t) in enumerate(bases[Y]):
                        Xb = ring.dual[X]
                        f = cat.basis_tree(Y, (Xb, X), ((Y, t),))
                        for iz, (Xp, tp) in enumerate(bases[Z]):
                            Xpb = ring.dual[Xp]
                            gtv = cat.basis_tree(Z, (Xpb, Xp), ((Z, tp),))
                            big = cat.merge(f, gtv, W, np.eye(nu)[u])
                            # τ_{X̄⊗X, X̄p}: move letter 2 left past letters 1, 0
                            big = cat.braid_adjacent(big, 1)
                            big = cat.braid_adjacent(big, 0)
                            # now word = (X̄p, X̄, X, Xp); project on pair trees
                            for iw, (V, h) in enumerate(bases[W]):
                                Vb = ring.dual[V]
                                nh = ring.N(Vb, V, W)
                                total = 0.0 + 0.0j
                                for b_q, cb_q in conj_pairs(V, X, Xp):
                                    left = _vec_tree(cat, Vb, (Xpb, Xb), cb_q)
                                    right = _vec_tree(cat, V, (X, Xp), b_q)
                                    M = cat.merge(left, right, W, np.eye(nh)[h])
                                    total += M.inner(big)
                                arr[iw, iy, iz] = total
                    if np.any(arr):
                        mult[(Y, Z, W, u)] = arr

    # star: conjugate f: Y → X̄⊗X, braid back X̄⊗X → X⊗X̄ so the result sits
    # in the X̄ summand of 𝒟(Ȳ), and multiply by the twist θ_X of the loop
    # label (the tube algebra's involution, Ghosh–Jones 2016)
    star = {}
    for Y in labels:
        Yb = ring.dual[Y]
        Smat = np.zeros((fibers[Yb], fibers[Y]), dtype=complex)
        for iy, (X, t) in enumerate(bases[Y]):
            Xb = ring.dual[X]
            n = ring.N(Xb, X, Y)
            cb = cat.conj_pair_basis(Xb, X, Y, np.eye(n)[t])  # ∈ Hom(Ȳ, X̄⊗X)
            tv = _vec_tree(cat, Yb, (Xb, X), cb)
            tv = cat.braid_adjacent(tv, 0)                    # ∈ Hom(Ȳ, X⊗X̄)
            for path, coeff in tv.coeffs.items():
                jidx = bases[Yb].index((Xb, path[0][1]))
                Smat[jidx, iy] += coeff
        star[Y] = np.array([twist[X] for X, _ in bases[Yb]])[:, None] * Smat

    unit_idx = bases[ring.unit].index((ring.unit, 0))
    unit = np.zeros(fibers[ring.unit], dtype=complex)
    unit[unit_idx] = 1.0

    meta = {"fixture": "annulus", "support": tuple(sorted(S)),
            "conjugate_normalization": "unit-norm",
            "star_phases": {(X, Y): twist[X] for Y in labels for X, _ in bases[Y]}}
    ann = AlgebraObject(cat=cat, fibers=fibers, mult=mult, star=star,
                        unit=unit, side="cat", unitary_lax=False, meta=meta)
    try:
        res = validate_algebra_object(ann, rng=np.random.default_rng(1), tol=tol)
    except SolveFailed as err:  # a wrong star degenerates the ground trace form
        raise PositivityFailure(
            f"assembled annulus object fails its own axioms: {err}") from err
    worst = max(res["associativity"], res["unitality"], res["star_involution"],
                res["star_monoidality"], -res["positivity_floor"])
    if worst > tol:
        raise PositivityFailure(
            f"assembled annulus object fails its own axioms: {res}")
    meta["residuals"] = res
    return ann


def _vec_tree(cat, root, word, coeffs):
    from .skeletal import TreeVector
    return TreeVector(tuple(word), root,
                      {((root, t),): c for t, c in enumerate(coeffs) if abs(c) > 0})


def z_state(ann: AlgebraObject, floor: float = 1e-10) -> dict:
    """The state on 𝒟_Ann(1) given by the coefficient of the 1-summand.

    Returns the functional as a coefficient vector plus its positivity floor
    over the cone {a*a}.
    """
    cat = ann.cat
    ring = cat.ring
    bases = annulus_basis(cat, ann.meta.get("support", ring.labels), ring.unit)
    idx = bases.index((ring.unit, 0))
    n1 = ann.n(ring.unit)
    omega = np.zeros(n1, dtype=complex)
    omega[idx] = 1.0
    # positivity: omega(a* a) ≥ 0 for all a, from the GNS form of omega
    lo = min_eig(form(ann.mu(ring.unit, ring.unit, ring.unit, 0),
                      ann.star[ring.unit], omega))
    if lo < -floor:
        raise PositivityFailure(f"annulus Z-state not positive: min eig {lo}")
    if abs(omega @ ann.unit - 1.0) > 1e-10:
        raise PositivityFailure("annulus Z-state not unital")
    return {"omega": omega, "positivity_floor": lo, "unital": True}
