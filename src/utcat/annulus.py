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

    # star: conjugate f: Y → X̄⊗X, then braid back X̄⊗X → X⊗X̄ so the result
    # sits in the X̄ summand of 𝒟(Ȳ) (for pointed categories this is the only
    # way e_X* ∝ e_{X̄} can hold).  A phase per (loop label, fiber label) slot
    # is still free and is solved against the measured defects below.
    raw_star = {}
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
        raw_star[Y] = Smat

    unit_idx = bases[ring.unit].index((ring.unit, 0))
    unit = np.zeros(fibers[ring.unit], dtype=complex)
    unit[unit_idx] = 1.0

    meta = {"fixture": "annulus", "support": tuple(sorted(S)),
            "conjugate_normalization": "unit-norm"}
    ann0 = AlgebraObject(cat=cat, fibers=fibers, mult=mult, star=raw_star,
                         unit=unit, side="cat", unitary_lax=False, meta=meta)

    last_res = None
    for phases in _star_phase_candidates(ann0, bases):
        star = {}
        for Y in labels:
            if fibers[Y] == 0:
                star[Y] = raw_star[Y]
                continue
            Yb = ring.dual[Y]
            diag = np.array([phases[(X, Yb)] for (X, t) in bases[Yb]],
                            dtype=complex)
            star[Y] = diag[:, None] * raw_star[Y]
        ann = AlgebraObject(cat=cat, fibers=fibers, mult=mult, star=star,
                            unit=unit, side="cat", unitary_lax=False,
                            meta=dict(meta, star_phases=phases))
        try:
            res = validate_algebra_object(ann, rng=np.random.default_rng(1),
                                          tol=tol)
        except SolveFailed as err:
            # e.g. a sign choice that degenerates the ground trace form
            last_res = {"error": str(err)}
            continue
        last_res = res
        worst = max(res["associativity"], res["unitality"],
                    res["star_involution"], res["star_monoidality"],
                    -res["positivity_floor"])
        if worst <= tol:
            ann.meta["residuals"] = res
            return ann
    raise PositivityFailure(
        f"assembled annulus object fails its own axioms: {last_res}")


def _star_phase_candidates(ann0: AlgebraObject, bases: dict):
    """Yield phase corrections for the braided-conjugate annulus star.

    The braided conjugate is antimultiplicative and involutive only up to a
    phase per (loop label, fiber label) slot class.  The defects are measured
    directly on basis products: every nonzero component of

        conjugate_distributed(e_a . e_b)  vs  j(e_b) . j(e_a)

    gives one multiplicative equation u_a u_b = ratio * u_out, and the
    involution gives u_{(X,Y)} conj(u_{(X~,Y~)}) kappa = 1 over dual slots.
    The unknown phases are solved by constraint propagation; square-root
    equations fork into sign branches, so candidates come out in a
    deterministic order and the validation gate downstream (in particular
    Gram positivity) selects among them.
    """
    import itertools as _it

    ring = ann0.cat.ring
    unit = ring.unit
    sup = sorted(Y for Y in ring.labels if ann0.n(Y) > 0)
    slots = sorted({(X, Y) for Y in sup for (X, t) in bases[Y]})

    def slot_slices(Y):
        out = {}
        for i, (X, t) in enumerate(bases[Y]):
            out.setdefault(X, []).append(i)
        return out

    # involution defects: raw[Y~] conj(raw[Y]) = kappa_{(X,Y)} on slot (X, .)
    kappa = {}
    for Y in sup:
        M = ann0.star[ring.dual[Y]] @ np.conj(ann0.star[Y])
        for X, idx in slot_slices(Y).items():
            block = M[np.ix_(idx, idx)]
            off = M[idx, :].copy()
            off[:, idx] = 0.0
            k = np.trace(block) / len(idx)
            if np.max(np.abs(off)) > 1e-10 or abs(abs(k) - 1.0) > 1e-10 or \
                    np.max(np.abs(block - k * np.eye(len(idx)))) > 1e-10:
                raise SolveFailed(
                    f"annulus star involution defect on slot ({X},{Y}) is "
                    "not a phase; cannot repair by slot phases")
            kappa[(X, Y)] = k

    # corrected j must fix the unit vector, which pins the unit slot phase
    uvec = ann0.j(unit, ann0.unit)
    scal = np.vdot(ann0.unit, uvec)
    if abs(abs(scal) - 1.0) > 1e-10 or \
            np.max(np.abs(uvec - scal * ann0.unit)) > 1e-10:
        raise SolveFailed("annulus star does not fix the unit up to phase")

    # antimultiplicativity defects on basis pairs:
    #   u[(X~,Y~)] u[(X'~,Z~)] = ratio * u[(V,W~)]
    eqmap = {}
    for Y, Z in _it.product(sup, repeat=2):
        for iy, (X, t) in enumerate(bases[Y]):
            xi = np.eye(ann0.n(Y))[iy]
            jxi = ann0.j(Y, xi)
            for iz, (Xp, tp) in enumerate(bases[Z]):
                eta = np.eye(ann0.n(Z))[iz]
                lhs = ann0.conjugate_distributed(
                    ann0.lax_product(Y, Z, xi, eta), (Y, Z))
                rhs = ann0.lax_product(ring.dual[Z], ring.dual[Y],
                                       ann0.j(Z, eta), jxi)
                for key in set(lhs) | set(rhs):
                    Wb = key[0]
                    a = lhs.get(key, np.zeros(ann0.n(Wb), dtype=complex))
                    b = rhs.get(key, np.zeros(ann0.n(Wb), dtype=complex))
                    sc = max(float(np.max(np.abs(a))) if a.size else 0.0,
                             float(np.max(np.abs(b))) if b.size else 0.0,
                             1e-30)
                    for comp, (V, s) in enumerate(bases[Wb]):
                        av, bv = a[comp], b[comp]
                        if abs(av) < 1e-9 * sc and abs(bv) < 1e-9 * sc:
                            continue
                        if abs(av) < 1e-9 * sc or abs(bv) < 1e-9 * sc or \
                                abs(abs(av / bv) - 1.0) > 1e-8:
                            raise SolveFailed(
                                "annulus star defect is not a phase on "
                                f"({X},{Y})({Xp},{Z}) -> ({V},{Wb})")
                        ekey = ((ring.dual[X], ring.dual[Y]),
                                (ring.dual[Xp], ring.dual[Z]), (V, Wb))
                        prev = eqmap.setdefault(ekey, av / bv)
                        if abs(prev - av / bv) > 1e-8:
                            raise SolveFailed(
                                f"annulus star defect on {ekey} is not "
                                "slot-diagonal")
    eqs = [(a, b, d, r) for (a, b, d), r in sorted(eqmap.items())]

    def verify(u):
        for a, b, d, r in eqs:
            if abs(u[a] * u[b] - r * u[d]) > 1e-8:
                return False
        for (X, Y), k in kappa.items():
            if abs(u[(X, Y)] * np.conj(u[(ring.dual[X], ring.dual[Y])]) * k
                   - 1.0) > 1e-8:
                return False
        return True

    def propagate(u):
        """Fill in uniquely-determined phases; return sign forks when stuck."""
        changed = True
        while changed:
            changed = False
            for (X, Y), k in kappa.items():
                dual = (ring.dual[X], ring.dual[Y])
                if (X, Y) in u and dual not in u:
                    u[dual] = u[(X, Y)] / k  # unimodular: 1/conj(x) = x
                    changed = True
            for a, b, d, r in eqs:
                if a == b:
                    if a not in u and d in u:
                        continue  # square root: fork below
                    if a in u and d not in u:
                        u[d] = u[a] * u[a] / r
                        changed = True
                    continue
                known = [a in u, b in u, d in u]
                if known.count(False) != 1:
                    continue
                if not known[0]:
                    u[a] = r * u[d] / u[b]
                elif not known[1]:
                    u[b] = r * u[d] / u[a]
                else:
                    u[d] = u[a] * u[b] / r
                changed = True
        for a, b, d, r in eqs:
            if a == b and a not in u and d in u:
                root = complex(np.sqrt(r * u[d]))
                return [(a, root), (a, -root)]
        missing = [s for s in slots if s not in u]
        if missing:
            # disconnected slot: try both signs and let verification decide
            return [(missing[0], 1.0 + 0.0j), (missing[0], -1.0 + 0.0j)]
        return None

    def search(u):
        forks = propagate(u)
        if forks is None:
            if verify(u):
                yield dict(u)
            return
        for slot, val in forks:
            u2 = dict(u)
            u2[slot] = val
            yield from search(u2)

    yield from search({(unit, unit): 1.0 / scal})


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
