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
assembled object is validated once; a residual above ``tol``, or a NaN
one, raises :class:`PositivityFailure`.

Both are gathers, with no Python loop over labels or basis vectors: the
terms, with their labels and multiplicity slots as integer columns, are
enumerated from the fusion rules; each factor is read off the flat F, F⁻¹,
R and conjugate-pair (K) buffers at the addresses of its slots, and
``np.bincount`` sums the products into one buffer that holds every stack.
The product's terms are built for a few basis-tree pairs at a time, which
bounds the memory of their columns.
"""

from __future__ import annotations

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
    if not worst_residual(res)[1] <= tol:  # a NaN residual fails
        raise PositivityFailure(
            f"assembled annulus object fails its own axioms: {res}")
    ann.meta["residuals"] = res
    return ann


_CHUNK = 48  # pairs of basis trees whose product terms are built at once


def _loops(ring, S) -> tuple:
    """The basis vectors of every fiber as channel rows (X̄, X, Y, t), X ∈ S,
    and start[X, Y], the position of (X, 0) in the basis of 𝒟(Y)."""
    inS = np.fromiter(map(set(S).__contains__, ring.labels), dtype=bool, count=len(ring.labels))
    ch, dual = ring.channel_rows, ring.duals
    count = ring._N[dual, np.arange(len(dual))] * inS[:, None]  # count[X, Y] = N_X̄X^Y
    return ch[(ch[:, 0] == dual[ch[:, 1]]) & inS[ch[:, 1]]], np.cumsum(count, axis=0) - count


def _fuse(T: dict, name: str, ok: np.ndarray) -> dict:
    """Each term i of the columns T once per label z with ok[i, z] > 0,
    z as the column ``name``."""
    i, z = np.nonzero(ok)
    return {**{c: col[i] for c, col in T.items()}, name: z}


def _slots(T: dict, N: np.ndarray, **triples) -> dict:
    """Each term of the columns T once per choice of a slot below N_xy^z for
    every ``name=(x, y, z)`` of ``triples`` (column names), the slot as the
    column ``name``."""
    count = [N[T[x], T[y], T[z]] for x, y, z in triples.values()]
    total = np.prod(count, axis=0)
    i = np.repeat(np.arange(len(total)), total)
    local = np.arange(len(i)) - np.repeat(np.cumsum(total) - total, total)
    T = {c: col[i] for c, col in T.items()}
    for name, n in zip(triples, count):  # the first slot runs fastest
        local, T[name] = np.divmod(local, n[i])
    return T


def _sum_into(shapes: np.ndarray, terms) -> list:
    """The ``terms`` (array, flat position in it, value) summed into
    consecutive arrays of ``shapes``."""
    first = np.concatenate([[0], np.cumsum(shapes.prod(axis=1))])
    out = np.zeros(first[-1], dtype=complex)
    for k, at, v in terms:
        at = first[k] + at
        out += np.bincount(at, v.real, len(out)) + 1j * np.bincount(at, v.imag, len(out))
    return [a.reshape(shape) for a, shape in zip(np.split(out, first[1:-1]), shapes.tolist())]


def _assemble(cat: SkeletalUTC, S) -> AlgebraObject:
    """The annulus object over a fusion-closed support S, not yet validated."""
    ring, lab = cat.ring, np.array(cat.ring.labels)
    u = ring.index[ring.unit]
    loops, start = _loops(ring, S)
    dim = np.bincount(loops[:, 2], minlength=len(lab))
    unit = np.zeros(dim[u], dtype=complex)
    unit[start[u, u]] = 1.0
    X, Y = loops[:, 1], loops[:, 2]
    meta = {"fixture": "annulus", "support": tuple(sorted(S)),
            "conjugate_normalization": "unit-norm",
            "star_phases": dict(zip(zip(lab[X].tolist(), lab[Y].tolist()),
                                    cat._twists[X].tolist()))}
    return AlgebraObject(cat=cat, fibers=dict(zip(ring.labels, dim.tolist())),
                         mult=_product(cat, loops, start, dim),
                         star=_star(cat, loops, start, dim),
                         unit=unit, side="cat", meta=meta)


def _product(cat: SkeletalUTC, loops, start, dim) -> dict:
    """mult[(Y, Z, W)] of the annulus whose basis trees are ``loops``.

    Entry [u, (V, h), (X, t), (X', s)] sums, over p, f, V and the slots
    c, b, q, g, x, a, m, n, k, the terms

        conj(K̂(X,X',V)[q,g])·R(X̄,X̄';V̄)[g,x]·conj(F[V̄,X,X';W]_{(p,a,b),(V,q,h)})
        ·F[X̄,X̄',X;p]_{(V̄,x,a),(f,m,n)}·R(X,X̄';f)[m,k]
        ·F⁻¹[X̄,X,X̄';p]_{(f,k,n),(Y,t,c)}·F[Y,X̄',X';W]_{(p,c,b),(Z,s,u)}

    (K̂ is K with unit rows), one stack per R-table channel (Y, Z, W).  The
    terms of a chunk of left factors (X, t) are built at once, which bounds
    the memory of their columns.
    """
    rt = cat.ring.rtable
    e, row, _ = rt.entry_index()
    row = rt.start[e] + row  # the channel row of each entry of K
    K = cat._conj_pairs / np.sqrt(np.bincount(row, np.abs(cat._conj_pairs) ** 2))[row]
    step = max(1, _CHUNK // max(1, len(loops)))
    stacks = _sum_into(np.column_stack([rt.size, dim[rt.keys[:, [2, 0, 1]]]]),  # (u, h, t, s)
                       (_product_terms(cat, K, loops[lo:lo + step], loops, start, dim)
                        for lo in range(0, len(loops), step)))
    keys = map(tuple, np.array(cat.ring.labels, dtype=object)[rt.keys].tolist())
    return {key: m for key, m in zip(keys, stacks) if m.any()}


def _product_terms(cat: SkeletalUTC, K, left, right, start, dim) -> tuple:
    """The terms of the products of the basis trees ``left`` by ``right``:
    (their stack, their flat position in it, their values)."""
    N, dual, F, R, fa, ra = cat.ring._N, cat.ring.duals, cat._F, cat._R, cat._faddr, cat._raddr
    i, j = np.divmod(np.arange(len(left) * len(right)), len(right))
    T = dict(zip(["Xb", "X", "Y", "t", "Xpb", "Xp", "Z", "s"], [*left[i].T, *right[j].T]))
    T = _fuse(T, "W", N[T["Y"], T["Z"]])
    T = _fuse(T, "p", N[T["Y"], T["Xpb"]] * N[:, T["Xp"], T["W"]].T)
    T = _fuse(T, "Vb", N[T["Xb"], T["Xpb"]] * N[:, T["X"], T["p"]].T)
    T = _fuse(T, "f", N[T["Xpb"], T["X"]] * N[T["Xb"], :, T["p"]] * N[T["X"], T["Xpb"]])
    T["V"] = dual[T["Vb"]]
    T = _slots(T, N, u=("Y", "Z", "W"), c=("Y", "Xpb", "p"), b=("p", "Xp", "W"),
               q=("X", "Xp", "V"), h=("Vb", "V", "W"), g=("Xpb", "Xb", "Vb"),
               x=("Xb", "Xpb", "Vb"), a=("Vb", "X", "p"), m=("Xpb", "X", "f"),
               n=("Xb", "f", "p"), k=("X", "Xpb", "f"))
    Xb, X, Y, t, Xpb, Xp, Z, s, W, p, Vb, f, V, u, c, b, q, h, g, x, a, m, n, k = T.values()
    v = (np.conj(K[ra((X, Xp, V), q, g)]) * R[ra((Xb, Xpb, Vb), g, x)]
         * np.conj(F[fa((Vb, X, Xp, W), (p, a, b), (V, q, h))])
         * F[fa((Xb, Xpb, X, p), (Vb, x, a), (f, m, n))] * R[ra((X, Xpb, f), m, k)]
         * cat._inverses()[fa((Xb, X, Xpb, p), (Y, t, c), (f, k, n), inverse=True)]
         * F[fa((Y, Xpb, Xp, W), (p, c, b), (Z, s, u))])
    at = ((u * dim[W] + start[V, W] + h) * dim[Y] + start[X, Y] + t) * dim[Z] + start[Xp, Z] + s
    return cat.ring.rtable.number[Y, Z, W], at, v


def _star(cat: SkeletalUTC, loops, start, dim) -> dict:
    """star[Y] of the annulus: the conjugate K(X̄,X,Y)[t] ∈ Hom(Ȳ, X̄⊗X) of
    t: Y → X̄⊗X, braided by R^{X̄,X} into the X̄ summand of 𝒟(Ȳ), times θ_X̄:
    star[Y][(X̄, s), (X, t)] = θ_X̄·Σ_q R(X̄,X;Ȳ)[s,q]·K(X̄,X,Y)[t,q]."""
    dual = cat.ring.duals
    T = dict(zip(["Xb", "X", "Y", "t"], loops.T))
    T["Yb"] = dual[T["Y"]]
    T = _slots(T, cat.ring._N, q=("Xb", "X", "Yb"), s=("X", "Xb", "Yb"))
    Xb, X, Y, t, Yb, q, s = T.values()
    v = (cat._twists[Xb] * cat._R[cat._raddr((Xb, X, Yb), s, q)]
         * cat._conj_pairs[cat._raddr((Xb, X, Y), t, q)])
    at = (start[Xb, Yb] + s) * dim[Y] + start[X, Y] + t
    return dict(zip(cat.ring.labels, _sum_into(np.column_stack([dim[dual], dim]), [(Y, at, v)])))


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
