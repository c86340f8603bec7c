"""The dict-keyed elements of 𝒟(A⊗B), kept as the reference for the
coefficient vectors of :mod:`utcat.algebra_object`.

An element of 𝒟(A⊗B) is a dict (Z, v) → vector in 𝒟(Z), one entry per tree
v ∈ O(Z, A⊗B) with a nonzero component.  The kernels below are the lax
product, the conjugation of trees, the expectation E_X and the per-entry
fiber Gram as :mod:`utcat` once computed them on such dicts; :func:`flatten`
and :func:`split` move between a dict and the vector on a layout.
:func:`fiber_action` and :func:`fiber_norms` are the right action of the
square algebra on 𝒟(X) and the two norms of a fiber vector, computed from
the library's F blocks, layouts and derived algebras;
:func:`fiber_inner_product` is the 𝒟(1)-valued inner product of two fiber
vectors and :func:`is_positive` the positivity test of an element of a
:class:`utcat.algebra_object.StarAlgebra`.
:func:`associativity` is the residual of the associativity check computed
one basis tree at a time over the per-key F index, as
:func:`utcat.algebra_object.validate_algebra_object` once did.
:func:`coend_basis` lists the graded basis of a coend algebra one element
at a time, as ``CoendAlgebra.basis`` once did.  :func:`include_ground` is the
inclusion 𝒟(1) → 𝒟(X̄⊗X), as ``SquareAlgebra.include_ground`` once read it.
"""

from __future__ import annotations

import itertools

import numpy as np

from index_reference import f_index, fmat
from tree_reference import TreeCalculus
from utcat.coend import GradedElement
from utcat.errors import SupportTooSmall
from utcat.gns import min_eig


def flatten(layout, dist: dict) -> np.ndarray:
    """The vector on ``layout`` of a dict element; every nonzero summand must
    have a slice."""
    out = np.zeros(layout.dim, dtype=complex)
    for key, vec in dist.items():
        if key in layout.slices:
            out[layout.slices[key]] = vec
        else:
            assert not np.any(vec), f"summand {key} has no slice"
    return out


def split(layout, vec) -> dict:
    """The dict element of a vector on ``layout``."""
    return {key: vec[sl] for key, sl in layout.slices.items() if np.any(vec[sl])}


def apply_tree(D, X: str, Y: str, Z: str, v: int, xi, eta) -> np.ndarray:
    """The product of the tree v ∈ O(Z, X⊗Y) applied to ξ ⊗ η."""
    return np.einsum("zxy,x,y->z", D.mu(X, Y, Z)[v], xi, eta)


def lax_product(D, X: str, Y: str, xi, eta) -> dict:
    """𝒟²_{X,Y}(ξ ⊙ η) distributed over the channels of X⊗Y."""
    out = {}
    for Z in D.cat.ring.labels:
        if D.n(Z) == 0:
            continue
        for v in range(D.cat.ring.N(X, Y, Z)):
            val = apply_tree(D, X, Y, Z, v, xi, eta)
            if np.any(val):
                out[(Z, v)] = val
    return out


def conjugate_distributed(D, dist: dict, pair: tuple) -> dict:
    """j applied to a distributed element of 𝒟(A⊗B); lands over (B̄, Ā)."""
    A, B = pair
    ring = D.cat.ring
    out = {}
    for (Z, v), vec in dist.items():
        e = np.zeros(ring.N(A, B, Z))
        e[v] = 1.0
        conj_coeffs = TreeCalculus(D.cat).conj_pair_basis(A, B, Z, e)
        jvec = D.j(Z, vec)
        Zb = ring.dual[Z]
        for s, K in enumerate(conj_coeffs):
            K = D.scalar(K)
            if abs(K) == 0.0:
                continue
            key = (Zb, s)
            out[key] = out.get(key, np.zeros(D.n(Zb), dtype=complex)) + K * jvec
    return out


def cond_expect_component(D, X: str, dist: dict) -> np.ndarray:
    """E_X = d_X⁻¹ 𝒟(R_X) on an element distributed over X̄⊗X."""
    unit = D.cat.ring.unit
    if D.n(unit) == 0:
        raise SupportTooSmall([unit])
    comp = dist.get((unit, 0))
    if comp is None:
        return np.zeros(D.n(unit), dtype=complex)
    return D.scalar(D.cat.conjugate_solution(X).r) / D.cat.d(X) * comp


def fiber_gram(D, X: str) -> np.ndarray:
    """⟨eᵢ, eₖ⟩ = E_X(𝒟²(j(eᵢ) ⊙ eₖ)) entry by entry, shape (n_X, n_X, n_1)."""
    nx, n1 = D.n(X), D.n(D.cat.ring.unit)
    Xb = D.cat.ring.dual[X]
    G = np.zeros((nx, nx, n1), dtype=complex)
    for i in range(nx):
        for k in range(nx):
            dist = lax_product(D, Xb, X, D.j(X, np.eye(nx)[i]), np.eye(nx)[k])
            G[i, k] = cond_expect_component(D, X, dist)
    return G


def associativity(D, rng=None) -> float:
    """The associativity residual tree by tree: for every (X, Y, Z) in the
    support and random ξ, η, ζ (drawn from ``rng``, default seed 0, in the
    order of the check), max |F[X,Y,Z;W]ᵀ θ_L − θ_R| / scale over W, with θ_L
    and θ_R one entry per left and right tree."""
    if rng is None:
        rng = np.random.default_rng(0)
    cat, ring, sup = D.cat, D.cat.ring, D.support
    worst = 0.0

    def rand(n):
        return rng.normal(size=n) + 1j * rng.normal(size=n)

    for X, Y, Z in itertools.product(sup, repeat=3):
        xi, eta, zeta = rand(D.n(X)), rand(D.n(Y)), rand(D.n(Z))
        for W in ring.labels:
            nw = D.n(W)
            if nw == 0:
                continue
            idx = f_index(ring, X, Y, Z, W)
            lidx, ridx = idx.left, idx.right
            if not lidx:
                continue
            thL = np.zeros((len(lidx), nw), dtype=complex)
            for i, (E, al, be) in enumerate(lidx):
                if D.n(E) == 0:
                    continue
                thL[i] = apply_tree(D, E, Z, W, be, apply_tree(D, X, Y, E, al, xi, eta), zeta)
            thR = np.zeros((len(ridx), nw), dtype=complex)
            for i, (Fc, mu_i, nu) in enumerate(ridx):
                if D.n(Fc) == 0:
                    continue
                thR[i] = apply_tree(D, X, Fc, W, nu, xi, apply_tree(D, Y, Z, Fc, mu_i, eta, zeta))
            F = fmat(cat, X, Y, Z, W)
            if D.side == "op":
                F = F.conj()
            pred = F.T @ thL
            scale = max(1.0, float(np.max(np.abs(thL))), float(np.max(np.abs(thR))))
            worst = max(worst, float(np.max(np.abs(pred - thR))) / scale)
    return worst


def fiber_action(D, X: str, xi, T) -> np.ndarray:
    """Right action ξ ◁ T = 𝒟(R̄_X ⊗ id_X)(𝒟²(ξ ⊙ T)) on 𝒟(X).

    The adjoint of R̄_X ⊗ id_X caps ξ's strand with the left X̄ of the
    square algebra; by the conjugate equations the zig-zag against the
    unit ι(1) = 𝒟(R_X*)(1) is exactly 1, so no dimension factor is
    needed for the unit to act as the identity and ξ ◁ ι(x) = ξ·x.
    """
    cat = D.cat
    Xb = D.dual(X)
    rbar = cat.conjugate_solution(X).rbar
    out = np.zeros(D.n(X), dtype=complex)
    for (Z, v), sl in D.layout(Xb, X).slices.items():
        # the cap on (Z, v, s ∈ O(X, X⊗Z)): r̄ conj F[X,X̄,X;X][(1,0,0), (Z,v,s)]
        cap = rbar * cat.fblock(X, Xb, X, X, cat.ring.unit, Z)[0, 0, v].conj()
        for s, coeff in enumerate(cap):
            out += D.scalar(coeff) * apply_tree(D, X, Z, X, s, xi, T[sl])
    return out


def fiber_norms(D, X: str, xi) -> tuple:
    """(module norm ‖ξ‖_{𝒟(1)}, operator norm ‖ξ‖) of ξ in 𝒟(X)."""
    g = D.ground()
    module = np.sqrt(max(g.op_norm(fiber_inner_product(D, X, xi, xi)), 0.0))
    sq = D.square_algebra(X)
    t = D.lax_product(sq.Xb, X, D.j(X, xi), xi)
    operator = np.sqrt(max(sq.op_norm(t), 0.0))
    return module, operator


def fiber_inner_product(D, X: str, xi, eta) -> np.ndarray:
    """⟨ξ,η⟩_{𝒟(1)} = E_X(𝒟²(j(ξ) ⊙ η)) for ξ, η in 𝒟(X), read from the
    library's fiber Gram; conjugate-linear in ξ."""
    return np.einsum("ikz,i,k->z", D.fiber_gram(X), np.conj(xi), eta)


def is_positive(alg, x, floor=1e-10) -> bool:
    """x ≥ 0 in the *-algebra ``alg``: x = x* and the spectrum of L_x on the
    GNS space is ≥ −floor."""
    if np.max(np.abs(alg.star(x) - x)) > 1e-8 * max(1.0, np.max(np.abs(x))):
        return False
    return min_eig(alg.gns.conj(alg.left_mult(x))) >= -floor


def coend_basis(co):
    """Graded basis elements (X, i, e) of a coend algebra in flattening order."""
    for X in co.support:
        for i in range(co.dims[X]):
            e = np.zeros(co.dims[X])
            e[i] = 1.0
            yield X, i, GradedElement({X: e})


def include_ground(sq, x) -> np.ndarray:
    """ι(x) ∈ 𝒟(X̄⊗X) for x ∈ 𝒟(1), ι = 𝒟(R_X*): x times r at the unit
    summand of the square algebra ``sq``; ι(1) is its unit."""
    out = np.zeros(sq.dim, dtype=complex)
    out[sq._unit_slice] = sq.D.scalar(sq.D.cat.conjugate_solution(sq.X).r) * np.asarray(x)
    return out
