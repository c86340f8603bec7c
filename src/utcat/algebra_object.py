"""Algebra objects internal to a skeletal unitary tensor category.

An :class:`AlgebraObject` stores a functor value ``fibers[X] = dim 𝒟(X)`` on
each irreducible label, the lax multiplication through its irreducible
components, an antilinear star ``j_X : 𝒟(X) → 𝒟(X̄)`` given by
``star[X] @ conj(ξ)``, and the algebra unit in 𝒟(1).  The product is one
bilinear map 𝒟(X)×𝒟(Y) → 𝒟(Z) per tree v ∈ O(Z, X⊗Y), stored per channel
as one stack ``mult[(X, Y, Z)]`` of shape (N_XY^Z, n_Z, n_X, n_Y), v along
the first axis, and read through :meth:`AlgebraObject.mu`; a channel
without a stack has the zero product.  The constructor refuses a key that
is not a channel (N_XY^Z > 0) and a stack of any other shape.

``side`` records whether the object lives over the category itself ("cat") or
its opposite ("op"); the opposite category has conjugated structure scalars,
so every coefficient drawn from the category data passes through
:meth:`AlgebraObject.scalar`.

An element of 𝒟(A⊗B) is one coefficient vector.  The map θ ⊗ v ↦ 𝒟(v*)θ
identifies ⊕_{Z,v} 𝒟(Z) with 𝒟(A⊗B), and :meth:`AlgebraObject.layout`
places the summand of each tree v ∈ O(Z, A⊗B) with n_Z > 0 at a slice of
that vector: Z in sorted-label order, v ascending within Z.  The lax product
𝒟²(ξ ⊙ η), the conjugation 𝒟(A⊗B) → 𝒟(B̄⊗Ā) (one matrix,
:meth:`AlgebraObject.conj_matrix`) and the expectation E_X all read and
write such vectors.  The ground algebra 𝒟(1) and the
square algebras 𝒟(X̄⊗X) are both a :class:`StarAlgebra`, the triple of
:mod:`gns` (structure tensor, star matrix, faithful functional) from which
product, star, GNS form and norms follow.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    CounterexampleFound,
    DegenerateForm,
    LabelMismatch,
    NotAState,
    PositivityFailure,
    SupportTooSmall,
    UnknownLabel,
)
from .gns import GramRoot, form, min_eig
from .skeletal import SkeletalUTC

__all__ = [
    "AlgebraObject",
    "GroundAlgebra",
    "Layout",
    "SquareAlgebra",
    "StarAlgebra",
    "validate_algebra_object",
    "worst_residual",
    "group_algebra_object",
    "trivial_action_object",
    "opposite_object",
    "pp_check",
]


class Layout(NamedTuple):
    """𝒟(A⊗B) ≅ ⊕_{Z,v} 𝒟(Z) as one flat vector of length ``dim``:
    ``slices[(Z, v)]`` holds the summand of v ∈ O(Z, A⊗B) and ``spans[Z]``
    the summands of all of Z's trees."""

    slices: dict
    spans: dict
    dim: int


@dataclass
class AlgebraObject:
    cat: SkeletalUTC
    fibers: dict                    # label -> dimension (0 entries allowed)
    mult: dict                      # (X, Y, Z) -> ndarray (N_XY^Z, n_Z, n_X, n_Y)
    star: dict                      # label -> ndarray (n_Xbar, n_X)
    unit: np.ndarray                # vector in 𝒟(1)
    side: str = "cat"
    meta: dict = field(default_factory=dict)
    # layouts, conjugation matrices and the ground and square algebras,
    # each built once per object under a tuple key
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.unit = np.asarray(self.unit, dtype=complex)
        self.mult = {k: np.asarray(v, dtype=complex) for k, v in self.mult.items()}
        self.star = {k: np.asarray(v, dtype=complex) for k, v in self.star.items()}
        if self.side not in ("cat", "op"):
            raise ValueError(f"side must be 'cat' or 'op', got {self.side!r}")
        ring = self.cat.ring
        for key, arr in self.mult.items():
            N = (isinstance(key, tuple) and len(key) == 3
                 and all(x in ring.index for x in key) and ring.N(*key))
            if not N:
                raise LabelMismatch(f"mult key {key!r} is not a channel "
                                    f"(X, Y, Z) with N_XY^Z > 0")
            X, Y, Z = key
            want = (N, self.n(Z), self.n(X), self.n(Y))
            if arr.shape != want:
                raise ValueError(f"mult[{key!r}] has shape {arr.shape}, "
                                 f"expected {want}")

    def __copy__(self):
        """A shallow copy with its own (empty) cache of derived data, so
        that replacing its ``mult`` or ``star`` is seen by them."""
        return dataclasses.replace(self)

    # -- basic queries -----------------------------------------------------

    @property
    def support(self) -> tuple:
        return tuple(X for X in self.cat.ring.labels if self.fibers.get(X, 0) > 0)

    def n(self, X: str) -> int:
        return int(self.fibers.get(X, 0))

    def scalar(self, z):
        """Category structure scalar, conjugated on the opposite side."""
        return np.conj(z) if self.side == "op" else z

    def mu(self, X, Y, Z) -> np.ndarray:
        """The products of the trees v ∈ O(Z, X⊗Y) stacked over v, shape
        (N_XY^Z, n_Z, n_X, n_Y); zeros where the object has no product."""
        arr = self.mult.get((X, Y, Z))
        if arr is None:
            return np.zeros((self.cat.ring.N(X, Y, Z), self.n(Z), self.n(X), self.n(Y)),
                            dtype=complex)
        return arr

    def j(self, X: str, xi) -> np.ndarray:
        return self.star[X] @ np.conj(np.asarray(xi, dtype=complex))

    def dual(self, X: str) -> str:
        """X̄; raises :class:`UnknownLabel` on a label the category does not have."""
        if X not in self.cat.ring.index:
            raise UnknownLabel(X)
        return self.cat.ring.dual[X]

    # -- elements of 𝒟(A⊗B) as coefficient vectors --------------------------

    def _cached(self, key: tuple, build):
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def layout(self, A: str, B: str) -> Layout:
        """The layout of 𝒟(A⊗B), built on the first call for (A, B); raises
        :class:`UnknownLabel` on a label the category does not have."""
        def build():
            slices, spans, off = {}, {}, 0
            for Z, nv in self.cat.ring.channels(A, B):
                nz = self.n(Z)
                if nz == 0:
                    continue
                spans[Z] = slice(off, off + nv * nz)
                for v in range(nv):
                    slices[(Z, v)] = slice(off, off + nz)
                    off += nz
            return Layout(slices, spans, off)
        return self._cached(("layout", A, B), build)

    def lax_product(self, X: str, Y: str, xi, eta) -> np.ndarray:
        """𝒟²_{X,Y}(ξ ⊙ η) on the layout of 𝒟(X⊗Y)."""
        L = self.layout(X, Y)
        out = np.zeros(L.dim, dtype=complex)
        for Z, sl in L.spans.items():
            out[sl] = np.einsum("vzxy,x,y->vz", self.mu(X, Y, Z), xi, eta).reshape(-1)
        return out

    def conj_matrix(self, A: str, B: str) -> np.ndarray:
        """C with j(t) = C·conj(t) for t ∈ 𝒟(A⊗B), landing in 𝒟(B̄⊗Ā): the
        star of each summand 𝒟(Z) times the conjugate-pair matrix K(A, B, Z)
        of the trees v ∈ O(Z, A⊗B), one Kronecker block per channel."""
        def build():
            cat = self.cat
            src = self.layout(A, B)
            dst = self.layout(self.dual(B), self.dual(A))
            C = np.zeros((dst.dim, src.dim), dtype=complex)
            for Z, sl in src.spans.items():
                Zb = cat.ring.dual[Z]
                if Zb in dst.spans:
                    K = self.scalar(cat.conj_pair_matrix(A, B, Z))
                    C[dst.spans[Zb], sl] = np.kron(K.T, self.star[Z])
            return C
        return self._cached(("conj", A, B), build)

    # -- canonical expectation and inner products ---------------------------

    def expect_weight(self, X: str) -> complex:
        """r/d_X: E_X = d_X⁻¹ 𝒟(R_X) is the unit summand of 𝒟(X̄⊗X) times
        this scalar."""
        unit = self.cat.ring.unit
        if self.n(unit) == 0:
            raise SupportTooSmall([unit])
        return self.scalar(self.cat.conjugate_solution(X).r) / self.cat.d(X)

    def fiber_gram(self, X: str) -> np.ndarray:
        """The 𝒟(1)-valued Gram ⟨eᵢ, eₖ⟩ = E_X(𝒟²(j(eᵢ) ⊙ eₖ)) of the
        standard basis of 𝒟(X), shape (n_X, n_X, n_1): μ(X̄, X → 1)
        contracted with star[X]."""
        mu = self.mu(self.dual(X), X, self.cat.ring.unit)[0]
        return self.expect_weight(X) * np.einsum("zxk,xi->ikz", mu, self.star[X])

    # -- derived algebras ---------------------------------------------------

    # The derived algebras hold a weak proxy of the object that keeps them,
    # so the two form no reference cycle and are freed as soon as the object is.

    def ground(self) -> "GroundAlgebra":
        """𝒟(1), built on the first call; valid while this object lives."""
        return self._cached(("ground",), lambda: GroundAlgebra(weakref.proxy(self)))

    def square_algebra(self, X: str) -> "SquareAlgebra":
        """𝒟(X̄⊗X), built on the first call for X; valid while this object lives."""
        return self._cached(("square", X), lambda: SquareAlgebra(weakref.proxy(self), X))


# ---------------------------------------------------------------------------
# *-algebras 𝒟(1) and 𝒟(X̄⊗X)
# ---------------------------------------------------------------------------

class StarAlgebra:
    """A finite-dimensional *-algebra on coefficient vectors of length
    ``dim``, given by the triple of :mod:`gns`: the structure tensor ``P``
    (e_x e_y = Σ_z P[z,x,y] e_z), the star matrix ``star_mat``
    (x* = star_mat·conj(x)) and a faithful functional ``weights``, whose GNS
    form ``what`` names."""

    dim: int
    what: str

    def mul(self, x, y) -> np.ndarray:
        return np.einsum("zxy,x,y->z", self.P, x, y)

    def star(self, x) -> np.ndarray:
        return self.star_mat @ np.conj(x)

    def left_mult(self, x) -> np.ndarray:
        return np.einsum("zxy,x->zy", self.P, x)

    @cached_property
    def gns(self) -> GramRoot:
        """The factored GNS form of ``weights``."""
        return GramRoot(form(self.P, self.star_mat, self.weights), self.what)

    def op_norm(self, x) -> float:
        return self.gns.op_norm(self.left_mult(x))


class GroundAlgebra(StarAlgebra):
    """𝒟(1) with its canonical trace."""

    def __init__(self, D: AlgebraObject):
        self.D = D
        unit_lbl = D.cat.ring.unit
        self.dim = D.n(unit_lbl)
        if self.dim == 0:
            raise SupportTooSmall([unit_lbl])
        self.P = D.mu(unit_lbl, unit_lbl, unit_lbl)[0]  # (z, x, y)
        self.star_mat = D.star[unit_lbl]
        self.unit = D.unit
        self.what = "ground algebra trace form"

    @cached_property
    def weights(self) -> np.ndarray:
        """The canonical trace on the basis: Tr(L_{eₓ})/Tr(L_1); a zero or
        non-finite Tr(L_1) leaves no trace and raises :class:`DegenerateForm`."""
        t = np.einsum("zxz->x", self.P)
        norm = t @ self.unit
        if norm == 0 or not np.isfinite(norm):
            raise DegenerateForm(self.what, float("nan"))
        return t / norm

    def check_state(self, omega) -> tuple:
        """(ω, eigenvalues of its GNS form) for a state ω given on the basis;
        raises :class:`NotAState` unless ω is unital and positive."""
        omega = np.asarray(omega, dtype=complex)
        if omega.shape != (self.dim,):
            raise NotAState(f"expected functional on a {self.dim}-dim algebra")
        if abs(omega @ self.unit - 1.0) > 1e-10:
            raise NotAState("ω is not unital")
        ev = np.linalg.eigvalsh(form(self.P, self.star_mat, omega))
        if float(ev[0]) < -1e-10:
            raise NotAState(f"ω is not positive: min GNS eigenvalue {ev[0]:.3e}")
        return omega, ev


class SquareAlgebra(StarAlgebra):
    """𝒟(X̄⊗X) on the layout of X̄⊗X, with product
    a·b = 𝒟(id ⊗ R̄_X ⊗ id ∘ -)(𝒟²(a ⊙ b)) and the faithful state tr∘E_X."""

    def __init__(self, D: AlgebraObject, X: str):
        self.D = D
        self.X = X
        ring = D.cat.ring
        self.Xb = D.dual(X)
        missing = [Z for Z, _ in ring.channels(self.Xb, X) if D.fibers.get(Z) is None]
        if missing:
            raise SupportTooSmall(missing)
        self.layout = D.layout(self.Xb, X)
        self.dim = self.layout.dim
        self.what = f"tr∘E_{X} on 𝒟({self.Xb}⊗{X})"

    def unit(self) -> np.ndarray:
        return self.include_ground(self.D.unit)

    def include_ground(self, x) -> np.ndarray:
        """ι : 𝒟(1) → 𝒟(X̄⊗X), ι = 𝒟(R_X*)."""
        out = np.zeros(self.dim, dtype=complex)
        r = self.D.scalar(self.D.cat.conjugate_solution(self.X).r)
        out[self._unit_slice] = r * np.asarray(x)
        return out

    @property
    def _unit_slice(self) -> slice:
        return self.layout.slices[(self.D.cat.ring.unit, 0)]

    @cached_property
    def P(self) -> np.ndarray:
        """Dense P[k, i, j] with (a·b)_k = Σ P[k,i,j] a_i b_j.

        The channels (Z, v) and (W, w) multiply along s ∈ O(U, Z⊗W) into
        (U, u) with the coefficient of their merged tree on (id ⊗ R̄_X ⊗ id)∘u,
        γ = Σ_β r̄ F[X̄,X,X̄;X̄][(Z,v,β),(1,0,0)] conj(F[Z,X̄,X;U][(X̄,β,u),(W,w,s)]).
        """
        D, cat = self.D, self.D.cat
        ring, X, Xb, span = cat.ring, self.X, self.Xb, self.layout.spans
        rbar = cat.conjugate_solution(X).rbar
        P = np.zeros((self.dim,) * 3, dtype=complex)
        for Z in span:
            cup = rbar * cat.fblock(Xb, X, Xb, Xb, Z, ring.unit)[:, :, 0, 0]
            for W in span:
                for U, _ in ring.channels(Z, W):
                    if U not in span:
                        continue
                    gamma = D.scalar(np.einsum("vb,buws->uvws", cup,
                                               cat.fblock(Z, Xb, X, U, Xb, W).conj()))
                    block = np.einsum("uvws,skij->ukviwj", gamma, D.mu(Z, W, U))
                    at = (span[U], span[Z], span[W])
                    P[at] += block.reshape(P[at].shape)
        return P

    @cached_property
    def star_mat(self) -> np.ndarray:
        """The conjugation of 𝒟(X̄⊗X) onto itself, times a phase.

        The conjugate of the unit-channel tree carries the phase of r/r̄ of
        X's conjugate solution (−1 on labels of Frobenius–Schur indicator
        −1); the phase of r̄/r undoes it, so the star fixes the unit."""
        sol = self.D.cat.conjugate_solution(self.X)
        phase = self.D.scalar(sol.rbar / sol.r)
        return self.D.conj_matrix(self.Xb, self.X) * (phase / abs(phase))

    @cached_property
    def weights(self) -> np.ndarray:
        """tr∘E_X on the basis: E_X reads the unit summand."""
        w = np.zeros(self.dim, dtype=complex)
        w[self._unit_slice] = self.D.expect_weight(self.X) * self.D.ground().weights
        return w

    def expect(self, a) -> np.ndarray:
        """E_X(a) ∈ 𝒟(1)."""
        return self.D.expect_weight(self.X) * a[self._unit_slice]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _rand(rng, n: int) -> np.ndarray:
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _fold_max(*vals) -> float:
    """The largest of vals, or NaN if one of them is NaN.  Python's max and
    min keep a NaN only as their first argument, so a residual folded with
    them would drop it and read as passing."""
    return math.nan if any(v != v for v in vals) else max(vals)


def _fold_min(*vals) -> float:
    """The smallest of vals, or NaN if one of them is NaN (see `_fold_max`)."""
    return math.nan if any(v != v for v in vals) else min(vals)


def _associativity(D: AlgebraObject, rng) -> float:
    """The associativity residual: F-recoupling on random fiber vectors
    ξ, η, ζ drawn from ``rng`` for each (X, Y, Z) of the support.

    Both bracketings of ξ⊗η⊗ζ land on the slots of F[X,Y,Z;W], stacked per
    channel (E of X⊗Y on the left, F of Y⊗Z on the right) in the order of
    the table's slot rows, channel first and multiplicities after: the row
    and column order of the block.  The residual is the largest
    |Fᵀθ_L − θ_R| over W, relative to the larger of 1 and both sides."""
    cat, ring, sup, worst = D.cat, D.cat.ring, D.support, 0.0
    for X, Y, Z in itertools.product(sup, repeat=3):
        xi, eta, zeta = _rand(rng, D.n(X)), _rand(rng, D.n(Y)), _rand(rng, D.n(Z))
        # μ(X, Y, E)(ξ, η) stacked over α, per E; μ(Y, Z, F)(η, ζ) over μ, per F
        xy = [(E, D.mu(X, Y, E) @ eta @ xi) for E, _ in ring.channels(X, Y)]
        yz = [(Fc, D.mu(Y, Z, Fc) @ zeta @ eta) for Fc, _ in ring.channels(Y, Z)]
        for W in sup:
            F, nw = cat.fmat(X, Y, Z, W), D.n(W)
            if not F.size:
                continue
            # rows (α, β) of channel E and (μ, ν) of channel F; a channel
            # without a tree to W has no rows
            left = [(D.mu(E, Z, W) @ zeta, t) for E, t in xy]
            right = [(xi @ D.mu(X, Fc, W), t) for Fc, t in yz]
            thL, thR = (np.concatenate([(M @ t.T).transpose(2, 0, 1).reshape(-1, nw)
                                        for M, t in side if len(M)])
                        for side in (left, right))
            scale = max(1.0, abs(thL).max(), abs(thR).max())
            worst = _fold_max(worst, abs(D.scalar(F).T @ thL - thR).max() / scale)
    return float(worst)


def validate_algebra_object(D: AlgebraObject, rng=None, tol: float = 1e-9) -> dict:
    """Residuals of all AlgebraObjectData invariants; raises nothing itself.

    Returns a dict with keys associativity, unitality, star_involution,
    star_monoidality, positivity_floor.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    ring = D.cat.ring
    unit = ring.unit
    sup = D.support
    res = {"associativity": 0.0, "unitality": 0.0, "star_involution": 0.0,
           "star_monoidality": 0.0, "positivity_floor": 0.0}

    # unitality
    for X in sup:
        nx = D.n(X)
        lm = D.mu(unit, X, X)[0]
        rm = D.mu(X, unit, X)[0]
        L = np.einsum("zxy,x->zy", lm, D.unit)
        R = np.einsum("zxy,y->zx", rm, D.unit)
        res["unitality"] = _fold_max(res["unitality"],
                                     float(np.max(np.abs(L - np.eye(nx)))),
                                     float(np.max(np.abs(R - np.eye(nx)))))

    res["associativity"] = _associativity(D, rng)

    # star involution and unit fixing
    for X in sup:
        Xb = ring.dual[X]
        M = D.star[Xb] @ np.conj(D.star[X])
        res["star_involution"] = _fold_max(
            res["star_involution"], float(np.max(np.abs(M - np.eye(D.n(X))))))
    res["star_involution"] = _fold_max(
        res["star_involution"], float(np.max(np.abs(D.j(unit, D.unit) - D.unit))))

    # star monoidality: j(𝒟²(ξ⊙η)) = 𝒟²(j(η)⊙j(ξ)), summand by summand
    for X, Y in itertools.product(sup, repeat=2):
        xi, eta = _rand(rng, D.n(X)), _rand(rng, D.n(Y))
        lhs = D.conj_matrix(X, Y) @ np.conj(D.lax_product(X, Y, xi, eta))
        rhs = D.lax_product(ring.dual[Y], ring.dual[X], D.j(Y, eta), D.j(X, xi))
        for sl in D.layout(ring.dual[Y], ring.dual[X]).slices.values():
            a, b = lhs[sl], rhs[sl]
            scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
            res["star_monoidality"] = _fold_max(
                res["star_monoidality"], float(np.max(np.abs(a - b))) / scale)

    # positivity of the 𝒟(1)-valued Gram on each fiber: the block matrix
    # [L(⟨eᵢ, eₖ⟩)] on the GNS space of 𝒟(1).  A degenerate trace form of
    # 𝒟(1) leaves no GNS space, so positivity fails outright: the floor
    # reads at most −1, or the form's margin to faithfulness if lower (−1
    # for a NaN margin).
    g = D.ground()
    try:
        g.gns
    except DegenerateForm as err:
        res["positivity_floor"] = float(np.fmin(err.margin, -1.0))
        return res
    floor = 0.0
    for X in sup:
        G = D.fiber_gram(X)  # (nx, nx, n1)
        M = g.gns.conj(np.einsum("zxy,ikx->ikzy", g.P, G))
        floor = _fold_min(floor, min_eig(M.transpose(0, 2, 1, 3)
                                         .reshape(len(G) * g.dim, -1)))
    res["positivity_floor"] = floor
    return res


def worst_residual(res: dict) -> tuple:
    """(name, value) of the largest `validate_algebra_object` residual; the
    positivity floor counts by how far it lies below 0."""
    bad = {k: -v if k == "positivity_floor" else v for k, v in res.items()}
    # a NaN residual is the worst of all
    key = max(bad, key=lambda k: math.inf if bad[k] != bad[k] else bad[k])
    return key, _fold_max(bad[key], 0.0)


# ---------------------------------------------------------------------------
# Pimsner–Popa verification
# ---------------------------------------------------------------------------

# relative slack of a norm sandwich ‖E(T)‖ ≤ ‖T‖ ≤ d²·‖E(T)‖ on either side
SANDWICH_SLACK = 1e-8


def pp_check(D: AlgebraObject, X: str, samples: int, seed: int = 0) -> dict:
    """Sample positive T = S*S in 𝒟(X̄⊗X) and verify
    ‖E_X(T)‖ ≤ ‖T‖ ≤ d_X²·‖E_X(T)‖ for each sample, up to
    ``SANDWICH_SLACK``·max(1, ‖T‖)."""
    sq = D.square_algebra(X)
    g = D.ground()
    dsq = D.cat.d(X) ** 2
    rng = np.random.default_rng(seed)
    worst_ratio = 0.0
    worst_lower = 0.0
    violations = 0
    for _ in range(samples):
        s = _rand(rng, sq.dim)
        T = sq.mul(sq.star(s), s)
        nT = sq.op_norm(T)
        nE = g.op_norm(sq.expect(T))
        slack = SANDWICH_SLACK * max(1.0, nT)
        if nE > nT + slack:
            violations += 1
        if nT > dsq * nE + slack:
            violations += 1
        if nE > 0:
            worst_ratio = max(worst_ratio, nT / nE)
        worst_lower = max(worst_lower, nE - nT)
    if violations:
        raise CounterexampleFound(
            f"Pimsner–Popa sandwich failed {violations} times at X={X}"
        )
    return {"X": X, "samples": samples, "seed": seed, "max_ratio": worst_ratio,
            "bound": dsq, "violations": violations}


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def group_algebra_object(cat: SkeletalUTC, side: str = "cat") -> AlgebraObject:
    """The group algebra of a pointed category: 𝒟(g) = ℂ, μ = group law.

    Requires every label invertible (d = 1).
    """
    ring = cat.ring
    for x in ring.labels:
        if abs(cat.d(x) - 1.0) > 1e-9:
            raise PositivityFailure(
                f"no group algebra: label {x} has dimension {cat.d(x):.4f} ≠ 1"
            )
    fibers = {g: 1 for g in ring.labels}
    mult = {}
    for g in ring.labels:
        for h in ring.labels:
            gh = next(iter(cat.ring.fuse(g, h)))
            mult[(g, h, gh)] = np.ones((1, 1, 1, 1), dtype=complex)
    star = {g: np.ones((1, 1), dtype=complex) for g in ring.labels}
    return AlgebraObject(cat=cat, fibers=fibers, mult=mult, star=star,
                         unit=np.ones(1, dtype=complex), side=side,
                         meta={"fixture": "group_algebra"})


def opposite_object(D: AlgebraObject) -> AlgebraObject:
    """The same algebra object regarded over the opposite category.

    All structure coefficients are conjugated along with the side flip, so
    every validation residual is preserved verbatim.
    """
    side = "op" if D.side == "cat" else "cat"
    return AlgebraObject(
        cat=D.cat,
        fibers=dict(D.fibers),
        mult={k: np.conj(v) for k, v in D.mult.items()},
        star={k: np.conj(v) for k, v in D.star.items()},
        unit=np.conj(D.unit),
        side=side,
        meta=dict(D.meta, opposite_of=D.meta.get("fixture")),
    )


def trivial_action_object(cat: SkeletalUTC) -> AlgebraObject:
    """The trivial action of a pointed category on ℂ, as an object over 𝒞^op.

    Requires every label invertible (d = 1); the lax structure is unitary.
    """
    obj = group_algebra_object(cat, side="op")
    obj.meta = {"fixture": "trivial_action"}
    return obj
