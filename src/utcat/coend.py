"""Graded realization |𝔸×𝔹| of a pair of algebra objects and its module ℰ.

𝔸 lives over the opposite category, 𝔹 over the category itself; the graded
piece at X is 𝔸(X)⊗𝔹(X) in the lexicographic product basis.  Elements act on
the truncated ℓ²-module ℰ_S = ⊕_{X∈S} 𝔸(X)⊗𝔹(X) through the triangle action

    ξ₀ ▹ ξ₁ = Σ_v 𝒟(v)(𝒟²(ξ₀ ⊙ ξ₁)),

the canonical expectation is the vacuum matrix coefficient 𝔼(T) = ⟨TΩ, Ω⟩,
and crossed products A ⋊ 𝒟 are the same construction with 𝔸 an action on A.

On each fusion channel X₀⊗X₁ → X₂ the action is one fixed bilinear map, held
as a channel tensor C = Σ_v μ_𝔸(X₀,X₁,X₂,v) ⊗ μ_𝔹(X₀,X₁,X₂,v) of shape
(dim X₂, dim X₀, dim X₁), built once per grade pair and kept for the life of
the instance.  A product is two matrix–vector products per channel, an
acting matrix one contraction per channel, and the acting matrices of the
whole basis one stacked array.  The GNS form of w∘𝔼, for a functional w on
𝔸(1)⊗𝔹(1), is block diagonal with the block at X the :func:`gns.form` of
the unit channel C[X̄,X→1] under the star matrix J_X = 𝔸.star[X] ⊗ 𝔹.star[X].
With w = w_𝔸 ⊗ w_𝔹 the canonical ground traces it is the module Gram, whose
:class:`gns.GramRoot` gives the operator norms; with w = w_𝔸 ⊗ ω it is the
faithfulness kernel of the descended expectation E_ω.

Support truncation has two modes: "strict" raises :class:`SupportOverflow`
when a product has a channel outside S (each time that grade pair is used),
"project" silently cuts it; the GNS forms read only the unit channel and
never overflow.  All norm statements are computed in strict mode on
fusion-closed supports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra_object import AlgebraObject
from .errors import (
    CenterNotTrivial,
    CounterexampleFound,
    LabelMismatch,
    SupportOverflow,
    SupportTooSmall,
)
from .gns import GramRoot, form, min_eig, rank_cut

__all__ = [
    "CoendAlgebra",
    "GradedElement",
    "ModuleVector",
    "crossed_product",
    "descend_expectation",
    "faithfulness_probe",
    "norm_sandwich_check",
    "positivity_check",
]


@dataclass
class ModuleVector:
    """Finitely supported map label → vector in 𝔸(X)⊗𝔹(X)."""

    comps: dict = field(default_factory=dict)

    def __post_init__(self):
        self.comps = {k: np.asarray(v, dtype=complex)
                      for k, v in self.comps.items() if np.any(np.asarray(v))}

    def __add__(self, other):
        out = dict(self.comps)
        for k, v in other.comps.items():
            out[k] = out.get(k, 0.0) + v
        return type(self)(out)

    def scaled(self, c):
        return type(self)({k: c * v for k, v in self.comps.items()})


class GradedElement(ModuleVector):
    """Same storage as a ModuleVector, regarded as an operator on ℰ."""


class CoendAlgebra:
    """|𝔸×𝔹| over a common category, truncated to the support S."""

    def __init__(self, A: AlgebraObject, B: AlgebraObject, S=None,
                 mode: str = "strict"):
        if A.cat is not B.cat and A.cat.ring.labels != B.cat.ring.labels:
            raise LabelMismatch("left and right objects live over different rings")
        if A.side != "op" or B.side != "cat":
            raise LabelMismatch(
                f"expected sides (op, cat), got ({A.side}, {B.side})")
        if mode not in ("strict", "project"):
            raise ValueError(f"mode must be 'strict' or 'project', got {mode!r}")
        self.A, self.B, self.mode = A, B, mode
        self.cat = B.cat
        ring = self.cat.ring
        labels = tuple(S) if S is not None else ring.labels
        # grading only sees labels where both objects have a fiber
        self.support = tuple(X for X in ring.labels
                             if X in labels and A.n(X) > 0 and B.n(X) > 0)
        if ring.unit not in self.support:
            raise SupportTooSmall([ring.unit])
        self.dims = {X: A.n(X) * B.n(X) for X in self.support}
        self.offsets = {}
        off = 0
        for X in self.support:
            self.offsets[X] = slice(off, off + self.dims[X])
            off += self.dims[X]
        self.total_dim = off
        self._gram = None
        self._chan = {}

    # -- distinguished elements ---------------------------------------------

    def vacuum(self) -> ModuleVector:
        return ModuleVector({self.cat.ring.unit:
                             np.kron(self.A.unit, self.B.unit)})

    def unit(self) -> GradedElement:
        return GradedElement(self.vacuum().comps)

    def basis(self):
        """Graded basis elements (X, index) in flattening order."""
        for X in self.support:
            for i in range(self.dims[X]):
                e = np.zeros(self.dims[X])
                e[i] = 1.0
                yield X, i, GradedElement({X: e})

    def random_element(self, rng) -> GradedElement:
        return GradedElement({
            X: rng.normal(size=self.dims[X]) + 1j * rng.normal(size=self.dims[X])
            for X in self.support})

    # -- channel tensors and the triangle action ------------------------------

    def _tensor(self, X0, X1, X2) -> np.ndarray:
        """Σ_v μ_𝔸(X0,X1,X2,v) ⊗ μ_𝔹(X0,X1,X2,v), shape (dim X2, dim X0, dim X1)."""
        A, B = self.A, self.B
        C = np.einsum("vaij,vbkl->abikjl", A.mu_stack(X0, X1, X2), B.mu_stack(X0, X1, X2))
        return C.reshape(A.n(X2) * B.n(X2), A.n(X0) * B.n(X0), -1)

    def _channels(self, X0, X1) -> list:
        """[(X2, C)] over the channels of X0⊗X1 in S, built once per pair.

        Strict mode raises on a channel outside S each time the pair is
        used; project mode drops it.
        """
        out = self._chan.get((X0, X1))
        if out is None:
            out = []
            for X2, _ in self.cat.ring.channels(X0, X1):
                if self.A.n(X2) == 0 or self.B.n(X2) == 0:
                    continue
                if X2 not in self.offsets:
                    if self.mode == "strict":
                        raise SupportOverflow(
                            f"product channel {X2} of {X0}⊠{X1} is outside the support")
                    continue
                out.append((X2, self._tensor(X0, X1, X2)))
            self._chan[(X0, X1)] = out
        return out

    def triangle_act(self, T: GradedElement, xi: ModuleVector) -> ModuleVector:
        out = {}
        for X0, t in T.comps.items():
            for X1, x in xi.comps.items():
                for X2, C in self._channels(X0, X1):
                    out[X2] = out.get(X2, 0.0) + (C @ x) @ t
        return ModuleVector(out)

    def mul(self, T: GradedElement, U: GradedElement) -> GradedElement:
        return GradedElement(self.triangle_act(T, ModuleVector(U.comps)).comps)

    def star(self, T: GradedElement) -> GradedElement:
        ring = self.cat.ring
        out = {}
        for X, t in T.comps.items():
            m = np.asarray(t, dtype=complex).reshape(self.A.n(X), self.B.n(X))
            jm = self.A.star[X] @ np.conj(m) @ self.B.star[X].T
            Xb = ring.dual[X]
            out[Xb] = out.get(Xb, 0.0) + jm.reshape(-1)
        return GradedElement(out)

    def act_matrix(self, T: GradedElement) -> np.ndarray:
        M = np.zeros((self.total_dim, self.total_dim), dtype=complex)
        for X0, t in T.comps.items():
            for X1, sl in self.offsets.items():
                for X2, C in self._channels(X0, X1):
                    M[self.offsets[X2], sl] += t @ C
        return M

    def basis_operators(self) -> np.ndarray:
        """The acting matrices of the graded basis, stacked in basis order."""
        n = self.total_dim
        M = np.zeros((n, n, n), dtype=complex)
        for X0, sl0 in self.offsets.items():
            for X1, sl1 in self.offsets.items():
                for X2, C in self._channels(X0, X1):
                    M[sl0, self.offsets[X2], sl1] = C.transpose(1, 0, 2)
        return M

    # -- inner product on ℰ_S -------------------------------------------------

    @cached_property
    def _ground_traces(self) -> tuple:
        """(w_𝔸, w_𝔹, w = w_𝔸 ⊗ w_𝔹): the canonical ground traces on the
        basis, so that φ(T) = w·𝔼(T)."""
        wA, wB = self.A.ground().weights, self.B.ground().weights
        return wA, wB, np.kron(wA, wB)

    @cached_property
    def _ground_regular(self) -> tuple:
        """Per side, the stack of GNS-conjugated left-regular matrices
        L(eᵢ) of the ground algebra."""
        return tuple(g.gns.conj(g.P.transpose(1, 0, 2))
                     for g in (self.A.ground(), self.B.ground()))

    def _form(self, w) -> np.ndarray:
        """GNS form of w∘𝔼 on the graded basis, for w on 𝔸(1)⊗𝔹(1).

        Star maps grade X to X̄ and X̄⊗Y hits 1 only for Y = X, so the form
        is block diagonal in the grading, with the block at X built from the
        unit channel C[X̄,X→1] and the star matrix J_X = 𝔸.star[X] ⊗ 𝔹.star[X].
        """
        ring = self.cat.ring
        G = np.zeros((self.total_dim, self.total_dim), dtype=complex)
        for X, sl in self.offsets.items():
            G[sl, sl] = form(self._tensor(ring.dual[X], X, ring.unit),
                             np.kron(self.A.star[X], self.B.star[X]), w)
        return G

    def gram(self) -> np.ndarray:
        """GNS form of φ = (tr⊗tr)∘𝔼 on the graded basis: G[i,j] = φ(eᵢ*eⱼ);
        adjointness of the action under the GNS conjugation is automatic for
        this inner product."""
        if self._gram is None:
            self._gram = self._form(self._ground_traces[2])
        return self._gram

    @cached_property
    def gns(self) -> GramRoot:
        """The factored Gram of the module inner product."""
        return GramRoot(self.gram(), "module inner product on ℰ_S")

    def flatten(self, xi: ModuleVector) -> np.ndarray:
        out = np.zeros(self.total_dim, dtype=complex)
        for X, v in xi.comps.items():
            if X not in self.offsets:
                raise SupportOverflow(f"component {X} outside the support")
            out[self.offsets[X]] = v
        return out

    def module_norm(self, xi: ModuleVector) -> float:
        v = self.flatten(xi)
        return float(np.sqrt(max((v.conj() @ self.gram() @ v).real, 0.0)))

    def op_norm(self, T: GradedElement) -> float:
        return self.gns.op_norm(self.act_matrix(T))

    # -- canonical expectation --------------------------------------------------

    def canonical_expectation(self, T: GradedElement) -> np.ndarray:
        """𝔼(T) = ⟨TΩ, Ω⟩: the vacuum-graded component of TΩ ∈ 𝔸(1)⊗𝔹(1)."""
        unit = self.cat.ring.unit
        comp = self.triangle_act(T, self.vacuum()).comps.get(unit)
        return np.zeros(self.dims[unit], dtype=complex) if comp is None else comp


# ---------------------------------------------------------------------------
# theorem-level checks
# ---------------------------------------------------------------------------

def ground_op_norm(co: CoendAlgebra, m: np.ndarray) -> float:
    """C*-norm of m ∈ 𝔸(1)⊗𝔹(1) through the tensor left-regular rep."""
    LA, LB = co._ground_regular
    a, b = LA.shape[1], LB.shape[1]
    m = np.asarray(m, dtype=complex).reshape(a, b)
    # Σᵢₖ m[i,k]·L_𝔸(eᵢ) ⊗ L_𝔹(eₖ) as two products, then the Kronecker layout
    acc = LA.reshape(a, a * a).T @ (m @ LB.reshape(b, b * b))
    acc = acc.reshape(a, a, b, b).transpose(0, 2, 1, 3).reshape(a * b, a * b)
    return float(np.linalg.norm(acc, 2))


def norm_sandwich_check(co: CoendAlgebra, T: GradedElement,
                        slack: float = 1e-8) -> dict:
    """‖TΩ‖ ≤ ‖T‖ ≤ d_X²‖TΩ‖ for homogeneous T of grade X.

    ‖TΩ‖ is the Hilbert-module norm ‖𝔼(T*T)‖^{1/2}, with the C*-norm of the
    ground algebra 𝔸(1)⊗𝔹(1) on the inside, and ‖T‖ the operator norm in
    the GNS representation of the canonical state.  On fusion-closed strict
    supports the truncation is a genuine submodule, so both inequalities
    hold exactly; the scalar vacuum norm φ(T*T)^{1/2} is reported alongside.
    """
    if co.mode != "strict":
        raise SupportOverflow("norm sandwich requires strict mode")
    grades = list(T.comps)
    if len(grades) != 1:
        raise LabelMismatch(f"T must be homogeneous, has grades {grades}")
    X = grades[0]
    d = co.cat.d(X)
    ete = co.canonical_expectation(co.mul(co.star(T), T))
    vac_norm = float(np.sqrt(max(ground_op_norm(co, ete), 0.0)))
    scalar_norm = co.module_norm(co.triangle_act(T, co.vacuum()))
    op_norm = co.op_norm(T)
    ok_left = vac_norm <= op_norm + slack * max(1.0, op_norm)
    ok_right = op_norm <= d * d * vac_norm + slack * max(1.0, op_norm)
    return {"grade": X, "vacuum_norm": vac_norm, "scalar_vacuum_norm":
            scalar_norm, "op_norm": op_norm, "bound": d * d,
            "left_ok": bool(ok_left), "right_ok": bool(ok_right),
            "left_margin": op_norm - vac_norm,
            "right_margin": d * d * vac_norm - op_norm}


def positivity_check(co: CoendAlgebra, X: str, terms: list,
                     floor: float = 1e-10) -> tuple:
    """Σᵢⱼ 𝔸²(j(aᵢ)⊙aⱼ) ⊗ 𝔹²(j(bᵢ)⊙bⱼ) is positive in the square algebras.

    ``terms`` is a list of (a, b) vector pairs in 𝔸(X)×𝔹(X).  Returns
    (is_positive, min_eigenvalue) from the GNS matrices of the squares.
    """
    sqA = co.A.square_algebra(X)
    sqB = co.B.square_algebra(X)
    Xb = co.cat.ring.dual[X]
    acc = np.zeros((sqA.dim * sqB.dim, sqA.dim * sqB.dim), dtype=complex)
    for a_i, b_i in terms:
        for a_j, b_j in terms:
            ea = co.A.lax_product(Xb, X, co.A.j(X, a_i), a_j)
            eb = co.B.lax_product(Xb, X, co.B.j(X, b_i), b_j)
            acc += np.kron(sqA.gns.conj(sqA.left_mult(ea)),
                           sqB.gns.conj(sqB.left_mult(eb)))
    ev = min_eig(acc)
    return ev >= -floor, ev


def _probe_grams(co: CoendAlgebra) -> tuple:
    """Vacuum columns V (column i is eᵢΩ), the vacuum Gram V*GV and the
    normalized Hilbert–Schmidt Gram Tr(Mᵢ*Mₖ)/dim of the GNS-conjugated
    acting matrices Mᵢ = S·act(eᵢ)·S⁻¹ of the graded basis."""
    ops = co.basis_operators()
    V = (ops @ co.flatten(co.vacuum())).T
    # co.gns.conj by hand: Mᵢ overwrites ops and conj(Mᵢ) the temporary, so
    # at most two stacks of N³ entries are alive at once
    tmp = co.gns.half @ ops
    P = np.matmul(tmp, co.gns.inv_half, out=ops).reshape(len(ops), -1)
    gram_op = np.conj(P, out=tmp.reshape(P.shape)) @ P.T / co.total_dim
    return V, V.conj().T @ co.gram() @ V, gram_op


def faithfulness_probe(co: CoendAlgebra, trials: int, seed: int = 0) -> dict:
    """𝔼(T*T) ≠ 0 for random nonzero T, plus the quantitative Gram bound.

    The kernel bound compares λ_min of the vacuum Gram ⟨T_kΩ, T_lΩ⟩ against
    (max d over S)⁻⁴ times λ_min of the normalized Hilbert–Schmidt Gram of
    the acting matrices, the constant coming from the norm sandwich.  The
    comparison is tight when the canonical trace weights the ground algebra
    uniformly; strongly skewed traces can shrink the vacuum Gram below it.
    """
    rng = np.random.default_rng(seed)
    failures = 0
    min_expect = np.inf
    for _ in range(trials):
        T = co.random_element(rng)
        E = co.canonical_expectation(co.mul(co.star(T), T))
        val = float(np.sum(np.abs(E)))
        min_expect = min(min_expect, val)
        if val < 1e-12:
            failures += 1
    if failures:
        raise CounterexampleFound(
            f"canonical expectation vanished on {failures} nonzero samples")

    # quantitative kernel bound on the graded basis
    V, gram_vac, gram_op = _probe_grams(co)
    lo_vac, lo_op = min_eig(gram_vac), min_eig(gram_op)
    dmax = max(co.cat.d(X) for X in co.support)
    bound_ok = lo_vac >= lo_op / dmax**4 - 1e-10
    if not bound_ok:
        raise CounterexampleFound(
            f"vacuum Gram floor {lo_vac:.3e} below sandwich bound "
            f"{lo_op / dmax**4:.3e}")
    return {"trials": trials, "seed": seed, "failures": failures,
            "min_expectation_mass": float(min_expect),
            "vacuum_gram_floor": lo_vac, "operator_gram_floor": lo_op,
            "bound_constant": dmax**-4,
            "bound_margin": lo_vac - lo_op * dmax**-4,
            "cyclic_rank": int(np.linalg.matrix_rank(V, tol=1e-10)),
            "expected_rank": co.total_dim}


# ---------------------------------------------------------------------------
# crossed products and expectation descent
# ---------------------------------------------------------------------------

def crossed_product(A: AlgebraObject, D: AlgebraObject, S=None,
                    mode: str = "strict") -> CoendAlgebra:
    """A ⋊ 𝒟: the coend realization of an action 𝔸 against the object 𝒟."""
    return CoendAlgebra(A, D, S=S, mode=mode)


def descend_expectation(co: CoendAlgebra, omega: np.ndarray):
    """E_ω = (id ⊗ ω) ∘ 𝔼 : A ⋊ 𝒟 → A for a state ω on 𝒟(1).

    ``omega`` is the coefficient vector of the functional on the basis of
    𝒟(1).  Returns (E_ω as a callable GradedElement → vector in 𝔸(1),
    report dict with faithfulness of ω and of E_ω).  Both verdicts and
    `gns_rank` come from :func:`gns.rank_cut` (faithful: nothing dropped);
    `gns_cut_gap` is the (smallest kept, largest dropped) eigenvalue of ω's
    GNS form, or None when nothing was dropped.
    """
    ground = co.B.ground()
    omega, _ = ground.check_state(omega)
    cut = rank_cut(form(ground.P, ground.star_mat, omega))
    if not co.A.meta.get("center_trivial", False):
        raise CenterNotTrivial(
            "expectation descent needs 𝔸(1) with trivial center "
            "(declared by fixture metadata)")

    nA1, nB1 = co.A.n(co.cat.ring.unit), co.B.n(co.cat.ring.unit)

    def E_omega(T: GradedElement) -> np.ndarray:
        m = co.canonical_expectation(T).reshape(nA1, nB1)
        return m @ omega

    # faithfulness of E_ω through the Gram kernel on the graded basis:
    # K[i,j] = tr_A(E_ω(eᵢ*eⱼ)) is PSD and degenerate iff E_ω has a kernel
    kernel = rank_cut(co._form(np.kron(co._ground_traces[0], omega)))
    report = {"omega_faithful": cut.gap is None,
              "E_omega_faithful": kernel.gap is None,
              "gns_rank": cut.rank, "gns_cut_gap": cut.gap}
    return E_omega, report
