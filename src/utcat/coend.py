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
whole basis one stacked array.  The Gram block at X is J_Xᵀ(w·C[X̄,X→1]) with
J_X = 𝔸.star[X] ⊗ 𝔹.star[X] and w = w_𝔸 ⊗ w_𝔹 the canonical ground traces;
one eigendecomposition of the Gram gives both G^{1/2} and G^{-1/2}, so no
operator norm inverts a matrix.

Support truncation has two modes: "strict" raises :class:`SupportOverflow`
when a product has a channel outside S (each time that grade pair is used),
"project" silently cuts it.  All norm statements are computed in strict mode
on fusion-closed supports.
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
    NotAState,
    SolveFailed,
    SupportOverflow,
    SupportTooSmall,
)

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
        vs = range(self.cat.ring.N(X0, X1, X2))
        C = np.einsum("vaij,vbkl->abikjl",
                      np.array([A.mu(X0, X1, X2, v) for v in vs]),
                      np.array([B.mu(X0, X1, X2, v) for v in vs]))
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

    def state(self, T: GradedElement) -> complex:
        """φ(T) = (tr⊗tr)(𝔼(T)) for the canonical traces on 𝔸(1), 𝔹(1)."""
        return complex(self._ground_traces[2] @ self.canonical_expectation(T))

    @cached_property
    def _ground_traces(self) -> tuple:
        """(w_𝔸, w_𝔹, w = w_𝔸 ⊗ w_𝔹): the canonical ground traces on the
        basis, so that φ(T) = w·𝔼(T)."""
        wA, wB = (np.array([g.trace(e) for e in np.eye(g.dim)])
                  for g in (self.A.ground(), self.B.ground()))
        return wA, wB, np.kron(wA, wB)

    @cached_property
    def _ground_regular(self) -> tuple:
        """Per side, the stack S·L(eᵢ)·S⁻¹ of GNS-conjugated left-regular
        matrices of the ground algebra."""
        return tuple(g._gns_transform() @ g.P.transpose(1, 0, 2)
                     @ np.linalg.inv(g._gns_transform())
                     for g in (self.A.ground(), self.B.ground()))

    def gram(self) -> np.ndarray:
        """GNS form of φ = (tr⊗tr)∘𝔼 on the graded basis: G[i,j] = φ(eᵢ*eⱼ).

        Star maps grade X to X̄ and X̄⊗Y hits 1 only for Y = X, so G is
        block diagonal in the grading, with block J_Xᵀ(w·C[X̄,X→1]) for the
        star matrix J_X = 𝔸.star[X] ⊗ 𝔹.star[X]; adjointness of the action
        under the GNS conjugation is automatic for this inner product.
        """
        if self._gram is None:
            ring = self.cat.ring
            G = np.zeros((self.total_dim, self.total_dim), dtype=complex)
            for X, sl in self.offsets.items():
                J = np.kron(self.A.star[X], self.B.star[X])
                C = self._tensor(ring.dual[X], X, ring.unit)
                G[sl, sl] = J.T @ np.tensordot(self._ground_traces[2], C, 1)
            self._gram = (G + G.conj().T) / 2.0
        return self._gram

    @cached_property
    def _gns(self) -> tuple:
        """(G^{1/2}, G^{-1/2}) from one eigendecomposition of the Gram."""
        w, U = np.linalg.eigh(self.gram())
        if np.min(w) <= 1e-12 * max(float(np.max(w)), 1.0):
            raise SolveFailed("module inner product on ℰ_S is degenerate")
        r = np.sqrt(w)
        return (U * r) @ U.conj().T, (U / r) @ U.conj().T

    def _gns_transform(self) -> np.ndarray:
        return self._gns[0]

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
        S, Sinv = self._gns
        return float(np.linalg.norm(S @ self.act_matrix(T) @ Sinv, 2))

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
    SA, SB = sqA._gns_transform(), sqB._gns_transform()
    SAi, SBi = np.linalg.inv(SA), np.linalg.inv(SB)
    Xb = co.cat.ring.dual[X]
    acc = np.zeros((sqA.dim * sqB.dim, sqA.dim * sqB.dim), dtype=complex)
    for a_i, b_i in terms:
        for a_j, b_j in terms:
            ea = sqA.element(co.A.lax_product(Xb, X, co.A.j(X, a_i), a_j))
            eb = sqB.element(co.B.lax_product(Xb, X, co.B.j(X, b_i), b_j))
            MA = SA @ sqA.left_mult_matrix(ea) @ SAi
            MB = SB @ sqB.left_mult_matrix(eb) @ SBi
            acc += np.kron(MA, MB)
    acc = (acc + acc.conj().T) / 2.0
    ev = float(np.min(np.linalg.eigvalsh(acc)))
    return ev >= -floor, ev


def _probe_grams(co: CoendAlgebra) -> tuple:
    """Vacuum columns V (column i is eᵢΩ), the vacuum Gram V*GV and the
    normalized Hilbert–Schmidt Gram Tr(Mᵢ*Mₖ)/dim of the GNS-conjugated
    acting matrices Mᵢ = S·act(eᵢ)·S⁻¹ of the graded basis."""
    S, Sinv = co._gns
    ops = co.basis_operators()
    V = (ops @ co.flatten(co.vacuum())).T
    # Mᵢ overwrites ops and conj(Mᵢ) the temporary, so at most two stacks
    # of N³ entries are alive at once
    tmp = S @ ops
    P = np.matmul(tmp, Sinv, out=ops).reshape(len(ops), -1)
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
    lo_vac = float(np.min(np.linalg.eigvalsh((gram_vac + gram_vac.conj().T) / 2)))
    lo_op = float(np.min(np.linalg.eigvalsh((gram_op + gram_op.conj().T) / 2)))
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
    co = CoendAlgebra(A, D, S=S, mode=mode)
    co.alias = "crossed_product"
    return co


def descend_expectation(co: CoendAlgebra, omega: np.ndarray):
    """E_ω = (id ⊗ ω) ∘ 𝔼 : A ⋊ 𝒟 → A for a state ω on 𝒟(1).

    ``omega`` is the coefficient vector of the functional on the basis of
    𝒟(1).  Returns (E_ω as a callable GradedElement → vector in 𝔸(1),
    report dict with faithfulness of ω and of E_ω).
    """
    gb = co.B.ground()
    omega = np.asarray(omega, dtype=complex)
    if omega.shape != (gb.dim,):
        raise NotAState(f"expected functional on a {gb.dim}-dim algebra")
    if abs(omega @ co.B.unit - 1.0) > 1e-10:
        raise NotAState("ω is not unital")
    # positivity and faithfulness through the GNS form ω(e_i* e_j)
    Q = np.array([[omega @ gb.mul(gb.star(np.eye(gb.dim)[i]), np.eye(gb.dim)[k])
                   for k in range(gb.dim)] for i in range(gb.dim)])
    Q = (Q + Q.conj().T) / 2.0
    ev = np.linalg.eigvalsh(Q)
    if float(np.min(ev)) < -1e-10:
        raise NotAState(f"ω is not positive: min GNS eigenvalue {np.min(ev):.3e}")
    omega_faithful = bool(np.min(ev) > 1e-10 * max(float(np.max(ev)), 1.0))
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
    wA = co._ground_traces[0]
    els = [(T, co.star(T)) for _, _, T in co.basis()]
    K = np.array([[wA @ E_omega(co.mul(si, tj))
                   for tj, _ in els] for _, si in els])
    K = (K + K.conj().T) / 2.0
    kev = np.linalg.eigvalsh(K)
    e_faithful = bool(np.min(kev) > 1e-10 * max(float(np.max(kev)), 1.0))
    report = {"omega_faithful": omega_faithful, "E_omega_faithful": e_faithful,
              "gns_rank": int(np.sum(ev > 1e-10 * max(float(np.max(ev)), 1.0)))}
    return E_omega, report
