"""Graded realization |𝔸×𝔹| of a pair of algebra objects and its module ℰ.

𝔸 lives over the opposite category, 𝔹 over the category itself; the graded
piece at X is 𝔸(X)⊗𝔹(X) in the lexicographic product basis.  Elements act on
the truncated ℓ²-module ℰ_S = ⊕_{X∈S} 𝔸(X)⊗𝔹(X) through the triangle action

    ξ₀ ▹ ξ₁ = Σ_v 𝒟(v)(𝒟²(ξ₀ ⊙ ξ₁)),

the canonical expectation is the vacuum matrix coefficient 𝔼(T) = ⟨TΩ, Ω⟩,
and a crossed product A ⋊ 𝒟 is a :class:`CoendAlgebra` with 𝔸 an action on A.

Operators and module vectors are one class, :class:`GradedElement`, with
one coefficient vector per grade; a module vector is an element on the
grades of S, and the triangle action is the product.  Flattened, module
vectors run over the grades of S, in label order.  Operators run over
every grade where both objects have a fiber: the grades of S first, in the
same order as the module, then the others, which a star or a left factor
can reach outside a truncated S.  On first use the instance builds, and keeps:

- the action tensor M of shape (N, n, n), n = dim ℰ_S: M[i] is the matrix
  on ℰ_S of basis element i, the channel tensors
  Σ_v μ_𝔸(X₀,X₁,X₂,v) ⊗ μ_𝔹(X₀,X₁,X₂,v) of every X₀⊗X₁ → X₂ with X₁, X₂
  in S placed in one array;
- the flat star matrix J (eᵢ* = Σ_a J[a,i] e_a, blocks 𝔸.star[X] ⊗
  𝔹.star[X]), the vacuum columns M·Ω and, in strict mode, the pairs
  (X₀, X₁) with a product channel outside S;
- on the first norm, the GNS conjugate Q = S·M·S⁻¹ with S = G^{1/2},
  computed per grade block since the Gram G is block diagonal by grade.

A product, an acting matrix, a star and the canonical expectation are one
or two contractions with these arrays, and an operator norm is the largest
singular value of one contraction with Q.  The GNS form of w∘𝔼, for a
functional w on 𝔸(1)⊗𝔹(1), is the :func:`gns.form` of the unit channel of M
under J: with w = w_𝔸 ⊗ w_𝔹 the canonical ground traces it is the module
Gram, whose :class:`gns.GramRoot` gives S; with w = w_𝔸 ⊗ ω it is the
faithfulness kernel of the descended expectation E_ω.

Support truncation has two modes: "strict" raises :class:`SupportOverflow`
each time a product uses a pair of grades with a channel outside S,
"project" silently cuts that channel; the GNS forms read only the unit
channel and never overflow.  All norm statements are computed in strict
mode on fusion-closed supports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algebra_object import SANDWICH_SLACK, AlgebraObject
from .errors import (
    CenterNotTrivial,
    CounterexampleFound,
    LabelMismatch,
    SupportOverflow,
    SupportTooSmall,
    UnknownLabel,
)
from .gns import GramRoot, form, min_eig, rank_cut, spectral_norm

__all__ = [
    "CoendAlgebra",
    "GradedElement",
    "descend_expectation",
    "faithfulness_probe",
    "norm_sandwich_check",
    "positivity_check",
]


@dataclass
class GradedElement:
    """Finitely supported map label → vector in 𝔸(X)⊗𝔹(X): an operator on
    ℰ, or, on the grades of S, a module vector."""

    comps: dict = field(default_factory=dict)

    def __post_init__(self):
        comps = ((k, np.asarray(v, dtype=complex)) for k, v in self.comps.items())
        self.comps = {k: v for k, v in comps if v.any()}


class _Action(NamedTuple):
    """The arrays every product, star and expectation contracts with."""

    M: np.ndarray       # (N, n, n): M[i] is the matrix on ℰ_S of eᵢ
    J: np.ndarray       # (N, N): eᵢ* = Σ_a J[a,i] e_a
    vac: np.ndarray     # (N, n): row i is eᵢΩ
    overflow: dict      # strict mode: (X₀, X₁) -> a channel of X₀⊗X₁ outside S
    blocks: list        # (operator, row, column) slices of each channel block


# operators per matrix product when Q and the Hilbert–Schmidt Gram are built,
# which bounds their temporaries
_ROW_BLOCK = 8


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
        grades = tuple(X for X in ring.labels if A.n(X) > 0 and B.n(X) > 0)
        self.support = tuple(X for X in grades if X in labels)
        if ring.unit not in self.support:
            raise SupportTooSmall([ring.unit])
        # operator slices: the support in module order, then the other grades
        self.dims, self.offsets, self._op_slices = {}, {}, {}
        off = 0
        for X in self.support + tuple(X for X in grades if X not in self.support):
            d = A.n(X) * B.n(X)
            self._op_slices[X] = slice(off, off + d)
            if X in self.support:
                self.dims[X], self.offsets[X] = d, self._op_slices[X]
                self.total_dim = off + d
            off += d
        self._op_dim = off
        self._gram = None

    # -- distinguished elements ---------------------------------------------

    @cached_property
    def _omega(self) -> np.ndarray:
        """The vacuum Ω = 1_𝔸 ⊗ 1_𝔹 on the module basis."""
        out = np.zeros(self.total_dim, dtype=complex)
        out[self.offsets[self.cat.ring.unit]] = np.outer(self.A.unit, self.B.unit).ravel()
        out.flags.writeable = False
        return out

    def random_element(self, rng) -> GradedElement:
        return GradedElement({
            X: rng.normal(size=self.dims[X]) + 1j * rng.normal(size=self.dims[X])
            for X in self.support})

    # -- the action tensor --------------------------------------------------

    @cached_property
    def _action(self) -> _Action:
        """Every channel block of M, read-only; strict mode records the
        overflowing pairs here and raises only when one is used."""
        A, B, ring = self.A, self.B, self.cat.ring
        N, n = self._op_dim, self.total_dim
        M = np.zeros((N, n, n), dtype=complex)
        J = np.zeros((N, N), dtype=complex)
        overflow, blocks = {}, []
        for X0, sl0 in self._op_slices.items():
            J[self._op_slices[ring.dual[X0]], sl0] = np.einsum(
                "ij,kl->ikjl", A.star[X0], B.star[X0]).reshape(sl0.stop - sl0.start, -1)
            for X1, sl1 in self.offsets.items():
                for X2, _ in ring.channels(X0, X1):
                    if A.n(X2) == 0 or B.n(X2) == 0:
                        continue
                    if X2 not in self.offsets:
                        if self.mode == "strict":
                            overflow.setdefault((X0, X1), X2)
                        continue
                    blocks.append((sl0, self.offsets[X2], sl1))
                    muA, muB = A.mu(X0, X1, X2), B.mu(X0, X1, X2)
                    # splitting the axes of a block gives a view, so the
                    # channel tensor is written into M without a temporary
                    np.einsum("vaij,vbkl->ikabjl", muA, muB, out=M[blocks[-1]].reshape(
                        muA.shape[2], muB.shape[2], muA.shape[1], muB.shape[1],
                        muA.shape[3], muB.shape[3]))
        vac = M @ self._omega
        for a in (M, J, vac):
            a.flags.writeable = False
        return _Action(M, J, vac, overflow, blocks)

    def _guard(self, left, right) -> None:
        """Strict mode: raise when some X₀ ∈ left, X₁ ∈ right has a product
        channel outside S; checked on every use of the pair."""
        overflow = self._action.overflow
        if overflow:
            for X0 in left:
                for X1 in right:
                    X2 = overflow.get((X0, X1))
                    if X2 is not None:
                        raise SupportOverflow(
                            f"product channel {X2} of {X0}⊠{X1} is outside the support")

    def _outside(self, X: str, where: str) -> Exception:
        """The error for a component at a label X that ``where`` lacks."""
        if X not in self.cat.ring.index:
            return UnknownLabel(X)
        return SupportOverflow(f"component {X} outside the {where}")

    def _op_slice(self, X: str) -> slice:
        sl = self._op_slices.get(X)
        if sl is None:
            raise self._outside(X, "grading")
        return sl

    def _split(self, v: np.ndarray, slices: dict) -> GradedElement:
        """The graded element with coefficients v on ``slices``."""
        starts = [sl.start for sl in slices.values()]
        nonzero = np.logical_or.reduceat(v != 0, starts)
        return GradedElement({X: v[sl] for (X, sl), keep
                              in zip(slices.items(), nonzero) if keep})

    def _combine(self, T: GradedElement, stack: np.ndarray) -> np.ndarray:
        """Σᵢ Tᵢ·stack[i], read only on the grades of T."""
        out = np.zeros(stack[0].size, dtype=complex)
        for X, v in T.comps.items():
            out += v @ stack[self._op_slice(X)].reshape(len(v), -1)
        return out.reshape(stack.shape[1:])

    # -- products, star, acting matrices --------------------------------------

    def mul(self, T: GradedElement, U: GradedElement) -> GradedElement:
        """T·U, which is also the triangle action T ▹ U of T on the module
        vector U."""
        self._guard(T.comps, U.comps)
        return self._split(self._combine(T, self._action.M) @ self.flatten(U),
                           self.offsets)

    def star(self, T: GradedElement) -> GradedElement:
        J = self._action.J
        out = np.zeros(self._op_dim, dtype=complex)
        for X, v in T.comps.items():
            out += J[:, self._op_slice(X)] @ np.conj(v)
        return self._split(out, self._op_slices)

    def act_matrix(self, T: GradedElement) -> np.ndarray:
        self._guard(T.comps, self.support)
        return self._combine(T, self._action.M)

    def basis_operators(self) -> np.ndarray:
        """The acting matrices of the graded basis, stacked in basis order
        (a read-only view of the action tensor)."""
        self._guard(self.support, self.support)
        return self._action.M[:self.total_dim]

    # -- inner product on ℰ_S -------------------------------------------------

    @cached_property
    def _ground_traces(self) -> tuple:
        """(w_𝔸, w_𝔹, w = w_𝔸 ⊗ w_𝔹): the canonical ground traces on the
        basis, so that φ(T) = w·𝔼(T)."""
        wA, wB = self.A.ground().weights, self.B.ground().weights
        return wA, wB, np.outer(wA, wB).ravel()

    @cached_property
    def _ground_regular(self) -> tuple:
        """Per side, the stack of GNS-conjugated left-regular matrices
        L(eᵢ) of the ground algebra."""
        return tuple(g.gns.conj(g.P.transpose(1, 0, 2))
                     for g in (self.A.ground(), self.B.ground()))

    def _form(self, w) -> np.ndarray:
        """GNS form of w∘𝔼 on the graded basis, for w on 𝔸(1)⊗𝔹(1).

        w(eᵢ*eₖ) reads only the unit channel of M under the star matrix J;
        star maps grade X to X̄ and X̄⊗Y hits 1 only for Y = X, so the form
        is block diagonal in the grading.
        """
        a, u = self._action, self.offsets[self.cat.ring.unit]
        return form(a.M[:, u].transpose(1, 0, 2), a.J[:, :self.total_dim], w)

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

    @cached_property
    def _conj(self) -> np.ndarray:
        """Q = S·M·S⁻¹ with S = G^{1/2}.  G is block diagonal by grade, so
        each channel block of M is conjugated by two diagonal blocks of S,
        _ROW_BLOCK operators at a time."""
        M, S, Si = self._action.M, self.gns.half, self.gns.inv_half
        Q = np.zeros_like(M)
        for o, r, c in self._action.blocks:
            for k in range(o.start, o.stop, _ROW_BLOCK):
                ok = slice(k, min(k + _ROW_BLOCK, o.stop))
                np.matmul(S[r, r], np.tensordot(M[ok, r, c], Si[c, c], 1),
                          out=Q[ok, r, c])
        Q.flags.writeable = False
        return Q

    def flatten(self, xi: GradedElement) -> np.ndarray:
        out = np.zeros(self.total_dim, dtype=complex)
        for X, v in xi.comps.items():
            if X not in self.offsets:
                raise self._outside(X, "support")
            out[self.offsets[X]] = v
        return out

    def op_norm(self, T: GradedElement) -> float:
        self._guard(T.comps, self.support)
        return spectral_norm(self._combine(T, self._conj))

    # -- canonical expectation --------------------------------------------------

    def canonical_expectation(self, T: GradedElement) -> np.ndarray:
        """𝔼(T) = ⟨TΩ, Ω⟩: the vacuum-graded component of TΩ ∈ 𝔸(1)⊗𝔹(1)."""
        unit = self.cat.ring.unit
        self._guard(T.comps, (unit,))
        return self._combine(T, self._action.vac[:, self.offsets[unit]])

    def _expect_product(self, s: np.ndarray, t: np.ndarray, rows=slice(None),
                        cols=slice(None)) -> np.ndarray:
        """𝔼(S·T) for S with coefficients s on the operator rows ``rows`` and
        T with coefficients t on the module columns ``cols``: only the unit
        grade of S·T reaches the vacuum."""
        a, u = self._action, self.offsets[self.cat.ring.unit]
        return (s @ (a.M[rows, u, cols] @ t)) @ a.vac[u, u]


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
    return spectral_norm(acc)


def norm_sandwich_check(co: CoendAlgebra, T: GradedElement) -> dict:
    """‖TΩ‖ ≤ ‖T‖ ≤ d_X²‖TΩ‖ for homogeneous T of grade X, up to
    ``SANDWICH_SLACK``·max(1, ‖T‖).

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
    Xb, d = co.cat.ring.dual[X], co.cat.d(X)
    t = co.flatten(T)[co.offsets[X]]
    co._guard((Xb,), (X,))
    a, rows, cols = co._action, co._op_slices[Xb], co.offsets[X]
    # T* has the coefficients J·conj(t) on the operator rows of X̄
    ete = co._expect_product(a.J[rows, cols] @ np.conj(t), t, rows, cols)
    vac_norm = float(np.sqrt(max(ground_op_norm(co, ete), 0.0)))
    v = t @ a.vac[cols]  # TΩ
    scalar_norm = float(np.sqrt(max((v.conj() @ co.gram() @ v).real, 0.0)))
    op_norm = co.op_norm(T)
    slack = SANDWICH_SLACK * max(1.0, op_norm)
    ok_left = vac_norm <= op_norm + slack
    ok_right = op_norm <= d * d * vac_norm + slack
    return {"grade": X, "vacuum_norm": vac_norm, "scalar_vacuum_norm":
            scalar_norm, "op_norm": op_norm, "bound": d * d,
            "left_ok": bool(ok_left), "right_ok": bool(ok_right),
            "left_margin": op_norm - vac_norm,
            "right_margin": d * d * vac_norm - op_norm}


def positivity_check(co: CoendAlgebra, X: str, terms: list) -> tuple:
    """Σᵢⱼ 𝔸²(j(aᵢ)⊙aⱼ) ⊗ 𝔹²(j(bᵢ)⊙bⱼ) is positive in the square algebras.

    ``terms`` is a list of (a, b) vector pairs in 𝔸(X)×𝔹(X).  Returns
    (is_positive, min_eigenvalue) from the GNS matrices of the squares;
    positive means a least eigenvalue ≥ −1e-10.
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
    return ev >= -1e-10, ev


def _probe_grams(co: CoendAlgebra) -> tuple:
    """Vacuum columns V (column i is eᵢΩ), the vacuum Gram V*GV and the
    normalized Hilbert–Schmidt Gram Tr(Qᵢ*Qₖ)/dim of the GNS-conjugated
    acting matrices Qᵢ = S·act(eᵢ)·S⁻¹ of the graded basis."""
    co._guard(co.support, co.support)
    n = co.total_dim
    V = co._action.vac[:n].T
    Q = co._conj[:n].reshape(n, -1)
    # a block of rows at a time, on and right of the diagonal, mirrored below
    gram_op = np.empty((n, n), dtype=complex)
    for r in range(0, n, _ROW_BLOCK):
        rows, below = slice(r, r + _ROW_BLOCK), r + _ROW_BLOCK
        gram_op[rows, r:] = np.conj(Q[rows]) @ Q[r:].T
        gram_op[below:, rows] = gram_op[rows, below:].conj().T
    return V, V.conj().T @ co.gram() @ V, gram_op / n


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
    # every sample spans S, so T*T multiplies the grades X̄ by the grades X
    co._guard(tuple(co.cat.ring.dual[X] for X in co.support), co.support)
    J = co._action.J[:, :co.total_dim]
    for _ in range(trials):
        t = co.flatten(co.random_element(rng))
        E = co._expect_product(J @ np.conj(t), t)
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
# expectation descent
# ---------------------------------------------------------------------------

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
