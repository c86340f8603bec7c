"""Graded realization |𝔸×𝔹| of a pair of algebra objects and its module ℰ.

𝔸 lives over the opposite category, 𝔹 over the category itself; the graded
piece at X is 𝔸(X)⊗𝔹(X) in the lexicographic product basis.  Elements act on
the truncated ℓ²-module ℰ_S = ⊕_{X∈S} 𝔸(X)⊗𝔹(X) through the triangle action

    ξ₀ ▹ ξ₁ = Σ_v 𝒟(v)(𝒟²(ξ₀ ⊙ ξ₁)),

the canonical expectation is the vacuum matrix coefficient 𝔼(T) = ⟨TΩ, Ω⟩,
and a crossed product A ⋊ 𝒟 is a :class:`CoendAlgebra` with 𝔸 an action on A.

Operators and module vectors are one class, :class:`GradedElement`, with
one coefficient vector per grade, and they share one index space: the
grades of S where both objects have a fiber, in label order.  Restricted to
S the coend stays a *-algebra only when S holds the unit and is closed under
duals and under the fusion channels where both objects have a fiber, so the
constructor checks that rule once
(:meth:`FusionRing.missing`) and raises :class:`SupportTooSmall` naming the
labels S lacks, or :class:`UnknownLabel` on a label of S the ring lacks;
products, stars and acting matrices then never leave S.
On first use the instance builds, and keeps:

- the action tensor M of shape (n, n, n), n = dim ℰ_S: M[i] is the matrix
  on ℰ_S of basis element i, the channel tensors
  Σ_v μ_𝔸(X₀,X₁,X₂,v) ⊗ μ_𝔹(X₀,X₁,X₂,v) of every X₀⊗X₁ → X₂ placed in one
  array;
- the star matrix J (eᵢ* = Σ_a J[a,i] e_a, blocks 𝔸.star[X] ⊗ 𝔹.star[X])
  and the vacuum columns M·Ω;
- on the first norm, the GNS conjugate Q = S·M·S⁻¹ with S = G^{1/2},
  computed per grade block since the Gram G is block diagonal by grade;
- on the first norm sandwich, a contiguous copy of Q's unit block: the
  ground 𝔸(1)⊗𝔹(1) in its GNS representation, which is faithful.

A product, an acting matrix, a star and the canonical expectation are one
or two contractions with these arrays, and an operator norm is the largest
singular value of one contraction with Q; so is the C*-norm of a ground
element, through the unit block.  The GNS form of w∘𝔼, for a
functional w on 𝔸(1)⊗𝔹(1), is the :func:`gns.form` of the unit channel of M
under J: with w = w_𝔸 ⊗ w_𝔹 the canonical ground traces it is the module
Gram, whose :class:`gns.GramRoot` gives S; with w = w_𝔸 ⊗ ω it is the
faithfulness kernel of the descended expectation E_ω.  A component at a
label outside S raises :class:`SupportOverflow`, at a label the ring lacks
:class:`UnknownLabel`.
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

    M: np.ndarray       # (n, n, n): M[i] is the matrix on ℰ_S of eᵢ
    J: np.ndarray       # (n, n): eᵢ* = Σ_a J[a,i] e_a
    vac: np.ndarray     # (n, n): row i is eᵢΩ
    blocks: list        # (operator, row, column) slices of each channel block


# operators per matrix product when Q and the Hilbert–Schmidt Gram are built,
# which bounds their temporaries
_ROW_BLOCK = 8


class CoendAlgebra:
    """|𝔸×𝔹| over a common category, on a fusion-closed support S."""

    def __init__(self, A: AlgebraObject, B: AlgebraObject, S=None):
        if A.cat is not B.cat and A.cat.ring.labels != B.cat.ring.labels:
            raise LabelMismatch("left and right objects live over different rings")
        if A.side != "op" or B.side != "cat":
            raise LabelMismatch(
                f"expected sides (op, cat), got ({A.side}, {B.side})")
        self.A, self.B = A, B
        self.cat = B.cat
        ring = self.cat.ring
        # grading only sees labels where both objects have a fiber
        grades = tuple(X for X in ring.labels if A.n(X) > 0 and B.n(X) > 0)
        keep = set(ring.labels if S is None else S)
        unknown = sorted(keep - ring.index.keys())
        if unknown:
            raise UnknownLabel(unknown[0])
        self.support = tuple(X for X in grades if X in keep)
        missing = ring.missing(self.support, within=grades)
        if missing:
            raise SupportTooSmall(missing)
        self.dims, self.offsets = {}, {}
        off = 0
        for X in self.support:
            self.dims[X] = A.n(X) * B.n(X)
            self.offsets[X] = slice(off, off + self.dims[X])
            off += self.dims[X]
        self.total_dim = off

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
        """Every channel block of M, read-only."""
        A, B, ring = self.A, self.B, self.cat.ring
        n = self.total_dim
        M = np.zeros((n, n, n), dtype=complex)
        J = np.zeros((n, n), dtype=complex)
        blocks = []
        for X0, sl0 in self.offsets.items():
            J[self.offsets[ring.dual[X0]], sl0] = np.einsum(
                "ij,kl->ikjl", A.star[X0], B.star[X0]).reshape(sl0.stop - sl0.start, -1)
            for X1, sl1 in self.offsets.items():
                for X2, _ in ring.channels(X0, X1):
                    if X2 not in self.offsets:  # one side has no fiber at X2
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
        return _Action(M, J, vac, blocks)

    def _slice(self, X: str) -> slice:
        """The coefficients of grade X; a label outside the support raises."""
        sl = self.offsets.get(X)
        if sl is None:
            if X not in self.cat.ring.index:
                raise UnknownLabel(X)
            raise SupportOverflow(f"component {X} outside the support")
        return sl

    def _split(self, v: np.ndarray) -> GradedElement:
        """The graded element with coefficients v."""
        starts = [sl.start for sl in self.offsets.values()]
        nonzero = np.logical_or.reduceat(v != 0, starts)
        return GradedElement({X: v[sl] for (X, sl), keep
                              in zip(self.offsets.items(), nonzero) if keep})

    def _combine(self, T: GradedElement, stack: np.ndarray) -> np.ndarray:
        """Σᵢ Tᵢ·stack[i], read only on the grades of T."""
        out = np.zeros(stack[0].size, dtype=complex)
        for X, v in T.comps.items():
            out += v @ stack[self._slice(X)].reshape(len(v), -1)
        return out.reshape(stack.shape[1:])

    # -- products, star, acting matrices --------------------------------------

    def mul(self, T: GradedElement, U: GradedElement) -> GradedElement:
        """T·U, which is also the triangle action T ▹ U of T on the module
        vector U."""
        return self._split(self._combine(T, self._action.M) @ self.flatten(U))

    def star(self, T: GradedElement) -> GradedElement:
        J = self._action.J
        out = np.zeros(self.total_dim, dtype=complex)
        for X, v in T.comps.items():
            out += J[:, self._slice(X)] @ np.conj(v)
        return self._split(out)

    def act_matrix(self, T: GradedElement) -> np.ndarray:
        """The matrix of T on ℰ_S, the triangle action T ▹ ·."""
        return self._combine(T, self._action.M)

    # -- inner product on ℰ_S -------------------------------------------------

    def _form(self, w) -> np.ndarray:
        """GNS form of w∘𝔼 on the graded basis, for w on 𝔸(1)⊗𝔹(1).

        w(eᵢ*eₖ) reads only the unit channel of M under the star matrix J;
        star maps grade X to X̄ and X̄⊗Y hits 1 only for Y = X, so the form
        is block diagonal in the grading.
        """
        a, u = self._action, self.offsets[self.cat.ring.unit]
        return form(a.M[:, u].transpose(1, 0, 2), a.J, w)

    def gram(self) -> np.ndarray:
        """GNS form of φ = (tr⊗tr)∘𝔼 on the graded basis: G[i,j] = φ(eᵢ*eⱼ);
        adjointness of the action under the GNS conjugation is automatic for
        this inner product."""
        return self._gram

    @cached_property
    def _gram(self) -> np.ndarray:
        # φ(T) = (w_𝔸 ⊗ w_𝔹)·𝔼(T) with w the canonical ground traces
        return self._form(np.kron(self.A.ground().weights,
                                  self.B.ground().weights))

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

    @cached_property
    def _conj_unit(self) -> np.ndarray:
        """Q's unit block, shape (n₁, n₁·n₁) and contiguous: row i is
        Q[i] on the unit grade, for i in the unit grade."""
        u = self.offsets[self.cat.ring.unit]
        Qu = np.ascontiguousarray(self._conj[u, u, u]).reshape(u.stop - u.start, -1)
        Qu.flags.writeable = False
        return Qu

    def flatten(self, xi: GradedElement) -> np.ndarray:
        out = np.zeros(self.total_dim, dtype=complex)
        for X, v in xi.comps.items():
            out[self._slice(X)] = v
        return out

    def op_norm(self, T: GradedElement) -> float:
        return spectral_norm(self._combine(T, self._conj))

    # -- canonical expectation --------------------------------------------------

    def canonical_expectation(self, T: GradedElement) -> np.ndarray:
        """𝔼(T) = ⟨TΩ, Ω⟩: the vacuum-graded component of TΩ ∈ 𝔸(1)⊗𝔹(1)."""
        return self._combine(T, self._action.vac[:, self.offsets[self.cat.ring.unit]])

    def _expect_product(self, s: np.ndarray, t: np.ndarray, rows=slice(None),
                        cols=slice(None)) -> np.ndarray:
        """𝔼(S·T) for S with coefficients s on the basis slice ``rows`` and
        T with coefficients t on the basis slice ``cols``: only the unit
        grade of S·T reaches the vacuum."""
        a, u = self._action, self.offsets[self.cat.ring.unit]
        return (s @ (a.M[rows, u, cols] @ t)) @ a.vac[u, u]


# ---------------------------------------------------------------------------
# theorem-level checks
# ---------------------------------------------------------------------------

def norm_sandwich_check(co: CoendAlgebra, T: GradedElement) -> dict:
    """‖TΩ‖ ≤ ‖T‖ ≤ d_X²‖TΩ‖ for homogeneous T of grade X, up to
    ``SANDWICH_SLACK``·max(1, ‖T‖).

    ‖TΩ‖ is the Hilbert-module norm ‖𝔼(T*T)‖^{1/2}, with the C*-norm of the
    ground algebra 𝔸(1)⊗𝔹(1) on the inside, and ‖T‖ the operator norm in
    the GNS representation of the canonical state.  Both are read off the
    one GNS conjugate Q: the ground acts on ℰ_S block diagonally by grade
    and faithfully on its own block, so the C*-norm of 𝔼(T*T) is the norm
    of its unit block in Q.  The support is fusion-closed, so the
    truncation is a genuine submodule and both inequalities hold exactly;
    the scalar vacuum norm φ(T*T)^{1/2} is reported alongside.
    """
    grades = list(T.comps)
    if len(grades) != 1:
        raise LabelMismatch(f"T must be homogeneous, has grades {grades}")
    X = grades[0]
    Xb, d = co.cat.ring.dual[X], co.cat.d(X)
    t = co.flatten(T)[co.offsets[X]]
    a, rows, cols = co._action, co.offsets[Xb], co.offsets[X]
    # T* has the coefficients J·conj(t) on the grade X̄
    ete = co._expect_product(a.J[rows, cols] @ np.conj(t), t, rows, cols)
    ground = (ete @ co._conj_unit).reshape(len(ete), len(ete))
    vac_norm = float(np.sqrt(max(spectral_norm(ground), 0.0)))
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
    n = co.total_dim
    V = co._action.vac.T
    Q = co._conj.reshape(n, -1)
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
    J = co._action.J
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
    GNS form, or None when nothing was dropped.  The descent needs 𝔸(1) to
    have trivial centre: the null space of z ↦ (z·eᵢ − eᵢ·z)ᵢ on its
    structure tensor, cut by :func:`gns.rank_cut`, must be the line of the
    unit, or :class:`CenterNotTrivial` is raised; `center_dim` and
    `center_cut_gap` report that cut.
    """
    ground = co.B.ground()
    omega, _ = ground.check_state(omega)
    cut = rank_cut(form(ground.P, ground.star_mat, omega))
    P = co.A.ground().P  # e_x·e_y = Σ_z P[z, x, y] e_z
    C = (P.swapaxes(1, 2) - P).reshape(-1, P.shape[2])  # z ↦ (z·eᵢ − eᵢ·z)ᵢ
    center = rank_cut(C.conj().T @ C)
    center_dim = P.shape[2] - center.rank
    if center_dim != 1:
        raise CenterNotTrivial(
            f"expectation descent needs 𝔸(1) with trivial center; its "
            f"center has dimension {center_dim}")

    nA1, nB1 = co.A.n(co.cat.ring.unit), co.B.n(co.cat.ring.unit)

    def E_omega(T: GradedElement) -> np.ndarray:
        m = co.canonical_expectation(T).reshape(nA1, nB1)
        return m @ omega

    # faithfulness of E_ω through the Gram kernel on the graded basis:
    # K[i,j] = tr_A(E_ω(eᵢ*eⱼ)) is PSD and degenerate iff E_ω has a kernel
    kernel = rank_cut(co._form(np.kron(co.A.ground().weights, omega)))
    report = {"omega_faithful": cut.gap is None,
              "E_omega_faithful": kernel.gap is None,
              "gns_rank": cut.rank, "gns_cut_gap": cut.gap,
              "center_dim": center_dim, "center_cut_gap": center.gap}
    return E_omega, report
